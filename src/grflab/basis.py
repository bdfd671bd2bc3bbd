"""Closed-form basis functions with exact partial derivatives.

Three families are supported (plus scalar rescaling): monomials, harmonics
``amplitude * cos(<freq, x> + phase)`` and radial bumps

    amplitude * exp(1 - 1/(1 - |(x - c)/rho|^2))      inside |x - c| < rho,
    0                                                 outside,

normalized to peak value ``|amplitude|`` at the center.  All evaluations
and derivative evaluations are pure closed forms, so downstream covariance
and jet computations are analytic rather than numeric.

Bump derivatives use the rational-prefactor recurrence: writing
``z = (x - c)/rho`` and ``s = |z|^2``, every mixed partial of order ``d``
has the exact form

    P(z) * exp(1 - 1/(1 - s)) / ((1 - s)**(2 d) * rho**d)

where ``P`` is a polynomial with integer coefficients obtained by the
per-axis step ``P -> dP/dz_i * (1-s)^2 + 2 e z_i P (1-s) - 2 z_i P`` (with
``e`` the accumulated denominator exponent).  The recurrence is expanded
symbolically at first use and cached up to total order 4; higher orders
raise :class:`OrderUnsupportedError` rather than silently truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import OrderUnsupportedError
from .multiindex import MultiIndex, order as mi_order, validate as mi_validate

BUMP_MAX_DERIV_ORDER = 4

_DEFAULT_RESOLUTION_1D = 256
_DEFAULT_RESOLUTION_ND = 64


# ---------------------------------------------------------------------------
# boxes and grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Compact axis-aligned box with a fixed evaluation grid.

    ``resolution[i]`` counts subdivisions of axis ``i``; the grid has
    ``resolution[i] + 1`` points per axis including both endpoints.  The box
    only scopes seminorms and grids; functions stay defined everywhere.
    """

    lower: tuple
    upper: tuple
    resolution: tuple

    def __post_init__(self):
        if not (len(self.lower) == len(self.upper) == len(self.resolution)):
            raise ValueError("lower/upper/resolution must share length")
        if any(u <= l for l, u in zip(self.lower, self.upper)):
            raise ValueError("box needs lower < upper on every axis")
        if any(r < 1 for r in self.resolution):
            raise ValueError("grid resolution must be >= 1 per axis")

    @property
    def m(self) -> int:
        return len(self.lower)

    @property
    def n_grid_points(self) -> int:
        return int(np.prod([r + 1 for r in self.resolution]))

    def axis_points(self, i: int) -> np.ndarray:
        return np.linspace(self.lower[i], self.upper[i], self.resolution[i] + 1)

    def width(self, i: int = 0) -> float:
        return float(self.upper[i] - self.lower[i])


def box(lower, upper, resolution=None) -> Box:
    """Build a :class:`Box`, accepting scalars for the 1-D case.

    Default resolution is 256 per axis in one dimension, 64 otherwise.
    """
    lo = tuple(float(x) for x in np.atleast_1d(lower))
    up = tuple(float(x) for x in np.atleast_1d(upper))
    m = len(lo)
    if resolution is None:
        resolution = _DEFAULT_RESOLUTION_1D if m == 1 else _DEFAULT_RESOLUTION_ND
    if np.isscalar(resolution):
        res = (int(resolution),) * m
    else:
        res = tuple(int(r) for r in resolution)
    return Box(lo, up, res)


def unit_interval(resolution: int = _DEFAULT_RESOLUTION_1D) -> Box:
    return box(0.0, 1.0, resolution)


@lru_cache(maxsize=128)
def grid_points(b: Box) -> np.ndarray:
    """All grid points of ``b`` as a read-only (G, m) array, row-major over axes."""
    axes = [b.axis_points(i) for i in range(b.m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    pts.setflags(write=False)
    return pts


# ---------------------------------------------------------------------------
# basis functions
# ---------------------------------------------------------------------------

def _as_points(p, m: int) -> tuple[np.ndarray, bool]:
    a = np.asarray(p, dtype=np.float64)
    if a.ndim == 0:
        if m != 1:
            raise ValueError(f"scalar point given for dimension {m}")
        return a.reshape(1, 1), True
    if a.ndim == 1:
        if a.shape[0] != m:
            raise ValueError(f"point has dimension {a.shape[0]}, expected {m}")
        return a.reshape(1, m), True
    if a.shape[1] != m:
        raise ValueError(f"points have dimension {a.shape[1]}, expected {m}")
    return a, False


class BasisFunction:
    """Common interface of the closed-form families."""

    m: int
    k: int

    def eval(self, p) -> np.ndarray:
        """Value at a point (m,) -> (k,), or batch (G, m) -> (G, k)."""
        pts, single = _as_points(p, self.m)
        out = self._eval(pts)
        return out[0] if single else out

    def eval_partial(self, p, alpha) -> np.ndarray:
        """Exact mixed partial derivative, same shapes as :meth:`eval`."""
        a = mi_validate(alpha, self.m)
        pts, single = _as_points(p, self.m)
        out = self._eval_partial(pts, a)
        return out[0] if single else out

    def support_box(self):
        """(lower, upper) tuple bounding the support, or None if unbounded."""
        return None

    # subclass hooks, batch shapes only
    def _eval(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _eval_partial(self, pts: np.ndarray, alpha: MultiIndex) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Monomial(BasisFunction):
    """amplitude * x^exponents (componentwise product over axes)."""

    exponents: tuple
    amplitude: tuple

    def __post_init__(self):
        mi_validate(self.exponents, len(self.exponents))

    @property
    def m(self) -> int:
        return len(self.exponents)

    @property
    def k(self) -> int:
        return len(self.amplitude)

    def _eval(self, pts):
        mono = np.ones(pts.shape[0])
        for i, e in enumerate(self.exponents):
            if e:
                mono = mono * pts[:, i] ** e
        return np.outer(mono, np.asarray(self.amplitude, dtype=np.float64))

    def _eval_partial(self, pts, alpha):
        coeff = 1.0
        mono = np.ones(pts.shape[0])
        for i, (e, a) in enumerate(zip(self.exponents, alpha)):
            if a > e:
                return np.zeros((pts.shape[0], self.k))
            coeff *= math.perm(e, a)
            if e - a:
                mono = mono * pts[:, i] ** (e - a)
        return np.outer(coeff * mono, np.asarray(self.amplitude, dtype=np.float64))


@dataclass(frozen=True)
class Harmonic(BasisFunction):
    """amplitude * cos(<frequency, x> + phase); frequency in radians per unit."""

    frequency: tuple
    phase: float
    amplitude: tuple

    @property
    def m(self) -> int:
        return len(self.frequency)

    @property
    def k(self) -> int:
        return len(self.amplitude)

    def _phase_values(self, pts, shift: int) -> np.ndarray:
        theta = pts @ np.asarray(self.frequency, dtype=np.float64) + self.phase
        shift %= 4
        if shift == 0:
            return np.cos(theta)
        if shift == 1:
            return -np.sin(theta)
        if shift == 2:
            return -np.cos(theta)
        return np.sin(theta)

    def _eval(self, pts):
        return np.outer(self._phase_values(pts, 0),
                        np.asarray(self.amplitude, dtype=np.float64))

    def _eval_partial(self, pts, alpha):
        coeff = 1.0
        for w, a in zip(self.frequency, alpha):
            coeff *= w ** a
        vals = coeff * self._phase_values(pts, mi_order(alpha))
        return np.outer(vals, np.asarray(self.amplitude, dtype=np.float64))


# -- bump polynomial recurrence ---------------------------------------------

def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def _poly_diff(a: dict, i: int) -> dict:
    out: dict = {}
    for e, c in a.items():
        if e[i]:
            e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[e2] = out.get(e2, 0) + c * e[i]
    return out


def _poly_mul_axis(a: dict, i: int, scale: int) -> dict:
    out: dict = {}
    for e, c in a.items():
        e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
        out[e2] = scale * c
    return out


@lru_cache(maxsize=None)
def _bump_prefactor_poly(m: int, alpha: MultiIndex) -> tuple:
    """Integer polynomial P with d^alpha bump = P(z) G(s) / (1-s)^(2|alpha|)."""
    one = (0,) * m
    poly = {one: 1}
    one_minus_s = {one: 1}
    for j in range(m):
        sq = one[:j] + (2,) + one[j + 1:]
        one_minus_s[sq] = -1
    oms_sq = _poly_mul(one_minus_s, one_minus_s)
    e = 0
    for axis in range(m):
        for _ in range(alpha[axis]):
            term1 = _poly_mul(_poly_diff(poly, axis), oms_sq)
            term2 = _poly_mul(_poly_mul_axis(poly, axis, 2 * e), one_minus_s)
            term3 = _poly_mul_axis(poly, axis, -2)
            poly = _poly_add(_poly_add(term1, term2), term3)
            e += 2
    return tuple(sorted(poly.items()))


def _poly_eval(poly: tuple, z: np.ndarray) -> np.ndarray:
    out = np.zeros(z.shape[0])
    for exps, coeff in poly:
        term = np.full(z.shape[0], float(coeff))
        for i, e in enumerate(exps):
            if e:
                term = term * z[:, i] ** e
        out += term
    return out


@dataclass(frozen=True)
class Bump(BasisFunction):
    """Radial bump supported on the open ball of ``radius`` around ``center``.

    Identically zero (with all derivatives) outside the ball; peak value
    equals the amplitude at the center.
    """

    center: tuple
    radius: float
    amplitude: tuple

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("bump radius must be positive")

    @property
    def m(self) -> int:
        return len(self.center)

    @property
    def k(self) -> int:
        return len(self.amplitude)

    def support_box(self):
        lo = tuple(c - self.radius for c in self.center)
        up = tuple(c + self.radius for c in self.center)
        return lo, up

    def _z_s(self, pts):
        z = (pts - np.asarray(self.center, dtype=np.float64)) / self.radius
        return z, np.sum(z * z, axis=1)

    def _eval(self, pts):
        z, s = self._z_s(pts)
        vals = np.zeros(pts.shape[0])
        inside = s < 1.0
        if inside.any():
            vals[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside]))
        return np.outer(vals, np.asarray(self.amplitude, dtype=np.float64))

    def _eval_partial(self, pts, alpha):
        d = mi_order(alpha)
        if d == 0:
            return self._eval(pts)
        if d > BUMP_MAX_DERIV_ORDER:
            raise OrderUnsupportedError(
                f"bump derivatives implemented up to total order "
                f"{BUMP_MAX_DERIV_ORDER}, requested {d}")
        z, s = self._z_s(pts)
        vals = np.zeros(pts.shape[0])
        inside = s < 1.0
        if inside.any():
            zi = z[inside]
            si = s[inside]
            one_minus = 1.0 - si
            poly = _bump_prefactor_poly(self.m, tuple(alpha))
            vals[inside] = (_poly_eval(poly, zi)
                            * np.exp(1.0 - 1.0 / one_minus)
                            / one_minus ** (2 * d)
                            / self.radius ** d)
        return np.outer(vals, np.asarray(self.amplitude, dtype=np.float64))


@dataclass(frozen=True)
class Scaled(BasisFunction):
    """factor * inner, exact at every derivative order."""

    inner: BasisFunction
    factor: float

    @property
    def m(self) -> int:
        return self.inner.m

    @property
    def k(self) -> int:
        return self.inner.k

    def support_box(self):
        return self.inner.support_box()

    def _eval(self, pts):
        return self.factor * self.inner._eval(pts)

    def _eval_partial(self, pts, alpha):
        return self.factor * self.inner._eval_partial(pts, alpha)


# ---------------------------------------------------------------------------
# finite-difference validation oracle
# ---------------------------------------------------------------------------

def _shifted(p: np.ndarray, i: int, delta: float) -> np.ndarray:
    q = p.copy()
    q[i] += delta
    return q


def _central_difference(f: BasisFunction, p: np.ndarray, alpha: MultiIndex,
                        h: float) -> np.ndarray:
    # five-point fourth-order central first difference, iterated per axis;
    # the second-order stencil cannot resolve order-4 derivatives of the
    # bump to 1e-4 anywhere near the zeros of its fourth derivative
    if mi_order(alpha) == 0:
        return f.eval(p)
    i = next(ax for ax, a in enumerate(alpha) if a > 0)
    reduced = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
    return (_central_difference(f, _shifted(p, i, -2 * h), reduced, h)
            - 8.0 * _central_difference(f, _shifted(p, i, -h), reduced, h)
            + 8.0 * _central_difference(f, _shifted(p, i, h), reduced, h)
            - _central_difference(f, _shifted(p, i, 2 * h), reduced, h)) / (12.0 * h)


def fd_check(f: BasisFunction, p, alpha, h: float) -> float:
    """Relative gap between the exact partial and a central finite difference.

    Returns ``max_j |exact_j - fd_j| / (1 + |exact_j|)``.  Test-only oracle;
    pick ``h`` per order (truncation shrinks with h, roundoff grows).
    """
    a = mi_validate(alpha, f.m)
    pt = np.atleast_1d(np.asarray(p, dtype=np.float64)).copy()
    exact = f.eval_partial(pt, a)
    approx = _central_difference(f, pt, a, h)
    return float(np.max(np.abs(exact - approx) / (1.0 + np.abs(exact))))
