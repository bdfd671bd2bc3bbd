"""Closed-form basis functions with exact partial derivatives.

Four families are supported (plus scalar rescaling): monomials, harmonics
``amplitude * cos(<freq, x> + phase)``, radial bumps

    amplitude * exp(1 - 1/(1 - |(x - c)/rho|^2))      inside |x - c| < rho,
    0                                                 outside,

normalized to peak value ``|amplitude|`` at the center, and the r-fold
antiderivatives of 1-D bumps.  All evaluations and derivative evaluations
are closed forms or one fixed quadrature rule, so downstream covariance
and jet computations are analytic rather than numeric.

Bump derivatives come from two closed forms.  With ``z = (x - c)/rho``,
``s = |z|^2`` and the profile ``F(s) = exp(1 - u)``, ``u = 1/(1 - s)``:

* per axis, ``d^a/dz^a G(z^2) = sum_j a!/(j!(a-2j)!) (2z)^(a-2j) G^(a-j)(z^2)``;
  the axes meet only in ``s``, so a mixed partial is a sum over the
  product of the per-axis sums, ``prod_i (a_i//2 + 1)`` terms;
* ``F^(n)(s) = R_n(u) exp(1 - u)`` with ``R_0 = 1`` and
  ``R_(n+1) = u^2 (R_n' - R_n)``, integer polynomials.

A partial of order ``d`` carries ``rho**-d``.  Term lists and ``R_n`` are
built at first use and cached up to total order 4; higher orders raise
:class:`OrderUnsupportedError` rather than silently truncating.

Values come from a family table (:func:`families`): each family evaluates
all its terms, for all requested multi-indices, in one pass, and a lone
term is a one-term table, so it has the same bits alone as in a design.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
        for end in ("lower", "upper"):  # -0.0 ends are 0.0: equal boxes have equal grids
            object.__setattr__(self, end, tuple(x + 0.0 for x in getattr(self, end)))

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
        return self.eval_partial(p, (0,) * self.m)

    def eval_partial(self, p, alpha) -> np.ndarray:
        """Exact mixed partial derivative, same shapes as :meth:`eval`, from a one-term table."""
        a = mi_validate(alpha, self.m)
        pts, single = _as_points(p, self.m)
        out = np.empty((1, 1, pts.shape[0], self.k))
        evaluate(self._table, pts, (a,), out)
        return out[0, 0, 0] if single else out[0, 0]

    @cached_property
    def _table(self) -> tuple:
        # on the term: a cache keyed by equality would not tell -0.0 from +0.0
        return families((self,))


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

    @staticmethod
    def _params(fs) -> tuple:
        return ([f.exponents for f in fs],)

    @staticmethod
    def _values(pts, alphas, amplitudes, exponents) -> np.ndarray:
        left = np.array(exponents)[:, None, :] - np.array(alphas)  # (n, A, m) powers left
        mono = 1.0
        for i, p in enumerate(left.transpose(2, 0, 1)):
            # x_i ** q with a scalar q, as one term takes it; q <= 0 multiplies by an exact 1.0
            powers = np.array([np.ones(len(pts)), *(pts[:, i] ** q for q in range(1, p.max() + 1))])
            mono = mono * powers[np.maximum(p, 0)]
        coeffs = [[math.prod(map(math.perm, e, a), start=1.0) for a in alphas] for e in exponents]
        vals = _outer(np.array(coeffs)[..., None] * mono, amplitudes)
        vals[(left < 0).any(axis=2)] = 0.0  # +0.0 before any factor
        return vals


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

    @staticmethod
    def _params(fs) -> tuple:
        return [f.frequency for f in fs], np.array([f.phase for f in fs], dtype=np.float64)

    @staticmethod
    def _values(pts, alphas, amplitudes, freqs, phases) -> np.ndarray:
        # one pts @ w per term: a stacked pts @ W.T rounds 2-D phases differently
        theta = np.array([pts @ w for w in np.array(freqs, dtype=np.float64)]) + phases[:, None]
        orders = [mi_order(a) for a in alphas]
        trig = {p: (np.sin if p else np.cos)(theta) for p in {d % 2 for d in orders}}
        # d-th derivatives of cos: cos, -sin, -cos, sin; the sign folds exactly into
        # w^a, a Python float
        coeffs = [[(-1.0 if d % 4 in (1, 2) else 1.0) * math.prod(map(pow, w, a), start=1.0)
                   for a, d in zip(alphas, orders)] for w in freqs]
        return _outer(np.array(coeffs)[..., None] * np.stack([trig[d % 2] for d in orders], 1),
                      amplitudes)


# -- bump derivatives -------------------------------------------------------

@lru_cache(maxsize=None)
def _profile_poly(n: int) -> tuple:
    """Integer coefficients, lowest first, of R_n: d^n/ds^n exp(1 - u) = R_n(u) exp(1 - u)."""
    if n == 0:
        return (1,)
    r = _profile_poly(n - 1)
    # u^2 (R' - R): R' has one coefficient fewer, so R's last one is -R's
    return (0, 0, *(i * c - b for i, (b, c) in enumerate(zip(r, r[1:] + (0,)), 1)))


@lru_cache(maxsize=None)
def _bump_terms(alpha: MultiIndex) -> tuple:
    """Terms (c, p, n) with d^alpha F(|z|^2) = sum c z^p F^(n)(|z|^2), c integer."""
    # axis terms j = 0 .. a//2: a!/(j!(a-2j)!) (2z)^(a-2j) F^(a-j)
    per_axis = [[(math.comb(a - j, j) * math.perm(a, j) * 2 ** (a - 2 * j), a - 2 * j, a - j)
                 for j in range(a // 2 + 1)] for a in alpha]
    return tuple((math.prod(cs), ps, sum(ns))
                 for cs, ps, ns in (zip(*t) for t in itertools.product(*per_axis)))


def bump_partial(pts: np.ndarray, centers, radii, alphas) -> np.ndarray:
    """d^alpha of the unit-peak bump ``exp(1 - 1/(1 - |z|^2))``, ``z = (p - c)/rho``: (A, E).

    Row ``e`` of the (E, m) points is evaluated for the bump with centre
    ``centers[e]`` and radius ``radii[e]``; one (m,) centre and a scalar
    radius broadcast over every row.  Every multi-index of ``alphas`` shares
    ``z``, the profile and the powers of ``u`` and ``z``.  Zero outside the
    open ball.
    """
    orders = [mi_order(a) for a in alphas]
    if max(orders, default=0) > BUMP_MAX_DERIV_ORDER:
        raise OrderUnsupportedError(
            f"bump derivatives implemented up to total order "
            f"{BUMP_MAX_DERIV_ORDER}, requested {max(orders)}")
    radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), pts.shape[:1])
    z = (pts - centers) / radii[:, None]
    s = np.sum(z * z, axis=1)
    vals = np.zeros((len(alphas), pts.shape[0]))
    inside = s < 1.0
    if inside.any():
        u = 1.0 / (1.0 - s[inside])
        peak = np.exp(1.0 - u)
        z, radii, powers = z[inside], radii[inside], {}  # powers: R_n(u) by n, z_i^p by (i, p)
        for row, alpha, d in zip(vals, alphas, orders):
            if not d:
                row[inside] = peak
                continue
            total = np.zeros(u.size)  # +0.0, so an exact zero is not -0.0
            for c, exponents, n in _bump_terms(tuple(alpha)):
                if n not in powers:  # np.polyval's steps round as numpy.polynomial's polyval
                    powers[n] = np.polyval(_profile_poly(n)[::-1], u)
                term = c * powers[n]
                for i, p in enumerate(exponents):
                    if p:
                        if (i, p) not in powers:
                            powers[i, p] = z[:, i] ** p
                        term *= powers[i, p]
                total += term
            # float_power is libm pow, the same rounding as ``radius ** d``
            # on a Python float; ``**`` on an array is not
            row[inside] = peak * (total / np.float_power(radii, d))
    return vals


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

    @staticmethod
    def _params(fs) -> tuple:
        return (np.array([f.center for f in fs], dtype=np.float64),
                np.array([f.radius for f in fs], dtype=np.float64))

    @staticmethod
    def _values(pts, alphas, amplitudes, centers, radii) -> np.ndarray:
        n, g = radii.size, pts.shape[0]
        args = np.tile(pts, (n, 1)), np.repeat(centers, g, axis=0), np.repeat(radii, g)
        vals = bump_partial(*args, alphas).reshape(len(alphas), n, g)
        return _outer(vals.transpose(1, 0, 2), amplitudes)


# tanh-sinh rule, h = 1/32 on [-6, 6]: on [a, b] a node lies (b - a) * _TS_LEFT from a and
# (b - a) * _TS_RIGHT from b, both without cancellation, and weighs (b - a) * _TS_WEIGHTS
_TS_T = np.arange(-192, 193) / 32.0
_TS_U = 0.5 * np.pi * np.sinh(_TS_T)
_TS_LEFT, _TS_RIGHT = 1.0 / (1.0 + np.exp(-2.0 * _TS_U)), 1.0 / (1.0 + np.exp(2.0 * _TS_U))
_TS_WEIGHTS = np.pi / 128.0 * np.cosh(_TS_T) / np.cosh(_TS_U) ** 2


def _partial_moments(ends: np.ndarray, n: int) -> np.ndarray:
    """(n, E) moments F_i(b) = int_(-1)^b s^i exp(1 - 1/(1 - s^2)) ds, i < n, b in (-1, 1]."""
    width = (ends + 1.0)[:, None]
    weights = width * _TS_WEIGHTS
    arg = 1.0 - 1.0 / (width * _TS_LEFT * ((1.0 - ends)[:, None] + width * _TS_RIGHT))
    # node terms below e^-500 are dropped, so no product underflows
    terms = weights * np.exp(arg, out=np.zeros(arg.shape), where=arg + np.log(weights) > -500.0)
    s = width * _TS_LEFT - 1.0
    return np.stack([(s ** i * terms).sum(axis=1) for i in range(n)])


@dataclass(frozen=True)
class IntegratedBump(BasisFunction):
    """r-fold antiderivative of a 1-D unit-peak bump, from the left end of its support.

    With ``z = (x - c)/rho``, a partial of order ``j >= r`` is :class:`Bump`'s of order
    ``j - r``.  Below ``r``, with ``q = r - j``, it is 0 for ``z <= -1``, else ``rho^q/(q-1)!
    sum_(i<q) C(q-1, i) (-1)^i z^(q-1-i) F_i(min(z, 1))``, ``F_i`` from :func:`_partial_moments`.
    """

    center: tuple
    radius: float
    amplitude: tuple
    order: int
    m = 1

    def __post_init__(self):
        if len(self.center) != 1 or self.radius <= 0 or self.order < 1:
            raise ValueError("an integrated bump needs a 1-D center, radius > 0 and order >= 1")

    @property
    def k(self) -> int:
        return len(self.amplitude)

    @staticmethod
    def _params(fs) -> tuple:
        return (fs,)

    @staticmethod
    def _values(pts, alphas, amplitudes, fs) -> np.ndarray:
        return np.array([[f._eval_partial(pts, a) for a in alphas] for f in fs])

    def _eval_partial(self, pts, alpha):
        q = self.order - alpha[0]
        if q <= 0:
            vals = bump_partial(pts, np.asarray(self.center, dtype=np.float64), self.radius,
                                ((-q,),))[0]
        else:
            z = (pts[:, 0] - self.center[0]) / self.radius
            on = z > -1.0
            # every point right of the support has the end 1.0: its moments are formed once
            ends, where = np.unique(np.minimum(z[on], 1.0), return_inverse=True)
            moments = _partial_moments(ends, q)[:, where]
            vals = np.zeros(z.size)
            vals[on] = self.radius ** q / math.factorial(q - 1) * sum(
                math.comb(q - 1, i) * (-1) ** i * z[on] ** (q - 1 - i) * moments[i]
                for i in range(q))
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


# ---------------------------------------------------------------------------
# family tables: all terms of a family, all requested orders, in one pass
# ---------------------------------------------------------------------------

def _outer(vals: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    # each term's np.outer of values and amplitude: (n, A, G, k)
    return vals[..., None] * amplitudes[:, None, None, :]


def families(fs) -> tuple:
    """The family table of the basis ``fs``: ``(kind, rows, params, factors)`` per family.

    ``kind`` is the terms' class, ``rows`` their positions in ``fs``, ``params``
    their amplitudes and what else ``kind._values`` reads, and ``factors`` their
    :class:`Scaled` factors, one row per level, innermost first, padded with 1.0.
    """
    terms, chains = list(fs), {}  # innermost terms; Scaled factors by row, innermost first
    for i, f in enumerate(terms):
        if isinstance(f, Scaled):
            chain = ()
            while isinstance(f, Scaled):
                f, chain = f.inner, (f.factor,) + chain
            terms[i], chains[i] = f, chain
    factors = np.ones((max(map(len, chains.values()), default=0), len(terms)))
    for i, chain in chains.items():
        factors[:len(chain), i] = chain
    kinds = [type(f) for f in terms]
    table = []
    for kind in dict.fromkeys(kinds):
        rows = [i for i, t in enumerate(kinds) if t is kind]
        group = tuple(terms[i] for i in rows)
        params = (np.array([f.amplitude for f in group], dtype=np.float64), *kind._params(group))
        table.append((kind, np.array(rows), params, factors[:, rows]))
    return tuple(table)


def evaluate(table: tuple, pts: np.ndarray, alphas: tuple, out: np.ndarray) -> None:
    """Fill the (N, A, G, k) ``out`` with partial ``alphas[i]`` of term n at point g.

    ``table`` is the basis' :func:`families`; each value has a lone term's bits.
    """
    for kind, rows, params, factors in table:
        vals = kind._values(pts, alphas, *params)
        for factor in factors:
            vals *= factor[:, None, None, None]
        out[rows] = vals


# ---------------------------------------------------------------------------
# finite-difference validation oracle
# ---------------------------------------------------------------------------

def _central_difference(f: BasisFunction, p: np.ndarray, alpha: MultiIndex,
                        h: float) -> np.ndarray:
    # five-point fourth-order central first difference, iterated per axis;
    # the second-order stencil cannot resolve order-4 derivatives of the
    # bump to 1e-4 anywhere near the zeros of its fourth derivative.  All
    # 4^|alpha| stencil points are evaluated in one call, outermost shift first
    axes = [i for i, a in enumerate(alpha) for _ in range(a)]
    pts = p[None]
    for i in axes:
        pts = np.repeat(pts, 4, axis=0)
        pts[:, i] += np.tile(np.array([-2.0, -1.0, 1.0, 2.0]) * h, pts.shape[0] // 4)
    vals = f.eval(pts).reshape((4,) * len(axes) + (f.k,))
    for _ in axes:  # innermost shift first, as the nested differences take it
        vals = (vals[..., 0, :] - 8.0 * vals[..., 1, :] + 8.0 * vals[..., 2, :]
                - vals[..., 3, :]) / (12.0 * h)
    return vals


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
