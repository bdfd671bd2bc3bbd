"""Finite Karhunen-Loeve Gaussian fields.

A field is a finite expansion ``X = sum_n sigma_n xi_n f_n`` with
independent standard normals ``xi_n`` and closed-form basis functions
``f_n``.  The truncation is itself a legitimate Gaussian field, so all
covariance and support identities below hold exactly for it, not just in
the limit.

Sampling is reproducible: coefficient draws come from a named
:class:`~grflab.rng.RandomStream`, and Monte Carlo code derives one stream
per sample index, so identical ``(seed, index)`` always yields the
bit-identical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .basis import BasisFunction, Box, Bump, Scaled, bump_partial, grid_points
from .linalg import solve_psd_pinv
from .multiindex import MultiIndex, multi_indices, validate as mi_validate
from .rng import RandomStream, normal_matrix

# switch to sparse, support-windowed design matrices above this many entries
_DENSE_DESIGN_LIMIT = 4_000_000


@dataclass(frozen=True)
class KLField:
    """Ordered finite expansion basis with per-term standard deviations."""

    basis: tuple
    sigmas: tuple
    m: int
    k: int

    def __post_init__(self):
        if len(self.basis) != len(self.sigmas):
            raise ValueError("need one sigma per basis function")
        if any(s <= 0 for s in self.sigmas):
            raise ValueError("sigmas must be positive")
        for f in self.basis:
            if (f.m, f.k) != (self.m, self.k):
                raise ValueError("all basis functions must share (m, k)")
        # cache keys hash the field on every lookup; hash the terms only once
        object.__setattr__(self, "_hash", hash((self.basis, self.sigmas, self.m, self.k)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def sigma_array(self) -> np.ndarray:
        return np.asarray(self.sigmas, dtype=np.float64)


def kl_field(basis: Sequence[BasisFunction], sigmas=None, m=None, k=None) -> KLField:
    """Build a :class:`KLField`; sigmas default to 1, (m, k) inferred.

    ``m`` and ``k`` are only required for the empty expansion.
    """
    fs = tuple(basis)
    if sigmas is None:
        sigmas = (1.0,) * len(fs)
    if fs:
        m = fs[0].m if m is None else m
        k = fs[0].k if k is None else k
    elif m is None or k is None:
        raise ValueError("empty field needs explicit m and k")
    return KLField(fs, tuple(float(s) for s in sigmas), int(m), int(k))


@dataclass
class SamplePath:
    """One realization: the deterministic function ``sum_n coeffs_n f_n``."""

    field: KLField
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.shape != (self.field.size,):
            raise ValueError("coefficient vector length must match the basis")


def sample(field: KLField, rng: RandomStream) -> SamplePath:
    """Draw one path; coefficient n is ``sigma_n`` times a standard normal."""
    return SamplePath(field, field.sigma_array * rng.normals(field.size))


def sample_batch_coeffs(field: KLField, seed: int, indices) -> np.ndarray:
    """Coefficient rows for the sample indices, one derived stream each."""
    z = normal_matrix(seed, indices, field.size)
    return z * field.sigma_array[None, :]


def eval_sample(path: SamplePath, p, alpha=None) -> np.ndarray:
    """Exact value of ``d^alpha path`` at a point (or batch of points)."""
    field = path.field
    a = (0,) * field.m if alpha is None else mi_validate(alpha, field.m)
    single = np.asarray(p, dtype=np.float64).ndim <= 1
    pts = np.atleast_2d(np.asarray(p, dtype=np.float64))
    out = np.zeros((pts.shape[0], field.k))
    for c, f in zip(path.coeffs, field.basis):
        out += c * f.eval_partial(pts, a)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# design matrices: basis values on a grid, one row per basis function
# ---------------------------------------------------------------------------

def design_at_points(field: KLField, pts: np.ndarray, alpha: MultiIndex) -> np.ndarray:
    """Dense (N, G*k) matrix of d^alpha f_n at the given points.

    Column layout is point-major: column ``g*k + j`` is component ``j`` at
    point ``g``, matching ``values.reshape(G, k)`` for one path.
    """
    n_pts = pts.shape[0]
    out = np.empty((field.size, n_pts * field.k))
    for row, f in enumerate(field.basis):
        out[row] = f.eval_partial(pts, alpha).ravel()
    return out


def jet_design(field: KLField, pts: np.ndarray, r: int) -> np.ndarray:
    """Order-r jets of every basis function at every point: (N, G, k*P).

    ``P = C(m+r, r)``; the last axis is ordered output-component-major,
    then graded-lex in alpha, like :class:`grflab.jet.Jet` values.  One
    :func:`design_at_points` call per multi-index, no per-point loop.
    """
    n_pts = pts.shape[0]
    alphas = multi_indices(field.m, r)
    per_alpha = [design_at_points(field, pts, a).reshape(field.size, n_pts, field.k)
                 for a in alphas]
    return np.stack(per_alpha, axis=-1).reshape(field.size, n_pts, field.k * len(alphas))


def _unscaled(f: BasisFunction) -> tuple[BasisFunction, tuple]:
    """The function under any ``Scaled`` wrappers and their factors, innermost first."""
    factors = ()
    while isinstance(f, Scaled):
        factors = (f.factor,) + factors
        f = f.inner
    return f, factors


def _windowed_sparse_design(field: KLField, b: Box, alpha: MultiIndex):
    # m == 1, k == 1, every row a (scaled) bump: evaluate each row only on
    # the grid points inside its support window, all rows in one call
    alpha = mi_validate(alpha, 1)
    axis = b.axis_points(0)
    bumps, factors = zip(*map(_unscaled, field.basis))
    centers = np.array([f.center[0] for f in bumps], dtype=np.float64)
    radii = np.array([f.radius for f in bumps], dtype=np.float64)
    i0 = np.searchsorted(axis, centers - radii, side="left")
    counts = np.searchsorted(axis, centers + radii, side="right") - i0
    rows = np.repeat(np.arange(field.size), counts)
    starts = np.cumsum(counts) - counts
    cols = np.arange(rows.size) - np.repeat(starts - i0, counts)
    vals = bump_partial(axis[cols, None], centers[rows, None], radii[rows], alpha)
    # amplitude, then wrapper factors innermost first, one product at a time
    # as Bump and Scaled evaluate them; padding with 1.0 is exact
    chains = [(f.amplitude[0], *fac) for f, fac in zip(bumps, factors)]
    for level in range(max(map(len, chains))):
        vals *= np.array([c[level] if level < len(c) else 1.0 for c in chains])[rows]
    nz = vals != 0.0
    return sp.csr_matrix((vals[nz], (rows[nz], cols[nz])), shape=(field.size, axis.shape[0]))


@lru_cache(maxsize=64)
def box_design(field: KLField, b: Box, alpha: MultiIndex):
    """Design matrix on the box grid; sparse when dense would be oversized.

    The result is cached and shared, so its arrays are read-only.
    """
    if b.m != field.m:
        raise ValueError("box dimension does not match the field")
    n_entries = field.size * b.n_grid_points * field.k
    if n_entries > _DENSE_DESIGN_LIMIT:
        if field.m == 1 and field.k == 1 and all(
                isinstance(_unscaled(f)[0], Bump) for f in field.basis):
            design = _windowed_sparse_design(field, b, alpha)
            for arr in (design.data, design.indices, design.indptr):
                arr.setflags(write=False)
            return design
        raise MemoryError(
            f"dense design of {n_entries} entries exceeds the supported size")
    design = design_at_points(field, grid_points(b), alpha)
    design.setflags(write=False)
    return design


def apply_design(coeffs: np.ndarray, design) -> np.ndarray:
    """Path values on the grid for a batch of coefficient rows: (S, G*k)."""
    if sp.issparse(design):
        return design.T.dot(coeffs.T).T
    return coeffs @ design


def path_grid_values(path: SamplePath, b: Box, alpha: MultiIndex) -> np.ndarray:
    vals = apply_design(path.coeffs.reshape(1, -1), box_design(path.field, b, alpha))
    return vals[0]


def sample_seminorm(path: SamplePath, b: Box, r: int) -> float:
    """Grid sup of all partials of order <= r, all components.

    A lower bound for the true sup over the box, exact when the extrema lie
    on grid points.
    """
    if path.field.size == 0:
        return 0.0
    best = 0.0
    for a in multi_indices(path.field.m, r):
        vals = path_grid_values(path, b, a)
        if vals.size:
            best = max(best, float(np.max(np.abs(vals))))
    return best


def batch_seminorms(field: KLField, coeffs: np.ndarray, b: Box, r: int) -> np.ndarray:
    """sample_seminorm of every coefficient row, computed batched."""
    n_rows = coeffs.shape[0]
    best = np.zeros(n_rows)
    if field.size == 0:
        return best
    for a in multi_indices(field.m, r):
        vals = apply_design(coeffs, box_design(field, b, a))
        # vals is a fresh array: take |vals| in place, not in a chunk-sized temporary
        np.maximum(best, np.max(np.abs(vals, out=vals), axis=1), out=best)
    return best


# ---------------------------------------------------------------------------
# Cameron-Martin / support structure
# ---------------------------------------------------------------------------

@dataclass
class SupportBasisFunction:
    """The function ``q -> column j of K(q, p)`` for a fixed source point.

    It equals ``sum_n sigma_n^2 f_n^j(p) f_n`` and therefore lies exactly in
    the span of the expansion basis.
    """

    field: KLField
    point: tuple
    component: int
    coeffs: np.ndarray

    def as_sample_path(self) -> SamplePath:
        return SamplePath(self.field, self.coeffs)

    def eval(self, q) -> np.ndarray:
        return eval_sample(self.as_sample_path(), q)


def support_basis(field: KLField, p, j: int) -> SupportBasisFunction:
    """Support basis function at source point ``p``, output component ``j``.

    ``j`` is 0-based; coefficients are ``sigma_n^2 f_n^j(p)``.
    """
    if not 0 <= j < field.k:
        raise ValueError(f"component {j} out of range for k={field.k}")
    pt = np.atleast_1d(np.asarray(p, dtype=np.float64))
    coeffs = np.array([s * s * float(f.eval(pt)[j])
                       for s, f in zip(field.sigmas, field.basis)])
    return SupportBasisFunction(field, tuple(pt), j, coeffs)


def cm_inner(field: KLField, pj, ql) -> float:
    """Reproducing inner product <h_p^j, h_q^l> = K^(j,l)(p, q).

    Both sides are computed and cross-checked to 1e-12.
    """
    (p, j), (q, l) = pj, ql
    pt = np.atleast_1d(np.asarray(p, dtype=np.float64))
    qt = np.atleast_1d(np.asarray(q, dtype=np.float64))
    if not (0 <= j < field.k and 0 <= l < field.k):
        raise ValueError("component index out of range")
    val = 0.0
    for s, f in zip(field.sigmas, field.basis):
        val += s * s * float(f.eval(pt)[j]) * float(f.eval(qt)[l])
    from .kernel import eval_kernel, kernel_of  # local import: kernel builds on field

    ref = float(eval_kernel(kernel_of(field), pt, qt)[j, l])
    if abs(val - ref) > 1e-12 * (1.0 + abs(ref)):
        raise AssertionError(
            f"inner product {val!r} disagrees with kernel entry {ref!r}")
    return val


def projection_residual(field: KLField, g, b: Box) -> float:
    """RMS residual of least-squares projection of ``g`` onto span{f_n}.

    ``g`` may be a :class:`SamplePath`, a :class:`SupportBasisFunction`, or a
    callable point -> (k,) vector.  The normal equations are solved through
    the LAPACK eigensolver with a pseudo-inverse cutoff; a Gram condition
    estimate above 1e12 raises :class:`IllConditionedError` (report, don't
    guess).
    """
    pts = grid_points(b)
    if isinstance(g, SupportBasisFunction):
        g = g.as_sample_path()
    if isinstance(g, SamplePath):
        target = eval_sample(g, pts).ravel()
    elif callable(g):
        target = np.asarray([np.atleast_1d(g(row)) for row in pts],
                            dtype=np.float64).ravel()
    else:
        raise TypeError("g must be a SamplePath, SupportBasisFunction or callable")
    if field.size == 0:
        return float(np.sqrt(np.mean(target ** 2))) if target.size else 0.0
    design = design_at_points(field, pts, (0,) * field.m)
    gram = design @ design.T
    rhs = design @ target
    coeffs = solve_psd_pinv(gram, rhs)
    resid = design.T @ coeffs - target
    return float(np.sqrt(np.mean(resid ** 2)))
