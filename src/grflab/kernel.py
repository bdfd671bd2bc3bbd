"""Matrix-valued covariance kernels with exact mixed-derivative evaluation.

Two kernel families: kernels induced by a finite expansion field,

    K(p, q) = sum_n sigma_n^2 f_n(p) f_n(q)^T,

whose mixed partials are exact sums over basis derivatives, and a few
closed-form scalar kernels (``dot``, ``affine_dot``, ``exp_dot``) with
hand-derived derivative formulas.

Seminorms are sup-norms of mixed partials up to the requested order,
approximated on the box grid.  Grid values are exact, so the result is a
lower bound of the true sup that is sharp whenever the extrema lie on grid
points (the validation suites only use kernels where they do).  Seminorms
and distances are one reduction over a signed sum of kernels whose terms are
merged first, so shared terms cancel exactly.  A one-sign sum is plus or
minus a covariance, whose sup by Cauchy-Schwarz is its largest diagonal
entry; only a sum of mixed signs is scanned pair by pair.

Expansion kernels read their designs from :mod:`grflab.field`, which alone
decides whether one is sparse (bump fields); code here is written for both.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Union

import numpy as np

from .basis import Box, grid_points
from .field import (_TILE_ENTRIES, KLField, _blocks, _column_blocks, _dense, _design,
                    box_design)
from .linalg import eig_bounds
from .multiindex import MultiIndex, multi_indices, order as mi_order, validate as mi_validate

_CLOSED_FORM_TAGS = ("dot", "affine_dot", "exp_dot")


@dataclass(frozen=True)
class KLKernel:
    """Covariance kernel of a finite expansion field."""

    field: KLField

    @property
    def m(self) -> int:
        return self.field.m

    @property
    def k(self) -> int:
        return self.field.k


@dataclass(frozen=True)
class ClosedFormKernel:
    """Scalar kernel given by a closed formula of the dot product.

    Tags: ``dot`` K(s,t) = <s,t>, ``affine_dot`` K = 1 + <s,t>,
    ``exp_dot`` K = exp(<s,t>).
    """

    tag: str
    m: int = 1

    def __post_init__(self):
        if self.tag not in _CLOSED_FORM_TAGS:
            raise ValueError(f"unknown closed-form tag {self.tag!r}")

    @property
    def k(self) -> int:
        return 1


CovarianceKernel = Union[KLKernel, ClosedFormKernel]


def kernel_of(field: KLField) -> KLKernel:
    return KLKernel(field)


@dataclass(frozen=True)
class KernelSeminormSpec:
    """Box grid and derivative order for the mixed (r, r) sup seminorm."""

    box: Box
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("seminorm order must be >= 0")


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

def points_array(points, m: int) -> np.ndarray:
    """(n, m) points, or for m = 1 a flat list of n scalars; any other shape is refused."""
    pts = np.asarray(points, dtype=np.float64)
    pts = pts.reshape(-1, 1) if m == 1 and pts.ndim == 1 else pts
    if pts.ndim != 2 or pts.shape[1] != m:
        raise ValueError(f"points of shape {pts.shape} do not match dimension {m}")
    return pts


def eval_kernel(K: CovarianceKernel, p, q) -> np.ndarray:
    """K(p, q) as a (k, k) matrix."""
    zero = (0,) * K.m
    return eval_kernel_deriv(K, p, q, zero, zero)


def eval_kernel_deriv(K: CovarianceKernel, p, q, alpha, beta) -> np.ndarray:
    """Mixed partial d_alpha (in p) d_beta (in q) of K, as a (k, k) matrix."""
    return eval_kernel_deriv_pairs(K, points_array([p], K.m), points_array([q], K.m),
                                   alpha, beta)[0]


def eval_kernel_deriv_pairs(K: CovarianceKernel, X: np.ndarray, Y: np.ndarray,
                            alpha, beta) -> np.ndarray:
    """d_alpha d_beta K at the point pairs (X[i], Y[i]): shape (n, k, k)."""
    a = mi_validate(alpha, K.m)
    b = mi_validate(beta, K.m)
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or X.shape != Y.shape or X.shape[1] != K.m:
        raise ValueError(f"need two (n, {K.m}) point arrays, got {X.shape} and {Y.shape}")
    if isinstance(K, ClosedFormKernel):
        # stacked (1, m) @ (m, 1) products round like one pair's p @ q
        dot = np.matmul(X[:, None, :], Y[:, :, None])[:, 0, 0]
        return _closed_form_values(K, X, Y, dot, a, b).reshape(-1, 1, 1)
    return _pair_values(K.field, X, Y, a, b)


def _pair_values(field: KLField, X, Y, a, b) -> np.ndarray:
    """(n, k, k) d_a d_b K at the pairs (X[i], Y[i])."""
    k, w = field.k, field.sigma_array ** 2
    out = np.empty((X.shape[0], k, k))
    for rows in _blocks(X.shape[0], field.size * k * k):
        fp, fq = _design(field, X[rows], a), _design(field, Y[rows], b)
        for j, l in np.ndindex(k, k):
            # per-term products first: commutativity then makes the
            # symmetry K(p,q) = K(q,p)^T exact, not just up to rounding
            out[rows, j, l] = w @ (fp[:, j::k] * fq[:, l::k])
    return out


def _closed_form_block(K: ClosedFormKernel, X: np.ndarray, Y: np.ndarray,
                       alpha: MultiIndex, beta: MultiIndex) -> np.ndarray:
    """Closed-form derivative values on a pair grid: (len(X), len(Y))."""
    return _closed_form_values(K, X[:, None, :], Y[None, :, :], X @ Y.T, alpha, beta)


def _closed_form_values(K: ClosedFormKernel, X: np.ndarray, Y: np.ndarray,
                        dot: np.ndarray, alpha: MultiIndex,
                        beta: MultiIndex) -> np.ndarray:
    """Closed-form derivative values at pairs of points.

    ``X[..., i]`` and ``Y[..., i]`` are the pair coordinates along axis
    ``i``; they broadcast against ``dot``, the pairs' inner products, whose
    shape the result takes.
    """
    shape = dot.shape
    da, db = mi_order(alpha), mi_order(beta)
    if K.tag in ("dot", "affine_dot"):
        if da == 0 and db == 0:
            return dot + 1.0 if K.tag == "affine_dot" else dot
        if da == 1 and db == 0:
            return np.broadcast_to(Y[..., alpha.index(1)], shape).copy()
        if da == 0 and db == 1:
            return np.broadcast_to(X[..., beta.index(1)], shape).copy()
        if da == 1 and db == 1:
            return np.full(shape, 1.0 if alpha.index(1) == beta.index(1) else 0.0)
        return np.zeros(shape)
    # exp_dot factorizes over axes: per axis the 1-D Leibniz formula
    vals = np.exp(dot)
    for i in range(K.m):
        a_i, b_i = alpha[i], beta[i]
        if a_i == 0 and b_i == 0:
            continue
        s = X[..., i]
        t = Y[..., i]
        g = np.zeros(shape)
        for j in range(min(a_i, b_i) + 1):
            g = g + (math.comb(b_i, j) * math.perm(a_i, j)
                     * t ** (a_i - j) * s ** (b_i - j))
        vals = vals * g
    return vals


# ---------------------------------------------------------------------------
# seminorms and distances
# ---------------------------------------------------------------------------

def _check_weights(weights) -> None:
    if not all(map(math.isfinite, weights)):
        raise FloatingPointError("a kernel weight sigma^2 overflowed")


def _signed_sup(signed, spec: KernelSeminormSpec) -> float:
    """Grid sup of |d_alpha d_beta sum c*K| over all pairs and |alpha|, |beta| <= order.

    A basis function appears once, with weight w = sum of c*sigma^2 over the
    fields that hold it and row scale sqrt|w| (sigma for a term one field
    holds), a closed-form kernel once, with the sum of its c; zero weights
    drop out.  A lone field is read as it is, from the designs it keeps.  Mixed
    signs scan ``(sqrt|w| f)^T (sign(w) sqrt|w| f)`` in dense row tiles of
    ``_TILE_ENTRIES`` (upper triangle if alpha = beta) or whole windowed
    blocks, so last bits depend on the tile size, never on run or cores.
    """
    if spec.box.m != signed[0][1].m:
        raise ValueError("box dimension does not match the kernel")
    fields = [(c, K.field) for c, K in signed if isinstance(K, KLKernel) and K.field.size]
    if len(fields) == 1:
        (c, field), = fields
        _check_weights(s * s for s in field.sigmas)
        signs = np.full(field.size, c)
    else:
        merged = Counter()
        for c, kl in fields:
            own = Counter()  # a term repeated in one field sums its own sigma^2 first
            for f, s in zip(kl.basis, kl.sigmas):
                own[f] += s * s
            merged.update({f: c * w for f, w in own.items()})
        terms = {f: w for f, w in merged.items() if w}
        _check_weights(terms.values())
        field = KLField(tuple(terms), tuple(math.sqrt(abs(w)) for w in terms.values()),
                        signed[0][1].m, signed[0][1].k)
        signs = np.sign(list(terms.values()))
    closed = dict.fromkeys(K for _, K in signed if isinstance(K, ClosedFormKernel))
    closed = [(w, K) for K in closed if (w := sum(c for c, J in signed if J == K))]
    alphas = multi_indices(field.m, spec.order)
    pts = grid_points(spec.box)
    scale = field.sigma_array[:, None]
    designs = dict(zip(alphas, _column_blocks(box_design(field, spec.box, *alphas), len(alphas))))
    right = {a: signs[:, None] * scale * d for a, d in designs.items()}
    weights = np.r_[signs, [c for c, _ in closed]]
    if (weights > 0).all() or (weights < 0).all():
        # squares of scaled rows, as the pair products form them
        return max(float(((s * s).sum(axis=0) + sum(
            abs(c) * eval_kernel_deriv_pairs(K, pts, pts, a, a).ravel()
            for c, K in closed)).max()) for a, s in right.items())
    side = spec.box.n_grid_points * field.k
    dense = isinstance(right[alphas[0]], np.ndarray)
    best = 0.0
    for a, b in combinations_with_replacement(alphas, 2):
        for rows in _blocks(side, side, _TILE_ENTRIES if dense else None):
            # a diagonal pair's block is symmetric: columns before the tile's first
            # row repeat earlier tiles' rows (a sparse column slice is a copy)
            start = rows.start if dense and a == b else 0
            # the tile's rows of the left factor: a column block of the design, scaled
            block = (scale * designs[a][:, rows]).T @ (right[b][:, start:] if start else right[b])
            for c, K in closed:
                block = _dense(block) + c * _closed_form_block(K, pts[rows], pts[start:], a, b)
            # |entries| in place in a fresh dense block; a windowed max counts the implicit zeros.
            # A nan sup stays nan: max(x, best) returns a nan x, and a nan best is kept
            best = best if math.isnan(best) else max(
                float((np.abs(block, out=block) if dense else abs(block)).max()), best)
    return best


def kernel_seminorm(K: CovarianceKernel, spec: KernelSeminormSpec) -> float:
    """Grid sup of |d_(alpha,beta) K| over all |alpha|, |beta| <= order.

    d_alpha d_beta K(x, y) = E[d^alpha X(x) d^beta X(y)] is by Cauchy-Schwarz
    at most the larger variance, so the sup is the largest diagonal entry.
    """
    return _signed_sup(((1.0, K),), spec)


def kernel_distance(K1: CovarianceKernel, K2: CovarianceKernel,
                    spec: KernelSeminormSpec) -> float:
    """Seminorm of K1 - K2: shared terms cancel exactly, equal kernels give 0.0.

    A one-sign rest, such as a field against its truncation, is read off the
    diagonal as in :func:`kernel_seminorm`; only mixed signs scan every pair.
    """
    if K1.k != K2.k or K1.m != K2.m:
        raise ValueError("kernels must share (m, k)")
    return _signed_sup(((1.0, K1), (-1.0, K2)), spec)


# ---------------------------------------------------------------------------
# validation checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryReport:
    passed: bool
    max_violation: float
    tolerance: float


@dataclass(frozen=True)
class PsdReport:
    passed: bool
    min_eigenvalue: float
    tolerance: float


def _callable_fn(K):
    # bare (p, q) -> matrix callables, so test doubles that violate the
    # kernel axioms can be checked too; they are evaluated pair by pair
    if not callable(K):
        raise TypeError(f"not a kernel: {K!r}")
    return lambda p, q: np.atleast_2d(np.asarray(K(p, q), dtype=np.float64))


def check_symmetry(K, point_pairs, tol: float = 1e-12) -> SymmetryReport:
    """Worst entrywise violation of K(p,q) = K(q,p)^T over the given pairs.

    Covariance kernels are evaluated in one batch over all pairs.
    """
    if isinstance(K, CovarianceKernel):
        pairs = np.asarray(point_pairs, dtype=np.float64)
        if pairs.size and pairs.shape[1:] != (2, K.m):
            raise ValueError(f"need (n, 2, {K.m}) point pairs, got shape {pairs.shape}")
        P, Q = np.ascontiguousarray(pairs.reshape(-1, 2, K.m).transpose(1, 0, 2))
        zero = (0,) * K.m
        if isinstance(K, KLKernel):
            # per-term products commute, so K(q, p)^T is K(p, q) bit for bit: the
            # gap is 0.0 where K is finite and nan where it is not, as with two sums
            v = _pair_values(K.field, P, Q, zero, zero)
            gaps = [v - v]
        else:
            gaps = [eval_kernel_deriv_pairs(K, P, Q, zero, zero)
                    - eval_kernel_deriv_pairs(K, Q, P, zero, zero).transpose(0, 2, 1)]
    else:
        fn = _callable_fn(K)
        gaps = [fn(p, q) - fn(q, p).T for p, q in point_pairs]
    worst = max((float(np.max(np.abs(g))) for g in gaps if g.size), default=0.0)
    return SymmetryReport(worst <= tol, worst, tol)


def _gram(K, pts: np.ndarray) -> np.ndarray:
    """(n k, n k) Gram matrix K(p_i, p_j), point-major like design columns."""
    if isinstance(K, KLKernel):
        scaled = K.field.sigma_array[:, None] * _design(K.field, pts, (0,) * K.m)
        return _dense(scaled.T @ scaled)
    if isinstance(K, ClosedFormKernel):
        return _closed_form_block(K, pts, pts, (0,) * K.m, (0,) * K.m)
    fn = _callable_fn(K)
    return np.block([[fn(p, q) for q in pts] for p in pts])


def check_psd(K, points, tol: float | None = None) -> PsdReport:
    """Min eigenvalue of the Gram matrix over the points, by LAPACK.

    Covariance kernels build the Gram matrix in one batched call.  Default
    tolerance is relative: 1e-9 times the largest diagonal entry, absorbing
    round-off from the Gram assembly.
    """
    pts = (points_array(points, K.m) if isinstance(K, CovarianceKernel)
           else np.atleast_2d(np.asarray(points, dtype=np.float64)))
    gram = _gram(K, pts)
    gram = 0.5 * (gram + gram.T)
    min_eig, _ = eig_bounds(gram)
    if tol is None:
        tol = 1e-9 * max(0.0, float(np.max(np.diag(gram)))) if gram.size else 0.0
    return PsdReport(min_eig >= -tol, min_eig, tol)
