"""Matrix-valued covariance kernels with exact mixed-derivative evaluation.

Two kernel families: kernels induced by a finite expansion field,

    K(p, q) = sum_n sigma_n^2 f_n(p) f_n(q)^T,

whose mixed partials are exact sums over basis derivatives, and a few
closed-form scalar kernels (``dot``, ``affine_dot``, ``exp_dot``) with
hand-derived derivative formulas.

Seminorms are sup-norms of mixed partials up to the requested order,
approximated on the box grid.  Grid values are exact, so the result is a
lower bound of the true sup that is sharp whenever the extrema lie on grid
points (the validation suites only use kernels where they do).  A kernel's
own seminorm is the largest diagonal entry d_alpha d_alpha K(x, x): by
Cauchy-Schwarz no pair (x, y) exceeds it, so this is the exact grid sup over
all pairs.  A distance between two kernels is the seminorm of a difference,
which is not positive semidefinite, so distances stay pair scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Union

import numpy as np
import scipy.sparse as sp

from .basis import Box, grid_points
from .field import KLField, box_design, design_at_points
from .linalg import eig_bounds
from .multiindex import MultiIndex, multi_indices, order as mi_order, validate as mi_validate

_CLOSED_FORM_TAGS = ("dot", "affine_dot", "exp_dot")
_BLOCK_ENTRIES = 4_000_000


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

def _point(p, m: int) -> np.ndarray:
    a = np.atleast_1d(np.asarray(p, dtype=np.float64))
    if a.shape != (m,):
        raise ValueError(f"point shape {a.shape} does not match dimension {m}")
    return a


def eval_kernel(K: CovarianceKernel, p, q) -> np.ndarray:
    """K(p, q) as a (k, k) matrix."""
    zero = (0,) * K.m
    return eval_kernel_deriv(K, p, q, zero, zero)


def eval_kernel_deriv(K: CovarianceKernel, p, q, alpha, beta) -> np.ndarray:
    """Mixed partial d_alpha (in p) d_beta (in q) of K, as a (k, k) matrix."""
    pt = _point(p, K.m).reshape(1, -1)
    qt = _point(q, K.m).reshape(1, -1)
    return eval_kernel_deriv_pairs(K, pt, qt, alpha, beta)[0]


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
    field, k = K.field, K.k
    out = np.zeros((X.shape[0], k, k))
    if field.size == 0:
        return out
    w = field.sigma_array ** 2
    chunk = max(1, _BLOCK_ENTRIES // (field.size * k * k))
    for start in range(0, X.shape[0], chunk):
        stop = start + chunk
        fp = design_at_points(field, X[start:stop], a).reshape(field.size, -1, k)
        fq = design_at_points(field, Y[start:stop], b).reshape(field.size, -1, k)
        # per-term outer products first: commutativity then makes the
        # symmetry K(p,q) = K(q,p)^T exact, not just up to rounding
        prod = fp[:, :, :, None] * fq[:, :, None, :]
        out[start:stop] = np.tensordot(w, prod, axes=(0, 0))
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

def _scaled_designs(field: KLField, b: Box, alphas):
    """Designs multiplied by sigma, so gram products carry sigma^2."""
    out = {}
    sig = field.sigma_array
    for a in alphas:
        d = box_design(field, b, a)
        if sp.issparse(d):
            out[a] = sp.diags(sig) @ d
        else:
            out[a] = sig[:, None] * d
    return out


def kernel_seminorm(K: CovarianceKernel, spec: KernelSeminormSpec) -> float:
    """Grid sup of |d_(alpha,beta) K| over all |alpha|, |beta| <= order.

    d_alpha d_beta K(x, y) = E[d^alpha X(x) d^beta X(y)], so by Cauchy-Schwarz
    no entry exceeds the larger of the variances d_alpha d_alpha K(x, x) and
    d_beta d_beta K(y, y): the sup over all grid pairs is the largest
    diagonal entry, which is read off without forming any pair block.
    """
    if spec.box.m != K.m:
        raise ValueError("box dimension does not match the kernel")
    alphas = multi_indices(K.m, spec.order)
    if isinstance(K, KLKernel):
        if K.field.size == 0:
            return 0.0
        # squares of sigma-scaled rows, as the Gram entries form them
        diags = [np.asarray(s.multiply(s).sum(axis=0)) if sp.issparse(s)
                 else np.einsum("ng,ng->g", s, s)
                 for s in _scaled_designs(K.field, spec.box, alphas).values()]
    else:
        pts = grid_points(spec.box)
        diags = [eval_kernel_deriv_pairs(K, pts, pts, a, a) for a in alphas]
    return max((float(d.max()) for d in diags if d.size), default=0.0)


def _stacked(parts, fmt: str):
    """The parts stacked vertically; sparse in format ``fmt`` when any part is."""
    if any(sp.issparse(p) for p in parts):
        return sp.vstack(parts, format=fmt)
    return np.vstack(parts)


def kernel_distance(K1: CovarianceKernel, K2: CovarianceKernel,
                    spec: KernelSeminormSpec) -> float:
    """Seminorm of the pointwise difference of two kernels.

    A difference of kernels is not positive semidefinite, so unlike
    :func:`kernel_seminorm` this scans every point pair, in row blocks.
    """
    if K1.k != K2.k or K1.m != K2.m:
        raise ValueError("kernels must share (m, k)")
    if spec.box.m != K1.m:
        raise ValueError("box dimension does not match the kernel")
    if K1 == K2:
        return 0.0
    if isinstance(K1, KLKernel) and K1.field.size == 0:
        return kernel_seminorm(K2, spec)
    if isinstance(K2, KLKernel) and K2.field.size == 0:
        return kernel_seminorm(K1, spec)
    alphas = multi_indices(K1.m, spec.order)
    pts = grid_points(spec.box)
    signed = ((1.0, K1), (-1.0, K2))
    kl = [(c, _scaled_designs(K.field, spec.box, alphas)) for c, K in signed
          if isinstance(K, KLKernel)]
    closed = [(c, K) for c, K in signed if isinstance(K, ClosedFormKernel)]
    # the KL part is one product per block:
    # [s1_a; s2_a]^T [s1_b; -s2_b] = s1_a^T s1_b - s2_a^T s2_b; a sparse left
    # side is kept transposed as CSR, so its row blocks slice cheaply
    left = {a: _stacked([d[a] for _, d in kl], "csc").T for a in alphas} if kl else {}
    right = {a: _stacked([c * d[a] for c, d in kl], "csr") for a in alphas} if kl else {}
    side = spec.box.n_grid_points * K1.k
    chunk = max(1, _BLOCK_ENTRIES // side)
    best = 0.0
    for a, b in combinations_with_replacement(alphas, 2):
        for start in range(0, side, chunk):
            block = left[a][start:start + chunk] @ right[b] if kl else 0.0
            for c, K in closed:
                block = block + c * _closed_form_block(K, pts[start:start + chunk], pts, a, b)
            # max |entry| without an abs temporary; a sparse block's max and
            # min count its implicit zeros
            if block.size:
                best = max(best, float(block.max()), -float(block.min()))
    return best


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


def _is_kernel(K) -> bool:
    return isinstance(K, (KLKernel, ClosedFormKernel))


def check_symmetry(K, point_pairs, tol: float = 1e-12) -> SymmetryReport:
    """Worst entrywise violation of K(p,q) = K(q,p)^T over the given pairs.

    Covariance kernels are evaluated in one batch over all pairs.
    """
    pairs = list(point_pairs)
    if _is_kernel(K):
        zero = (0,) * K.m
        P = np.array([_point(p, K.m) for p, _ in pairs]).reshape(-1, K.m)
        Q = np.array([_point(q, K.m) for _, q in pairs]).reshape(-1, K.m)
        gaps = [eval_kernel_deriv_pairs(K, P, Q, zero, zero)
                - eval_kernel_deriv_pairs(K, Q, P, zero, zero).transpose(0, 2, 1)]
    else:
        fn = _callable_fn(K)
        gaps = [fn(p, q) - fn(q, p).T for p, q in pairs]
    worst = max((float(np.max(np.abs(g))) for g in gaps if g.size), default=0.0)
    return SymmetryReport(worst <= tol, worst, tol)


def _gram(K, pts: np.ndarray) -> np.ndarray:
    """(n k, n k) Gram matrix K(p_i, p_j), point-major like design columns."""
    if isinstance(K, KLKernel):
        scaled = K.field.sigma_array[:, None] * design_at_points(K.field, pts, (0,) * K.m)
        return scaled.T @ scaled
    if isinstance(K, ClosedFormKernel):
        return _closed_form_block(K, pts, pts, (0,) * K.m, (0,) * K.m)
    fn = _callable_fn(K)
    n = pts.shape[0]
    k = fn(pts[0], pts[0]).shape[0]
    gram = np.empty((n * k, n * k))
    for i in range(n):
        for j in range(i, n):
            block = fn(pts[i], pts[j])
            gram[i * k:(i + 1) * k, j * k:(j + 1) * k] = block
            if j > i:
                gram[j * k:(j + 1) * k, i * k:(i + 1) * k] = block.T
    return gram


def check_psd(K, points, tol: float | None = None) -> PsdReport:
    """Min eigenvalue of the Gram matrix over the points, by LAPACK.

    Covariance kernels build the Gram matrix in one batched call.  Default
    tolerance is relative: 1e-9 times the largest diagonal entry, absorbing
    round-off from the Gram assembly.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if _is_kernel(K) and pts.shape[1] != K.m:
        pts = pts.reshape(-1, K.m)
    gram = _gram(K, pts)
    gram = 0.5 * (gram + gram.T)
    min_eig, _ = eig_bounds(gram)
    if tol is None:
        tol = 1e-9 * max(0.0, float(np.max(np.diag(gram)))) if gram.size else 0.0
    return PsdReport(min_eig >= -tol, min_eig, tol)
