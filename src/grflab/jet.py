"""Jets of sample paths, jet covariance matrices, and nondegeneracy scans.

The jet of order ``r`` at a point collects all partial derivatives up to
order ``r`` of every output component.  For a Gaussian field the jet at a
fixed point is a Gaussian vector whose covariance matrix has entries
``d_(alpha,beta) K(p, p)``; that matrix having maximal rank is the
checkable certificate that the jet has full support, which is the standing
hypothesis for almost-sure transversality of the field's jet to any fixed
submanifold of jet space.  Rank is decided by the spectral ratio
min/max eigenvalue against a relative threshold, so the verdict is
invariant under rescaling the field.

Covariances are built for all points at once, entry by entry: for an
expansion kernel as ``sum_n sigma_n^2 J_i[n, g] J_l[n, g]`` over column
slices ``J_i`` of the designs as :func:`grflab.field._design` built them,
for a closed-form kernel from its derivative formulas.  The sigmas and each
point's jets are scaled by powers of two first, so tiny fields do not
underflow.  The spectra come from batched LAPACK ``eigvalsh`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .basis import Box, grid_points
from .field import SamplePath, _blocks, _column_blocks, _design, eval_sample
from .kernel import CovarianceKernel, KLKernel, eval_kernel_deriv_pairs
from .linalg import eigvalsh
from .multiindex import multi_indices


def jet_dimension(m: int, k: int, r: int) -> int:
    """Dimension k * C(m+r, r) of the order-r jet space."""
    if m < 1 or k < 1 or r < 0:
        raise ValueError("need m >= 1, k >= 1, r >= 0")
    return k * comb(m + r, r)


@dataclass(frozen=True)
class Jet:
    """Jet values ordered output-component-major, then graded-lex in alpha."""

    point: tuple
    order: int
    values: np.ndarray


@dataclass(frozen=True)
class JetCovariance:
    point: tuple
    order: int
    matrix: np.ndarray


def jet_eval(path: SamplePath, p, r: int) -> Jet:
    """All partials of the path up to order ``r`` at ``p``, exactly."""
    pt = np.atleast_1d(np.asarray(p, dtype=np.float64))
    per_alpha = [eval_sample(path, pt, a) for a in multi_indices(path.field.m, r)]
    return Jet(tuple(pt), r, np.stack(per_alpha, axis=1).ravel())


def _jet_covariances(K: CovarianceKernel, pts: np.ndarray, r: int):
    """Jet covariances at every point over powers of two: (G, D, D) and (G,) exponents.

    Matrix ``g`` times ``2**exponents[g]`` is the covariance.  The sigmas,
    and each point's jets, are scaled to a largest entry in [0.5, 1): exact,
    so entries that would be subnormal keep their bits and ratios.
    """
    if isinstance(K, KLKernel):
        alphas = multi_indices(K.m, r)
        designs = _column_blocks(_design(K.field, pts, *alphas), len(alphas))
        jets = [d[:, c::K.k] for c in range(K.k) for d in designs]  # component-major
        top = np.zeros(pts.shape[0])
        for J in jets if K.field.size else ():  # no terms: every maximum is 0
            top = np.maximum(top, abs(J).max(axis=0))
        _, e_pts = np.frexp(top)
        # 2**-e_pts overflows below a top entry of 2**-1023: scale up in two exact steps
        up = np.minimum(-e_pts, 1023)
        jets = [J * np.ldexp(1.0, up) * np.ldexp(1.0, -e_pts - up) for J in jets]
        _, e_sig = np.frexp(K.field.sigma_array.max(initial=0.0))
        w = np.ldexp(K.field.sigma_array, -e_sig)[:, None] ** 2
        # w * J once per slice; (w * J) * L rounds as w * J * L
        cov = np.array([[(wJ * L).sum(axis=0) for L in jets]
                        for wJ in (w * J for J in jets)]).transpose(2, 0, 1)
        exponents = 2 * (e_sig + e_pts)
    else:
        alphas = multi_indices(K.m, r)
        cov = np.empty((pts.shape[0], len(alphas), len(alphas)))
        for ai, a in enumerate(alphas):
            for bi in range(ai, len(alphas)):
                vals = eval_kernel_deriv_pairs(K, pts, pts, a, alphas[bi])[:, 0, 0]
                cov[:, ai, bi] = cov[:, bi, ai] = vals
        exponents = np.zeros(pts.shape[0], dtype=int)
    return 0.5 * (cov + cov.transpose(0, 2, 1)), exponents


def jet_covariance(K: CovarianceKernel, p, r: int) -> JetCovariance:
    """Covariance matrix of the order-r jet at ``p``: d_(alpha,beta) K(p,p)."""
    pt = np.atleast_1d(np.asarray(p, dtype=np.float64))
    cov, exponents = _jet_covariances(K, pt.reshape(1, -1), r)
    return JetCovariance(tuple(pt), r, np.ldexp(cov[0], exponents[0]))


def _jet_spectra(K: CovarianceKernel, pts: np.ndarray, r: int) -> np.ndarray:
    """Ascending jet covariance eigenvalues at every point, each row over a power of four."""
    n_terms = K.field.size if isinstance(K, KLKernel) else 1
    per_point = n_terms * jet_dimension(K.m, K.k, r)
    return np.concatenate([eigvalsh(_jet_covariances(K, pts[rows], r)[0])
                           for rows in _blocks(pts.shape[0], per_point)])


def _spectral_ratios(w: np.ndarray) -> np.ndarray:
    """min/max eigenvalue per row of ``w``; 0 where the max is not positive."""
    wmax = w[:, -1]
    positive = wmax > 0.0
    return np.where(positive, w[:, 0] / np.where(positive, wmax, 1.0), 0.0)


def _check_rel_tol(rel_tol: float) -> None:
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")


@dataclass(frozen=True)
class NondegeneracyCertificate:
    point: tuple
    order: int
    nondegenerate: bool
    min_singular_ratio: float
    jet_dim: int
    rank_estimate: int


def nondegeneracy_certificate(K: CovarianceKernel, p, r: int,
                              rel_tol: float = 1e-9) -> NondegeneracyCertificate:
    """Spectral-ratio test that the jet covariance at ``p`` has maximal rank.

    A pass at every point certifies that the field's order-r jet is almost
    surely transverse to any fixed submanifold of jet space.
    """
    _check_rel_tol(rel_tol)
    pt = np.atleast_1d(np.asarray(p, dtype=np.float64))
    w = _jet_spectra(K, pt.reshape(1, -1), r)
    ratio = float(_spectral_ratios(w)[0])
    rank = int(np.sum(w[0] > rel_tol * w[0, -1])) if w[0, -1] > 0.0 else 0
    return NondegeneracyCertificate(tuple(pt), r, ratio > rel_tol, ratio,
                                    w.shape[1], rank)


@dataclass(frozen=True)
class NondegeneracyScan:
    all_pass: bool
    worst_point: tuple
    worst_ratio: float
    n_points: int
    n_failures: int


def scan_nondegeneracy(K: CovarianceKernel, b: Box, r: int,
                       rel_tol: float = 1e-9) -> NondegeneracyScan:
    """Certificate at every grid point; reports the worst spectral ratio.

    The reduction is deterministic: the minimum ratio wins, ties broken by
    the first grid index in row-major order.
    """
    _check_rel_tol(rel_tol)
    pts = grid_points(b)
    ratios = _spectral_ratios(_jet_spectra(K, pts, r))
    failures = int(np.count_nonzero(ratios <= rel_tol))
    worst = int(np.argmin(ratios))  # first minimum in row-major grid order
    return NondegeneracyScan(failures == 0, tuple(pts[worst]), float(ratios[worst]),
                             pts.shape[0], failures)
