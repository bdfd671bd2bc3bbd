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

Covariances are built for all points at once: for an expansion kernel as
the Gram form ``sum_n sigma_n^2 J[n, g] J[n, g]^T`` of the jet design
``J`` (:func:`grflab.field.jet_design`), for a closed-form kernel entry by
entry from its derivative formulas.  The spectra come from batched LAPACK
``eigvalsh`` calls, one per block of points whose jet design stays below
``_BLOCK_ENTRIES`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .basis import Box, grid_points
from .field import SamplePath, jet_design
from .kernel import CovarianceKernel, KLKernel, eval_kernel_deriv_pairs
from .linalg import eigvalsh
from .multiindex import multi_indices

# points per batch are capped so the jet design holds at most this many entries
_BLOCK_ENTRIES = 4_000_000


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
    values = path.coeffs @ jet_design(path.field, pt.reshape(1, -1), r)[:, 0, :]
    return Jet(tuple(pt), r, values)


def _jet_covariances(K: CovarianceKernel, pts: np.ndarray, r: int) -> np.ndarray:
    """Jet covariance matrices at every point: (G, D, D)."""
    if isinstance(K, KLKernel):
        J = jet_design(K.field, pts, r)
        cov = np.einsum("n,ngi,ngj->gij", K.field.sigma_array ** 2, J, J)
    else:
        alphas = multi_indices(K.m, r)
        cov = np.empty((pts.shape[0], len(alphas), len(alphas)))
        for ai, a in enumerate(alphas):
            for bi in range(ai, len(alphas)):
                vals = eval_kernel_deriv_pairs(K, pts, pts, a, alphas[bi])[:, 0, 0]
                cov[:, ai, bi] = cov[:, bi, ai] = vals
    return 0.5 * (cov + cov.transpose(0, 2, 1))


def jet_covariance(K: CovarianceKernel, p, r: int) -> JetCovariance:
    """Covariance matrix of the order-r jet at ``p``: d_(alpha,beta) K(p,p)."""
    pt = np.atleast_1d(np.asarray(p, dtype=np.float64))
    return JetCovariance(tuple(pt), r, _jet_covariances(K, pt.reshape(1, -1), r)[0])


def _jet_spectra(K: CovarianceKernel, pts: np.ndarray, r: int) -> np.ndarray:
    """Ascending jet covariance eigenvalues at every point: (G, D)."""
    n_terms = K.field.size if isinstance(K, KLKernel) else 1
    chunk = max(1, _BLOCK_ENTRIES // max(1, n_terms * jet_dimension(K.m, K.k, r)))
    return np.concatenate([eigvalsh(_jet_covariances(K, pts[start:start + chunk], r))
                           for start in range(0, pts.shape[0], chunk)])


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

    def to_json_dict(self) -> dict:
        return {
            "point": list(self.point),
            "ratio": self.min_singular_ratio,
            "pass": self.nondegenerate,
            "jet_dim": self.jet_dim,
            "rank_estimate": self.rank_estimate,
        }


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
