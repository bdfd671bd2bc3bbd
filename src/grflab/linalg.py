"""Symmetric eigensolves and guarded pseudo-inverse solves on LAPACK.

:func:`eigh` and :func:`eigvalsh` are thin checked wrappers over
``numpy.linalg.eigh`` / ``eigvalsh`` (LAPACK ``syevd``).  Both accept a
single matrix or a stack ``(..., n, n)``, read only the lower triangle, and
refuse non-square or non-finite input instead of returning a meaningless
spectrum.  LAPACK is deterministic for a fixed build and thread count, so
reports built on these spectra stay byte-identical run to run.
"""

from __future__ import annotations

import numpy as np

from .exceptions import IllConditionedError


def _checked(A) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return A


def eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix (or a stack of them).

    Returns ``(w, V)`` with eigenvalues ``w`` ascending and orthonormal
    columns ``V`` so that ``A = V @ diag(w) @ V.T``.
    """
    w, V = np.linalg.eigh(_checked(A))
    return w, V


def eigvalsh(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix (or a stack of them)."""
    return np.linalg.eigvalsh(_checked(A))


def eig_bounds(A: np.ndarray) -> tuple[float, float]:
    """(min, max) eigenvalue of a symmetric matrix."""
    w = eigvalsh(A)
    if w.size == 0:
        return 0.0, 0.0
    return float(w[0]), float(w[-1])


def solve_psd_pinv(A: np.ndarray, b: np.ndarray, cond_limit: float = 1e12,
                   cutoff_rel: float = 1e-12) -> np.ndarray:
    """Solve ``A x = b`` for symmetric PSD ``A`` through its eigensystem.

    Eigenvalues below ``cutoff_rel * max_eig`` are treated as exact zeros
    (pseudo-inverse).  If the full-spectrum condition estimate
    ``max_eig / min_eig`` exceeds ``cond_limit`` the solve is refused with
    :class:`IllConditionedError`: the caller gets a report instead of a
    guess.
    """
    w, V = eigh(A)
    if w.size == 0:
        return np.zeros_like(np.asarray(b, dtype=np.float64))
    wmax = float(w[-1])
    wmin = float(w[0])
    if wmax <= 0.0:
        raise IllConditionedError("matrix is zero or not positive semidefinite")
    cond = np.inf if wmin <= 0.0 else wmax / wmin
    if cond > cond_limit:
        raise IllConditionedError(
            f"condition estimate {cond:.3e} exceeds limit {cond_limit:.1e}")
    inv = np.where(w > cutoff_rel * wmax, 1.0 / np.where(w > 0, w, 1.0), 0.0)
    return V @ (inv * (V.T @ np.asarray(b, dtype=np.float64)))
