"""Symmetric eigensolves and condition-guarded PSD solves on LAPACK.

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

_COND_LIMIT = 1e12


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


def solve_psd_pinv(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` for symmetric PSD ``A`` through its eigensystem.

    If the full-spectrum condition estimate ``max_eig / min_eig`` exceeds
    1e12 the solve is refused with :class:`IllConditionedError`: the caller
    gets a report instead of a guess.  Every eigenvalue of an accepted
    matrix is positive, so the solve inverts each of them.
    """
    w, V = eigh(A)
    if w.size == 0:
        return np.zeros_like(np.asarray(b, dtype=np.float64))
    wmax = float(w[-1])
    wmin = float(w[0])
    # a zero or indefinite matrix has wmin <= 0, so an infinite condition
    cond = np.inf if wmin <= 0.0 else wmax / wmin
    if cond > _COND_LIMIT:
        raise IllConditionedError(
            f"condition estimate {cond:.3e} exceeds limit {_COND_LIMIT:.1e}")
    return V @ ((1.0 / w) * (V.T @ np.asarray(b, dtype=np.float64)))
