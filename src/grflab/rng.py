"""Deterministic splittable random streams and normal special functions.

Streams are counter based: draw ``i`` of stream ``(seed, index)`` is a pure
function of ``(seed, index, i)``, so Monte Carlo work can be partitioned by
sample index with no shared generator state.  The construction is the
splitmix64 output function used twice, SplittableRandom style::

    key(seed, index) = mix(seed + (index + 1) * GAMMA)      (mod 2**64)
    word(key, i)     = mix(key  + (i + 1) * GAMMA)          (mod 2**64)

with the golden-ratio increment ``GAMMA = 0x9E3779B97F4A7C15`` and ``mix``
the xorshift-multiply finalizer with constants ``0xBF58476D1CE4E5B9`` and
``0x94D049BB133111EB``.  Uniform doubles take the top 53 bits of a word::

    u = ((word >> 11) + 0.5) * 2**-53        # in (0, 1), both ends excluded

Normals are produced by the inverse normal CDF applied to these uniforms
(never by rejection or polar methods), so the n-th normal of a stream is a
fixed function of (seed, index, n) and the draw count per sample never
varies.  The quantile uses the Acklam rational initializer refined by two
Newton steps against the CDF, evaluated through the complemented error
function in whichever tail is numerically safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc as _erfc_vec

from .exceptions import DomainError

_M64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Acklam rational approximation of the normal quantile (|error| < 1.2e-9),
# standard published coefficients; used only as the Newton starting point.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _mix64_int(z: int) -> int:
    """splitmix64 finalizer on a Python int reduced mod 2**64."""
    z &= _M64
    z ^= z >> 30
    z = (z * _MIX_1) & _M64
    z ^= z >> 27
    z = (z * _MIX_2) & _M64
    return z ^ (z >> 31)


def stream_key(seed: int, index: int) -> int:
    """64-bit key of stream ``index`` derived from ``seed``."""
    return _mix64_int((seed + (index + 1) * GAMMA) & _M64)


# ---------------------------------------------------------------------------
# uniform words
# ---------------------------------------------------------------------------

def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MIX_1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MIX_2)
    return z ^ (z >> np.uint64(31))


def uniform_matrix(seed: int, indices, n: int, offset: int = 0) -> np.ndarray:
    """Uniforms in (0,1): row s holds draws offset..offset+n-1 of stream indices[s]."""
    g = np.uint64(GAMMA)
    idx = np.asarray(indices, dtype=np.int64).astype(np.uint64)
    keys = _mix64_np(np.uint64(seed & _M64) + (idx + np.uint64(1)) * g)
    counters = (np.arange(offset + 1, offset + n + 1, dtype=np.uint64)) * g
    words = _mix64_np(keys[:, None] + counters[None, :])
    return (np.float64(words >> np.uint64(11)) + 0.5) * 2.0 ** -53


# ---------------------------------------------------------------------------
# normal CDF and quantile
# ---------------------------------------------------------------------------

def normal_cdf(x):
    """Standard normal CDF.

    Evaluated as ``0.5 * erfc(-x / sqrt(2))``, which is accurate to a few
    ulp over the whole real line (no cancellation in either tail); erfc is
    delegated to the platform math library / scipy.
    """
    if isinstance(x, np.ndarray):
        return 0.5 * _erfc_vec(-x * _INV_SQRT2)
    return 0.5 * math.erfc(-float(x) * _INV_SQRT2)


def _acklam_numpy(u: np.ndarray) -> np.ndarray:
    x = np.empty_like(u)
    lo = u < _P_LOW
    hi = u > 1.0 - _P_LOW
    mid = ~(lo | hi)
    if lo.any():
        q = np.sqrt(-2.0 * np.log(u[lo]))
        x[lo] = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
                ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    if hi.any():
        q = np.sqrt(-2.0 * np.log(1.0 - u[hi]))
        x[hi] = -(((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
                ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    if mid.any():
        q = u[mid] - 0.5
        r = q * q
        x[mid] = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
                 (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    return x


def _quantile_refine_numpy(u: np.ndarray) -> np.ndarray:
    x = _acklam_numpy(u)
    lo = u < 0.5
    sign = np.where(lo, -1.0, 1.0)
    q = np.where(lo, u, 1.0 - u)  # exact subtraction for u >= 0.5
    for _ in range(2):
        # tail probability beyond x on the side of interest
        tail = 0.5 * _erfc_vec(sign * x * _INV_SQRT2)
        phi = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        x = x + sign * (tail - q) / phi
    return x


def _acklam_scalar(u: float) -> float:
    if u < _P_LOW or u > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(u if u < _P_LOW else 1.0 - u))
        x = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
        return x if u < _P_LOW else -x
    q = u - 0.5
    r = q * q
    return (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
           (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)


def _quantile_scalar(u: float) -> float:
    x = _acklam_scalar(u)
    if u < 0.5:
        sign = -1.0
        q = u
    else:
        sign = 1.0
        q = 1.0 - u
    for _ in range(2):
        # literal constants: 1/sqrt(2) here is one ulp above _INV_SQRT2
        tail = 0.5 * math.erfc(sign * x * 0.7071067811865476)
        phi = math.exp(-0.5 * x * x) * 0.3989422804014327
        x = x + sign * (tail - q) / phi
    return x


def normal_quantile(u):
    """Inverse standard normal CDF, accurate to better than 1e-10.

    Raises :class:`DomainError` unless all arguments lie strictly in (0, 1).
    """
    if isinstance(u, np.ndarray):
        if u.size and (not np.all(u > 0.0) or not np.all(u < 1.0)):
            raise DomainError("quantile argument must lie strictly in (0, 1)")
        return _quantile_refine_numpy(u.astype(np.float64))
    uf = float(u)
    if not 0.0 < uf < 1.0:
        raise DomainError("quantile argument must lie strictly in (0, 1)")
    return _quantile_scalar(uf)


def normal_matrix(seed: int, indices, n: int, offset: int = 0) -> np.ndarray:
    """Standard normal draws: row s holds draws of stream indices[s]."""
    return _quantile_refine_numpy(uniform_matrix(seed, indices, n, offset))


# ---------------------------------------------------------------------------
# stream object
# ---------------------------------------------------------------------------

@dataclass
class RandomStream:
    """A named position in the deterministic stream lattice.

    ``(seed, index)`` fully determine the draw sequence; ``counter`` tracks
    how many draws this object has consumed.  Distinct indices give streams
    safe to use concurrently.
    """

    seed: int
    index: int = 0
    counter: int = 0

    def uniforms(self, n: int) -> np.ndarray:
        out = uniform_matrix(self.seed, [self.index], n, offset=self.counter)[0]
        self.counter += n
        return out

    def normals(self, n: int) -> np.ndarray:
        return _quantile_refine_numpy(self.uniforms(n))

    def derive(self, index: int) -> "RandomStream":
        """Fresh stream with the same seed and a new index (counter 0)."""
        return RandomStream(self.seed, index)
