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

Normals are ``scipy.special.ndtri`` (the inverse normal CDF) of these
uniforms, with no Acklam initializer or Newton step on top, and never come
from rejection or polar methods, so the n-th normal of a stream is a fixed
function of (seed, index, n) and the draw count per sample never varies.
Scalars and arrays take the same path through ``ndtri`` and ``erfc``, so
they agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, ndtri

from .exceptions import DomainError

_M64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# uniform words
# ---------------------------------------------------------------------------

def _mix64_np(z: np.ndarray) -> np.ndarray:
    """The xorshift-multiply finalizer, in place on the uint64 array ``z``."""
    t = np.right_shift(z, np.uint64(30))
    z ^= t
    z *= np.uint64(_MIX_1)
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= np.uint64(_MIX_2)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def uniform_matrix(seed: int, indices, n: int, offset: int = 0) -> np.ndarray:
    """Uniforms in (0,1): row s holds draws offset..offset+n-1 of stream indices[s]."""
    g = np.uint64(GAMMA)
    idx = np.asarray(indices, dtype=np.int64).astype(np.uint64)
    keys = _mix64_np(np.uint64(seed & _M64) + (idx + np.uint64(1)) * g)
    counters = np.arange(offset + 1, offset + n + 1, dtype=np.uint64) * g
    words = _mix64_np(keys[:, None] + counters[None, :])
    words >>= np.uint64(11)
    u = words.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return u


# ---------------------------------------------------------------------------
# normal CDF and quantile
# ---------------------------------------------------------------------------

def normal_cdf(x):
    """Standard normal CDF.

    Evaluated as ``0.5 * erfc(-x / sqrt(2))`` with ``scipy.special.erfc``,
    which is accurate to a few ulp over the whole real line (no
    cancellation in either tail), for a scalar or an array alike.
    """
    return 0.5 * erfc(-np.asarray(x, dtype=np.float64) * _INV_SQRT2)


def normal_quantile(u):
    """Inverse standard normal CDF (``scipy.special.ndtri``) of a scalar or an array.

    Raises :class:`DomainError` unless all arguments lie strictly in (0, 1).
    """
    u = np.asarray(u, dtype=np.float64)
    if not (np.all(u > 0.0) and np.all(u < 1.0)):
        raise DomainError("quantile argument must lie strictly in (0, 1)")
    return ndtri(u)


def normal_matrix(seed: int, indices, n: int, offset: int = 0) -> np.ndarray:
    """Standard normal draws: row s holds draws of stream indices[s]."""
    u = uniform_matrix(seed, indices, n, offset)
    return ndtri(u, out=u)


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
        return ndtri(self.uniforms(n))

    def derive(self, index: int) -> "RandomStream":
        """Fresh stream with the same seed and a new index (counter 0)."""
        return RandomStream(self.seed, index)
