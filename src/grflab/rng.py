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

except that the top word, whose ``1 - 2**-54`` rounds to 1.0, gives the
largest double below 1.  Normals are the inverse normal CDF of these
uniforms, with no Acklam initializer or Newton step on top, and never come
from rejection or polar methods, so the n-th normal of a stream is a fixed
function of (seed, index, n), and a sample that reads only a prefix of its
stream reads the same draws as one that reads it all.  The inverse is a
numpy port of the Cephes ``ndtri`` that ``scipy.special.ndtri``
implements, with the same rational approximations and operation order; its
logs are numpy's, so about 0.006 % of stream draws differ from scipy's by a
few ulp.  Scalars and arrays take the same path, so they agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    return np.minimum(u, 1.0 - 2.0 ** -53, out=u)  # the top word rounds to 1.0


# ---------------------------------------------------------------------------
# normal CDF and quantile
# ---------------------------------------------------------------------------

def normal_cdf(x):
    """Standard normal CDF.

    Evaluated as ``0.5 * erfc(-x / sqrt(2))`` with ``math.erfc`` per element,
    which is accurate to a few ulp over the whole real line (no
    cancellation in either tail), for a scalar or an array alike.
    """
    z = -np.asarray(x, dtype=np.float64) * _INV_SQRT2
    return 0.5 * np.array([math.erfc(v) for v in z.ravel()]).reshape(z.shape)


def normal_quantile(u):
    """Inverse standard normal CDF of a scalar or an array (see the module docstring).

    Raises :class:`DomainError` unless all arguments lie strictly in (0, 1).
    """
    u = np.array(u, dtype=np.float64)
    if not (np.all(u > 0.0) and np.all(u < 1.0)):
        raise DomainError("quantile argument must lie strictly in (0, 1)")
    return _ndtri(u)[()]


def normal_matrix(seed: int, indices, n: int, offset: int = 0) -> np.ndarray:
    """Standard normal draws: row s holds draws of stream indices[s]."""
    return _ndtri(uniform_matrix(seed, indices, n, offset))


# Cephes ndtri: y + y*y^2*P0/Q0 at y = u - 1/2 for exp(-2) < u <= 1 - exp(-2), else
# a series in z = 1/sqrt(-2 log y) with P1/Q1 for y > exp(-32), P2/Q2 below; Q is monic
_S2PI, _EXP_M2 = 2.50662827463100050242E0, 0.13533528323661269189
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_TILE = 1 << 17  # draws per tile: fewer, larger numpy calls contend less on Monte Carlo threads


def _ratio(z: np.ndarray, p: tuple, q: tuple, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``z * polevl(z, p) / p1evl(z, q)`` into ``num`` in Cephes' order (``q`` lacks p1evl's 1)."""
    np.multiply(z, p[0], out=num)
    num += p[1]
    np.add(z, q[0], out=den)
    for c in p[2:]:
        num *= z
        num += c
    for c in q[1:]:
        den *= z
        den += c
    num *= z
    num /= den
    return num


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Cephes ``ndtri`` of uniforms in (0, 1), in place, by tiles sharing one work array; the
    central branch runs on whole tiles (its denominator is below -2e-4 on [0, 1]), then tails."""
    flat = u.reshape(-1)
    work = np.empty((8, min(_TILE, flat.size)))
    for start in range(0, flat.size, _TILE):
        t = flat[start:start + _TILE]
        tails = np.flatnonzero((t <= _EXP_M2) | (t > 1.0 - _EXP_M2))
        y = t[tails]
        t -= 0.5
        x = _ratio(np.multiply(t, t, out=work[0, :t.size]), _P0, _Q0, *work[1:3, :t.size])
        x *= t
        t += x
        t *= _S2PI
        if tails.size:
            t[tails] = _ndtri_tail(y, work[3:, :tails.size])
    return u


def _ndtri_tail(u: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Tail branch in ``work``: ``x0 - x1`` at ``y = min(u, 1 - u)``, signed as ``u - 1/2``."""
    x, out, z, num, den = work
    np.minimum(u, np.subtract(1.0, u, out=x), out=x)
    np.log(x, out=x)
    x *= -2.0
    np.sqrt(x, out=x)
    np.log(x, out=out)
    out /= x
    np.subtract(x, out, out=out)
    x1 = _ratio(np.divide(1.0, x, out=z), _P1, _Q1, num, den)
    far = np.flatnonzero(x >= 8.0)  # y < exp(-32)
    if far.size:
        x1[far] = _ratio(z[far], _P2, _Q2, np.empty(far.size), np.empty(far.size))
    out -= x1
    u -= 0.5
    return np.copysign(out, u, out=out)


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
        return _ndtri(self.uniforms(n))

    def derive(self, index: int) -> "RandomStream":
        """Fresh stream with the same seed and a new index (counter 0)."""
        return RandomStream(self.seed, index)
