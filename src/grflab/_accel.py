"""Runtime switch between numba-compiled kernels and pure-numpy fallbacks.

Hot numeric kernels (random stream fills, quantile transforms, per-sample
event scans) ship in two builds: a ``@njit`` version and
a vectorized numpy version.  The active build is chosen per call through
:func:`numba_enabled`, so tests and benchmarks can exercise both in one
process.  The initial state comes from the ``GRFLAB_NUMBA`` environment
variable; set it to ``0``/``false``/``off`` to force the numpy path.
"""

from __future__ import annotations

import os

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    numba = None
    HAVE_NUMBA = False

_FALSY = {"0", "false", "off", "no"}

_enabled = HAVE_NUMBA and os.environ.get("GRFLAB_NUMBA", "1").strip().lower() not in _FALSY

prange = numba.prange if HAVE_NUMBA else range


def numba_enabled() -> bool:
    """True when calls should dispatch to the JIT kernels."""
    return _enabled


def set_numba_enabled(on: bool) -> bool:
    """Toggle JIT dispatch; returns the effective state (False without numba)."""
    global _enabled
    _enabled = bool(on) and HAVE_NUMBA
    return _enabled


def njit(*args, **kwargs):
    """``numba.njit`` when numba is importable, identity decorator otherwise.

    Decorated functions are only ever called when :func:`numba_enabled` is
    true, which requires numba, so the identity fallback is never hot.
    """
    if HAVE_NUMBA:
        return numba.njit(*args, **kwargs)
    if args and callable(args[0]) and len(args) == 1 and not kwargs:
        return args[0]

    def wrap(fn):
        return fn

    return wrap


def set_threads(n: int) -> int:
    """Cap the numba threading layer at ``n`` workers; returns the cap used.

    The numpy fallback path is single threaded, so this only affects
    ``parallel=True`` kernels.
    """
    if n < 1:
        raise ValueError("thread count must be >= 1")
    if not HAVE_NUMBA:
        return 1
    cap = min(int(n), numba.config.NUMBA_NUM_THREADS)
    numba.set_num_threads(cap)
    return cap
