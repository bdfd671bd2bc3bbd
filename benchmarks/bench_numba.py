"""Benchmark the JIT kernels against their pure-numpy fallbacks.

Covers the two hot paths (stream fill + quantile transform, per-sample
zero-count scan) plus one end-to-end Monte Carlo study.  Each case is cross-checked for agreement between the two builds
before timing.  Select the startup default with GRFLAB_NUMBA=0/1; this
script toggles at runtime either way.

Usage: python benchmarks/bench_numba.py [--repeat 5]
"""

import argparse
import time

import numpy as np

from grflab import SupNormBelow, estimate_probability, set_numba_enabled
from grflab._accel import HAVE_NUMBA
from grflab import counterexample as cx
from grflab.mc import _zero_count_rows
from grflab.rng import normal_matrix


def timeit(fn, repeat):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_normals(repeat):
    return lambda: normal_matrix(0, np.arange(2000), 2000), "normal fill 4e6 draws"


def bench_zero_count(repeat):
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((4000, 2049))
    return lambda: _zero_count_rows(vals), "zero-count scan 4000x2049"


def bench_study(repeat):
    cfg = cx.config(5)
    field = cx.build_X_n(cfg)
    event = SupNormBelow(cx.grid_box(cfg), 0, 1.0)
    return (lambda: estimate_probability(field, event, 20000, 0),
            "bump-ensemble MC estimate (n=5, 20000 paths)")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    if not HAVE_NUMBA:
        print("numba not importable: nothing to compare")
        return

    cases = [bench_normals, bench_zero_count, bench_study]
    print(f"{'case':45s} {'numba':>10s} {'numpy':>10s} {'speedup':>8s}")
    for case in cases:
        fn, label = case(args.repeat)
        set_numba_enabled(True)
        fn()  # warm-up: trigger compilation outside the timed region
        got_jit = fn()
        t_jit = timeit(fn, args.repeat)
        set_numba_enabled(False)
        got_np = fn()
        t_np = timeit(fn, args.repeat)
        set_numba_enabled(True)
        if isinstance(got_jit, np.ndarray):
            assert np.allclose(got_jit, np.asarray(got_np), atol=1e-12)
        elif isinstance(got_jit, tuple):
            assert all(np.allclose(a, b, atol=1e-12) for a, b in zip(got_jit, got_np))
        else:
            assert got_jit == got_np
        print(f"{label:45s} {t_jit * 1e3:9.1f}ms {t_np * 1e3:9.1f}ms "
              f"{t_np / t_jit:7.2f}x")


if __name__ == "__main__":
    main()
