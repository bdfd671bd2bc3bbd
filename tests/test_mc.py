import concurrent.futures
import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grflab.field
from grflab import (Bump, DegenerateZero, Harmonic, Monomial, PositiveOnBox, Scaled,
                    SupNormBelow, ZeroCountEquals, empirical_sup_mean,
                    estimate_probability, gaussian_ratio, kl_field, limit_study,
                    normal_cdf, unit_interval)
from grflab import counterexample as cx
from grflab.field import (_map_slices, _owners_only, apply_design, batch_seminorms,
                          box_design, sample_batch_coeffs)
from grflab.mc import _indicator_estimate, _map_chunks, _zero_count_rows

ONE = Monomial((0,), (1.0,))
T = Monomial((1,), (1.0,))
BOX = unit_interval()


def test_constant_field_sup_norm_probability():
    f = kl_field([ONE])
    est = estimate_probability(f, SupNormBelow(BOX, 0, 1.0), 20000, 0)
    want = 2.0 * normal_cdf(1.0) - 1.0
    assert abs(est.p_hat - want) <= 4.0 * est.stderr
    assert 0.0 <= est.ci95[0] <= est.ci95[1] <= 1.0


def test_empty_field_probability_one():
    f = kl_field([], m=1, k=1)
    est = estimate_probability(f, SupNormBelow(BOX, 0, 0.5), 500, 0)
    assert est.p_hat == 1.0 and est.stderr == 0.0
    assert est.ci95[1] == 1.0 > est.ci95[0]


def test_zero_count_quarter():
    # a + b t has a zero in [0,1] iff a and a+b have opposite signs;
    # for iid standard normals that probability is exactly 1/4
    f = kl_field([ONE, T])
    est = estimate_probability(f, ZeroCountEquals(BOX, 1), 20000, 0)
    oracle = 2.0 * (0.25 - math.asin(1.0 / math.sqrt(2.0)) / (2.0 * math.pi))
    assert abs(oracle - 0.25) < 1e-15
    assert abs(est.p_hat - 0.25) <= 4.0 * est.stderr


def test_zero_count_scan_semantics():
    vals = np.array([
        [1.0, -1.0, 1.0, 1.0],   # two strict sign changes
        [1.0, 0.0, 1.0, 1.0],    # exact zero, no double count
        [1.0, 0.0, -1.0, -1.0],  # crossing through an exact zero
        [0.0, 0.0, 1.0, 1.0],    # two exact zeros
        [2.0, 1.0, 3.0, 4.0],    # no zeros
    ])
    want = np.array([2, 1, 1, 2, 0])
    assert np.array_equal(_zero_count_rows(vals), want)


def _zero_count_loop(row):
    """Reference scan: an exact zero counts once and resets the sign state."""
    count = 0
    last = 0
    for v in row:
        if v == 0.0:
            count += 1
            last = 0
        elif v > 0.0:
            if last < 0:
                count += 1
            last = 1
        else:
            if last > 0:
                count += 1
            last = -1
    return count


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda width: st.lists(
    st.lists(st.sampled_from([-2.0, -1e-300, 0.0, 0.0, -0.0, 5e-324, 3.0,
                              math.nan, math.inf, -math.inf]),
             min_size=width, max_size=width),
    min_size=1, max_size=6)))
def test_zero_count_matches_loop_reference(rows):
    vals = np.array(rows)
    want = [_zero_count_loop(row) for row in vals]
    assert _zero_count_rows(vals).tolist() == want


def test_zero_count_on_disjoint_bump_paths():
    # gaps between the 25 bumps are exact zeros on the grid
    field = cx.build_X_n(cx.config(5))
    b = unit_interval(2048)
    vals = apply_design(sample_batch_coeffs(field, 0, np.arange(64)),
                        box_design(field, b, (0,)))
    want = [_zero_count_loop(row) for row in vals]
    assert _zero_count_rows(vals).tolist() == want


def test_clopper_pearson_interval_at_the_edges():
    # counterexample --n 20 --samples 20000: no hits, exact probability 1.23e-9
    lo, hi = _indicator_estimate(0, 20000, 0).ci95
    assert lo == 0.0 and abs(hi - 1.844e-4) < 1e-6
    assert lo <= cx.exact_small_norm_prob(20) <= hi
    one = _indicator_estimate(1, 20000, 0)
    assert one.ci95[0] > 0.0 and one.ci95[0] < one.p_hat < one.ci95[1]
    mid = _indicator_estimate(5000, 20000, 0)
    assert mid.ci95[0] < 0.25 < mid.ci95[1]
    assert abs(mid.ci95[1] - mid.ci95[0] - 2 * 1.96 * mid.stderr) < 1e-4


@pytest.mark.parametrize("n", [100, 101, 2000, 20000, 10**6])
def test_clopper_pearson_bounds_match_betaincinv(n):
    """The pure-Python beta quantile against ``scipy.special.betaincinv``."""
    from scipy.special import betaincinv

    for k in sorted({0, 1, 2, 9, 10, 11, n // 3, n // 2, n - 11, n - 2, n - 1, n}):
        lo, hi = _indicator_estimate(k, n, 0).ci95
        want_lo = 0.0 if k == 0 else betaincinv(k, n - k + 1, 0.025)
        want_hi = 1.0 if k == n else betaincinv(k + 1, n - k, 0.975)
        assert abs(lo - want_lo) <= 1e-10 * want_lo and abs(hi - want_hi) <= 1e-10 * want_hi


def test_positive_on_box():
    f = kl_field([ONE])
    est = estimate_probability(f, PositiveOnBox(BOX), 20000, 1)
    assert abs(est.p_hat - 0.5) <= 4.0 * est.stderr


def test_degenerate_zero_constant_field():
    # constant paths have zero derivative everywhere, so the event reduces
    # to |xi| < value_eps
    f = kl_field([ONE])
    eps = 0.1
    est = estimate_probability(f, DegenerateZero(BOX, eps, 1e-9), 20000, 2)
    want = 2.0 * normal_cdf(eps) - 1.0
    assert abs(est.p_hat - want) <= 4.0 * est.stderr


def test_requires_minimum_samples():
    with pytest.raises(ValueError):
        estimate_probability(kl_field([ONE]), SupNormBelow(BOX, 0, 1.0), 50, 0)


def test_reproducibility_bitwise():
    f = kl_field([ONE, T])
    e1 = estimate_probability(f, SupNormBelow(BOX, 0, 1.0), 2000, 7)
    e2 = estimate_probability(f, SupNormBelow(BOX, 0, 1.0), 2000, 7)
    assert e1 == e2


def test_seed_independence():
    f = kl_field([ONE, T])
    ests = [estimate_probability(f, SupNormBelow(BOX, 0, 1.5), 5000, s)
            for s in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            combined = math.hypot(ests[i].stderr, ests[j].stderr)
            assert abs(ests[i].p_hat - ests[j].p_hat) <= 4.0 * combined


def test_monotone_in_threshold():
    f = kl_field([ONE, T])
    ps = [estimate_probability(f, SupNormBelow(BOX, 0, c), 2000, 3).p_hat
          for c in (0.5, 1.0, 2.0, 4.0)]
    assert ps == sorted(ps)


def test_empirical_sup_mean_half_normal():
    f = kl_field([ONE])
    est = empirical_sup_mean(f, BOX, 0, 20000, 0)
    want = math.sqrt(2.0 / math.pi)
    assert abs(est.p_hat - want) <= 4.0 * est.stderr
    empty = kl_field([], m=1, k=1)
    est0 = empirical_sup_mean(empty, BOX, 0, 200, 0)
    assert est0.p_hat == 0.0


def test_gaussian_ratio_constant_field():
    f = kl_field([ONE])
    res = gaussian_ratio(f, BOX, 1, 20000, 0)
    assert not res.zero_denominator
    assert res.denominator == 1.0
    assert abs(res.ratio - math.sqrt(2.0 / math.pi)) < 0.02
    empty = kl_field([], m=1, k=1)
    res0 = gaussian_ratio(empty, BOX, 1, 200, 0)
    assert res0.zero_denominator and res0.ratio == 0.0
    with pytest.raises(ValueError):
        gaussian_ratio(f, BOX, 0)


def test_limit_study_perturbation_family():
    fields = [kl_field([ONE, Scaled(T, 1.0 / d)]) for d in (1, 4, 16)]
    limit = kl_field([ONE])
    rows = limit_study(fields, limit, SupNormBelow(BOX, 0, 1.0), BOX, 0,
                       n_samples=5000, seed=0)
    dists = [r.kernel_distance for r in rows[:-1]]
    assert all(d1 > d2 for d1, d2 in zip(dists, dists[1:]))
    assert np.allclose(dists, [1.0, 1.0 / 16, 1.0 / 256])
    assert rows[-1].kernel_distance == 0.0 and rows[-1].is_limit
    want = 2.0 * normal_cdf(1.0) - 1.0
    assert abs(rows[-1].estimate.p_hat - want) <= 4.0 * rows[-1].estimate.stderr


def test_limit_study_holds_one_field_at_a_time():
    """A generator of fields gives the rows of a list, and each field, with the
    designs it keeps, is freed before the next one is built."""
    scales = (1, 4, 16)
    limit, event = kl_field([ONE]), SupNormBelow(BOX, 0, 1.0)
    want = limit_study([kl_field([ONE, Scaled(T, 1.0 / d)]) for d in scales], limit, event,
                       BOX, 0, n_samples=500, seed=3)
    refs = []

    def fields():
        for d in scales:
            gc.collect()
            assert all(ref() is None for ref in refs), "an earlier field is still held"
            f = kl_field([ONE, Scaled(T, 1.0 / d)])
            refs.append(weakref.ref(f))
            yield f
            assert f._store, "the study kept no design on the field"
            del f

    assert limit_study(fields(), limit, event, BOX, 0, n_samples=500, seed=3) == want
    assert len(refs) == len(scales)


def test_limit_study_constant_sequence():
    f = kl_field([ONE, T])
    rows = limit_study([f, f, f], f, SupNormBelow(BOX, 0, 1.0), BOX, 0,
                       n_samples=1000, seed=0)
    assert all(r.kernel_distance == 0.0 for r in rows)
    assert len({r.estimate.p_hat for r in rows}) == 1  # shared seed, same law


def test_limit_study_counterexample_failure_mode():
    # kernels converge to zero at order (0,0) while the small-sup-norm
    # probabilities head to 0, not to the limit field's value 1
    from grflab import counterexample as cx

    ns = (2, 3, 5)
    fields = [cx.build_X_n(cx.config(n)) for n in ns]
    limit = kl_field([], m=1, k=1)
    # resolution 1800 = lcm of 2 n^2 over n in {2, 3, 5}: every bump center
    # of every field is a grid point
    common = unit_interval(1800)
    event = SupNormBelow(common, 0, 1.0)
    rows = limit_study(fields, limit, event, common, 0, n_samples=2000,
                       seed=0, distance_order=0)
    dists = [r.kernel_distance for r in rows[:-1]]
    assert all(d1 > d2 for d1, d2 in zip(dists, dists[1:]))
    probs = [r.estimate.p_hat for r in rows[:-1]]
    assert all(p1 > p2 for p1, p2 in zip(probs, probs[1:]))
    assert probs[-1] < 0.05
    assert rows[-1].estimate.p_hat == 1.0  # the limit field is identically zero


MIXED = kl_field([ONE, T, Harmonic((9.0,), 0.4, (1.0,)), Harmonic((4.0,), 1.1, (1.0,))],
                 sigmas=[0.3, 0.5, 0.9, 0.7])


def _mc_results(n):
    b = unit_interval(128)
    return (estimate_probability(MIXED, SupNormBelow(b, 1, 12.0), n, 5),
            estimate_probability(MIXED, ZeroCountEquals(b, 3), n, 5),
            empirical_sup_mean(MIXED, b, 1, n, 5))


def test_many_chunks_on_the_pool_equal_one_chunk(monkeypatch):
    n, per_sample = 3000, 129 + MIXED.size
    monkeypatch.setattr(grflab.field, "_BLOCK_ENTRIES", 4 * n * per_sample)
    one = _mc_results(n)
    # chunks of 37 samples: 82 chunks, all but the first on the pool; the
    # result depends neither on the number of threads nor on how they interleave
    monkeypatch.setattr(grflab.field, "_BLOCK_ENTRIES", 4 * 37 * per_sample)
    for cores in (1, 2, 4):
        monkeypatch.setattr(grflab.field, "_usable_cores", lambda: cores)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert _mc_results(n) == one
        finally:
            sys.setswitchinterval(interval)


def test_chunks_are_quarter_blocks_first_in_the_caller(monkeypatch):
    b = unit_interval(20)
    per_sample = 21 + MIXED.size
    monkeypatch.setattr(grflab.field, "_BLOCK_ENTRIES", 4 * 10 * per_sample + 3)
    # fn gets each chunk's range of sample indices and draws what it reads
    def fn(rows):
        indices = np.arange(rows.start, rows.stop)
        return indices, sample_batch_coeffs(MIXED, 2, indices), threading.get_ident()

    seen = _map_chunks(fn, MIXED, b, 95)
    assert [c.shape[0] for _, c, _ in seen] == [10] * 9 + [5]
    assert np.array_equal(np.concatenate([i for i, _, _ in seen]), np.arange(95))
    assert seen[0][2] == threading.get_ident()
    assert all(ident != threading.get_ident() for _, _, ident in seen[1:])
    assert np.array_equal(np.concatenate([c for _, c, _ in seen]),
                          sample_batch_coeffs(MIXED, 2, np.arange(95)))
    # one chunk runs in the caller and opens no pool
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)
    assert len(_map_chunks(lambda rows: rows.stop - rows.start, MIXED, b, 10)) == 1



def test_several_slices_run_on_the_pool_and_fewer_in_the_caller(monkeypatch):
    slices = [slice(i, i + 1) for i in range(5)]
    seen = _map_slices(lambda rows: (rows.start, threading.get_ident()), slices)
    assert [start for start, _ in seen] == list(range(5))
    assert threading.get_ident() not in {ident for _, ident in seen}
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)
    assert _map_slices(lambda rows: threading.get_ident(), slices[:1]) == [threading.get_ident()]
    assert _map_slices(lambda rows: threading.get_ident(), []) == []

@st.composite
def owner_cases(draw):
    """``X_n``, or 1-D disjoint bumps of random signed amplitudes and sigmas, on its grid."""
    cfg = cx.config(draw(st.integers(2, 6)), unit_interval(draw(st.integers(1, 100))))
    if draw(st.booleans()):
        return cx.build_X_n(cfg), cx.grid_box(cfg)
    centers, radius = cx.bump_layout(cfg)
    basis = [Bump((float(c),), radius, (draw(st.sampled_from([-1.0, 1.0])) * draw(
        st.floats(0.5, 2.0)),)) for c in centers]
    return kl_field(basis, [draw(st.floats(0.05, 2.0)) for _ in basis]), cx.grid_box(cfg)


@settings(max_examples=40, deadline=None)
@given(owner_cases(), st.integers(0, 1), st.integers(0, 2**31),
       st.sampled_from([100, 2000, 8192, 8193, 12000]),
       st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 1e300, np.inf]))
def test_owner_sup_events_decided_term_major_equal_the_chunked_full_draw(case, r, seed, n,
                                                                         threshold):
    """Hit counts of the term-major blocks are those of full draws, chunk by chunk; from
    4,097 paths, the first block (16 terms) spans two pieces of half a normal tile, from
    8,193 three."""
    field, b = case
    assert _owners_only(field, b, r)
    want = sum(_map_chunks(lambda rows: np.count_nonzero(batch_seminorms(field, sample_batch_coeffs(
        field, seed, np.arange(rows.start, rows.stop)), b, r) < threshold), field, b, n))
    assert estimate_probability(field, SupNormBelow(b, r, threshold), n, seed).p_hat == want / n


def test_term_major_pieces_do_not_depend_on_the_usable_cores(monkeypatch):
    cfg = cx.config(10)
    field, event = cx.build_X_n(cfg), SupNormBelow(cx.grid_box(cfg), 0, 1.5)
    want = estimate_probability(field, event, 3000, 11)
    assert 0.1 < want.p_hat < 0.5  # paths stop in every block of 16, 32 and 52 terms
    # pieces of 18 paths (half the tile) in the first block: 167 pieces, all on the pool
    monkeypatch.setattr(grflab.field, "_TILE", 16 * 37)
    pools = []
    pool = concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda threads: pools.append(threads) or pool(threads))
    for cores in (1, 4):
        monkeypatch.setattr(grflab.field, "_usable_cores", lambda: cores)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert estimate_probability(field, event, 3000, 11) == want
        finally:
            sys.setswitchinterval(interval)
        assert pools and set(pools) == {cores}
        pools.clear()


@pytest.mark.parametrize("overflow_chunk", [0, 3])
def test_chunks_run_under_the_callers_error_state(monkeypatch, overflow_chunk):
    # threads start with numpy's default error state: each chunk gets the caller's
    b = unit_interval(20)
    monkeypatch.setattr(grflab.field, "_BLOCK_ENTRIES", 4 * 10 * (21 + MIXED.size))
    starts = sample_batch_coeffs(MIXED, 2, np.arange(0, 95, 10))[:, 0]

    def fn(rows):
        indices = np.arange(rows.start, rows.stop)
        hit = sample_batch_coeffs(MIXED, 2, indices)[0, 0] == starts[overflow_chunk]
        return np.array([1e300]) * (1e300 if hit else 1.0)

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            _map_chunks(fn, MIXED, b, 95)
    with np.errstate(over="ignore"):
        assert np.isinf(_map_chunks(fn, MIXED, b, 95)[overflow_chunk]).all()
