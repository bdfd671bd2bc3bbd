import ast
import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scipy.sparse as sp

from grflab import (Box, Bump, Harmonic, IllConditionedError, IntegratedBump, Monomial,
                    OrderUnsupportedError,
                    RandomStream, SamplePath, Scaled, SupNormBelow, cm_inner, eval_kernel,
                    estimate_probability, eval_sample,
                    grid_points, kernel_of, kl_field, projection_residual,
                    sample, sample_seminorm, scan_nondegeneracy, support_basis,
                    unit_interval)
import grflab.field
from grflab import counterexample as cx
from grflab.basis import bump_partial
from grflab.field import (Windowed, _column_blocks, _design, _owners_only, _sup_split,
                          apply_design, batch_seminorms, box_design, sample_batch_coeffs,
                          sups_below)
from grflab.jet import _jet_covariances
from grflab.kernel import check_psd, eval_kernel_deriv_pairs
from grflab.mc import _zero_count_rows
from grflab.multiindex import multi_indices

ONE = Monomial((0,), (1.0,))
T = Monomial((1,), (1.0,))


def test_empty_field_samples_zero():
    f = kl_field([], m=1, k=1)
    path = sample(f, RandomStream(0))
    assert path.coeffs.size == 0
    assert eval_sample(path, [0.3])[0] == 0.0
    assert sample_seminorm(path, unit_interval(), 2) == 0.0


@pytest.mark.parametrize("m, k", [(1, 0), (0, 1), (0, 0), (-1, 1)])
def test_field_needs_positive_dimensions(m, k):
    with pytest.raises(ValueError, match="m >= 1 and k >= 1"):
        kl_field([], m=m, k=k)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_field_refuses_non_finite_and_non_positive_sigmas(sigma):
    with pytest.raises(ValueError, match="sigmas must be finite and positive"):
        kl_field([ONE, T], [1.0, sigma])


def test_constant_field_variance():
    f = kl_field([ONE])
    coeffs = sample_batch_coeffs(f, 0, np.arange(100_000))
    var = coeffs[:, 0].var()
    assert abs(var - 1.0) < 0.02


def test_affine_span_structure():
    f = kl_field([ONE, T])
    path = sample(f, RandomStream(3, 5))
    a, b = path.coeffs
    for x in (0.0, 0.4, 1.0):
        assert abs(eval_sample(path, [x])[0] - (a + b * x)) < 1e-15


def test_eval_sample_examples():
    f = kl_field([ONE, T])
    path = SamplePath(f, np.array([2.0, 3.0]))
    assert eval_sample(path, [4.0])[0] == 14.0
    assert eval_sample(path, [123.0], (1,))[0] == 3.0
    zero = SamplePath(f, np.zeros(2))
    assert eval_sample(zero, [0.5])[0] == 0.0


def test_eval_sample_linearity():
    f = kl_field([ONE, T, Monomial((2,), (1.0,))])
    c1 = np.array([0.3, -1.0, 2.0])
    c2 = np.array([1.1, 0.4, -0.7])
    pts = np.linspace(0, 1, 9).reshape(-1, 1)
    lhs = eval_sample(SamplePath(f, c1 + c2), pts)
    rhs = eval_sample(SamplePath(f, c1), pts) + eval_sample(SamplePath(f, c2), pts)
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_sample_seminorm_examples():
    f = kl_field([T])
    path = SamplePath(f, np.array([1.0]))
    assert sample_seminorm(path, unit_interval(), 0) == 1.0
    assert sample_seminorm(path, unit_interval(), 1) == 1.0
    assert sample_seminorm(SamplePath(f, np.zeros(1)), unit_interval(), 1) == 0.0


def test_sampling_deterministic_bitwise():
    f = kl_field([ONE, T], (0.5, 2.0))
    p1 = sample(f, RandomStream(11, 4))
    p2 = sample(f, RandomStream(11, 4))
    assert np.array_equal(p1.coeffs, p2.coeffs)


def test_support_basis_examples():
    f1 = kl_field([ONE])
    h = support_basis(f1, [0.7], 0)
    assert h.eval([0.2])[0] == 1.0
    f2 = kl_field([ONE, T])
    h2 = support_basis(f2, [2.0], 0)
    assert np.allclose(h2.coeffs, [1.0, 2.0])
    assert h2.eval([3.0])[0] == 7.0  # 1 + 2 q at q=3
    empty = kl_field([], m=1, k=1)
    h0 = support_basis(empty, [0.0], 0)
    assert h0.eval([0.5])[0] == 0.0


def test_support_basis_reproduces_kernel_column():
    f = kl_field([Monomial((1,), (1.0, 0.3)), Harmonic((2.0,), 0.1, (0.5, 1.0))],
                 (1.2, 0.7))
    K = kernel_of(f)
    p = [0.6]
    for j in range(2):
        h = support_basis(f, p, j)
        for q in np.linspace(0, 1, 50):
            want = eval_kernel(K, [q], p)[:, j]
            assert np.max(np.abs(h.eval([q]) - want)) <= 1e-12


def test_cm_inner_examples():
    f = kl_field([ONE, T])
    assert cm_inner(f, ([2.0], 0), ([3.0], 0)) == 7.0
    for p in (0.0, 0.4, 2.0):
        assert cm_inner(f, ([p], 0), ([p], 0)) >= 0.0
    empty = kl_field([], m=1, k=1)
    assert cm_inner(empty, ([0.1], 0), ([0.2], 0)) == 0.0


def test_cm_inner_matches_kernel_at_random_tuples(rng_np):
    f = kl_field([Monomial((1,), (1.0, 0.3)), Harmonic((2.0,), 0.1, (0.5, 1.0)),
                  Bump((0.2,), 0.8, (1.0, -0.4))], (1.1, 0.6, 0.9))
    K = kernel_of(f)
    for _ in range(100):
        p = [float(rng_np.uniform(-1, 2))]
        q = [float(rng_np.uniform(-1, 2))]
        j = int(rng_np.integers(0, 2))
        l = int(rng_np.integers(0, 2))
        val = cm_inner(f, (p, j), (q, l))
        assert abs(val - eval_kernel(K, p, q)[j, l]) <= 1e-12


def test_projection_residual_in_span():
    f = kl_field([ONE, T, Harmonic((3.0,), 0.0, (1.0,))])
    path = sample(f, RandomStream(1))
    assert projection_residual(f, path, unit_interval()) <= 1e-9
    h = support_basis(f, [0.3], 0)
    assert projection_residual(f, h, unit_interval()) <= 1e-9


def test_projection_residual_constant_onto_span_t():
    f = kl_field([T])
    b = unit_interval()  # 257-point grid
    got = projection_residual(f, lambda p: np.array([1.0]), b)
    # least-squares oracle on the same grid
    ts = grid_points(b).ravel()
    target = np.ones_like(ts)
    coef, *_ = np.linalg.lstsq(ts.reshape(-1, 1), target, rcond=None)
    want = math.sqrt(np.mean((target - coef[0] * ts) ** 2))
    assert abs(got - want) < 1e-10
    # continuum closed form: best coefficient 3/2, residual sqrt(1/4)
    assert abs(got - 0.5) < 0.01


def test_projection_refuses_duplicate_basis():
    f = kl_field([T, T])
    with pytest.raises(IllConditionedError):
        projection_residual(f, lambda p: np.array([1.0]), unit_interval(16))


def test_empirical_covariance_matches_kernel():
    basis = [Monomial((0,), (1.0,)), Monomial((1,), (1.0,)),
             Harmonic((2.0,), 0.3, (1.0,)), Harmonic((5.0,), 1.0, (1.0,)),
             Bump((0.5,), 0.3, (1.0,))]
    f = kl_field(basis, (1.0, 0.7, 1.2, 0.5, 0.9))
    K = kernel_of(f)
    pairs = [([0.2], [0.7]), ([0.1], [0.1]), ([0.9], [0.4])]
    n = 100_000
    for seed in (0, 1, 2):
        coeffs = sample_batch_coeffs(f, seed, np.arange(n))
        for p, q in pairs:
            vp = apply_design(coeffs, _design(f, np.array([p]), (0,)))[:, 0]
            vq = apply_design(coeffs, _design(f, np.array([q]), (0,)))[:, 0]
            prod = vp * vq
            se = prod.std(ddof=1) / math.sqrt(n)
            want = eval_kernel(K, p, q)[0, 0]
            assert abs(prod.mean() - want) <= 5.0 * se


def test_multivariate_output_paths():
    f = kl_field([Monomial((1,), (1.0, -2.0)), Harmonic((1.0,), 0.0, (0.5, 0.5))])
    path = SamplePath(f, np.array([1.0, 2.0]))
    v = eval_sample(path, [0.5])
    want = np.array([0.5, -1.0]) + 2.0 * np.array([0.5 * math.cos(0.5)] * 2)
    assert np.allclose(v, want, atol=1e-15)
    assert sample_seminorm(path, unit_interval(32), 1) > 0


def test_cached_arrays_are_read_only():
    b = unit_interval(8)
    pts = grid_points(b)
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0
    field = kl_field([ONE, T])
    dense = box_design(field, b, (0,))
    with pytest.raises(ValueError):
        dense[0, 0] = 1.0
    # a dense design's split for grid sups is all rest: the design itself
    owners, peaks, rests = _sup_split(field, b, 0)
    assert owners.size == peaks.size == 0 and rests == (dense,) and rests[0] is dense
    assert not (owners.flags.writeable or peaks.flags.writeable)
    # a bump field's design is windowed at every grid size
    bumps = kl_field([Bump((0.02 * i + 0.01,), 0.005, (1.0,)) for i in range(50)])
    windowed = box_design(bumps, unit_interval(100_000), (0,))
    assert windowed.nnz > 0
    for arr in (windowed.data, windowed.rows, windowed.cols):
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_a_field_builds_each_box_design_once():
    def build():
        return kl_field([Bump((0.1 * i + 0.05,), 0.04, (1.0,)) for i in range(10)],
                        [0.5 + 0.1 * i for i in range(10)])

    f, g = build(), build()
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != kl_field(f.basis, [1.0] * 10)
    b = unit_interval(64)
    first = box_design(f, b, (1,))
    hits, misses = box_design.cache_info()[:2]
    assert box_design(f, b, (1,)) is first
    assert box_design.cache_info()[:2] == (hits + 1, misses)
    # an equal field keeps its own design: the same bits, not the same arrays
    own = box_design(g, b, (1,))
    assert own is not first and own.data.tobytes() == first.data.tobytes()
    assert box_design.cache_info()[:2] == (hits + 1, misses + 1)


def test_box_design_counts_one_hit_or_one_miss_per_call(monkeypatch):
    """The ``(hits, misses)`` of ``box_design.cache_info()`` move by exactly one
    per call; a grid-sup split reaches it once when built and not when kept."""
    dense = kl_field([ONE, T])
    bumps = kl_field([Bump((0.1 * i + 0.05,), 0.04, (1.0,)) for i in range(10)])
    b = unit_interval(32)

    def moved(call):
        before = box_design.cache_info()[:2]
        call()
        after = box_design.cache_info()[:2]
        return after[0] - before[0], after[1] - before[1]

    for field in (dense, bumps):
        assert moved(lambda: box_design(field, b, (1,))) == (0, 1)
        assert moved(lambda: box_design(field, b, (1,))) == (1, 0)
        assert moved(lambda: box_design(field, b, (0,), (1,))) == (0, 1)
        assert moved(lambda: _sup_split(field, b, 1)) == (1, 0)
        assert moved(lambda: _sup_split(field, b, 1)) == (0, 0)
        assert moved(lambda: _sup_split(field, b, 0)) == (0, 1)
        hits, misses = box_design.cache_info()[:2]
        with monkeypatch.context() as patch, pytest.raises(MemoryError):
            patch.setattr(grflab.field, "_BLOCK_ENTRIES", 10)
            box_design(field, unit_interval(16), (0,))
        # a refused build is one miss and keeps nothing
        assert box_design.cache_info()[:2] == (hits, misses + 1)
        assert moved(lambda: box_design(field, unit_interval(16), (0,))) == (0, 1)
        assert moved(lambda: batch_seminorms(field, np.ones((2, field.size)), b, 1)) == (0, 0)


def test_fields_equal_but_for_a_signed_zero_keep_their_own_designs():
    """Scaled(f, 0.0) == Scaled(f, -0.0), and so are their fields, yet each field's
    box design and grid-sup split hold its own bits, whichever is built first."""
    f = Harmonic((2.0,), 0.3, (1.0,))
    b = unit_interval(8)
    zeros = (0.0, -0.0)
    want = [_design(kl_field([Scaled(f, z)]), grid_points(b), (1,)).tobytes() for z in zeros]
    assert want[0] != want[1]
    for order in ((0, 1), (1, 0)):
        fields = {i: kl_field([Scaled(f, zeros[i])]) for i in order}
        assert fields[0] == fields[1] and hash(fields[0]) == hash(fields[1])
        for i in order:
            assert box_design(fields[i], b, (1,)).tobytes() == want[i]
        fields = {i: kl_field([Scaled(f, zeros[i])]) for i in order}
        for i in order:  # the split builds its own design of orders 0 and 1
            assert _sup_split(fields[i], b, 1)[2][1].tobytes() == want[i]


def test_box_designs_are_freed_with_their_field():
    b = unit_interval(64)
    dense = kl_field([ONE, T])
    bumps = kl_field([Bump((0.1 * i + 0.05,), 0.04, (1.0,)) for i in range(10)])
    kept = [box_design(dense, b, (0,)), box_design(bumps, b, (0,), (1,)),
            *_sup_split(dense, b, 1), _sup_split(bumps, b, 1)[2][0]]
    assert isinstance(kept[1], Windowed) and isinstance(kept[-1], Windowed)
    refs = [weakref.ref(x) for x in kept if not isinstance(x, tuple)]
    del kept, dense, bumps
    gc.collect()
    assert len(refs) == 5 and all(ref() is None for ref in refs)


def _per_function_design(field, pts, a):
    """Oracle: one eval_partial call per basis function, stacked as rows."""
    return np.stack([f.eval_partial(pts, a).ravel() for f in field.basis])


def test_windowed_design_matches_dense_bit_for_bit():
    h = 1.0 / 64
    basis = [
        Bump((0.3,), 0.1, (1.0,)),
        Bump((0.35,), 0.2, (-0.7,)),                           # overlaps the first
        Scaled(Bump((0.6,), 0.05, (1.3,)), 0.37),
        Scaled(Scaled(Bump((0.81,), 0.13, (0.9,)), -1.7), 0.6),
        Bump((0.5,), 0.4 * h, (2.0,)),                         # one grid point
        Scaled(Bump((0.0,), 0.7 * h, (1.0,)), 3.0),            # one point, at the edge
        Bump((0.5 + 0.5 * h,), 0.25 * h, (1.0,)),              # between two points
        Bump((1.5,), 0.2, (1.0,)),                             # outside the box
        Bump((-0.05,), 0.1, (0.4,)),                           # half outside
    ]
    field = kl_field(basis, [0.5 + 0.1 * i for i in range(len(basis))])
    pts = grid_points(unit_interval(64))
    for a in range(5):
        design = _design(field, pts, (a,))
        assert isinstance(design, Windowed)
        assert np.array_equal(design.toarray(), _per_function_design(field, pts, (a,)))
        assert np.all(design.data != 0.0)
    assert list(np.bincount(_design(field, pts, (0,)).rows)[[4, 6]]) == [1, 0]
    with pytest.raises(OrderUnsupportedError):
        _design(field, pts, (5,))


@st.composite
def bump_design_cases(draw):
    """(Scaled) bumps on the line and points that are unsorted, repeated,
    outside any box, or on and next to the support edges."""
    basis = []
    for _ in range(draw(st.integers(1, 8))):
        f = Bump((draw(st.floats(-0.5, 1.5)),), draw(st.floats(1e-3, 0.8)),
                 (draw(st.floats(-2.0, 2.0)),))
        for _ in range(draw(st.integers(0, 2))):
            f = Scaled(f, draw(st.floats(-3.0, 3.0)))
        basis.append(f)
    edges = []
    for f in basis:
        while isinstance(f, Scaled):
            f = f.inner
        for e in (f.center[0] - f.radius, f.center[0] + f.radius):
            edges += [np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)]
    xs = draw(st.lists(st.floats(-1.0, 2.0) | st.sampled_from(edges), min_size=1, max_size=30))
    xs += draw(st.lists(st.sampled_from(xs), max_size=10))
    xs = draw(st.permutations(xs))
    return kl_field(basis), np.array(xs, dtype=np.float64).reshape(-1, 1)


@settings(max_examples=100, deadline=None)
@given(bump_design_cases(), st.integers(0, 4))
def test_windowed_design_at_any_points(case, a):
    field, pts = case
    design = _design(field, pts, (a,))
    assert isinstance(design, Windowed)
    assert np.all(design.data != 0.0)
    # entries sorted by row, then column
    assert np.all(np.diff(design.rows * design.shape[1] + design.cols) > 0)
    assert np.array_equal(design.toarray(), _per_function_design(field, pts, (a,)))


@settings(max_examples=100, deadline=None)
@given(bump_design_cases(), st.integers(0, 2**31))
def test_windowed_operations_round_like_csr_array(case, seed):
    """Every operation consumers use, against ``scipy.sparse.csr_array`` of the
    same entries: bit for bit, signed zeros included.  Row sums are the
    product with ones, as products sum them, not csr_array's ``sum(axis=1)``."""
    field, pts = case
    W, V = _design(field, pts, (0,)), _design(field, pts, (1,))
    S, R = sp.csr_array(W.toarray()), sp.csr_array(V.toarray())
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(5, W.shape[0]))
    v = rng.normal(size=W.shape[1])
    col = rng.normal(size=(W.shape[0], 1))
    for got, want in [
            (coeffs @ W, coeffs @ S), (coeffs[0] @ W, coeffs[0] @ S),
            (W @ v, S @ v), (W.T @ coeffs[0], S.T @ coeffs[0]),
            ((W.T @ V).toarray(), (S.T @ R).toarray()), ((W @ V.T).toarray(), (S @ R.T).toarray()),
            (W.sum(axis=0), S.sum(axis=0)), (W.sum(axis=1), S @ np.ones(S.shape[1])),
            ((W * V).toarray(), (S * R).toarray()),
            ((col * W * v).toarray(), (col * S * v).toarray()),
            (W[:, 1::2].toarray(), S[:, 1::2].toarray()),
            (W[:, v > 0].toarray(), S[:, v > 0].toarray()),
            (abs(W).max(axis=0), abs(S).max(axis=0).toarray()),
            ([W.max(), abs(W).max()], [S.max(), abs(S).max()])]:
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@st.composite
def box_bump_cases(draw):
    """(Scaled) bumps on a box grid: overlapping, nested inside one another
    (a nested term owns no one-entry column), outside the box, with centres
    and support edges on grid points or between them."""
    res = draw(st.integers(1, 64))
    lo = draw(st.floats(-1.0, 1.0))
    b = Box((lo,), (lo + draw(st.floats(0.1, 2.0)),), (res,))
    h = b.width(0) / res
    basis = []
    for _ in range(draw(st.integers(1, 8))):
        center = draw(st.floats(lo - 0.5, lo + b.width(0) + 0.5)
                      | st.integers(0, res).map(lambda i: lo + i * h))
        radius = draw(st.floats(1e-3, 0.8) | st.integers(1, 8).map(lambda i: i * h))
        f = Bump((center,), radius, (draw(st.floats(-2.0, 2.0)),))
        if draw(st.booleans()):
            basis.append(Bump((center,), radius * draw(st.floats(0.1, 0.9)),
                              (draw(st.floats(-2.0, 2.0)),)))
        for _ in range(draw(st.integers(0, 2))):
            f = Scaled(f, draw(st.floats(-3.0, 3.0)))
        basis.append(f)
    return kl_field(draw(st.permutations(basis))), b


_NESTED = (kl_field([Bump((0.3,), 0.1, (1.0,)), Bump((0.35,), 0.2, (-0.7,)),
                     Scaled(Bump((0.6,), 0.05, (1.3,)), -0.37), Bump((1.5,), 0.2, (1.0,))]),
           unit_interval(64))


@settings(max_examples=100, deadline=None)
@example(_NESTED, 3, 0)
@given(box_bump_cases(), st.integers(0, 3), st.integers(0, 2**31))
def test_grid_sups_from_peaks_equal_the_windowed_product(case, r, seed):
    """Bit for bit ``max |coeffs @ design|`` with the per-function design
    stored sparse: a dense BLAS product sums overlapping columns in another
    order, so it is compared only on disjoint bumps (see
    test_small_bump_fields_are_windowed)."""
    field, b = case
    coeffs = sample_batch_coeffs(field, seed, np.arange(40))
    pts = grid_points(b)
    want = np.zeros(coeffs.shape[0])
    for a in range(r + 1):
        product = coeffs @ sp.csr_array(_per_function_design(field, pts, (a,)))
        want = np.maximum(want, np.max(np.abs(product), axis=1))
    owners, peaks, (rest,) = _sup_split(field, b, r)
    for arr in (owners, peaks, rest.data, rest.rows, rest.cols):
        assert not arr.flags.writeable
    assert np.array_equal(batch_seminorms(field, coeffs, b, r), want)
    if case is _NESTED:
        # the nested first term and the term outside the box own no one-entry column
        assert _sup_split(field, b, 0)[0].tolist() == [1, 2]


def test_grid_sups_from_peaks_overflow_to_inf_silently():
    # |c|*peak = 1e200 * 1e200: inf without a warning, as the sparse product gave
    field = kl_field([Bump((0.25,), 0.2, (1e200,)), Bump((0.75,), 0.2, (1.0,))])
    b = unit_interval(8)
    assert _sup_split(field, b, 0)[0].tolist() == [0, 1]
    sups = batch_seminorms(field, np.array([[1e200, 1.0], [1.0, 1.0]]), b, 0)
    assert sups[0] == np.inf and sups[1] == 1e200


@st.composite
def sup_event_cases(draw):
    """A field whose sigmas are within 25 % of one another but for at most one term of
    sigma 1e20 and amplitude 1e290, its grid box, and whether every term owns a column and
    none is shared."""
    kind = draw(st.sampled_from(["disjoint", "overlapping", "harmonic", "empty"]))
    if kind == "empty":
        return kl_field([], m=1, k=1), unit_interval(8), False
    cfg = cx.config(draw(st.integers(2, 7)), unit_interval(draw(st.integers(1, 200))))
    centers, radius = cx.bump_layout(cfg)
    if kind == "harmonic":
        basis = [Harmonic((draw(st.floats(0.5, 20.0)),), draw(st.floats(0.0, 6.3)), (1.0,))
                 for _ in range(draw(st.integers(1, 6)))]
    else:
        scale = 1.0 if kind == "disjoint" else draw(st.floats(1.5, 4.0))
        basis = [Bump((float(c),), radius * scale, (draw(st.floats(0.5, 1.5)),)) for c in centers]
    sigma = draw(st.floats(0.05, 2.0))
    sigmas = [sigma * draw(st.floats(0.8, 1.25)) for _ in basis]
    huge = draw(st.integers(-1, 2 * len(basis)))
    if 0 <= huge < len(basis):  # its |c| * peak overflows to inf
        basis[huge], sigmas[huge] = Scaled(basis[huge], 1e290), 1e20
    return kl_field(basis, sigmas), cx.grid_box(cfg), kind == "disjoint"


@settings(max_examples=100, deadline=None)
@given(sup_event_cases(), st.integers(0, 1), st.integers(0, 2**31), st.integers(0, 10**6),
       st.integers(1, 200), st.sampled_from([-1.0, 0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 1e300, np.inf]))
def test_sups_below_equals_the_full_draw(case, r, seed, first, n, level):
    """Coefficient blocks that stop at a failing sample give the full draw's answer bit for
    bit, under the default block schedule and under one that starts at three terms.  Other
    fields are drawn in full, which their estimate, from sample 0, must count.  The
    threshold is ``level`` standard deviations of a typical term's grid sup, or exactly the
    grid sup of one of the samples."""
    field, b, all_owners = case
    owners, peaks, rests = _sup_split(field, b, r)
    assert (owners.size == field.size > 0 and not any(x.shape[1] for x in rests)) == all_owners
    assert _owners_only(field, b, r) == all_owners
    if not all_owners:
        first, n = 0, max(n, 100)
    indices = np.arange(first, first + n)
    # a dense product of huge terms overflows, and sums inf - inf to nan; the blocks of
    # an all-owner split overflow to inf silently, as the full draw's peaks do
    quiet = {"over": "ignore", "invalid": "ignore"}
    with np.errstate(**quiet):
        sups = batch_seminorms(field, sample_batch_coeffs(field, seed, indices), b, r)
    # a Python float: a huge term's threshold overflows to inf without a warning
    typical = float(np.median(peaks)) if peaks.size else 1.0
    for threshold in (level * (min(field.sigmas) if field.size else 1.0) * typical, sups[n // 2]):
        errors = dict.fromkeys(("divide", "over", "invalid"), "raise") if all_owners else quiet
        with np.errstate(**errors), pytest.MonkeyPatch.context() as mp:
            if not all_owners:
                est = estimate_probability(field, SupNormBelow(b, r, threshold), n, seed)
                assert est.p_hat == np.count_nonzero(sups < threshold) / n
                continue
            assert np.array_equal(sups_below(field, seed, indices, b, r, threshold),
                                  sups < threshold)
            mp.setattr(grflab.field, "_FIRST_TERMS", 3)
            assert np.array_equal(sups_below(field, seed, indices, b, r, threshold),
                                  sups < threshold)


def test_windowed_design_is_refused_above_the_entry_budget(monkeypatch):
    # windows of 5 and 3 of the 5 grid points: 8 entries to store
    field = kl_field([Bump((0.5,), 1.0, (1.0,)), Bump((0.5,), 0.3, (1.0,))])
    pts = grid_points(unit_interval(4))
    monkeypatch.setattr(grflab.field, "_BLOCK_ENTRIES", 8)
    assert _design(field, pts, (1,)).shape == (2, 5)

    def unreachable(*args):
        raise AssertionError("bump values were computed for a refused design")

    monkeypatch.setattr(grflab.field, "_BLOCK_ENTRIES", 7)
    monkeypatch.setattr(grflab.field, "bump_partial", unreachable)
    with pytest.raises(MemoryError, match="design of 8 entries exceeds"):
        _design(field, pts, (1,))


def _native_and_dense(field, fn):
    """``fn(field)`` on the windowed design, then on the per-function dense one.

    On the windowed design, densifying a matrix with one row per term (a
    design, not a Gram matrix of designs) raises.
    """
    assert isinstance(_design(field, np.zeros((1, 1)), (0,)), Windowed)
    toarray = Windowed.toarray

    def refuse_designs(self):
        if self.shape[0] == field.size:
            raise AssertionError("a windowed design was densified")
        return toarray(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Windowed, "toarray", refuse_designs)
        with pytest.raises(AssertionError):
            _design(field, np.zeros((1, 1)), (0,)).toarray()
        native = fn(field)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grflab.field, "_windowed", lambda f: False)
        assert isinstance(_design(field, np.zeros((1, 1)), (0,)), np.ndarray)
        return native, fn(field)


def _windowed_consumers(field):
    """Jet covariances and scan, kernel pairs, PSD check and a support basis."""
    b = unit_interval(96)
    pts = grid_points(b)
    K = kernel_of(field)
    X = np.concatenate([pts, [[-0.3], [0.5]]])
    Y = np.concatenate([pts + 0.004, [[0.5], [1.7]]])
    cov, exponents = _jet_covariances(K, pts, 2)
    psd = check_psd(K, pts[::3])
    return {
        "jet_cov": np.ldexp(cov, exponents[:, None, None]),
        "scan": scan_nondegeneracy(K, b, 1),
        "pairs": np.stack([eval_kernel_deriv_pairs(K, X, Y, (a,), (c,))
                           for a in range(3) for c in range(3)]),
        "pairs_swapped": np.stack([eval_kernel_deriv_pairs(K, Y, X, (c,), (a,))
                                   for a in range(3) for c in range(3)]),
        "psd": np.array([psd.min_eigenvalue, psd.tolerance]),
        "support": np.stack([support_basis(field, p, 0).coeffs for p in pts[::7]]),
    }


def test_consumers_read_the_windowed_design_without_densifying():
    """Bit for bit against the dense per-function design on disjoint bumps,
    to 1e-12 relative on overlapping and scaled ones; kernel pairs are
    exactly symmetric in either form."""
    disjoint = cx.build_X_n(cx.config(4))
    native, dense = _native_and_dense(disjoint, _windowed_consumers)
    assert native["scan"] == dense["scan"]
    for key in ("jet_cov", "pairs", "psd", "support"):
        assert np.array_equal(native[key], dense[key]), key
    h = 1.0 / 96
    overlapping = kl_field([
        Bump((0.3,), 0.1, (1.0,)),
        Bump((0.35,), 0.2, (-0.7,)),
        Scaled(Bump((0.6,), 0.05, (1.3,)), 0.37),
        Scaled(Scaled(Bump((0.81,), 0.13, (0.9,)), -1.7), 0.6),
        Bump((0.5,), 0.4 * h, (2.0,)),
        Bump((-0.05,), 0.1, (0.4,)),
        Bump((0.5,), 0.6, (0.8,)),
    ], [0.5 + 0.1 * i for i in range(7)])
    native, dense = _native_and_dense(overlapping, _windowed_consumers)
    for key in ("jet_cov", "pairs", "support"):
        scale = np.abs(dense[key]).max()
        assert np.max(np.abs(native[key] - dense[key])) <= 1e-12 * scale, key
    # the tolerance is 1e-9 of the Gram matrix's largest diagonal entry
    assert np.all(np.abs(native["psd"] - dense["psd"]) <= 1e-3 * dense["psd"][1])
    assert native["scan"].n_failures == dense["scan"].n_failures
    assert native["scan"].worst_point == dense["scan"].worst_point
    for case in (native, dense):
        assert np.array_equal(case["pairs"], case["pairs_swapped"].transpose(0, 1, 3, 2))


def test_counterexample_path_is_windowed_on_the_integration_grid():
    """The n = 100 path on a 4,507-point integration grid: one stored entry
    per point at most, and eval_sample equals the per-term sum."""
    field = cx.build_X_n(cx.config(100))
    grid = (-0.1 + np.arange(4507) / 4096).reshape(-1, 1)
    assert grid.shape == (4507, 1)
    design = _design(field, grid, (0,))
    assert isinstance(design, Windowed) and design.nnz <= 4507
    path = SamplePath(field, sample_batch_coeffs(field, 5, [0])[0])
    # the supports are disjoint, so the sum has one non-zero term per point
    # and its value does not depend on the order of summation
    x = grid[:, 0]
    want = np.zeros(x.size)
    for c, f in zip(path.coeffs, field.basis):
        inside = np.abs(x - f.center[0]) < f.radius
        want[inside] += c * f.eval(grid[inside])[:, 0]
    assert np.count_nonzero(want) == design.nnz
    assert np.array_equal(eval_sample(path, grid)[:, 0], want)


def test_counterexample_design_is_windowed():
    cfg = cx.config(100)
    design = box_design(cx.build_X_n(cfg), cx.grid_box(cfg), (0,))
    assert isinstance(design, Windowed) and design.nnz == 10_000
    for arr in (design.data, design.rows, design.cols):
        assert not arr.flags.writeable


@pytest.mark.parametrize("n", [2, 4, 5, 8, 10])
def test_small_bump_fields_are_windowed(n):
    """Bump fields take the windowed-sparse design at every grid size, with
    the per-function values and the dense product's seminorms."""
    cfg = cx.config(n)
    field, b = cx.build_X_n(cfg), cx.grid_box(cfg)
    coeffs = sample_batch_coeffs(field, 11, np.arange(64))
    ref = np.zeros(64)
    for a in [(0,), (1,)]:
        design = box_design(field, b, a)
        assert isinstance(design, Windowed)
        for arr in (design.data, design.rows, design.cols):
            assert not arr.flags.writeable
        dense = _per_function_design(field, grid_points(b), a)
        assert np.array_equal(design.toarray(), dense)
        ref = np.maximum(ref, np.max(np.abs(coeffs @ dense), axis=1))
        assert np.array_equal(batch_seminorms(field, coeffs, b, a[0]), ref)


def _importers(module: str) -> set:
    """Modules of the package that import ``module`` or one of its submodules."""
    package = Path(grflab.field.__file__).parent
    importers = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == module or name.startswith(module + ".") for name in names):
                importers.add(path.relative_to(package).as_posix())
    return importers


def test_no_module_imports_scipy():
    # every command starts without scipy: numpy normals, pure-Python
    # Clopper-Pearson bounds, numpy windowed designs
    assert _importers("scipy") == set()
    # bump partials evaluate integer profile polynomials by Horner's rule
    assert _importers("numpy.polynomial") == set()


@st.composite
def mixed_fields(draw):
    """Harmonics, monomials, bumps and (in 1-D) integrated bumps, some of
    them scaled up to twice, with m = 1-3, k = 1-2, at G = 1, 2, 7 or 64
    points; a 1-D scalar all-bump draw takes the windowed design."""
    m, k = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    coord = st.floats(-1.0, 2.0)
    amplitude = st.tuples(*[st.floats(-2.0, 2.0)] * k)
    families = [
        st.builds(Harmonic, st.tuples(*[st.floats(-9.0, 9.0)] * m), st.floats(-3.0, 3.0),
                  amplitude),
        st.builds(Monomial, st.tuples(*[st.integers(0, 4)] * m), amplitude),
        st.builds(Bump, st.tuples(*[coord] * m), st.floats(0.05, 1.0), amplitude),
    ]
    if m == 1:
        families.append(st.builds(IntegratedBump, st.tuples(coord), st.floats(0.05, 1.0),
                                  amplitude, st.integers(1, 2)))
    terms = st.one_of(*families)
    if k == 1 and m == 1 and draw(st.booleans()):
        terms = families[2]
    basis = []
    for f in draw(st.lists(terms, min_size=1, max_size=8)):
        for _ in range(draw(st.integers(0, 2))):
            f = Scaled(f, draw(st.floats(-3.0, 3.0)))
        basis.append(f)
    g = draw(st.sampled_from([1, 2, 7, 64]))
    pts = np.array(draw(st.lists(st.tuples(*[coord] * m), min_size=g, max_size=g)))
    return kl_field(basis), pts.reshape(g, m)


def _one_term_partial(f, pts, alpha):
    """(G, k) partial of one term, each family in its own loop: the reference
    that the family evaluators must round like."""
    if isinstance(f, Scaled):
        return f.factor * _one_term_partial(f.inner, pts, alpha)
    if isinstance(f, IntegratedBump):
        return f._eval_partial(pts, alpha)
    amplitude = np.asarray(f.amplitude, dtype=np.float64)
    if isinstance(f, Bump):
        return np.outer(bump_partial(pts, np.asarray(f.center), f.radius, (alpha,))[0], amplitude)
    coeff, values = 1.0, np.ones(len(pts))
    if isinstance(f, Monomial):
        for i, (e, a) in enumerate(zip(f.exponents, alpha)):
            if a > e:
                return np.zeros((len(pts), f.k))
            coeff *= math.perm(e, a)
            if e - a:
                values = values * pts[:, i] ** (e - a)
    else:
        for w, a in zip(f.frequency, alpha):
            coeff *= w ** a
        theta = pts @ np.asarray(f.frequency, dtype=np.float64) + f.phase
        shift = sum(alpha) % 4  # cos, -sin, -cos, sin
        values = [np.cos, np.sin][shift % 2](theta) * (-1.0 if shift in (1, 2) else 1.0)
    return np.outer(coeff * values, amplitude)


@settings(max_examples=60, deadline=None)
@given(mixed_fields(), st.integers(0, 3))
def test_multi_order_design_equals_one_term_designs(case, r):
    """All orders <= r built at once equal, bit for bit, each term's own
    design one order at a time and the one-term reference; a windowed
    design stores no zeros, so only there a signed zero may read +0.0."""
    field, pts = case
    alphas = multi_indices(field.m, r)
    blocks = _column_blocks(_design(field, pts, *alphas), len(alphas))
    for a, block in zip(alphas, blocks):
        windowed = isinstance(block, Windowed)
        block = block.toarray() if windowed else block
        for row, f in zip(block, field.basis):
            one = _design(kl_field([f]), pts, a)
            want = _one_term_partial(f, pts, a).ravel()
            if windowed or isinstance(one, Windowed):
                one = one.toarray() if isinstance(one, Windowed) else one
                assert np.array_equal(row, one[0])
                assert np.array_equal(row, want)
            else:
                assert row.tobytes() == one[0].tobytes() == want.tobytes()
                assert f.eval_partial(pts, a).tobytes() == want.tobytes()


def test_zero_counts_of_a_windowed_product_scan_its_rows():
    """A windowed product is C-ordered like a dense one; the zero-count scan
    counts what a direct count gives."""
    cfg = cx.config(10)
    field, b = cx.build_X_n(cfg), cx.grid_box(cfg)
    design = box_design(field, b, (0,))
    coeffs = sample_batch_coeffs(field, 3, np.arange(48))
    vals = apply_design(coeffs, design)
    assert vals.flags.c_contiguous
    assert vals.tobytes() == (coeffs @ design).tobytes()
    counts = _zero_count_rows(vals)
    assert np.array_equal(counts, [np.count_nonzero(v == 0.0) + np.count_nonzero(
        np.sign(v[:-1]) * np.sign(v[1:]) < 0) for v in vals])
