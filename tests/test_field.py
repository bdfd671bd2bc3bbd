import math

import numpy as np
import pytest

from grflab import (Bump, Harmonic, IllConditionedError, Monomial, RandomStream,
                    SamplePath, cm_inner, eval_kernel, eval_sample,
                    grid_points, kernel_of, kl_field, projection_residual,
                    sample, sample_seminorm, support_basis, unit_interval)
from grflab.field import box_design, design_at_points, jet_design, sample_batch_coeffs

ONE = Monomial((0,), (1.0,))
T = Monomial((1,), (1.0,))


def test_empty_field_samples_zero():
    f = kl_field([], m=1, k=1)
    path = sample(f, RandomStream(0))
    assert path.coeffs.size == 0
    assert eval_sample(path, [0.3])[0] == 0.0
    assert sample_seminorm(path, unit_interval(), 2) == 0.0


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
            vp = (coeffs @ design_at_points(f, np.array([p]), (0,)))[:, 0]
            vq = (coeffs @ design_at_points(f, np.array([q]), (0,)))[:, 0]
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
    dense = box_design(kl_field([ONE, T]), b, (0,))
    with pytest.raises(ValueError):
        dense[0, 0] = 1.0
    # 50 narrow bumps on a 100001-point grid exceed the dense limit
    bumps = kl_field([Bump((0.02 * i + 0.01,), 0.005, (1.0,)) for i in range(50)])
    sparse = box_design(bumps, unit_interval(100_000), (0,))
    assert sparse.nnz > 0
    for arr in (sparse.data, sparse.indices, sparse.indptr):
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_jet_design_layout(rng_np):
    basis = [Monomial((2, 1), (1.0, -0.5)), Harmonic((1.0, 2.0), 0.3, (0.5, 1.0)),
             Bump((0.2, 0.1), 0.9, (0.7, 0.2))]
    f = kl_field(basis)
    pts = rng_np.uniform(-0.5, 0.5, (5, 2))
    alphas = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    J = jet_design(f, pts, 2)
    assert J.shape == (3, 5, 2 * len(alphas))
    for n, bf in enumerate(basis):
        for g, p in enumerate(pts):
            for ai, a in enumerate(alphas):
                assert np.array_equal(J[n, g, [ai, len(alphas) + ai]], bf.eval_partial(p, a))
