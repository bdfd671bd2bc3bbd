import math

import numpy as np
import pytest

from grflab import (SamplePath, SupNormBelow, estimate_probability, eval_kernel,
                    kernel_of)
from grflab import counterexample as cx
from grflab.basis import grid_points

from conftest import bisect_normal_quantile


def test_a_n_values_against_bisection_oracle():
    for n in (2, 5, 100):
        assert abs(cx.a_n(n) - bisect_normal_quantile(1 - 1 / (2 * n))) < 1e-10
    assert abs(cx.a_n(2) - 0.6744897501960817) < 1e-9
    assert abs(cx.a_n(5) - 1.2815515655446004) < 1e-9
    assert abs(cx.a_n(100) - 2.5758293035489004) < 1e-9
    with pytest.raises(ValueError):
        cx.a_n(1)


def test_build_x_n_structure():
    cfg = cx.config(2)
    f = cx.build_X_n(cfg)
    assert f.size == 4
    assert np.allclose(f.sigma_array, 1.0 / cx.a_n(2))
    K = kernel_of(f)
    centers, radius = cx.bump_layout(cfg)
    # unit peak at each center: K(x_i, x_i) = 1 / a_n^2
    for c in centers:
        assert abs(eval_kernel(K, [c], [c])[0, 0] - 1.0 / cx.a_n(2) ** 2) < 1e-15
    # disjoint supports: exactly zero across different bumps
    assert eval_kernel(K, [centers[0]], [centers[1]])[0, 0] == 0.0
    assert eval_kernel(K, [centers[0] + radius], [centers[1]])[0, 0] == 0.0
    spacing = centers[1] - centers[0]
    assert 2 * radius < spacing


def test_centers_on_grid():
    for n in (2, 5, 10):
        cfg = cx.config(n)
        b = cx.grid_box(cfg)
        assert b.resolution[0] % (2 * n * n) == 0
        assert b.resolution[0] >= cfg.base_box.resolution[0]
        grid = grid_points(b).ravel()
        centers, _ = cx.bump_layout(cfg)
        for c in centers:
            assert np.min(np.abs(grid - c)) < 1e-15


def test_exact_small_norm_prob():
    # formula (1 - 1/n)^(n^2)
    assert cx.exact_small_norm_prob(2) == 0.5 ** 4
    assert abs(cx.exact_small_norm_prob(5) - 3.7778931862957156e-3) < 1e-12
    vals = [cx.exact_small_norm_prob(n) for n in (2, 5, 10, 20)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_kernel_sup_decay():
    sups = cx.kernel_sup_decay([2, 5, 10])
    for n, s in zip((2, 5, 10), sups):
        assert abs(s - 1.0 / cx.a_n(n) ** 2) < 1e-6
    assert all(a > b for a, b in zip(sups, sups[1:]))


def test_grid_sup_equals_max_coefficient():
    cfg = cx.config(3)
    f = cx.build_X_n(cfg)
    b = cx.grid_box(cfg)
    from grflab.field import batch_seminorms, sample_batch_coeffs

    coeffs = sample_batch_coeffs(f, 0, np.arange(32))
    sups = batch_seminorms(f, coeffs, b, 0)
    assert np.allclose(sups, np.max(np.abs(coeffs), axis=1), atol=1e-15)


@pytest.mark.parametrize("n", [2, 5])
def test_mc_matches_exact_probability(n):
    cfg = cx.config(n)
    f = cx.build_X_n(cfg)
    est = estimate_probability(f, SupNormBelow(cx.grid_box(cfg), 0, 1.0), 20000, 0)
    exact = cx.exact_small_norm_prob(n)
    se = math.sqrt(exact * (1 - exact) / 20000)
    assert abs(est.p_hat - exact) <= 3.0 * se


def test_mean_sup_exceeds_one_for_large_n():
    cfg = cx.config(100)
    f = cx.build_X_n(cfg)
    from grflab.mc import empirical_sup_mean

    est = empirical_sup_mean(f, cx.grid_box(cfg), 0, 500, 0)
    assert est.p_hat >= 1.0


def test_build_y_n_requires_integration_order():
    with pytest.raises(ValueError):
        cx.build_Y_n(cx.config(2))
    with pytest.raises(ValueError):
        cx.config(1)


def test_iterated_integral_single_bump():
    cfg = cx.config(2, integration_order=1)
    Y = cx.build_Y_n(cfg)
    f = cx.build_X_n(cfg)
    path = SamplePath(f, np.array([1.0, 0.0, 0.0, 0.0]))
    tab = Y.apply(path)
    assert Y.base_point < 0.0 and abs(Y.step - 1.0 / 4096) < 1e-18
    # integral of a non-negative bump: nondecreasing up to quadrature noise
    assert np.min(np.diff(tab)) > -1e-12
    # exactly flat outside the bump support
    centers, radius = cx.bump_layout(cfg)
    left = Y.grid < centers[0] - radius
    right = Y.grid > centers[0] + radius
    assert np.array_equal(tab[left], np.zeros(left.sum()))
    assert np.ptp(tab[right]) == 0.0
    zero_tab = Y.apply(SamplePath(f, np.zeros(4)))
    assert np.array_equal(zero_tab, np.zeros_like(zero_tab))


def test_iterated_integral_derivative_recovers_path():
    cfg = cx.config(2, integration_order=1)
    Y = cx.build_Y_n(cfg)
    f = cx.build_X_n(cfg)
    from grflab import RandomStream, sample

    path = sample(f, RandomStream(0))
    tab = Y.apply(path)
    from grflab.field import eval_sample

    exact = eval_sample(path, Y.grid.reshape(-1, 1)).ravel()
    got = cx.tabulation_derivative(tab, Y.step, 1)
    assert np.max(np.abs(got - exact)) <= 1e-4


def test_second_order_integral_round_trip():
    cfg = cx.config(2, integration_order=2)
    Y = cx.build_Y_n(cfg)
    f = cx.build_X_n(cfg)
    path = SamplePath(f, np.array([0.7, -0.4, 1.1, 0.2]))
    tab = Y.apply(path)
    from grflab.field import eval_sample

    exact = eval_sample(path, Y.grid.reshape(-1, 1)).ravel()
    got = cx.tabulation_derivative(tab, Y.step, 2)
    assert np.max(np.abs(got - exact)) <= 1e-4


def test_iterated_integral_pinned_values():
    # scipy.integrate is imported lazily inside apply; the tabulation is unchanged
    coeffs = np.array([0.7, -0.4, 1.1, 0.2])
    pinned = {1: (0.21724205803881702, 0.040732885882278226, 0.12356204610951597,
                  445.10725271573256),
              2: (0.1086422440641393, 0.029274109847296108, 0.03764070411205888,
                  150.450638438011)}
    for order, want in pinned.items():
        cfg = cx.config(2, integration_order=order)
        tab = cx.build_Y_n(cfg).apply(SamplePath(cx.build_X_n(cfg), coeffs))
        assert tab.shape == (4507,)
        got = (tab[-1], tab[2500], tab[3000], tab.sum())
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_study_rows():
    rows = cx.study([2], n_samples=500, seed=0)
    row = rows[0]
    assert row.n == 2
    assert row.exact_prob == 0.5 ** 4
    assert abs(row.kernel_sup - 1 / cx.a_n(2) ** 2) < 1e-12
    assert 0.0 <= row.estimate.p_hat <= 1.0
