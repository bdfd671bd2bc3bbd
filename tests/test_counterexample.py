import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grflab import (BUMP_MAX_DERIV_ORDER, Bump, IntegratedBump, KernelSeminormSpec,
                    KLField, OrderUnsupportedError, SamplePath, SupNormBelow,
                    estimate_probability, eval_kernel, eval_sample, fd_check,
                    field_digest, kernel_of, kernel_seminorm, kl_field)
import grflab.mc
from grflab import counterexample as cx
from grflab.basis import _partial_moments, box, families, grid_points, unit_interval
from grflab.field import batch_seminorms, sample_batch_coeffs
from grflab.rng import normal_matrix

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


def term_built_x_n(cfg):
    """``X_n`` built term by term, as one ``Bump`` per layout centre."""
    centers, radius = cx.bump_layout(cfg)
    basis = tuple(Bump((float(c),), radius, (1.0,)) for c in centers)
    return kl_field(basis, (1.0 / cx.a_n(cfg.n),) * len(basis))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.sampled_from([unit_interval(), unit_interval(7), box(-3.5, 2.25, 300),
                                            box(-1.0, -0.25, 64), box(1e3, 1e3 + 0.1, 256)]))
def test_x_n_built_from_the_layout_arrays_equals_the_term_built_field(n, base):
    """``build_X_n`` keeps its bumps as one family table, with no ``Bump`` made: the table
    is the term-built field's bit for bit, and so are its basis, once read, and digest."""
    cfg = cx.config(n, base)
    field, want = cx.build_X_n(cfg), term_built_x_n(cfg)
    assert "basis" not in field.__dict__
    ((kind, rows, params, factors),) = field._families
    ((want_kind, want_rows, want_params, want_factors),) = families(want.basis)
    assert kind is want_kind is Bump
    for got, expected in zip((rows, *params, factors), (want_rows, *want_params, want_factors)):
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()
    assert (field.sigmas, field.m, field.k) == (want.sigmas, want.m, want.k)
    assert np.array_equal(field.sigma_array, want.sigma_array)
    assert "basis" not in field.__dict__
    assert len(field.basis) == n * n
    for got, expected in zip(field.basis, want.basis):
        assert type(got) is Bump and got == expected and repr(got) == repr(expected)
    assert field == want and repr(field) == repr(want)
    assert field_digest(field) == field_digest(want)


def test_from_bumps_checks_its_arrays():
    ones = np.ones((4, 1))
    for args in ((ones, ones, np.full(4, 0.1), (1.0,) * 3),  # one sigma short
                 (ones, ones, np.array([0.1, 0.1, 0.0, 0.1]), (1.0,) * 4),
                 (ones, ones, np.full(4, np.nan), (1.0,) * 4),
                 (np.ones(4), ones, np.full(4, 0.1), (1.0,) * 4),
                 (ones, ones, np.full((4, 1), 0.1), (1.0,) * 4)):
        with pytest.raises(ValueError, match="N positive radii"):
            KLField.from_bumps(*args)
    with pytest.raises(ValueError, match="sigmas must be finite and positive"):
        KLField.from_bumps(ones, ones, np.full(4, 0.1), (1.0, 1.0, math.nan, 1.0))
    field = KLField.from_bumps(np.ones((4, 2)), np.zeros((4, 3)), np.full(4, 0.1), (1.0,) * 4)
    assert (field.m, field.k, field.size) == (3, 2, 4)
    with pytest.raises(AttributeError):
        field.bases


def test_study_of_x_100_stays_on_arrays(monkeypatch):
    """``counterexample --n 100`` builds no ``Bump`` and never reads ``basis``, and its row
    is that of the term-built field."""
    made, reads = [], []
    post_init, getattr_ = Bump.__post_init__, KLField.__getattr__
    monkeypatch.setattr(Bump, "__post_init__", lambda f: made.append(f) or post_init(f))
    monkeypatch.setattr(KLField, "__getattr__", lambda f, name: reads.append(name) or getattr_(
        f, name))
    rows = cx.study([100], 500, 7)
    assert made == [] and "basis" not in reads
    monkeypatch.setattr(cx, "build_X_n", term_built_x_n)
    assert rows == cx.study([100], 500, 7)
    assert len(made) == 100 * 100


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


def test_small_ball_estimate_draws_about_n_coefficients_per_path(monkeypatch):
    """Each term of X_n fails sup < 1 with probability 1/n, and a path stops drawing at
    its first failing block of terms: far fewer draws than the n^2 of a full draw, for
    the full draw's hit count."""
    n, paths = 30, 2000
    cfg = cx.config(n)
    f, event = cx.build_X_n(cfg), SupNormBelow(cx.grid_box(cfg), 0, 1.0)
    drawn = []

    def counted(*args, **kwargs):
        z = normal_matrix(*args, **kwargs)
        drawn.append(z.size)
        return z

    monkeypatch.setattr(grflab.mc, "normal_matrix", counted)
    est = estimate_probability(f, event, paths, 7)
    assert sum(drawn) / paths < 3 * n  # a full draw reads n^2 = 900
    monkeypatch.undo()
    full = batch_seminorms(f, sample_batch_coeffs(f, 7, np.arange(paths)), event.box, 0) < 1.0
    assert est.p_hat == np.count_nonzero(full) / paths


def test_small_ball_estimate_of_x_100_draws_in_a_few_calls_of_at_most_one_tile(monkeypatch):
    """500 paths of X_100 are decided term block by term block over all paths: each block
    of live paths is one normal_matrix call of at most one tile, where chunks of 33 paths
    made 79 calls, and the paths draw what they drew chunk by chunk."""
    cfg = cx.config(100)
    f, event = cx.build_X_n(cfg), SupNormBelow(cx.grid_box(cfg), 0, 1.0)
    drawn = []

    def counted(*args, **kwargs):
        z = normal_matrix(*args, **kwargs)
        drawn.append(z.size)
        return z

    monkeypatch.setattr(grflab.mc, "normal_matrix", counted)
    est = estimate_probability(f, event, 500, 7)
    assert len(drawn) <= 10 and max(drawn) <= 2 ** 17
    assert sum(drawn) == 72_352  # 144.7 of the 10,000 terms per path
    monkeypatch.undo()
    full = batch_seminorms(f, sample_batch_coeffs(f, 7, np.arange(500)), event.box, 0) < 1.0
    assert est.p_hat == np.count_nonzero(full) / 500


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


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_y_n_built_from_the_layout_equals_the_integral_of_x_n_terms(n, r):
    cfg = cx.config(n, integration_order=r)
    x_n = term_built_x_n(cfg)
    want = [IntegratedBump(f.center, f.radius, f.amplitude, r) for f in x_n.basis]
    y_n = cx.build_Y_n(cfg)
    assert list(y_n.basis) == want and repr(y_n.basis) == repr(tuple(want))
    assert y_n.sigmas == x_n.sigmas and y_n == kl_field(want, x_n.sigmas)


# the integration grid of the former Simpson tabulation: step 1/4096 from 0.1 left of the box
INTEGRATION_GRID = (-0.1 + np.arange(4507) / 4096).reshape(-1, 1)


def test_iterated_integral_single_bump():
    cfg = cx.config(2, integration_order=1)
    Y = cx.build_Y_n(cfg)
    assert isinstance(Y, KLField) and Y.size == 4
    assert np.array_equal(Y.sigma_array, cx.build_X_n(cfg).sigma_array)
    tab = eval_sample(SamplePath(Y, np.array([1.0, 0.0, 0.0, 0.0])), INTEGRATION_GRID)[:, 0]
    # the integral of a non-negative bump: nondecreasing up to rounding,
    # exactly 0 left of the support and exactly constant right of it
    assert np.min(np.diff(tab)) >= -1e-15
    centers, radius = cx.bump_layout(cfg)
    x = INTEGRATION_GRID[:, 0]
    left = x <= centers[0] - radius
    right = x >= centers[0] + radius
    assert left.sum() > 400 and right.sum() > 3000
    assert np.array_equal(tab[left], np.zeros(left.sum()))
    assert np.ptp(tab[right]) == 0.0 and tab[right][0] > 0.0
    zero_tab = eval_sample(SamplePath(Y, np.zeros(4)), INTEGRATION_GRID)
    assert np.array_equal(zero_tab, np.zeros_like(zero_tab))
    for r in (1, 2, 3):
        f = IntegratedBump((0.3,), 0.2, (1.5, -1.0), r)
        pts = np.array([[-5.0], [0.1 - 1e-12], [0.1]])
        for j in range(r):
            assert np.array_equal(f.eval_partial(pts, (j,)), np.zeros((3, 2)))
    # right of the support the r = 1 value is the bump mass times rho
    f = IntegratedBump((0.3,), 0.2, (1.0,), 1)
    vals = f.eval(np.array([[0.5], [0.7], [3.0], [1e6]]))[:, 0]
    assert np.ptp(vals) == 0.0
    assert vals[0] == 0.2 * _partial_moments(np.array([1.0]), 1)[0, 0]


def test_iterated_integral_derivative_recovers_path():
    # a partial of order j >= r is the bump's partial of order j - r, bit for bit
    pts = np.concatenate([np.linspace(-1.0, 1.5, 2001), [0.1, 0.5, 0.3]]).reshape(-1, 1)
    bump = Bump((0.3,), 0.2, (1.5, -1.0))
    for r in (1, 2, 3):
        f = IntegratedBump((0.3,), 0.2, (1.5, -1.0), r)
        for d in range(BUMP_MAX_DERIV_ORDER + 1):
            assert np.array_equal(f.eval_partial(pts, (r + d,)), bump.eval_partial(pts, (d,)))
        with pytest.raises(OrderUnsupportedError):
            f.eval_partial(pts, (r + BUMP_MAX_DERIV_ORDER + 1,))
    # and so order r of the ensemble's path is the X_n path
    for r in (1, 2):
        cfg = cx.config(2, integration_order=r)
        coeffs = sample_batch_coeffs(cx.build_X_n(cfg), 0, [0])[0]
        got = eval_sample(SamplePath(cx.build_Y_n(cfg), coeffs), INTEGRATION_GRID, (r,))
        want = eval_sample(SamplePath(cx.build_X_n(cfg), coeffs), INTEGRATION_GRID)
        assert np.array_equal(got, want)


def test_second_order_integral_round_trip():
    # partials of orders 1 to r against finite differences of the order-0
    # values, which only the partial moments give; order r is the bump itself
    steps = {1: 1e-4, 2: 1e-4, 3: 3e-4}
    for r in (1, 2, 3):
        f = IntegratedBump((0.3,), 0.2, (1.5, -1.0), r)
        for j in range(1, r + 1):
            for x in (0.05, 0.12, 0.2, 0.31, 0.44, 0.49, 0.7):
                assert fd_check(f, [x], (j,), steps[j]) <= 1e-6, (r, j, x)


def test_iterated_integral_pinned_values():
    coeffs = np.array([0.7, -0.4, 1.1, 0.2])
    # (last value, values 2500 and 3000, sum) of the former composite Simpson
    # tabulation, whose error is about 1e-13 relative here, and of the exact field
    simpson = {1: (0.21724205803881702, 0.040732885882278226, 0.12356204610951597,
                   445.10725271573256),
               2: (0.1086422440641393, 0.029274109847296108, 0.03764070411205888,
                   150.450638438011)}
    exact = {1: (0.21724205803881774, 0.040732885882278316, 0.12356204610952828,
                 445.1072527157337),
             2: (0.10864224406413919, 0.029274109847296247, 0.037640704112048576,
                 150.45063843801134)}
    for order in (1, 2):
        Y = cx.build_Y_n(cx.config(2, integration_order=order))
        tab = eval_sample(SamplePath(Y, coeffs), INTEGRATION_GRID)[:, 0]
        got = (tab[-1], tab[2500], tab[3000], tab.sum())
        assert np.allclose(got, simpson[order], rtol=1e-12, atol=0.0)
        assert np.allclose(got, exact[order], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("r", [1, 2])
def test_integrated_ensemble_kernel_seminorms(r):
    # order r of Y_n is X_n: its (r, r) seminorm is 1/a_n^2 and decays, while
    # the order-(r + 2) seminorm, the paper's sufficient one, grows with n
    higher = []
    for n in (2, 5, 10):
        cfg = cx.config(n, integration_order=r)
        K = kernel_of(cx.build_Y_n(cfg))
        got = kernel_seminorm(K, KernelSeminormSpec(cx.grid_box(cfg), r))
        assert abs(got * cx.a_n(n) ** 2 - 1.0) <= 1e-12
        higher.append(kernel_seminorm(K, KernelSeminormSpec(cx.grid_box(cfg), r + 2)))
    assert higher[0] < higher[1] < higher[2]


def test_integrated_ensemble_small_ball_matches_x_n():
    cfg = cx.config(5, integration_order=1)
    b = cx.grid_box(cfg)
    est_y = estimate_probability(cx.build_Y_n(cfg), SupNormBelow(b, 1, 1.0), 20000, 0)
    est_x = estimate_probability(cx.build_X_n(cfg), SupNormBelow(b, 0, 1.0), 20000, 0)
    assert est_y.p_hat == est_x.p_hat
    exact = cx.exact_small_norm_prob(5)
    assert abs(est_y.p_hat - exact) <= 3.0 * math.sqrt(exact * (1 - exact) / 20000)


def test_study_rows():
    rows = cx.study([2], n_samples=500, seed=0)
    row = rows[0]
    assert row.n == 2
    assert row.exact_prob == 0.5 ** 4
    assert abs(row.kernel_sup - 1 / cx.a_n(2) ** 2) < 1e-12
    assert 0.0 <= row.estimate.p_hat <= 1.0
