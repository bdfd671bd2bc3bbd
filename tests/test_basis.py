import math

import numpy as np
import pytest

from grflab import (BUMP_MAX_DERIV_ORDER, Box, Bump, Harmonic, IntegratedBump, Monomial,
                    OrderUnsupportedError, Scaled, box, fd_check, grid_points,
                    unit_interval)
from grflab.basis import _partial_moments, _profile_poly
from grflab.field import _design, kl_field
from grflab.multiindex import multi_indices

# order-adapted finite-difference steps: truncation shrinks with h while
# roundoff grows like eps / h^order, so one step cannot serve all orders
H_BY_ORDER = {1: 1e-5, 2: 1e-4, 3: 2e-3, 4: 2e-3}


def fd_tolerance(order: int) -> float:
    return 1e-6 if order <= 2 else 1e-4


def test_monomial_values():
    f = Monomial((2,), (1.0,))
    assert f.eval([3.0])[0] == 9.0
    assert f.eval_partial([3.0], (1,))[0] == 6.0
    assert f.eval_partial([3.0], (2,))[0] == 2.0
    assert f.eval_partial([3.0], (3,))[0] == 0.0


def test_profile_polynomials_evaluate_as_polyval():
    """Integer R_n, evaluated by np.polyval as bump partials do, round as
    numpy.polynomial's polyval of their floats."""
    from numpy.polynomial.polynomial import polyval

    s = np.random.default_rng(5).uniform(0.0, 1.0, 2000)
    u = np.concatenate([1.0 / (1.0 - s), [1.0, 2.0, 2.0**52]])
    assert _profile_poly(1) == (0, 0, -1)  # d/ds exp(1 - u) = -u^2 exp(1 - u)
    for n in range(BUMP_MAX_DERIV_ORDER + 1):
        coef = _profile_poly(n)
        assert all(type(c) is int for c in coef) and coef[-1] == (-1) ** n
        want = polyval(u, np.array(coef, dtype=float))
        assert np.polyval(coef[::-1], u).tobytes() == want.tobytes()


def test_terms_equal_but_for_a_signed_zero_keep_their_own_bits():
    """Scaled(f, 0.0) == Scaled(f, -0.0), yet each evaluates to its own signed
    zeros, alone and in a design, whichever is evaluated first."""
    f = Harmonic((2.0,), 0.3, (1.0,))
    pts = np.linspace(0.0, 3.0, 7)[:, None]
    zeros = (0.0, -0.0)  # equal, so a dict would take them for one key
    want = [(f.eval_partial(pts, (1,)) * z).tobytes() for z in zeros]
    assert want[0] != want[1]
    for order in ((0, 1), (1, 0)):
        for i in order:
            g = Scaled(f, zeros[i])
            assert g == Scaled(f, zeros[1 - i]) and g.eval_partial(pts, (1,)).tobytes() == want[i]
            assert _design(kl_field([g]), pts, (1,)).tobytes() == want[i]


def test_monomial_multivariate():
    f = Monomial((2, 1), (1.0, -2.0))
    # x^2 y with two output components
    assert np.allclose(f.eval([2.0, 3.0]), [12.0, -24.0])
    assert np.allclose(f.eval_partial([2.0, 3.0], (1, 1)), [4.0, -8.0])


def test_harmonic_second_derivative():
    f = Harmonic((2.0,), 0.0, (1.0,))
    assert f.eval_partial([0.0], (2,))[0] == -4.0
    assert f.eval([0.0])[0] == 1.0


def test_harmonic_derivative_cycle():
    f = Harmonic((1.0,), 0.3, (1.0,))
    x = np.array([0.7])
    for d in range(8):
        want = math.cos(0.7 + 0.3 + d * math.pi / 2)
        assert abs(f.eval_partial(x, (d,))[0] - want) < 1e-12


def test_bump_peak_and_support():
    f = Bump((0.0,), 1.0, (1.0,))
    assert f.eval([0.0])[0] == 1.0
    assert f.eval([2.0])[0] == 0.0
    assert f.eval([1.0])[0] == 0.0
    assert f.eval_partial([0.0], (1,))[0] == 0.0  # interior maximum


def test_bump_vanishes_outside_with_all_derivatives():
    f = Bump((0.25,), 0.1, (3.0,))
    outside = np.array([[0.15], [0.35], [0.6], [-1.0]])
    for d in range(BUMP_MAX_DERIV_ORDER + 1):
        assert np.array_equal(f.eval_partial(outside, (d,)),
                              np.zeros((4, 1)))


def test_bump_order_cap():
    f = Bump((0.0,), 1.0, (1.0,))
    with pytest.raises(OrderUnsupportedError):
        f.eval_partial([0.1], (BUMP_MAX_DERIV_ORDER + 1,))
    # closed-form families support any order
    assert Monomial((2,), (1.0,)).eval_partial([1.0], (5,))[0] == 0.0
    assert abs(Harmonic((1.0,), 0.0, (1.0,)).eval_partial([0.0], (6,))[0]
               - math.cos(6 * math.pi / 2)) < 1e-12


def test_scaled_is_exact():
    inner = Harmonic((2.5,), 0.1, (1.0, 0.5))
    f = Scaled(inner, -3.0)
    pts = np.linspace(-1, 1, 7).reshape(-1, 1)
    for d in range(4):
        assert np.array_equal(f.eval_partial(pts, (d,)),
                              -3.0 * inner.eval_partial(pts, (d,)))
    # eval is the order-0 partial, bit for bit
    bump = Bump((0.1, -0.2), 0.9, (2.0,))
    grid = np.stack([np.linspace(-1, 1, 9), np.linspace(0.7, -0.4, 9)], axis=1)
    for g in (Monomial((2, 3), (1.5, -0.5)), Harmonic((2.5, -1.0), 0.1, (1.0,)), bump,
              Scaled(Scaled(bump, 0.3), -1.7)):
        for p in (grid, grid[3]):
            assert g.eval(p).tobytes() == g.eval_partial(p, (0, 0)).tobytes()


def test_fd_check_examples():
    assert fd_check(Monomial((3,), (1.0,)), [1.0], (1,), 1e-5) < 1e-8
    assert fd_check(Harmonic((1.0,), 0.0, (1.0,)), [0.3], (2,), 1e-4) < 1e-6
    assert fd_check(Bump((0.0,), 1.0, (1.0,)), [0.4], (0,), 1e-5) == 0.0


def _variants_1d():
    return [
        Monomial((3,), (1.0,)),
        Monomial((6,), (0.7,)),
        Harmonic((1.0,), 0.0, (1.0,)),
        Harmonic((4.0,), 1.1, (0.5,)),
        Bump((0.1,), 1.1, (2.0,)),
        Scaled(Harmonic((2.0,), 0.4, (1.0,)), 1.7),
        Scaled(Bump((-0.2,), 0.9, (1.0,)), -0.8),
    ]


def _fd_points(f, rng, count=50):
    if isinstance(f, Bump) or (isinstance(f, Scaled) and isinstance(f.inner, Bump)):
        inner = f.inner if isinstance(f, Scaled) else f
        # stay away from the support boundary, where higher derivatives blow up
        z = rng.uniform(-0.7, 0.7, count)
        return inner.center[0] + inner.radius * z
    return rng.uniform(0.2, 1.2, count)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_fd_grid_all_variants(order, rng_np):
    h = H_BY_ORDER[order]
    tol = fd_tolerance(order)
    for f in _variants_1d():
        for x in _fd_points(f, rng_np):
            err = fd_check(f, [x], (order,), h)
            assert err <= tol, (type(f).__name__, order, x, err)


def test_fd_mixed_2d(rng_np):
    fs = [Monomial((2, 3), (1.0,)), Harmonic((1.5, -2.0), 0.2, (1.0,)),
          Bump((0.0, 0.0), 1.5, (1.0,))]
    for f in fs:
        for alpha in [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]:
            order = sum(alpha)
            h = H_BY_ORDER[order]
            for _ in range(10):
                p = rng_np.uniform(-0.5, 0.5, 2)
                assert fd_check(f, p, alpha, h) <= fd_tolerance(order)


def test_bump_against_high_precision_oracle():
    mp = pytest.importorskip("mpmath")

    def profile(*z):
        s = sum(mp.mpf(x) ** 2 for x in z)
        return mp.e * mp.exp(-1 / (1 - s)) if s < 1 else mp.mpf(0)

    # the unit bump in 1-D, and every partial of order <= 4 in 2-D at |z|
    # from 0 to 0.97, where the factors u = 1/(1 - |z|^2) reach about 17
    cases = [((t,), (d,)) for d in range(1, BUMP_MAX_DERIV_ORDER + 1)
             for t in (0.0, 0.3, -0.55, 0.8)]
    points = [(0.0, 0.0), (0.0, 0.97)] + [
        (r * math.cos(2.1 * i), r * math.sin(2.1 * i))
        for i, r in enumerate((0.2, 0.45, 0.6, 0.8, 0.9, 0.95), start=1)]
    cases += [(z, a) for a in multi_indices(2, BUMP_MAX_DERIV_ORDER) for z in points]
    assert len(cases) == 16 + 15 * 8
    with mp.workdps(40):
        for z, a in cases:
            f = Bump((0.0,) * len(z), 1.0, (1.0,))
            got = f.eval_partial(list(z), a)[0]
            want = float(mp.diff(profile, z, a))
            if abs(want) > 1e-12:
                assert abs(got - want) <= 1e-12 * abs(want), (z, a)
            else:
                assert abs(got) <= 1e-12, (z, a)
            if any(x == 0.0 and n % 2 for x, n in zip(z, a)):
                # an odd partial on an axis through the centre is exactly +0.0
                assert got == 0.0 and not np.signbit(got), (z, a)


def test_integrated_bump_against_high_precision_oracle():
    mp = pytest.importorskip("mpmath")

    def profile(s):
        return mp.e * mp.exp(-1 / (1 - s * s)) if abs(s) < 1 else mp.mpf(0)

    # partial moments F_i(z) = int_(-1)^z s^i profile(s) ds, i <= 3, against
    # the bump mass, from the left end to the right end of the support
    zs = [-0.999, -0.9, -0.5, -0.1, 0.0, 0.3, 0.77, 0.999, 1 - 1e-12, 1.0]
    with mp.workdps(40):
        mass = float(mp.quad(profile, [-1, 1]))
        with np.errstate(all="raise"):
            got = _partial_moments(np.array(zs), 4)
        for i in range(4):
            for z, value in zip(zs, got[i]):
                want = mp.quad(lambda s: s ** i * profile(s), [-1, z])
                assert abs(value - float(want)) <= 1e-15 * mass, (i, z)
        # values of order r - q = (rho^q/(q-1)!) int (z - s)^(q-1) profile(s) ds,
        # also right of the support, where they are polynomials in z
        for r in (1, 2, 3, 4):
            f = IntegratedBump((0.5,), 2.0, (1.0,), r)
            for z in (-1.5, -0.999, -0.2, 0.6, 1 - 1e-12, 1.0, 1.7, 4.0):
                with np.errstate(all="raise"):
                    value = f.eval([0.5 + 2.0 * z])[0]
                want = 2.0 ** r / math.factorial(r - 1) * mp.quad(
                    lambda s: (z - s) ** (r - 1) * profile(s), [-1, min(z, 1.0)])
                scale = 2.0 ** r * mass * max(1.0, abs(z)) ** (r - 1)
                assert abs(value - float(want)) <= 1e-15 * scale, (r, z)


def test_integrated_bump_refuses_bad_parameters():
    with pytest.raises(ValueError, match="1-D center"):
        IntegratedBump((0.0, 0.0), 1.0, (1.0,), 1)
    with pytest.raises(ValueError, match="radius > 0"):
        IntegratedBump((0.0,), 0.0, (1.0,), 1)
    with pytest.raises(ValueError, match="order >= 1"):
        IntegratedBump((0.0,), 1.0, (1.0,), 0)


def test_box_and_grid():
    b = box(0.0, 1.0, 4)
    assert b.m == 1 and b.n_grid_points == 5
    assert np.allclose(grid_points(b).ravel(), [0, 0.25, 0.5, 0.75, 1.0])
    b2 = box([0, -1], [1, 1], [2, 4])
    assert b2.n_grid_points == 15
    assert grid_points(b2).shape == (15, 2)
    with pytest.raises(ValueError):
        box(1.0, 0.0)
    assert unit_interval().resolution == (256,)
    assert box([0, 0], [1, 1]).resolution == (64, 64)


def test_box_ends_equal_but_for_a_signed_zero_give_one_grid():
    """Box((-1.0,), (0.0,)) == Box((-1.0,), (-0.0,)), so the grid_points cache
    takes one for the other: a -0.0 end is stored as 0.0, whichever comes first."""
    for res, ends in ((2, (0.0, -0.0)), (4, (-0.0, 0.0))):
        want = np.linspace(-1.0, 0.0, res + 1)[:, None].tobytes()
        for end in ends:
            b = Box((-1.0,), (end,), (res,))
            assert not np.signbit(b.upper[0]) and grid_points(b).tobytes() == want
        for end in ends:
            b = Box((end,), (1.0,), (res,))
            assert not np.signbit(b.lower[0]) and not np.signbit(grid_points(b)[0, 0])
    assert hash(Box((-1.0,), (0.0,), (2,))) == hash(Box((-1.0,), (-0.0,), (2,)))


def test_eval_shapes():
    f = Monomial((1,), (1.0, 2.0))
    assert f.eval([2.0]).shape == (2,)
    assert f.eval(np.array([[1.0], [2.0], [3.0]])).shape == (3, 2)
    with pytest.raises(ValueError):
        f.eval(np.zeros(2))
