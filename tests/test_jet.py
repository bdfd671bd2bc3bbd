import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grflab import (Bump, ClosedFormKernel, Harmonic, Monomial, SamplePath, Scaled,
                    jet_covariance, jet_dimension, jet_eval, kernel_of, kl_field,
                    nondegeneracy_certificate, scan_nondegeneracy, unit_interval)
from grflab.basis import box, grid_points
from grflab.kernel import eval_kernel_deriv
from grflab.field import _column_blocks, _design, apply_design, sample_batch_coeffs
from grflab.jet import _jet_covariances
from grflab.multiindex import multi_indices

ONE = Monomial((0,), (1.0,))
T = Monomial((1,), (1.0,))
T2 = Monomial((2,), (1.0,))


def test_jet_dimension():
    assert jet_dimension(1, 1, 1) == 2
    assert jet_dimension(2, 1, 1) == 3
    assert jet_dimension(1, 2, 2) == 6
    assert jet_dimension(3, 2, 2) == 20
    with pytest.raises(ValueError):
        jet_dimension(0, 1, 1)


def test_jet_eval_examples():
    f = kl_field([ONE, T, T2])
    path = SamplePath(f, np.array([2.0, 3.0, 0.0]))
    assert np.array_equal(jet_eval(path, [0.0], 1).values, [2.0, 3.0])
    sq = SamplePath(f, np.array([0.0, 0.0, 1.0]))
    assert np.array_equal(jet_eval(sq, [1.0], 2).values, [1.0, 2.0, 2.0])
    zero = SamplePath(f, np.zeros(3))
    assert np.array_equal(jet_eval(zero, [0.5], 2).values, np.zeros(3))


def test_jet_eval_layout(rng_np):
    """Values are component-major, then graded-lex in alpha, and equal to
    eval_partial of the one basis function a unit coefficient selects."""
    basis = [Monomial((2, 1), (1.0, -0.5)), Harmonic((1.0, 2.0), 0.3, (0.5, 1.0)),
             Bump((0.2, 0.1), 0.9, (0.7, 0.2))]
    f = kl_field(basis)
    pts = rng_np.uniform(-0.5, 0.5, (5, 2))
    alphas = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert multi_indices(2, 2) == alphas
    for n, bf in enumerate(basis):
        path = SamplePath(f, np.eye(len(basis))[n])
        for p in pts:
            jet = jet_eval(path, p, 2)
            assert jet.values.shape == (2 * len(alphas),)
            for ai, a in enumerate(alphas):
                assert np.array_equal(jet.values[[ai, len(alphas) + ai]], bf.eval_partial(p, a))


def test_jet_covariance_examples():
    K_st = kernel_of(kl_field([T]))
    for p in (0.0, 0.5, 2.0):
        m = jet_covariance(K_st, [p], 1).matrix
        assert np.allclose(m, [[p * p, p], [p, 1.0]], atol=1e-15)
    K_aff = kernel_of(kl_field([ONE, T]))
    for p in (0.0, 1.0):
        m = jet_covariance(K_aff, [p], 1).matrix
        assert np.allclose(m, [[1 + p * p, p], [p, 1.0]], atol=1e-15)
        assert abs(np.linalg.det(m) - 1.0) < 1e-12
    K_zero = kernel_of(kl_field([], m=1, k=1))
    assert np.array_equal(jet_covariance(K_zero, [0.3], 2).matrix, np.zeros((3, 3)))


def test_closed_form_jet_covariances():
    for x in (-1.5, 0.0, 0.3, 2.0):
        aff = jet_covariance(ClosedFormKernel("affine_dot"), [x], 1).matrix
        assert np.array_equal(aff, [[1.0 + x * x, x], [x, 1.0]])
        exp = jet_covariance(ClosedFormKernel("exp_dot"), [x], 1).matrix
        want = np.exp(x * x) * np.array([[1.0, x], [x, 1.0 + x * x]])
        assert np.allclose(exp, want, rtol=1e-15, atol=0.0)
    # K(s, t) = s t: the order-1 jet (X, X') = xi (x, 1) has rank one everywhere
    scan = scan_nondegeneracy(ClosedFormKernel("dot"), unit_interval(), 1)
    assert not scan.all_pass and scan.n_failures == scan.n_points == 257


def test_jet_covariance_equals_basis_jet_gram(rng_np):
    basis = [Monomial((2, 0), (1.0, 0.2)), Harmonic((1.0, 2.0), 0.3, (0.5, 1.0)),
             Monomial((1, 1), (0.0, 1.0))]
    f = kl_field(basis, (1.2, 0.8, 0.5))
    K = kernel_of(f)
    r = 2
    alphas = multi_indices(2, r)
    p = rng_np.uniform(-1, 1, 2)
    # brute-force oracle: J columns are sigma_n-scaled basis jets
    J = np.zeros((f.k * len(alphas), f.size))
    for n, (s, bf) in enumerate(zip(f.sigmas, f.basis)):
        for ai, a in enumerate(alphas):
            v = bf.eval_partial(p, a)
            for j in range(f.k):
                J[j * len(alphas) + ai, n] = s * v[j]
    want = J @ J.T
    got = jet_covariance(K, p, r).matrix
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.abs(want).max())


def test_certificate_examples():
    K_aff = kernel_of(kl_field([ONE, T]))
    for p in (0.0, 0.7):
        cert = nondegeneracy_certificate(K_aff, [p], 1)
        assert cert.nondegenerate and cert.rank_estimate == 2
    K_st = kernel_of(kl_field([T]))
    for p in (0.0, 0.7):
        cert = nondegeneracy_certificate(K_st, [p], 1)
        assert not cert.nondegenerate
        assert cert.min_singular_ratio < 1e-9
    # Kostlan-style degree-2 family {1, t, t^2/sqrt(2)}
    kost = kl_field([ONE, T, Scaled(T2, 1.0 / np.sqrt(2.0))])
    cert = nondegeneracy_certificate(kernel_of(kost), [0.0], 1)
    assert cert.nondegenerate


def test_scan_examples():
    b = unit_interval()
    scan = scan_nondegeneracy(kernel_of(kl_field([ONE, T])), b, 1)
    assert scan.all_pass and scan.n_points == 257 and scan.n_failures == 0
    scan = scan_nondegeneracy(kernel_of(kl_field([T])), b, 1)
    assert not scan.all_pass and scan.n_failures == 257
    scan = scan_nondegeneracy(kernel_of(kl_field([ONE, T])), b, 2)
    assert not scan.all_pass  # jet dim 3 exceeds expansion rank 2
    assert scan.worst_ratio < 1e-9


def test_scan_ties_go_to_first_grid_point():
    # order-0 jets of a constant field: the ratio is exactly 1 everywhere
    scan = scan_nondegeneracy(kernel_of(kl_field([Monomial((0, 0), (2.0,))])),
                              box([0.0, -1.0], [1.0, 1.0], 4), 0)
    assert scan.all_pass and scan.worst_ratio == 1.0
    assert scan.worst_point == (0.0, -1.0)


def test_rank_bounded_by_expansion_size():
    f = kl_field([ONE, T])
    cert = nondegeneracy_certificate(kernel_of(f), [0.4], 2)
    assert cert.rank_estimate <= f.size
    assert cert.min_singular_ratio < 1e-9


def test_verdict_invariant_under_scaling():
    for scale in (1e-6, 1.0, 1e6):
        root = np.sqrt(scale)
        f_good = kl_field([ONE, T], (root, root))
        f_bad = kl_field([T], (root,))
        assert nondegeneracy_certificate(kernel_of(f_good), [0.3], 1).nondegenerate
        assert not nondegeneracy_certificate(kernel_of(f_bad), [0.3], 1).nondegenerate


def test_empirical_jet_covariance_matches():
    f = kl_field([ONE, T, Harmonic((2.0,), 0.0, (1.0,))], (1.0, 0.7, 1.1))
    K = kernel_of(f)
    p = np.array([0.4])
    r = 1
    cert = nondegeneracy_certificate(K, p, r)
    assert cert.nondegenerate
    n = 100_000
    coeffs = sample_batch_coeffs(f, 0, np.arange(n))
    alphas = multi_indices(1, r)
    cols = [apply_design(coeffs, _design(f, p.reshape(1, 1), a))[:, 0] for a in alphas]
    jets = np.stack(cols, axis=1)
    emp = jets.T @ jets / n
    want = jet_covariance(K, p, r).matrix
    for i in range(want.shape[0]):
        for j in range(want.shape[1]):
            prod = jets[:, i] * jets[:, j]
            se = prod.std(ddof=1) / np.sqrt(n)
            assert abs(emp[i, j] - want[i, j]) <= 5.0 * se


# -- batched scan against a per-point reference ------------------------------

def _basis_function(draw, m, k, kinds):
    amp = tuple(draw(st.floats(-1.5, 1.5)) for _ in range(k))
    kind = draw(st.sampled_from(kinds))
    if kind == "harmonic":
        return Harmonic(tuple(draw(st.floats(-4.0, 4.0)) for _ in range(m)),
                        draw(st.floats(0.0, 6.3)), amp)
    if kind == "monomial":
        return Monomial(tuple(draw(st.integers(0, 2)) for _ in range(m)), amp)
    return Bump(tuple(draw(st.floats(0.0, 1.0)) for _ in range(m)),
                draw(st.floats(0.3, 1.2)), amp)


@st.composite
def jet_cases(draw):
    m = draw(st.integers(1, 2))
    k = draw(st.integers(1, 2))
    r = draw(st.integers(0, 2))
    n = draw(st.integers(1, 6))
    # all-bump fields with m = k = 1 take the windowed design
    bumps_only = m == k == 1 and draw(st.booleans())
    kinds = ["bump"] if bumps_only else ["harmonic", "monomial", "bump"]
    basis = [_basis_function(draw, m, k, kinds) for _ in range(n)]
    sigmas = [draw(st.floats(0.3, 1.5)) for _ in range(n)]
    res = draw(st.integers(1, 8 if m == 1 else 3))
    return kl_field(basis, sigmas, m=m, k=k), box([0.0] * m, [1.0] * m, res), r


def _reference_ratios(field, b, r):
    """min/max eigenvalue per grid point, one eval_kernel_deriv per entry.

    At each point every basis function is scaled by one power of two that
    brings the largest jet entry near 1 (capped at 2**1000, which still
    lifts a subnormal entry to a normal one), so the jet products of a tiny
    field do not underflow.  Powers of two scale exactly, and the ratio of
    exact covariances does not depend on the scale.
    """
    alphas = multi_indices(field.m, r)
    n_a = len(alphas)
    out = []
    for p in grid_points(b):
        top = max(float(np.max(np.abs(f.eval_partial(p, a))))
                  for f in field.basis for a in alphas)
        scale = float(np.ldexp(1.0, min(-np.frexp(top)[1], 1000)))
        K = kernel_of(kl_field([Scaled(f, scale) for f in field.basis], field.sigmas,
                               field.m, field.k))
        cov = np.empty((K.k * n_a, K.k * n_a))
        for ai, a in enumerate(alphas):
            for bi, bb in enumerate(alphas):
                block = eval_kernel_deriv(K, p, p, a, bb)
                for j in range(K.k):
                    for l in range(K.k):
                        cov[j * n_a + ai, l * n_a + bi] = block[j, l]
        w = np.linalg.eigvalsh(cov)
        out.append(w[0] / w[-1] if w[-1] > 0.0 else 0.0)
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(jet_cases())
# tiny amplitudes: the unscaled covariances are subnormal or underflow to zero
@example((kl_field([Bump((0.0,), 1.0, (5.68e-162,)), Monomial((0,), (0.0,)),
                    Harmonic((0.0,), 0.0, (0.0,))], (1.5, 1.0, 1.0)), box(0, 1, 2), 1))
@example((kl_field([Harmonic((1.0,), 0.0, (2.4280264162991374e-160,))], (1.5,)),
          box(0, 1, 1), 1))
@example((kl_field([Bump((0.0,), 1.1759158865445831, (6.669072560330203e-159,))],
                   (0.3046875,)), box(0, 1, 1), 2))
# subnormal amplitudes on the windowed path: 2**-exponent overflows in one step
@example((kl_field([Bump((0.0,), 1.0, (1e-310,)), Bump((0.5,), 0.8, (-3e-312,))], (1.0, 1.2)),
          box(0, 1, 4), 1))
def test_batched_scan_matches_per_point_reference(case):
    """Ratios agree to 1e-9 relative, with a 1e-13 absolute floor for the
    round-off-level ratios of rank-deficient jets.  The worst point must be
    identical whenever the reference minimum is separated from every other
    point by more than that tolerance; among tied minima (stationary fields,
    rank-deficient jets) it must be one of the tied points."""
    field, b, r = case
    rel_tol = 1e-9
    ref = _reference_ratios(field, b, r)
    scan = scan_nondegeneracy(kernel_of(field), b, r, rel_tol)
    tol = 1e-9 * np.abs(ref) + 1e-13
    assert scan.n_points == ref.size
    if not np.any(np.abs(ref - rel_tol) <= tol):  # no point on the threshold
        assert scan.n_failures == int(np.count_nonzero(ref <= rel_tol))
        assert scan.all_pass == (scan.n_failures == 0)
    want = int(np.argmin(ref))
    assert abs(scan.worst_ratio - ref[want]) <= tol[want]
    got = [g for g, p in enumerate(grid_points(b)) if tuple(p) == scan.worst_point]
    assert len(got) == 1
    tied = np.nonzero(ref <= ref[want] + 2 * tol[want])[0]
    if tied.size == 1:
        assert got[0] == want
    else:
        assert got[0] in tied


def test_scan_is_invariant_under_power_of_two_sigmas():
    """Sigmas times 2**-530 square to subnormals; the scan must not see it."""
    cases = [
        (kl_field([ONE, T, Harmonic((2.0,), 0.3, (1.0,))], (1.0, 0.7, 1.1)),
         unit_interval(16), 2),
        (kl_field([T]), unit_interval(8), 1),
        (kl_field([Monomial((1, 0), (1.0,)), Harmonic((1.0, 2.0), 0.3, (0.5,)),
                   Bump((0.2, 0.1), 0.9, (0.7,))], (1.2, 0.8, 0.5)),
         box([0.0, 0.0], [1.0, 1.0], 4), 1),
    ]
    for field, b, r in cases:
        tiny = kl_field(field.basis, [s * 2.0 ** -530 for s in field.sigmas])
        assert scan_nondegeneracy(kernel_of(tiny), b, r) == scan_nondegeneracy(
            kernel_of(field), b, r)


def test_jet_covariances_equal_the_slice_pair_sums():
    """Jet covariances form ``w * J`` once per jet slice; they equal, bit for
    bit, ``w * J * L`` summed over the terms one slice pair at a time."""
    cases = [
        (kl_field([ONE, T, Harmonic((2.0,), 0.3, (1.0,)), Bump((0.4,), 0.3, (0.7,))],
                  (1.0, 0.7, 1.1, 0.9)), grid_points(unit_interval(16)), 3),
        (kl_field([Monomial((1, 2), (1.0, -0.5)), Harmonic((1.0, 2.0), 0.3, (0.5, 2.0)),
                   Scaled(Bump((0.2, 0.1), 0.9, (0.7, 0.1)), -1.5)], (1.2, 0.8, 0.5)),
         grid_points(box([0.0, 0.0], [1.0, 1.0], 4)), 2),
    ]
    for field, pts, r in cases:
        cov, exponents = _jet_covariances(kernel_of(field), pts, r)
        alphas = multi_indices(field.m, r)
        blocks = _column_blocks(_design(field, pts, *alphas), len(alphas))
        _, e_sig = np.frexp(max(field.sigmas))
        e_pts = exponents // 2 - e_sig
        jets = [np.ldexp(d[:, c::field.k], -e_pts) for c in range(field.k) for d in blocks]
        w = np.ldexp(field.sigma_array, -e_sig)[:, None] ** 2
        want = np.array([[(w * J * L).sum(axis=0) for L in jets] for J in jets]).transpose(2, 0, 1)
        assert cov.tobytes() == (0.5 * (want + want.transpose(0, 2, 1))).tobytes()
