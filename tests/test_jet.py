import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grflab import (Bump, Harmonic, Monomial, SamplePath, Scaled, jet_covariance,
                    jet_dimension, jet_eval, kernel_of, kl_field,
                    nondegeneracy_certificate, scan_nondegeneracy,
                    unit_interval)
from grflab.basis import box, grid_points
from grflab.kernel import eval_kernel_deriv
from grflab.field import sample_batch_coeffs, design_at_points
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


def test_certificate_json_shape():
    cert = nondegeneracy_certificate(kernel_of(kl_field([ONE, T])), [0.5], 1)
    d = cert.to_json_dict()
    assert set(d) == {"point", "ratio", "pass", "jet_dim", "rank_estimate"}


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
    cols = [coeffs @ design_at_points(f, p.reshape(1, 1), a)[:, 0] for a in alphas]
    jets = np.stack(cols, axis=1)
    emp = jets.T @ jets / n
    want = jet_covariance(K, p, r).matrix
    for i in range(want.shape[0]):
        for j in range(want.shape[1]):
            prod = jets[:, i] * jets[:, j]
            se = prod.std(ddof=1) / np.sqrt(n)
            assert abs(emp[i, j] - want[i, j]) <= 5.0 * se


# -- batched scan against a per-point reference ------------------------------

def _basis_function(draw, m, k):
    amp = tuple(draw(st.floats(-1.5, 1.5)) for _ in range(k))
    kind = draw(st.sampled_from(["harmonic", "monomial", "bump"]))
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
    basis = [_basis_function(draw, m, k) for _ in range(n)]
    sigmas = [draw(st.floats(0.3, 1.5)) for _ in range(n)]
    res = draw(st.integers(1, 8 if m == 1 else 3))
    return kl_field(basis, sigmas, m=m, k=k), box([0.0] * m, [1.0] * m, res), r


def _reference_ratios(K, b, r):
    """min/max eigenvalue per grid point, one eval_kernel_deriv per entry."""
    alphas = multi_indices(K.m, r)
    n_a = len(alphas)
    out = []
    for p in grid_points(b):
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
def test_batched_scan_matches_per_point_reference(case):
    """Ratios agree to 1e-9 relative, with a 1e-13 absolute floor for the
    round-off-level ratios of rank-deficient jets.  The worst point must be
    identical whenever the reference minimum is separated from every other
    point by more than that tolerance; among tied minima (stationary fields,
    rank-deficient jets) it must be one of the tied points."""
    field, b, r = case
    rel_tol = 1e-9
    ref = _reference_ratios(kernel_of(field), b, r)
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
