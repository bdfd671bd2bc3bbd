import copy

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import grflab.field
import grflab.kernel
from grflab import (Bump, ClosedFormKernel, Harmonic, KernelSeminormSpec,
                    Monomial, Scaled, box, check_psd, check_symmetry,
                    eval_kernel, eval_kernel_deriv, kernel_distance, kernel_of,
                    kernel_seminorm, kl_field, unit_interval)
from grflab import counterexample as cx
from grflab.basis import grid_points
from grflab.field import Windowed, _blocks, box_design
from grflab.kernel import eval_kernel_deriv_pairs
from grflab.multiindex import multi_indices

ONE = Monomial((0,), (1.0,))
T = Monomial((1,), (1.0,))


def st_kernel():
    return kernel_of(kl_field([T]))


def affine_kernel():
    return kernel_of(kl_field([ONE, T]))


def mixed_field(sig=(1.0, 0.8, 1.3, 0.6)):
    basis = [Monomial((2,), (1.0,)), Harmonic((3.0,), 0.4, (1.0,)),
             Bump((0.4,), 0.5, (1.0,)), Scaled(T, 2.0)]
    return kl_field(basis, sig)


def test_eval_kernel_examples():
    assert eval_kernel(st_kernel(), [2.0], [3.0])[0, 0] == 6.0
    assert eval_kernel(ClosedFormKernel("affine_dot"), [2.0], [3.0])[0, 0] == 7.0
    assert eval_kernel(affine_kernel(), [0.0], [5.0])[0, 0] == 1.0


def test_eval_kernel_deriv_examples():
    K = st_kernel()
    assert eval_kernel_deriv(K, [0.3], [0.9], (1,), (1,))[0, 0] == 1.0
    assert eval_kernel_deriv(K, [0.3], [7.0], (1,), (0,))[0, 0] == 7.0
    Ke = ClosedFormKernel("exp_dot")
    assert abs(eval_kernel_deriv(Ke, [0.0], [0.0], (1,), (1,))[0, 0] - 1.0) < 1e-15


def test_exp_dot_derivs_match_finite_differences():
    K = ClosedFormKernel("exp_dot")
    h = 1e-5
    s, t = 0.4, -0.3
    fd_ss = (np.exp((s + h) * t) - np.exp((s - h) * t)) / (2 * h)
    assert abs(eval_kernel_deriv(K, [s], [t], (1,), (0,))[0, 0] - fd_ss) < 1e-8
    fd_st = (np.exp((s + h) * (t + h)) - np.exp((s + h) * (t - h))
             - np.exp((s - h) * (t + h)) + np.exp((s - h) * (t - h))) / (4 * h * h)
    assert abs(eval_kernel_deriv(K, [s], [t], (1,), (1,))[0, 0] - fd_st) < 1e-6


def test_exp_dot_multidim_factorizes():
    K = ClosedFormKernel("exp_dot", m=2)
    s = np.array([0.3, -0.2])
    t = np.array([0.5, 0.7])
    val = eval_kernel_deriv(K, s, t, (1, 2), (0, 1))[0, 0]
    # per-axis closed forms: axis 0 gives t0, axis 1 gives d^2_s d_t e^(st)
    ax0 = t[0]
    ax1 = t[1] ** 2 * s[1] + 2 * t[1]
    assert abs(val - ax0 * ax1 * np.exp(s @ t)) < 1e-14


def test_kernel_seminorm_examples():
    empty = kernel_of(kl_field([], m=1, k=1))
    spec = KernelSeminormSpec(unit_interval(), 0)
    assert kernel_seminorm(empty, spec) == 0.0
    # K = s t on [0,1]: max over {st, s, t, 1} is 1
    assert kernel_seminorm(st_kernel(), KernelSeminormSpec(unit_interval(), 1)) == 1.0


def test_kernel_seminorm_homogeneity():
    f = mixed_field()
    spec = KernelSeminormSpec(unit_interval(64), 1)
    base = kernel_seminorm(kernel_of(f), spec)
    for c in (0.25, 4.0, 9.0):
        scaled = kl_field(f.basis, tuple(s * np.sqrt(c) for s in f.sigmas))
        got = kernel_seminorm(kernel_of(scaled), spec)
        assert abs(got - c * base) <= 1e-12 * max(1.0, c * base)


def test_kernel_distance_examples():
    spec0 = KernelSeminormSpec(unit_interval(), 0)
    assert kernel_distance(st_kernel(), st_kernel(), spec0) == 0.0
    zero = kernel_of(kl_field([], m=1, k=1))
    assert kernel_distance(st_kernel(), zero, spec0) == 1.0
    for d in (2, 5):
        scaled = kernel_of(kl_field([T], (np.sqrt(1.0 + 1.0 / d),)))
        got = kernel_distance(scaled, st_kernel(), spec0)
        assert abs(got - 1.0 / d) < 1e-12


def _empty_field_cases():
    yield kernel_of(mixed_field()), unit_interval(64), 2
    bumps = [Bump((c,), 0.05 + 0.01 * i, (1.0 - 0.2 * i,)) for i, c in enumerate((0.2, 0.5, 0.6))]
    yield kernel_of(kl_field(bumps, [0.9, 1.2, 0.7])), unit_interval(400), 2
    yield ClosedFormKernel("exp_dot"), unit_interval(64), 2
    harmonics = [Harmonic((1.5, -2.0), 0.3, (1.0,)), Harmonic((0.4, 2.5), 1.1, (0.8,))]
    yield kernel_of(kl_field(harmonics, [1.1, 0.6])), box([-1.0, -1.0], [0.5, 0.5], 8), 1


@pytest.mark.parametrize("K, b, r", list(_empty_field_cases()))
def test_distance_to_an_empty_field_is_the_seminorm(monkeypatch, K, b, r):
    # one sign: the distance is read off the diagonal, with no pair block
    spec = KernelSeminormSpec(b, r)
    zero = kernel_of(kl_field([], m=K.m, k=K.k))
    scale = kernel_seminorm(K, spec)
    calls = _spy_blocks(monkeypatch)
    for pair in ((K, zero), (zero, K)):
        assert abs(kernel_distance(*pair, spec) - scale) <= 1e-12 * scale
    assert calls == []


def _truncation_cases():
    """(field, n): the field against its first n terms, in 1-D and 2-D."""
    for d in (1e4, 1e6, 1e8):
        yield kl_field([ONE, Monomial((1,), (1.0 / d,))]), 1, unit_interval(16)
        yield (kl_field([Monomial((0, 0), (1.0,)), Monomial((1, 0), (1.0 / d,))]), 1,
               box([0.0, 0.0], [1.0, 1.0], 4))
    rng = np.random.default_rng(3)
    sigmas = 0.5 ** np.arange(40)
    waves = [Harmonic((float(w),), float(p), (1.0,))
             for w, p in zip(rng.uniform(0.5, 12.0, 40), rng.uniform(0, 6.3, 40))]
    for n in (20, 30):
        yield kl_field(waves, sigmas), n, unit_interval(64)
    plane = [Harmonic(tuple(rng.uniform(-8.0, 8.0, 2)), float(p), (1.0,))
             for p in rng.uniform(0, 6.3, 40)]
    for n in (20, 30):
        yield kl_field(plane, sigmas), n, box([0.0, 0.0], [1.0, 1.0], 23)
    bumps = [Bump((float(c),), float(rad), (1.0,))
             for c, rad in zip(rng.uniform(0, 1, 60), rng.uniform(0.02, 0.08, 60))]
    yield kl_field(bumps, rng.uniform(0.3, 1.5, 60)), 40, unit_interval(400)


@pytest.mark.parametrize("field, n, b", list(_truncation_cases()))
@pytest.mark.parametrize("r", [0, 1, 2])
def test_distance_to_a_truncation_is_the_tail_seminorm(monkeypatch, field, n, b, r):
    """Shared terms cancel exactly, so the distance is the tail's own seminorm,
    however small it is against the kernels' size; the tail has one sign, so
    no pair block is formed."""
    spec = KernelSeminormSpec(b, r)
    head = kernel_of(kl_field(field.basis[:n], field.sigmas[:n]))
    tail = kernel_seminorm(kernel_of(kl_field(field.basis[n:], field.sigmas[n:])), spec)
    assert tail > 0.0
    calls = _spy_blocks(monkeypatch)
    for pair in ((kernel_of(field), head), (head, kernel_of(field))):
        assert abs(kernel_distance(*pair, spec) - tail) <= 1e-12 * tail
    assert calls == []


def test_kernel_distance_triangle(rng_np):
    spec = KernelSeminormSpec(unit_interval(32), 1)
    def rand_kernel():
        n = rng_np.integers(1, 4)
        basis = [Harmonic((float(rng_np.uniform(0.5, 4.0)),),
                          float(rng_np.uniform(0, 3)), (1.0,)) for _ in range(n)]
        return kernel_of(kl_field(basis, tuple(rng_np.uniform(0.3, 1.5, n))))
    for _ in range(5):
        k1, k2, k3 = rand_kernel(), rand_kernel(), rand_kernel()
        d13 = kernel_distance(k1, k3, spec)
        d12 = kernel_distance(k1, k2, spec)
        d23 = kernel_distance(k2, k3, spec)
        assert d13 <= d12 + d23 + 1e-10


def test_deriv_transpose_swap(rng_np):
    basis = [Monomial((1, 0), (1.0, 0.5)), Harmonic((2.0, 1.0), 0.2, (0.3, 1.0)),
             Monomial((0, 2), (0.7, -0.2))]
    K = kernel_of(kl_field(basis, (1.0, 0.7, 1.2)))
    for _ in range(20):
        p = rng_np.uniform(-1, 1, 2)
        q = rng_np.uniform(-1, 1, 2)
        a = tuple(rng_np.integers(0, 3, 2))
        b = tuple(rng_np.integers(0, 3, 2))
        lhs = eval_kernel_deriv(K, p, q, a, b)
        rhs = eval_kernel_deriv(K, q, p, b, a).T
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_check_symmetry():
    rep = check_symmetry(kernel_of(mixed_field()), [([0.1], [0.7]), ([0.4], [0.2])])
    assert rep.passed and rep.max_violation == 0.0
    rep = check_symmetry(ClosedFormKernel("exp_dot"), [([0.3], [0.8])])
    assert rep.passed
    asym = lambda p, q: np.atleast_1d(p)[:1].reshape(1, 1)  # K(s,t)=s: not symmetric
    rep = check_symmetry(asym, [([0.2], [0.9])])
    assert not rep.passed and rep.max_violation > 0.5


def test_check_symmetry_reads_pair_arrays_like_pair_lists():
    field = kl_field([Monomial((1, 2), (1.0,)), Harmonic((1.0, 2.0), 0.3, (1.0,)),
                      Bump((0.4, 0.6), 0.5, (1.0,))], (1.0, 0.7, 1.3))
    pts = np.random.default_rng(5).random((7, 2))
    i, j = np.triu_indices(len(pts))
    listed = [(pts[a], pts[b]) for a, b in zip(i, j)]
    for K in (kernel_of(field), ClosedFormKernel("exp_dot", 2)):
        rep = check_symmetry(K, np.stack((pts[i], pts[j]), axis=1))
        assert rep == check_symmetry(K, listed)
        with pytest.raises(ValueError):
            check_symmetry(K, np.zeros((3, 2, 3)))


def test_check_symmetry_of_a_vector_field_transposes_the_reverse_pairs():
    """K(p, q) of a k = 2 field is symmetric only up to rounding, while
    K(p, q) = K(q, p)^T holds exactly: the batched check reports a gap of
    exactly 0, as the per-pair check does."""
    field = kl_field([Harmonic((1.0, 2.0), 0.3, (0.3, -0.7)), Monomial((1, 0), (0.2, 1.1)),
                      Bump((0.4, 0.6), 0.5, (0.7, 0.13))], (1.0, 0.7, 1.3))
    K = kernel_of(field)
    pairs = np.random.default_rng(9).random((6, 2, 2))
    assert any(eval_kernel(K, p, q)[0, 1] != eval_kernel(K, p, q)[1, 0] for p, q in pairs)
    rep = check_symmetry(K, pairs)
    assert rep.passed and rep.max_violation == 0.0
    assert rep == check_symmetry(lambda p, q: eval_kernel(K, p, q), list(pairs))


@pytest.mark.parametrize("amp", [(1e200,), (1e200, -1e200)])
def test_check_symmetry_of_an_overflowing_expansion_kernel_is_not_a_number(amp):
    # K(p, q) overflows to inf; inf - inf is nan, or an error where invalid raises
    field = kl_field([Harmonic((1.0,), 0.3, amp), Monomial((0,), amp)], (1.0, 0.5))
    pairs = [([0.1], [0.7]), ([0.4], [0.4])]
    with np.errstate(all="ignore"):
        rep = check_symmetry(kernel_of(field), pairs)
    assert np.isnan(rep.max_violation) and not rep.passed
    for raised in ({"over": "raise"}, {"over": "ignore", "invalid": "raise"}):
        with np.errstate(**raised), pytest.raises(FloatingPointError):
            check_symmetry(kernel_of(field), pairs)


def test_kernel_distance_of_all_nan_tiles_is_not_a_number(monkeypatch):
    # the merged weights are +-1e300 and each entry inf - inf: every tile's max is nan,
    # which the running max keeps, in one tile or in one tile per grid row
    f, g = (kl_field([Harmonic((0.0,), phase, (1e200,))], [1e150]) for phase in (0.0, 0.5))
    spec = KernelSeminormSpec(box([0.0], [1.0], (8,)), 0)
    for budget in (grflab.kernel._TILE_ENTRIES, 9):
        monkeypatch.setattr(grflab.kernel, "_TILE_ENTRIES", budget)
        with np.errstate(all="ignore"):
            assert np.isnan(kernel_distance(kernel_of(f), kernel_of(g), spec))
            assert kernel_seminorm(kernel_of(f), spec) == np.inf


def test_check_psd():
    rep = check_psd(kernel_of(mixed_field()), np.linspace(0, 1, 9).reshape(-1, 1))
    assert rep.passed and rep.min_eigenvalue >= -1e-10
    rep = check_psd(st_kernel(), np.array([[1.0], [2.0]]))
    assert rep.passed
    assert abs(rep.min_eigenvalue) < 1e-12  # eigenvalues {0, 5}
    neg = lambda p, q: np.array([[-1.0]])
    rep = check_psd(neg, np.array([[0.0], [1.0]]))
    assert not rep.passed
    # no point cap: 65 points match a LAPACK spectrum of the brute-force Gram
    K = kernel_of(mixed_field())
    pts = np.linspace(0, 1, 65).reshape(-1, 1)
    rep = check_psd(K, pts)
    gram = np.array([[eval_kernel(K, p, q)[0, 0] for q in pts] for p in pts])
    w = np.linalg.eigvalsh(gram)
    assert rep.passed and abs(rep.min_eigenvalue - w[0]) <= 1e-12 * w[-1]


def test_check_psd_of_closed_form_kernels():
    pts = np.array([[-0.5, 0.2], [0.1, 0.9], [0.7, -0.3], [1.0, 1.0]])
    for tag in ("dot", "affine_dot", "exp_dot"):
        K = ClosedFormKernel(tag, 2)
        gram = np.array([[eval_kernel(K, p, q)[0, 0] for q in pts] for p in pts])
        w = np.linalg.eigvalsh(gram)
        rep = check_psd(K, pts)
        assert rep.passed and abs(rep.min_eigenvalue - w[0]) <= 1e-12 * w[-1]
    # Gram matrix [[1, 2], [2, 4]] of s t, eigenvalues {0, 5}
    rep = check_psd(ClosedFormKernel("dot"), [1.0, 2.0])
    assert rep.passed and abs(rep.min_eigenvalue) < 1e-12


def test_check_psd_refuses_points_of_the_wrong_dimension():
    K2 = kernel_of(kl_field([Harmonic((1.0, 2.0), 0.3, (1.0,))]))
    for points in ([[0.1], [0.2], [0.3], [0.4]], [0.1, 0.2], np.zeros((2, 3)),
                   np.zeros((2, 2, 1))):
        with pytest.raises(ValueError, match="do not match dimension 2"):
            check_psd(K2, points)
    with pytest.raises(ValueError, match="do not match dimension 1"):
        check_psd(ClosedFormKernel("dot"), [[0.1, 0.2]])
    K1 = kernel_of(mixed_field())
    assert check_psd(K1, [0.1, 0.5, 0.9]) == check_psd(K1, [[0.1], [0.5], [0.9]])


def test_gram_rank_bounded_by_expansion_size():
    f = mixed_field()
    K = kernel_of(f)
    pts = np.linspace(0, 1, 12).reshape(-1, 1)
    gram = np.array([[eval_kernel(K, p, q)[0, 0] for q in pts] for p in pts])
    w = np.linalg.eigvalsh(gram)[::-1]
    assert np.all(w[f.size:] <= 1e-9 * w[0])


def test_seminorm_matches_brute_force_on_coarse_grid():
    f = mixed_field()
    b = box(0.0, 1.0, 16)
    spec = KernelSeminormSpec(b, 1)
    got = kernel_seminorm(kernel_of(f), spec)
    pts = np.linspace(0, 1, 17)
    worst = 0.0
    for a in ((0,), (1,)):
        for bb in ((0,), (1,)):
            for x in pts:
                for y in pts:
                    v = eval_kernel_deriv(kernel_of(f), [x], [y], a, bb)[0, 0]
                    worst = max(worst, abs(v))
    assert abs(got - worst) < 1e-12


def test_kernel_distance_checks_the_box_dimension():
    spec = KernelSeminormSpec(box([0.0, 0.0], [1.0, 1.0], 4), 1)
    for K1, K2 in ((ClosedFormKernel("exp_dot", 1), ClosedFormKernel("dot", 1)),
                   (st_kernel(), affine_kernel()), (st_kernel(), st_kernel())):
        with pytest.raises(ValueError, match="box dimension does not match the kernel"):
            kernel_distance(K1, K2, spec)


def test_an_overflowed_kernel_weight_is_a_floating_point_error():
    # sigma^2 = inf is a merged weight no KLField may hold, shared or not
    spec = KernelSeminormSpec(unit_interval(), 1)
    for K1, K2 in ((kernel_of(kl_field([T, ONE], [1e200, 1.0])), kernel_of(kl_field([ONE]))),
                   (kernel_of(kl_field([T], [1e200])), kernel_of(kl_field([T], [1e200]))),
                   (kernel_of(kl_field([T])), kernel_of(kl_field([T, T], [1e200, 1.0])))):
        with pytest.raises(FloatingPointError, match=r"a kernel weight sigma\^2 overflowed"):
            kernel_distance(K1, K2, spec)
    # a lone field, read as it is, checks its own sigma^2
    lone = kernel_of(kl_field([T], [1e200]))
    for reduce in (lambda: kernel_seminorm(lone, spec),
                   lambda: kernel_distance(lone, kernel_of(kl_field([], m=1, k=1)), spec),
                   lambda: kernel_distance(kernel_of(kl_field([], m=1, k=1)), lone, spec)):
        with pytest.raises(FloatingPointError, match=r"a kernel weight sigma\^2 overflowed"):
            reduce()


# -- diagonal seminorm and stacked distance against pair references ----------

def _basis_function(draw, m, k):
    amp = tuple(draw(st.floats(-1.5, 1.5)) for _ in range(k))
    kind = draw(st.sampled_from(["harmonic", "monomial", "bump"]))
    if kind == "harmonic":
        return Harmonic(tuple(draw(st.floats(-4.0, 4.0)) for _ in range(m)),
                        draw(st.floats(0.0, 6.3)), amp)
    if kind == "monomial":
        return Monomial(tuple(draw(st.integers(0, 2)) for _ in range(m)), amp)
    return Bump(tuple(draw(st.floats(-1.0, 1.0)) for _ in range(m)),
                draw(st.floats(0.3, 1.2)), amp)


def _random_field(draw, m, k):
    n = draw(st.integers(1, 5))
    basis = [_basis_function(draw, m, k) for _ in range(n)]
    return kl_field(basis, [draw(st.floats(0.3, 1.5)) for _ in range(n)], m=m, k=k)


def _grid_box(draw, m):
    """A box with negative coordinates and at most 9 or 16 grid points."""
    res = draw(st.integers(1, 8 if m == 1 else 3))
    return box([-1.0] * m, [0.5] * m, res)


@st.composite
def seminorm_cases(draw):
    m = draw(st.integers(1, 2))
    r = draw(st.integers(0, 2))
    if draw(st.booleans()):
        K = ClosedFormKernel(draw(st.sampled_from(["dot", "affine_dot", "exp_dot"])), m)
    else:
        K = kernel_of(_random_field(draw, m, draw(st.integers(1, 2))))
    return K, _grid_box(draw, m), r


@st.composite
def distance_cases(draw):
    m = draw(st.integers(1, 2))
    k = draw(st.integers(1, 2))
    K1 = kernel_of(_random_field(draw, m, k))
    K2 = kernel_of(_random_field(draw, m, k))
    return K1, K2, _grid_box(draw, m), draw(st.integers(0, 2))


@st.composite
def closed_form_distance_cases(draw):
    """A closed-form kernel against another one or a scalar field's kernel."""
    m = draw(st.integers(1, 2))
    tags = ["dot", "affine_dot", "exp_dot"]
    K1 = ClosedFormKernel(draw(st.sampled_from(tags)), m)
    if draw(st.booleans()):
        K2 = ClosedFormKernel(draw(st.sampled_from(tags)), m)
    else:
        K2 = kernel_of(_random_field(draw, m, 1))
    if draw(st.booleans()):
        K1, K2 = K2, K1
    return K1, K2, _grid_box(draw, m), draw(st.integers(0, 2))


def _brute_pair_max(K, b, r, minus=None):
    """max |d_alpha d_beta (K - minus)(x, y)| over every grid pair (x, y) and
    every (alpha, beta), one pointwise evaluation per pair."""
    pts = grid_points(b)
    X = np.repeat(pts, pts.shape[0], axis=0)
    Y = np.tile(pts, (pts.shape[0], 1))
    alphas = multi_indices(K.m, r)
    best = 0.0
    for a in alphas:
        for bb in alphas:
            vals = eval_kernel_deriv_pairs(K, X, Y, a, bb)
            if minus is not None:
                vals = vals - eval_kernel_deriv_pairs(minus, X, Y, a, bb)
            best = max(best, float(np.max(np.abs(vals))))
    return best


def _scaled(K, b, a):
    """The design scaled by the sigmas; a windowed one as a csr_array, for a reference."""
    d = box_design(K.field, b, a)
    if isinstance(d, Windowed):
        return sp.diags(K.field.sigma_array) @ sp.csr_array(d.toarray())
    return K.field.sigma_array[:, None] * d


def _two_product_distance(K1, K2, b, r):
    """Distance as the difference of the two kernels' Gram products."""
    alphas = multi_indices(K1.m, r)
    best = 0.0
    for a in alphas:
        for bb in alphas:
            diff = (_scaled(K1, b, a).T @ _scaled(K1, b, bb)
                    - _scaled(K2, b, a).T @ _scaled(K2, b, bb))
            best = max(best, float(abs(diff).max()))
    return best


@settings(max_examples=60, deadline=None)
@given(seminorm_cases())
def test_seminorm_is_the_pair_max(case):
    K, b, r = case
    got = kernel_seminorm(K, KernelSeminormSpec(b, r))
    ref = _brute_pair_max(K, b, r)
    assert abs(got - ref) <= 1e-12 * ref


@settings(max_examples=60, deadline=None)
@given(distance_cases())
def test_distance_matches_two_product_reference(case):
    """Relative to the kernels' own size: a small distance between two large
    kernels carries the rounding of the large Gram entries."""
    K1, K2, b, r = case
    spec = KernelSeminormSpec(b, r)
    got = kernel_distance(K1, K2, spec)
    ref = _two_product_distance(K1, K2, b, r)
    scale = max(ref, kernel_seminorm(K1, spec), kernel_seminorm(K2, spec))
    assert abs(got - ref) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(closed_form_distance_cases())
def test_closed_form_distance_is_the_pair_max(case):
    K1, K2, b, r = case
    spec = KernelSeminormSpec(b, r)
    got = kernel_distance(K1, K2, spec)
    ref = _brute_pair_max(K1, b, r, minus=K2)
    scale = max(ref, kernel_seminorm(K1, spec), kernel_seminorm(K2, spec))
    assert abs(got - ref) <= 1e-12 * scale


def _spy_blocks(monkeypatch):
    """The slices of every ``_blocks`` call that kernel.py makes from now on."""
    calls = []

    def spy(*args):
        calls.append(list(_blocks(*args)))
        return calls[-1]

    monkeypatch.setattr(grflab.kernel, "_blocks", spy)
    return calls


def _tiny_and_whole_tiles(monkeypatch):
    """Run each case with one-row tiles, then one tile per pair block; yield the spied calls."""
    calls = _spy_blocks(monkeypatch)
    for budget, one_row in ((1, True), (grflab.field._BLOCK_ENTRIES, False)):
        monkeypatch.setattr(grflab.kernel, "_TILE_ENTRIES", budget)
        calls.clear()
        yield calls
        assert calls
        assert all(len(c) == (c[-1].stop if one_row else 1) for c in calls)


def _harmonic_terms(k, seed):
    rng = np.random.default_rng(seed)
    return [Harmonic(tuple(rng.uniform(-3, 3, 2)), float(rng.uniform(0, 6)),
                     tuple(rng.uniform(-1.5, 1.5, k))) for _ in range(4)]


def _tile_cases():
    b = box([-1.0, -1.0], [0.5, 0.5], 4)
    for k in (1, 2):
        yield (kernel_of(kl_field(_harmonic_terms(k, 1) + [Monomial((1, 1), (1.0,) * k)],
                                  [1.0, 0.8, 1.3, 0.6, 0.9])),
               kernel_of(kl_field(_harmonic_terms(k, 2), [0.7, 1.1, 0.5, 1.2])), b, 2)
    # the distance is d_y (K1 - K2)(x, y) at x > y, below the diagonal of
    # the (0, 1) pair block: a triangle on that pair would miss it
    yield (kernel_of(kl_field([Harmonic((-0.2,), 5.7, (1.0,))])),
           kernel_of(kl_field([Harmonic((-1.0,), 0.9, (1.0,))])), box(0.0, 1.0, 4), 1)
    yield kernel_of(kl_field(_harmonic_terms(1, 3))), ClosedFormKernel("exp_dot", 2), b, 2
    yield ClosedFormKernel("affine_dot", 2), ClosedFormKernel("exp_dot", 2), b, 2
    # shared terms, one with equal and one with different sigmas: the rest has mixed signs
    terms = _harmonic_terms(2, 5)
    yield (kernel_of(kl_field(terms[:3], [1.0, 0.8, 1.3])),
           kernel_of(kl_field(terms[1:], [0.9, 1.3, 0.6])), b, 2)


@pytest.mark.parametrize("case", list(_tile_cases()))
def test_distance_tiles_match_the_pair_max(monkeypatch, case):
    """One-row tiles run the triangle of every diagonal pair on every row."""
    K1, K2, b, r = case
    spec = KernelSeminormSpec(b, r)
    ref = _brute_pair_max(K1, b, r, minus=K2)
    scale = max(ref, kernel_seminorm(K1, spec), kernel_seminorm(K2, spec))
    for calls in _tiny_and_whole_tiles(monkeypatch):
        assert abs(kernel_distance(K1, K2, spec) - ref) <= 1e-12 * scale
        assert abs(kernel_distance(K2, K1, spec) - ref) <= 1e-12 * scale
        # equal kernels, also from separate objects, cancel to an empty sum
        n_calls = len(calls)
        assert kernel_distance(K1, K1, spec) == 0.0
        assert kernel_distance(K2, copy.deepcopy(K2), spec) == 0.0
        assert len(calls) == n_calls


def test_windowed_sparse_seminorm_and_distance(monkeypatch):
    """Overlapping bumps on a 20001-point grid: the designs are windowed, and
    the references take csr_array Gram products.  A windowed stack is cut
    into whole blocks, not into dense pair tiles."""
    rng = np.random.default_rng(7)
    b = box(0.0, 1.0, 20000)

    def bumps(n):
        basis = [Bump((float(c),), float(rad), (float(a),)) for c, rad, a in
                 zip(rng.uniform(0, 1, n), rng.uniform(5e-4, 2e-3, n), rng.uniform(-1.5, 1.5, n))]
        return kernel_of(kl_field(basis, rng.uniform(0.3, 1.5, n)))

    K1, K2 = bumps(210), bumps(230)
    assert isinstance(box_design(K1.field, b, (0,)), Windowed)
    assert isinstance(box_design(K2.field, b, (0,)), Windowed)
    calls = _spy_blocks(monkeypatch)
    for r in (0, 2):
        spec = KernelSeminormSpec(b, r)
        scaled = [_scaled(K1, b, a) for a in multi_indices(1, r)]
        pair_max = max(float(abs(sa.T @ sb).max()) for sa in scaled for sb in scaled)
        assert abs(kernel_seminorm(K1, spec) - pair_max) <= 1e-12 * pair_max
        ref = _two_product_distance(K1, K2, b, r)
        assert abs(kernel_distance(K1, K2, spec) - ref) <= 1e-12 * ref
    assert {s.stop - s.start for c in calls for s in c[:-1]} == {
        grflab.field._BLOCK_ENTRIES // 20001}


def test_kernel_sup_decay_bits():
    assert cx.kernel_sup_decay([5, 10, 100]) == [
        0.6088745603777447, 0.36961150946819515, 0.15071824930113975]
