import numpy as np
import pytest

from grflab import (Bump, ClosedFormKernel, Harmonic, KernelSeminormSpec,
                    Monomial, Scaled, box, check_psd, check_symmetry,
                    eval_kernel, eval_kernel_deriv, kernel_distance, kernel_of,
                    kernel_seminorm, kl_field, unit_interval)

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
