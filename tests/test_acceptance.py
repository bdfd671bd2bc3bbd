"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.
"""

import json
import math
import time

import numpy as np

from grflab import (Bump, Harmonic, Monomial, Scaled, SupNormBelow, cm_inner,
                    empirical_sup_mean, estimate_probability, eval_kernel,
                    fd_check, gaussian_ratio, kernel_of, kl_field, limit_study,
                    normal_cdf, projection_residual, scan_nondegeneracy,
                    support_basis, unit_interval)
from grflab import counterexample as cx
from grflab.cli import run
from grflab.field import sample_batch_coeffs

ONE = Monomial((0,), (1.0,))
T = Monomial((1,), (1.0,))


def _passed(num: int, detail: str) -> None:
    print(f"[PASS] criterion {num}: {detail}")


def test_criterion_1_counterexample_probability():
    start = time.perf_counter()
    cfg = cx.config(5)
    field = cx.build_X_n(cfg)
    est = estimate_probability(field, SupNormBelow(cx.grid_box(cfg), 0, 1.0),
                               n_samples=20000, seed=0)
    exact = cx.exact_small_norm_prob(5)
    assert abs(exact - 3.778e-3) < 1e-6
    se = math.sqrt(exact * (1.0 - exact) / 20000)
    gap = abs(est.p_hat - exact)
    assert gap <= 3.0 * se
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(1, f"mc {est.p_hat:.6f} vs exact {exact:.6f} "
               f"({gap / se:.2f} stderr, {elapsed:.1f}s)")


def test_criterion_2_divergence_with_vanishing_kernels():
    cfg = cx.config(100)
    field = cx.build_X_n(cfg)
    mean = empirical_sup_mean(field, cx.grid_box(cfg), 0, n_samples=2000, seed=0)
    assert mean.p_hat >= 1.0
    ns = (2, 5, 10, 50, 100)
    sups = cx.kernel_sup_decay(ns)
    for n, s in zip(ns, sups):
        assert abs(s - 1.0 / cx.a_n(n) ** 2) <= 1e-6
    assert all(a > b for a, b in zip(sups, sups[1:]))
    _passed(2, f"mean sup {mean.p_hat:.3f} >= 1 while kernel sups fall "
               f"{sups[0]:.4f} -> {sups[-1]:.4f}")


def test_criterion_3_covariance_identity():
    basis = [Monomial((0,), (1.0,)), Monomial((1,), (1.0,)),
             Monomial((2,), (1.0,)), Monomial((3,), (1.0,)),
             Monomial((5,), (1.0,)),
             Harmonic((1.0,), 0.2, (1.0,)), Harmonic((2.5,), 1.0, (1.0,)),
             Harmonic((4.0,), 0.0, (1.0,)), Harmonic((5.5,), 2.2, (1.0,)),
             Harmonic((7.0,), 0.7, (1.0,))]
    sig = (1.0, 0.8, 1.2, 0.5, 0.9, 1.1, 0.6, 1.3, 0.7, 1.0)
    field = kl_field(basis, sig)
    K = kernel_of(field)
    # exact identity against a brute-force re-summation oracle
    for p, q in (([0.3], [0.8]), ([0.0], [1.0]), ([0.64], [0.64])):
        brute = 0.0
        for s, f in zip(field.sigmas, field.basis):
            brute += s * s * float(f.eval(np.asarray(p))[0]) * float(f.eval(np.asarray(q))[0])
        assert abs(eval_kernel(K, p, q)[0, 0] - brute) <= 1e-12 * (1 + abs(brute))
    # empirical covariance within 5 standard errors at 3 point pairs
    n = 100_000
    coeffs = sample_batch_coeffs(field, 0, np.arange(n))
    worst_z = 0.0
    for p, q in (([0.2], [0.7]), ([0.1], [0.1]), ([0.9], [0.4])):
        from grflab.field import _design, apply_design

        vp = apply_design(coeffs, _design(field, np.array([p]), (0,)))[:, 0]
        vq = apply_design(coeffs, _design(field, np.array([q]), (0,)))[:, 0]
        prod = vp * vq
        se = prod.std(ddof=1) / math.sqrt(n)
        z = abs(prod.mean() - eval_kernel(K, p, q)[0, 0]) / se
        worst_z = max(worst_z, z)
        assert z <= 5.0
    _passed(3, f"exact identity to 1e-12; empirical covariance worst "
               f"{worst_z:.2f} stderr over 3 pairs")


def test_criterion_4_jet_nondegeneracy():
    b = unit_interval()  # 257 grid points
    scan_good = scan_nondegeneracy(kernel_of(kl_field([ONE, T])), b, 1, 1e-9)
    assert scan_good.all_pass and scan_good.n_points == 257
    assert scan_good.worst_ratio > 0.1  # analytic min (3-sqrt(5))/(3+sqrt(5))
    scan_flat = scan_nondegeneracy(kernel_of(kl_field([T])), b, 1, 1e-9)
    assert not scan_flat.all_pass and scan_flat.n_failures == 257
    assert scan_flat.worst_ratio < 1e-9
    scan_rank = scan_nondegeneracy(kernel_of(kl_field([ONE, T])), b, 2, 1e-9)
    assert not scan_rank.all_pass
    assert scan_rank.worst_ratio < 1e-9
    _passed(4, f"affine kernel passes 257/257 (worst ratio "
               f"{scan_good.worst_ratio:.4f}); rank-deficient kernels fail")


def test_criterion_5_gaussian_ratio_bounded():
    b = unit_interval()
    ratios = []
    for w in range(1, 11):
        field = kl_field([Harmonic((float(w),), 0.0, (1.0,))])
        res = gaussian_ratio(field, b, 1, n_samples=20000, seed=0)
        assert not res.zero_denominator
        assert math.isfinite(res.ratio)
        ratios.append(res.ratio)
    assert max(ratios) <= 3.0
    _passed(5, f"harmonic family ratios in [{min(ratios):.4f}, "
               f"{max(ratios):.4f}], bound 3")


def test_criterion_6_limit_probabilities():
    b = unit_interval()
    fields = [kl_field([ONE, Scaled(T, 1.0 / d)]) for d in (1, 2, 4, 8, 16)]
    limit = kl_field([ONE])
    rows = limit_study(fields, limit, SupNormBelow(b, 0, 1.0), b, r=0,
                       n_samples=20000, seed=0)
    dists = [r.kernel_distance for r in rows[:-1]]
    assert all(d1 > d2 for d1, d2 in zip(dists, dists[1:]))
    assert dists[-1] < 1e-2
    lim = rows[-1].estimate
    want = 2.0 * normal_cdf(1.0) - 1.0
    assert abs(lim.p_hat - want) <= 4.0 * lim.stderr
    d16 = rows[-2].estimate
    overlap = max(lim.ci95[0], d16.ci95[0]) <= min(lim.ci95[1], d16.ci95[1])
    assert overlap
    _passed(6, f"distances {dists[0]:.3f} -> {dists[-1]:.5f}; d=16 CI "
               f"overlaps limit CI around {want:.4f}")


def _random_support_field(rng):
    n = int(rng.integers(2, 6))
    basis = []
    degrees = rng.permutation(5)[:n]
    for i in range(n):
        if rng.random() < 0.5:
            basis.append(Monomial((int(degrees[i]),), (1.0,)))
        else:
            basis.append(Harmonic((float(rng.uniform(0.5, 6.0)),),
                                  float(rng.uniform(0, 3)), (1.0,)))
    return kl_field(basis, tuple(rng.uniform(0.5, 1.5, n)))


def test_criterion_7_support_structure():
    rng = np.random.default_rng(2024)
    b = unit_interval()
    worst = 0.0
    for _ in range(20):
        field = _random_support_field(rng)
        p = [float(rng.uniform(0, 1))]
        h = support_basis(field, p, 0)
        worst = max(worst, projection_residual(field, h, b))
    assert worst <= 1e-9
    field = kl_field([Monomial((1,), (1.0, 0.3)),
                      Harmonic((2.0,), 0.1, (0.5, 1.0)),
                      Bump((0.2,), 0.8, (1.0, -0.4))], (1.1, 0.6, 0.9))
    K = kernel_of(field)
    for _ in range(100):
        p = [float(rng.uniform(-1, 2))]
        q = [float(rng.uniform(-1, 2))]
        j = int(rng.integers(0, 2))
        l = int(rng.integers(0, 2))
        got = cm_inner(field, (p, j), (q, l))
        assert abs(got - eval_kernel(K, p, q)[j, l]) <= 1e-12
    _passed(7, f"20 support projections (worst residual {worst:.2e}); "
               f"100 reproducing inner products to 1e-12")


def test_criterion_8_derivative_correctness():
    rng = np.random.default_rng(11)
    h_by_order = {1: 1e-5, 2: 1e-4, 3: 2e-3, 4: 2e-3}
    variants = [
        Monomial((3,), (1.0,)),
        Harmonic((4.0,), 1.1, (0.5,)),
        Bump((0.1,), 1.1, (2.0,)),
        Scaled(Harmonic((2.0,), 0.4, (1.0,)), 1.7),
    ]
    worst = {o: 0.0 for o in (1, 2, 3, 4)}
    for f in variants:
        if isinstance(f, Bump):
            pts = f.center[0] + f.radius * rng.uniform(-0.7, 0.7, 50)
        else:
            pts = rng.uniform(0.2, 1.2, 50)
        for order in (1, 2, 3, 4):
            tol = 1e-6 if order <= 2 else 1e-4
            for x in pts:
                err = fd_check(f, [x], (order,), h_by_order[order])
                worst[order] = max(worst[order], err)
                assert err <= tol, (type(f).__name__, order, x, err)
    _passed(8, "fd gaps: " + ", ".join(
        f"order {o}: {worst[o]:.1e}" for o in (1, 2, 3, 4)))


def test_criterion_9_byte_identical_reports(tmp_path):
    args = ["counterexample", "--n", "5", "--samples", "20000", "--seed", "0"]
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    assert run(args + ["--output", str(out1)]) == 0
    assert run(args + ["--output", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    report = json.loads(b1)
    exact = report["results"][0]["exact_prob"]
    lo, hi = report["results"][0]["ci95_low"], report["results"][0]["ci95_high"]
    assert lo <= exact + 3 * report["results"][0]["stderr"]
    _passed(9, f"two CLI runs produced {len(b1)} identical bytes")
