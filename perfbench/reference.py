"""Independent reference computations and the per-command report checks.

Nothing here imports grflab.  Basis values and derivatives are evaluated
from their closed forms, jet covariances and Gram matrices are assembled
here and reduced with LAPACK (``numpy.linalg.eigvalsh``), and Monte Carlo
counts are recomputed from the stream specification in the ``rng.py``
docstring: splitmix64 words, ``u = ((word >> 11) + 0.5) * 2**-53`` and the
inverse normal CDF (``scipy.special.ndtri``).  The specification is coded
twice, with Python integers and vectorized with numpy ``uint64``; every
check that uses the vectorized form first compares it with the Python-int
form on a few streams.

Each ``check_*`` function returns a list of error strings (empty when the
report is right).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np
from scipy.special import erfc, ndtri
from scipy.stats import binom

M64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
_CHUNK = 2000  # paths per block when recomputing Monte Carlo counts


# ---------------------------------------------------------------------------
# random stream specification
# ---------------------------------------------------------------------------

def _mix(z: int) -> int:
    z &= M64
    z = ((z ^ (z >> 30)) * MIX1) & M64
    z = ((z ^ (z >> 27)) * MIX2) & M64
    return z ^ (z >> 31)


def normals_py(seed: int, index: int, n: int) -> np.ndarray:
    """Draws 0..n-1 of stream (seed, index), Python integers throughout."""
    key = _mix(seed + (index + 1) * GAMMA)
    u = [((_mix(key + (i + 1) * GAMMA) >> 11) + 0.5) * 2.0 ** -53 for i in range(n)]
    return ndtri(np.array(u))


def _mix_np(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    return z ^ (z >> np.uint64(31))


def normals_np(seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """Rows start..stop-1 (stream indices) of n draws each, vectorized."""
    with np.errstate(over="ignore"):
        idx = np.arange(start, stop, dtype=np.uint64)
        keys = _mix_np(np.uint64(seed & M64) + (idx + np.uint64(1)) * np.uint64(GAMMA))
        steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GAMMA)
        words = _mix_np(keys[:, None] + steps[None, :])
    return ndtri(((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53)


def _stream_self_check(seed: int, n: int) -> list[str]:
    rows = normals_np(seed, 0, 3, n)
    for i in range(3):
        if not np.array_equal(rows[i], normals_py(seed, i, n)):
            return [f"vectorized stream disagrees with the integer spec on row {i}"]
    return []


# ---------------------------------------------------------------------------
# closed-form basis functions
# ---------------------------------------------------------------------------

def multi_indices(m: int, r: int) -> list[tuple]:
    return [a for a in itertools.product(range(r + 1), repeat=m) if sum(a) <= r]


def grid(box: dict) -> np.ndarray:
    """Grid points, row-major over axes (last axis fastest)."""
    axes = [np.linspace(lo, up, res + 1)
            for lo, up, res in zip(box["lower"], box["upper"], box["resolution"])]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def _cos_derivative(theta: np.ndarray, order: int) -> np.ndarray:
    # d^order/dtheta^order cos(theta)
    return (np.cos(theta), -np.sin(theta), -np.cos(theta), np.sin(theta))[order % 4]


def _bump_scalar(center, radius, pts, alpha) -> np.ndarray:
    """exp(1 - 1/(1-s)), s = |z|^2, z = (x - c)/rho, and its partials up to
    total order 2 by the chain rule in s."""
    z = (pts - np.asarray(center)) / radius
    s = np.sum(z * z, axis=1)
    out = np.zeros(len(pts))
    inside = s < 1.0
    zi, t = z[inside], 1.0 - s[inside]
    g = np.exp(1.0 - 1.0 / t)
    g1 = -g / t ** 2
    g2 = g * (1.0 / t ** 4 - 2.0 / t ** 3)
    axes = [i for i, a in enumerate(alpha) for _ in range(a)]
    if len(axes) == 0:
        val = g
    elif len(axes) == 1:
        val = g1 * 2.0 * zi[:, axes[0]] / radius
    elif len(axes) == 2:
        i, j = axes
        val = (g2 * 4.0 * zi[:, i] * zi[:, j] + g1 * 2.0 * (i == j)) / radius ** 2
    else:
        raise ValueError("reference bump derivatives stop at order 2")
    out[inside] = val
    return out


def basis_partial(doc: dict, pts: np.ndarray, alpha: tuple) -> np.ndarray:
    """(G, k) values of d^alpha of one basis document at the points."""
    amp = np.asarray(doc["amplitude"], dtype=float)
    kind = doc["type"]
    if kind == "harmonic":
        w = np.asarray(doc["frequency"])
        theta = pts @ w + doc["phase"]
        scalar = math.prod(wi ** a for wi, a in zip(w, alpha)) * _cos_derivative(theta, sum(alpha))
    elif kind == "monomial":
        scalar = np.ones(len(pts))
        for i, (e, a) in enumerate(zip(doc["exponents"], alpha)):
            if a > e:
                return np.zeros((len(pts), len(amp)))
            scalar = scalar * math.perm(e, a) * pts[:, i] ** (e - a)
    elif kind == "bump":
        scalar = _bump_scalar(doc["center"], doc["radius"], pts, alpha)
    else:
        raise ValueError(f"no reference for basis type {kind!r}")
    return scalar[:, None] * amp[None, :]


def design(fdoc: dict, pts: np.ndarray, alpha: tuple) -> np.ndarray:
    """(N, G*k): sigma_n times d^alpha f_n, point-major columns."""
    sig = np.asarray(fdoc.get("sigmas") or [1.0] * len(fdoc["basis"]))
    rows = [basis_partial(b, pts, alpha).ravel() for b in fdoc["basis"]]
    return sig[:, None] * np.array(rows)


def path_values(fdoc: dict, z: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Order-0 path values (S, G*k) for standard normal rows z (S, N)."""
    return z @ design(fdoc, pts, (0,) * fdoc["m"])


# ---------------------------------------------------------------------------
# kernels, jets, Gram matrices
# ---------------------------------------------------------------------------

def kernel_sup(terms, box: dict, r: int) -> float:
    """max over grid pairs and |alpha|,|beta| <= r of |sum_F s_F d_a d_b K_F|.

    ``terms`` is a list of (sign, field document): the seminorm of one
    kernel or the distance between two.
    """
    pts = grid(box)
    alphas = multi_indices(len(box["lower"]), r)
    designs = [{a: design(f, pts, a) for a in alphas} for _, f in terms]
    best = 0.0
    side = designs[0][alphas[0]].shape[1]
    for a, b in itertools.combinations_with_replacement(alphas, 2):
        for start in range(0, side, 512):
            block = sum(sign * d[a][:, start:start + 512].T @ d[b]
                        for (sign, _), d in zip(terms, designs))
            best = max(best, float(np.max(np.abs(block))))
    return best


def jet_ratios(fdoc: dict, pts: np.ndarray, r: int) -> np.ndarray:
    """min/max eigenvalue of the order-r jet covariance at every point."""
    alphas = multi_indices(fdoc["m"], r)
    # J[g, n, (alpha, j)]: sigma_n d^alpha f_n^j at point g
    J = np.stack([design(fdoc, pts, a).reshape(-1, len(pts), fdoc["k"]) for a in alphas],
                 axis=-1)
    J = J.transpose(1, 0, 3, 2).reshape(len(pts), len(fdoc["basis"]), -1)
    cov = np.einsum("gnd,gne->gde", J, J)
    w = np.linalg.eigvalsh(cov)
    return np.where(w[:, -1] > 0, w[:, 0] / np.where(w[:, -1] > 0, w[:, -1], 1.0), 0.0)


# ---------------------------------------------------------------------------
# helpers for the checks
# ---------------------------------------------------------------------------

def _close(got, want, rel, what, abs_tol=0.0) -> list[str]:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return [f"{what}: not a number ({got!r})"]
    if abs(got - want) > abs_tol + rel * abs(want):
        return [f"{what}: {got!r} differs from reference {want!r}"]
    return []


def _count_check(p_hat, n, count, ambiguous, what) -> list[str]:
    reported = round(p_hat * n)
    if abs(p_hat * n - reported) > 1e-6:
        return [f"{what}: p_hat {p_hat!r} is not a multiple of 1/{n}"]
    if abs(reported - count) > ambiguous:
        return [f"{what}: {reported} hits reported, {count} recomputed "
                f"({ambiguous} within rounding of the threshold)"]
    return []


def _event_hits(fdoc, event, paths, seed):
    """(hits, ambiguous) of a sup_norm_below (order 0) or zero_count_equals event."""
    pts = grid(event["box"])
    base = design(fdoc, pts, (0,) * fdoc["m"])
    hits = ambiguous = 0
    for start in range(0, paths, _CHUNK):
        vals = normals_np(seed, start, min(paths, start + _CHUNK), len(fdoc["basis"])) @ base
        if event["type"] == "sup_norm_below":
            sup = np.max(np.abs(vals), axis=1)
            thr = event["threshold"]
            hits += int(np.count_nonzero(sup < thr))
            ambiguous += int(np.count_nonzero(np.abs(sup - thr) <= 1e-12 * thr))
        else:
            sign = np.sign(vals)
            zeros = np.sum(sign[:, :-1] * sign[:, 1:] < 0, axis=1)
            hits += int(np.count_nonzero(zeros == event["count"]))
            scale = np.max(np.abs(vals), axis=1, keepdims=True)
            ambiguous += int(np.count_nonzero(np.any(np.abs(vals) <= 1e-12 * scale, axis=1)))
    return hits, ambiguous


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def check_counterexample(report: dict, spec: dict) -> list[str]:
    errs = _stream_self_check(spec["seed"], 8)
    paths, seed = spec["paths"], spec["seed"]
    rows = report["results"]
    if [r["n"] for r in rows] != spec["n"] or report["n_samples"] != paths:
        return errs + ["rows or sample count do not match the request"]
    for row in rows:
        n, a = row["n"], row["a_n"]
        tag = f"n={n}"
        errs += _close(float(erfc(a / math.sqrt(2.0))) * n, 1.0, 1e-9, f"{tag} erfc(a_n/sqrt2)*n")
        exact = math.exp(n * n * math.log1p(-1.0 / n))
        errs += _close(row["exact_prob"], exact, 1e-12, f"{tag} exact_prob")
        errs += _close(row["kernel_sup"], 1.0 / (a * a), 1e-12, f"{tag} kernel_sup")
        # disjoint unit-peak bumps with peaks on grid points: the grid sup of
        # a path is max_i |z_i| / a_n, so the event is max_i |z_i| / a_n < 1
        hits = ambiguous = 0
        for start in range(0, paths, _CHUNK):
            z = normals_np(seed, start, min(paths, start + _CHUNK), n * n)
            v = np.max(np.abs(z), axis=1) * (1.0 / a)
            hits += int(np.count_nonzero(v < 1.0))
            ambiguous += int(np.count_nonzero(np.abs(v - 1.0) <= 1e-12))
        errs += _count_check(row["mc_prob"], paths, hits, ambiguous, f"{tag} mc_prob")
        # and the count is a plausible draw from Binomial(paths, exact)
        k = round(row["mc_prob"] * paths)
        tail = min(binom.cdf(k, paths, exact), binom.sf(k - 1, paths, exact))
        if tail < 1e-9:
            errs.append(f"{tag}: {k} hits in {paths} is implausible for p={exact:.3e}")
    return errs


def check_estimate(report: dict, spec: dict) -> list[str]:
    errs = _stream_self_check(spec["seed"], len(spec["field"]["basis"]))
    if report["n"] != spec["paths"] or report["seed"] != spec["seed"]:
        errs.append("sample count or seed not echoed")
    hits, ambiguous = _event_hits(spec["field"], spec["event"], spec["paths"], spec["seed"])
    return errs + _count_check(report["p_hat"], spec["paths"], hits, ambiguous, "estimate")


def check_sample(text: str, spec: dict) -> list[str]:
    fdoc, paths, seed = spec["field"], spec["paths"], spec["seed"]
    pts = grid(spec["box"])
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != paths * len(pts):
        return [f"{len(rows)} CSV rows, expected {paths * len(pts)}"]
    got = np.array([[float(r["sample"]), float(r["x0"]), float(r["value0"])] for r in rows])
    got = got.reshape(paths, len(pts), 3)
    errs = []
    if not np.array_equal(got[:, :, 0], np.repeat(np.arange(paths), len(pts)).reshape(paths, -1)):
        errs.append("sample indices out of order")
    if not np.allclose(got[:, :, 1], pts[None, :, 0], rtol=0.0, atol=1e-15):
        errs.append("grid coordinates differ from the box grid")
    z = np.array([normals_py(seed, s, len(fdoc["basis"])) for s in range(paths)])
    want = path_values(fdoc, z, pts)
    gap = np.max(np.abs(got[:, :, 2] - want) / (1.0 + np.abs(want)))
    if gap > 1e-9:
        errs.append(f"path values differ from the stream spec by {gap:.3e}")
    return errs


def check_jet_scan(report: dict, spec: dict) -> list[str]:
    pts = grid(spec["box"])
    ratios = jet_ratios(spec["field"], pts, spec["r"])
    rel_tol = report["rel_tol"]
    errs = []
    if report["n_points"] != len(pts):
        errs.append(f"n_points {report['n_points']} != {len(pts)}")
    fails = int(np.count_nonzero(ratios <= rel_tol))
    if report["n_failures"] != fails or report["all_pass"] != (fails == 0):
        errs.append(f"n_failures {report['n_failures']} != {fails}")
    # Jacobi and LAPACK agree to ~1e-12 of the largest eigenvalue
    worst = float(ratios.min())
    errs += _close(report["worst_ratio"], worst, 1e-6, "worst_ratio", abs_tol=1e-10)
    hit = np.nonzero(np.all(np.abs(pts - np.asarray(report["worst_point"])) <= 1e-12, axis=1))[0]
    if hit.size != 1:
        errs.append(f"worst_point {report['worst_point']} is not a grid point")
    elif ratios[hit[0]] - worst > 1e-10 + 1e-6 * worst:
        errs.append(f"worst_point has ratio {float(ratios[hit[0]])!r}, minimum is {worst!r}")
    return errs


def check_validate(report: dict, spec: dict) -> list[str]:
    full = grid(spec["box"])
    stride = max(1, len(full) // spec["max_points"])
    pts = full[::stride][:spec["max_points"]]
    d = design(spec["field"], pts, (0,) * spec["field"]["m"])
    w = np.linalg.eigvalsh(d.T @ d)
    errs = []
    if report["n_points"] != len(pts):
        errs.append(f"n_points {report['n_points']} != {len(pts)}")
    errs += _close(report["psd"]["min_eigenvalue"], float(w[0]), 0.0, "min_eigenvalue",
                   abs_tol=1e-10 * float(w[-1]))
    sym = report["symmetry"]
    if not (report["passed"] and report["psd"]["passed"] and sym["passed"]
            and sym["max_violation"] <= sym["tolerance"]):
        errs.append("validate did not pass")
    return errs


def check_limit_study(report: dict, spec: dict) -> list[str]:
    cfg = spec["config"]
    rows = report["results"]
    errs = []
    if len(rows) != len(cfg["fields"]) + 1 or report["distance_order"] != cfg["r"] + 2:
        return ["rows or distance order do not match the configuration"]
    for i, (row, fdoc) in enumerate(zip(rows, cfg["fields"] + [cfg["limit_field"]])):
        if i < len(cfg["fields"]):
            want = kernel_sup([(1.0, fdoc), (-1.0, cfg["limit_field"])], cfg["box"], cfg["r"] + 2)
            errs += _close(row["kernel_distance"], want, 1e-9, f"row {i} distance")
            if i and not row["kernel_distance"] < rows[i - 1]["kernel_distance"]:
                errs.append(f"row {i}: distance does not fall along the sequence")
        elif not (row["is_limit"] and row["kernel_distance"] == 0.0):
            errs.append("limit row is not marked or has a nonzero distance")
        hits, ambiguous = _event_hits(fdoc, cfg["event"], spec["paths"], spec["seed"])
        errs += _count_check(row["p_hat"], spec["paths"], hits, ambiguous, f"row {i} p_hat")
    return errs


def check_seminorm(report: dict, spec: dict) -> list[str]:
    want = kernel_sup([(1.0, spec["field"])], spec["box"], spec["r"])
    return _close(report["seminorm"], want, 1e-9, "seminorm")


def check_gauss_ratio(report: dict, spec: dict) -> list[str]:
    fdoc, paths, seed = spec["field"], spec["paths"], spec["seed"]
    errs = _stream_self_check(seed, len(fdoc["basis"]))
    denom = math.sqrt(kernel_sup([(1.0, fdoc)], spec["box"], spec["r"]))
    errs += _close(report["sqrt_kernel_seminorm"], denom, 1e-9, "sqrt_kernel_seminorm")
    pts = grid(spec["box"])
    sups = [np.max(np.abs(path_values(fdoc, normals_np(seed, s, min(paths, s + _CHUNK),
                                                        len(fdoc["basis"])), pts)), axis=1)
            for s in range(0, paths, _CHUNK)]
    mean = math.fsum(np.concatenate(sups)) / paths
    errs += _close(report["mean_sup"]["p_hat"], mean, 1e-9, "mean sup")
    errs += _close(report["ratio"], mean / denom, 1e-9, "ratio")
    if report["zero_denominator"] or report["mean_sup"]["n"] != paths:
        errs.append("zero denominator or wrong sample count")
    return errs


CHECKS = {
    "counterexample": check_counterexample,
    "estimate": check_estimate,
    "sample": check_sample,
    "jet-scan": check_jet_scan,
    "validate": check_validate,
    "limit-study": check_limit_study,
    "seminorm": check_seminorm,
    "gauss-ratio": check_gauss_ratio,
}


def check(command: str, payload: bytes, spec: dict) -> list[str]:
    """Check one report (raw bytes) of ``command`` against the references."""
    text = payload.decode()
    try:
        report = text if command == "sample" else json.loads(text)
        return CHECKS[command](report, spec)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]
