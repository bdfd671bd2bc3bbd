"""Workload definitions: input documents made from a seed, CLI invocations
and the fixed work count of each invocation.

Every input is a pure function of ``(workload, seed)``: the documents are
drawn with ``random.Random(f"{workload}:{seed}")``, whose stream is fixed
across Python versions.  The program only ever sees the generated files and
command-line arguments.  Work counts are computed here, from the inputs,
never read back from the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

TAU = 2.0 * math.pi


@dataclass
class Invocation:
    """One CLI run: ``grflab <argv>`` writing its report to ``output``.

    ``work`` is None for the small probe commands that keep every layer
    timed on every workload; they count in ``wall_s`` and ``setup_s`` but
    not in ``work_per_s``.
    """

    label: str
    argv: list
    output: Path
    work: int | None
    # what the independent checks need to know about the inputs
    spec: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# document helpers
# ---------------------------------------------------------------------------

def harmonic(freq, phase, amp):
    return {"type": "harmonic", "frequency": [float(w) for w in freq],
            "phase": float(phase), "amplitude": [float(a) for a in amp]}


def monomial(exps, amp):
    return {"type": "monomial", "exponents": list(exps),
            "amplitude": [float(a) for a in amp]}


def bump(center, radius, amp):
    return {"type": "bump", "center": [float(c) for c in center],
            "radius": float(radius), "amplitude": [float(a) for a in amp]}


def unit_box(m, res):
    return {"lower": [0.0] * m, "upper": [1.0] * m, "resolution": [res] * m}


def field_doc(m, k, basis, sigmas):
    return {"m": m, "k": k, "basis": basis, "sigmas": [float(s) for s in sigmas]}


def grid_size(box_doc):
    return math.prod(r + 1 for r in box_doc["resolution"])


def n_multi(m, r):
    return comb(m + r, r)


def n_pairs(m, r):
    """Number of (alpha, beta) pairs with alpha <= beta, |alpha|, |beta| <= r."""
    p = n_multi(m, r)
    return p * (p + 1) // 2


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def _harmonic_pair(w, phase, amp, sigma):
    """cos and sin at one frequency: a stationary rank-2 jet contribution."""
    return ([harmonic(w, phase, amp), harmonic(w, phase - 0.5 * math.pi, amp)],
            [sigma, sigma])


def _direction(angle, radius):
    return (radius * math.cos(angle), radius * math.sin(angle))


# ---------------------------------------------------------------------------
# sizes: the full benchmark and the tiny smoke variant
# ---------------------------------------------------------------------------

FULL = {
    "cx_small_n": [5, 10], "cx_small_paths": 20000,
    "cx_large_n": 100, "cx_large_paths": 500,
    "est_paths": 20000, "est_res": 2048,
    "sample_paths": 32, "sample_res": 256,
    "jet2_res": 12, "jetv_res": 6, "jet1_res": 128, "validate_points": 64,
    "ls_fields": 4, "ls_res": 24, "ls_paths": 2000, "ls_event_res": 16,
    "semi_res": 64, "gr_res": 32, "gr_paths": 4000,
    "probe_jet_res": 8, "probe_validate_points": 16,
    "probe_cx_n": [2, 4, 8], "probe_cx_paths": 2000,
}

SMOKE = {
    "cx_small_n": [5], "cx_small_paths": 2000,
    "cx_large_n": 20, "cx_large_paths": 200,
    "est_paths": 500, "est_res": 256,
    "sample_paths": 4, "sample_res": 32,
    "jet2_res": 4, "jetv_res": 2, "jet1_res": 16, "validate_points": 16,
    "ls_fields": 3, "ls_res": 6, "ls_paths": 200, "ls_event_res": 6,
    "semi_res": 8, "gr_res": 8, "gr_paths": 200,
    "probe_jet_res": 4, "probe_validate_points": 8,
    "probe_cx_n": [2], "probe_cx_paths": 200,
}


# ---------------------------------------------------------------------------
# mc-sample
# ---------------------------------------------------------------------------

def _mc_field_1d(rnd: random.Random):
    """Constant + linear trend + six harmonics: no exact grid zeros."""
    basis = [monomial([0], [1.0]), monomial([1], [rnd.uniform(-1.0, 1.0)])]
    sigmas = [0.3, 0.5]
    for _ in range(6):
        basis.append(harmonic([TAU * rnd.uniform(1.0, 3.0)], rnd.uniform(0.0, TAU), [1.0]))
        sigmas.append(rnd.uniform(0.5, 1.0))
    return field_doc(1, 1, basis, sigmas)


def mc_sample(workdir: Path, seed: int, size: dict) -> list[Invocation]:
    rnd = random.Random(f"mc-sample:{seed}")
    invs = []
    for label, ns, paths in (("cx-dense", size["cx_small_n"], size["cx_small_paths"]),
                             ("cx-sparse", [size["cx_large_n"]], size["cx_large_paths"])):
        invs.append(_counterexample(workdir, label, ns, paths, rnd.randrange(1 << 31)))

    fdoc = _mc_field_1d(rnd)
    fpath = _write(workdir / "mc-field.json", fdoc)
    ebox = unit_box(1, size["est_res"])
    event = {"type": "zero_count_equals", "box": ebox, "count": 4}
    epath = _write(workdir / "mc-event.json", event)
    paths = size["est_paths"]
    mc_seed = rnd.randrange(1 << 31)
    out = workdir / "estimate.json"
    n_basis = len(fdoc["basis"])
    invs.append(Invocation(
        "estimate", ["estimate", "--field", fpath, "--event", epath,
                     "--samples", str(paths), "--seed", str(mc_seed), "--output", str(out)],
        out, paths * (n_basis + grid_size(ebox)),
        {"field": fdoc, "event": event, "paths": paths, "seed": mc_seed}))

    sbox = unit_box(1, size["sample_res"])
    bpath = _write(workdir / "sample-box.json", sbox)
    paths = size["sample_paths"]
    mc_seed = rnd.randrange(1 << 31)
    out = workdir / "sample.csv"
    invs.append(Invocation(
        "sample", ["sample", "--field", fpath, "--box", bpath, "--samples", str(paths),
                   "--seed", str(mc_seed), "--format", "csv", "--output", str(out)],
        out, paths * (n_basis + grid_size(sbox)),
        {"field": fdoc, "box": sbox, "paths": paths, "seed": mc_seed}))
    # order-1 jets of the field are nondegenerate, so path zeros are simple
    # almost surely and the zero count is a continuous functional
    invs += _jet_scan_and_validate(workdir, "mc", fpath, fdoc, 1, size["probe_jet_res"],
                                   size["probe_validate_points"])
    return invs


def _jet_scan_and_validate(workdir, label, fpath, fdoc, r, res, n_pts):
    """jet-scan at order r and validate on n_pts grid points of one field."""
    m = fdoc["m"]
    jbox = unit_box(m, res)
    jpath = _write(workdir / f"{label}-jet-box.json", jbox)
    vbox = unit_box(m, 64)
    vpath = _write(workdir / f"{label}-validate-box.json", vbox)
    jout = workdir / f"{label}-jet-scan.json"
    vout = workdir / f"{label}-validate.json"
    return [
        Invocation(f"{label}-jet-scan",
                   ["jet-scan", "--field", fpath, "--order", str(r), "--box", jpath,
                    "--require-pass", "--output", str(jout)],
                   jout, None, {"field": fdoc, "box": jbox, "r": r}),
        Invocation(f"{label}-validate",
                   ["validate", "--field", fpath, "--box", vpath,
                    "--max-points", str(n_pts), "--output", str(vout)],
                   vout, None, {"field": fdoc, "box": vbox, "max_points": n_pts}),
    ]


def _counterexample(workdir, label, ns, paths, mc_seed, probe=False):
    out = workdir / f"{label}.json"
    # every n gets n^2 normals and one value per point of its grid, whose
    # resolution the CLI rounds up from 256 to a multiple of 2 n^2
    work = sum(paths * (n * n + 2 * n * n * math.ceil(256 / (2 * n * n)) + 1) for n in ns)
    return Invocation(
        label, ["counterexample", "--n", *map(str, ns), "--samples", str(paths),
                "--seed", str(mc_seed), "--output", str(out)],
        out, None if probe else work, {"n": list(ns), "paths": paths, "seed": mc_seed})


# ---------------------------------------------------------------------------
# jet-certify
# ---------------------------------------------------------------------------

def _jet_field_2d(rnd: random.Random):
    """Four cos/sin pairs (distinct radii, spread directions) + one extra.

    The pairs alone give a position-independent full-rank order-2 jet
    covariance; the unpaired harmonic makes the spectral ratio vary over the
    box so the worst point is well separated.
    """
    basis, sigmas = [], []
    for i in range(4):
        w = _direction(i * math.pi / 4 + rnd.uniform(-0.15, 0.15),
                       2.0 + 0.8 * i + rnd.uniform(-0.2, 0.2))
        b, s = _harmonic_pair(w, rnd.uniform(0.0, TAU), [1.0], rnd.uniform(0.7, 1.0))
        basis += b
        sigmas += s
    w = _direction(rnd.uniform(0.0, TAU), rnd.uniform(1.0, 3.0))
    basis.append(harmonic(w, rnd.uniform(0.0, TAU), [1.0]))
    sigmas.append(rnd.uniform(1.0, 2.0))
    return field_doc(2, 1, basis, sigmas)


def _jet_field_vector(rnd: random.Random):
    """k = 2: per component a constant and three cos/sin pairs, plus mixed
    bumps and a mixed monomial that couple the components."""
    basis, sigmas = [], []
    for j in range(2):
        amp = [1.0 if c == j else 0.0 for c in range(2)]
        basis.append(monomial([0, 0], amp))
        sigmas.append(rnd.uniform(0.5, 1.0))
        for i in range(3):
            w = _direction(i * math.pi / 3 + rnd.uniform(-0.15, 0.15),
                           2.0 + 0.8 * i + rnd.uniform(-0.2, 0.2))
            b, s = _harmonic_pair(w, rnd.uniform(0.0, TAU), amp, rnd.uniform(0.7, 1.0))
            basis += b
            sigmas += s
    for _ in range(2):
        basis.append(bump([rnd.uniform(0.2, 0.8), rnd.uniform(0.2, 0.8)],
                          rnd.uniform(0.25, 0.4),
                          [rnd.uniform(0.5, 1.0), rnd.uniform(-1.0, -0.5)]))
        sigmas.append(rnd.uniform(0.5, 1.0))
    basis.append(monomial([1, 1], [rnd.uniform(0.5, 1.0), rnd.uniform(0.5, 1.0)]))
    sigmas.append(rnd.uniform(0.5, 1.0))
    return field_doc(2, 2, basis, sigmas)


def _jet_field_1d(rnd: random.Random):
    """Three cos/sin pairs (full-rank order-3 jets) plus x and x^2."""
    basis, sigmas = [], []
    for i in range(3):
        b, s = _harmonic_pair([TAU * (0.6 + 0.5 * i + rnd.uniform(-0.1, 0.1))],
                              rnd.uniform(0.0, TAU), [1.0], rnd.uniform(0.7, 1.0))
        basis += b
        sigmas += s
    basis += [monomial([1], [1.0]), monomial([2], [rnd.uniform(-2.0, 2.0)])]
    sigmas += [rnd.uniform(0.5, 1.0), rnd.uniform(0.5, 1.0)]
    return field_doc(1, 1, basis, sigmas)


def jet_certify(workdir: Path, seed: int, size: dict) -> list[Invocation]:
    rnd = random.Random(f"jet-certify:{seed}")
    invs = []
    scans = (("jet-2d", _jet_field_2d(rnd), 2, size["jet2_res"]),
             ("jet-2d-k2", _jet_field_vector(rnd), 2, size["jetv_res"]),
             ("jet-1d-r3", _jet_field_1d(rnd), 3, size["jet1_res"]))
    for label, fdoc, r, res in scans:
        fpath = _write(workdir / f"{label}-field.json", fdoc)
        bdoc = unit_box(fdoc["m"], res)
        bpath = _write(workdir / f"{label}-box.json", bdoc)
        out = workdir / f"{label}.json"
        dim = fdoc["k"] * n_multi(fdoc["m"], r)
        invs.append(Invocation(
            label, ["jet-scan", "--field", fpath, "--order", str(r), "--box", bpath,
                    "--require-pass", "--output", str(out)],
            out, grid_size(bdoc) * dim * dim, {"field": fdoc, "box": bdoc, "r": r}))

    fdoc = scans[0][1]
    vbox = unit_box(2, 64)
    bpath = _write(workdir / "validate-box.json", vbox)
    n_pts = size["validate_points"]
    out = workdir / "validate.json"
    invs.append(Invocation(
        "validate", ["validate", "--field", str(workdir / "jet-2d-field.json"),
                     "--box", bpath, "--max-points", str(n_pts), "--output", str(out)],
        out, (n_pts * fdoc["k"]) ** 2, {"field": fdoc, "box": vbox, "max_points": n_pts}))
    # a small disjoint-bump run keeps the sampling and reduction layers timed
    invs.append(_counterexample(workdir, "cx-probe", size["probe_cx_n"],
                                size["probe_cx_paths"], rnd.randrange(1 << 31), probe=True))
    return invs


# ---------------------------------------------------------------------------
# kernel-limit
# ---------------------------------------------------------------------------

def _limit_basis(rnd: random.Random, n_terms: int):
    freqs, phases, sigmas = [], [], []
    for _ in range(n_terms):
        freqs.append(_direction(rnd.uniform(0.0, TAU), rnd.uniform(1.0, 4.0)))
        phases.append(rnd.uniform(0.0, TAU))
        sigmas.append(rnd.uniform(0.5, 1.0))
    return freqs, phases, sigmas


def _harmonic_field(freqs, phases, sigmas):
    return field_doc(2, 1, [harmonic(w, p, [1.0]) for w, p in zip(freqs, phases)], sigmas)


def kernel_limit(workdir: Path, seed: int, size: dict) -> list[Invocation]:
    rnd = random.Random(f"kernel-limit:{seed}")
    invs = []
    freqs, phases, sigmas = _limit_basis(rnd, 8)
    limit = _harmonic_field(freqs, phases, sigmas)
    # field j perturbs every frequency by eps_j * v_n with eps_j halving, so
    # the kernels converge at every derivative order, at rate ~ eps_j
    dirs = [_direction(rnd.uniform(0.0, TAU), 1.0) for _ in freqs]
    seq = []
    for j in range(size["ls_fields"]):
        eps = 0.25 * 0.5 ** j
        seq.append(_harmonic_field(
            [(w[0] + eps * v[0], w[1] + eps * v[1]) for w, v in zip(freqs, dirs)],
            phases, sigmas))
    dbox = unit_box(2, size["ls_res"])
    threshold = 2.0 * math.sqrt(sum(s * s for s in sigmas))
    event = {"type": "sup_norm_below", "box": unit_box(2, size["ls_event_res"]),
             "order": 0, "threshold": threshold}
    config = {"fields": seq, "limit_field": limit, "event": event, "box": dbox, "r": 0}
    cpath = _write(workdir / "limit-study.json", config)
    paths = size["ls_paths"]
    mc_seed = rnd.randrange(1 << 31)
    out = workdir / "limit-study-report.json"
    invs.append(Invocation(
        "limit-study", ["limit-study", "--config", cpath, "--samples", str(paths),
                        "--seed", str(mc_seed), "--output", str(out)],
        out, len(seq) * n_pairs(2, 2) * grid_size(dbox) ** 2,
        {"config": config, "paths": paths, "seed": mc_seed}))

    fpath = _write(workdir / "limit-field.json", limit)
    sbox = unit_box(2, size["semi_res"])
    bpath = _write(workdir / "seminorm-box.json", sbox)
    out = workdir / "seminorm.json"
    invs.append(Invocation(
        "seminorm", ["seminorm", "--field", fpath, "--order", "2", "--box", bpath,
                     "--output", str(out)],
        out, n_pairs(2, 2) * grid_size(sbox) ** 2, {"field": limit, "box": sbox, "r": 2}))

    gbox = unit_box(2, size["gr_res"])
    bpath = _write(workdir / "gauss-box.json", gbox)
    paths = size["gr_paths"]
    mc_seed = rnd.randrange(1 << 31)
    out = workdir / "gauss-ratio.json"
    invs.append(Invocation(
        "gauss-ratio", ["gauss-ratio", "--field", fpath, "--order", "1", "--box", bpath,
                        "--samples", str(paths), "--seed", str(mc_seed), "--output", str(out)],
        out, n_pairs(2, 1) * grid_size(gbox) ** 2,
        {"field": limit, "box": gbox, "r": 1, "paths": paths, "seed": mc_seed}))
    # the other side of the convergence theorem: disjoint-bump kernels shrink
    # like 1/a_n^2 while the small-sup probability does not converge
    invs.append(_counterexample(workdir, "cx-probe", size["probe_cx_n"],
                                size["probe_cx_paths"], rnd.randrange(1 << 31), probe=True))
    # order-1 jets of the limit field are nondegenerate (transversality of the
    # limit law) and its kernel is symmetric positive semidefinite
    invs += _jet_scan_and_validate(workdir, "limit", fpath, limit, 1,
                                   size["probe_jet_res"], size["probe_validate_points"])
    return invs


WORKLOADS = {
    "mc-sample": mc_sample,
    "jet-certify": jet_certify,
    "kernel-limit": kernel_limit,
}
