"""Batch command-line front end emitting JSON or CSV reports.

All subcommands are deterministic given their arguments: reports carry the
seed and a content digest of the input field, never timestamps, so a rerun
with the same configuration is byte-identical.  Exit codes: 0 success,
1 usage or schema errors, 2 validation failure (failed symmetry/PSD check,
or a nondegeneracy scan failure under --require-pass).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import counterexample as cx
from ._accel import set_threads
from .basis import box, grid_points, unit_interval
from .exceptions import GrflabError, SchemaError
from .field import apply_design, box_design, sample_batch_coeffs
from .jet import scan_nondegeneracy
from .kernel import (KernelSeminormSpec, check_psd, check_symmetry, eval_kernel,
                     kernel_of, kernel_seminorm)
from .mc import estimate_probability, gaussian_ratio, limit_study
from .serialize import (box_from_dict, event_from_dict, field_digest,
                        field_from_dict, kernel_from_dict, validate_document)

_USAGE_EXIT = 1
_VALIDATION_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the report contract wants 1
    def error(self, message):
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _load_json_arg(value: str):
    """Accept a path to a JSON file or inline JSON text."""
    text = value
    path = Path(value)
    try:
        if path.exists() and path.is_file():
            text = path.read_text()
    except OSError:
        pass
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON ({exc})")


def _field_from_arg(value: str):
    doc = _load_json_arg(value)
    return field_from_dict(doc)


def _kernel_from_args(args):
    if getattr(args, "kernel", None):
        return kernel_from_dict(_load_json_arg(args.kernel))
    return kernel_of(_field_from_arg(args.field))


def _box_from_args(args, m: int):
    if getattr(args, "box", None):
        return box_from_dict(_load_json_arg(args.box))
    if m == 1:
        return unit_interval()
    return box([0.0] * m, [1.0] * m)


def _digest_of(obj) -> str | None:
    from .kernel import KLKernel

    if isinstance(obj, KLKernel):
        return field_digest(obj.field)
    if hasattr(obj, "basis"):
        return field_digest(obj)
    return None


def _estimate_dict(est) -> dict:
    return {"p_hat": est.p_hat, "stderr": est.stderr, "n": est.n_samples,
            "seed": est.seed, "ci95": list(est.ci95)}


def _write_report(report: dict, rows: list[dict], args) -> None:
    if args.format == "json":
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        payload = buf.getvalue()
    if args.output is None or args.output == "-":
        sys.stdout.write(payload)
        return
    target = Path(args.output)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, target)  # atomic on POSIX
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default="-", help="report path, '-' for stdout")
    p.add_argument("--threads", type=int,
                   default=int(os.environ.get("GRFLAB_THREADS", "0")) or None,
                   help="cap for JIT worker threads (default: GRFLAB_THREADS)")


def build_parser() -> _Parser:
    parser = _Parser(prog="grflab",
                     description="Gaussian random field laboratory: finite "
                                 "Karhunen-Loeve ensembles, covariance kernels, "
                                 "jet certificates, Monte Carlo studies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw Karhunen-Loeve sample paths on a box grid")
    p.add_argument("--field", required=True, help="field JSON (path or inline)")
    p.add_argument("--box", help="box JSON (path or inline)")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)

    p = sub.add_parser("covariance",
                       help="evaluate a covariance kernel at point pairs")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--kernel", help="kernel JSON (path or inline)")
    g.add_argument("--field", help="field JSON; uses its induced kernel")
    p.add_argument("--points", required=True,
                   help="JSON list of [p, q] point pairs")
    _add_output_flags(p)

    p = sub.add_parser("seminorm",
                       help="mixed (r, r) sup seminorm of a kernel on a box grid")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--kernel")
    g.add_argument("--field")
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--box")
    _add_output_flags(p)

    p = sub.add_parser("jet-scan",
                       help="jet covariance nondegeneracy certificate at every "
                            "grid point (full support of the jet, hence "
                            "almost-sure transversality)")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--kernel")
    g.add_argument("--field")
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--box")
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.add_argument("--require-pass", action="store_true",
                   help="exit 2 unless every point passes")
    _add_output_flags(p)

    p = sub.add_parser("estimate",
                       help="Monte Carlo probability of a path event")
    p.add_argument("--field", required=True)
    p.add_argument("--event", required=True, help="event JSON (path or inline)")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)

    p = sub.add_parser("gauss-ratio",
                       help="ratio of the mean sup-norm to the root kernel "
                            "seminorm (the Gaussian sup-norm inequality)")
    p.add_argument("--field", required=True)
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--box")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)

    p = sub.add_parser("limit-study",
                       help="kernel distances versus event probabilities along "
                            "a sequence of fields with a limit field")
    p.add_argument("--config", required=True, help="limit study JSON")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)

    p = sub.add_parser("counterexample",
                       help="disjoint-bump ensemble report: quantile scale, "
                            "exact small-sup-norm probability, Monte Carlo "
                            "check, kernel sup decay")
    p.add_argument("--n", type=int, nargs="+", default=[5])
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resolution", type=int, default=256,
                   help="base grid resolution (rounded up to align bump centers)")
    _add_output_flags(p)

    p = sub.add_parser("validate",
                       help="symmetry and positive-semidefiniteness checks of a "
                            "covariance kernel on grid points")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--kernel")
    g.add_argument("--field")
    p.add_argument("--box")
    p.add_argument("--points", help="JSON list of points (overrides --box grid)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-points", type=int, default=16)
    _add_output_flags(p)

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies: return (report, csv_rows, exit_code)
# ---------------------------------------------------------------------------

def _cmd_sample(args):
    field = _field_from_arg(args.field)
    b = _box_from_args(args, field.m)
    pts = grid_points(b)
    coeffs = sample_batch_coeffs(field, args.seed, np.arange(args.samples))
    design = box_design(field, b, (0,) * field.m)
    values = apply_design(coeffs, design).reshape(args.samples, pts.shape[0], field.k)
    rows = []
    for s in range(args.samples):
        for g in range(pts.shape[0]):
            row = {"sample": s}
            for i in range(field.m):
                row[f"x{i}"] = pts[g, i]
            for j in range(field.k):
                row[f"value{j}"] = values[s, g, j]
            rows.append(row)
    report = {
        "command": "sample",
        "field_digest": field_digest(field),
        "seed": args.seed,
        "n_samples": args.samples,
        "grid": [list(p) for p in pts],
        "samples": [values[s].tolist() for s in range(args.samples)],
    }
    return report, rows, 0


def _cmd_covariance(args):
    K = _kernel_from_args(args)
    pairs = _load_json_arg(args.points)
    rows = []
    results = []
    for p, q in pairs:
        val = eval_kernel(K, p, q)
        results.append({"p": list(np.atleast_1d(p)), "q": list(np.atleast_1d(q)),
                        "K": val.tolist()})
        row = {"p": json.dumps(p), "q": json.dumps(q)}
        for j in range(val.shape[0]):
            for l in range(val.shape[1]):
                row[f"K{j}{l}"] = val[j, l]
        rows.append(row)
    report = {"command": "covariance", "field_digest": _digest_of(K),
              "results": results}
    return report, rows, 0


def _cmd_seminorm(args):
    K = _kernel_from_args(args)
    b = _box_from_args(args, K.m)
    value = kernel_seminorm(K, KernelSeminormSpec(b, args.order))
    report = {"command": "seminorm", "order": args.order,
              "field_digest": _digest_of(K), "seminorm": value}
    return report, [{"order": args.order, "seminorm": value}], 0


def _cmd_jet_scan(args):
    K = _kernel_from_args(args)
    b = _box_from_args(args, K.m)
    scan = scan_nondegeneracy(K, b, args.order, args.rel_tol)
    report = {
        "command": "jet-scan",
        "order": args.order,
        "rel_tol": args.rel_tol,
        "field_digest": _digest_of(K),
        "all_pass": scan.all_pass,
        "worst_point": list(scan.worst_point),
        "worst_ratio": scan.worst_ratio,
        "n_points": scan.n_points,
        "n_failures": scan.n_failures,
    }
    rows = [{"all_pass": scan.all_pass, "worst_point": json.dumps(list(scan.worst_point)),
             "worst_ratio": scan.worst_ratio, "n_failures": scan.n_failures}]
    code = _VALIDATION_EXIT if (args.require_pass and not scan.all_pass) else 0
    return report, rows, code


def _cmd_estimate(args):
    field = _field_from_arg(args.field)
    event_doc = _load_json_arg(args.event)
    event = event_from_dict(event_doc)
    est = estimate_probability(field, event, args.samples, args.seed)
    report = {"command": "estimate", "event": event_doc,
              "field_digest": field_digest(field), **_estimate_dict(est)}
    return report, [_estimate_dict(est)], 0


def _cmd_gauss_ratio(args):
    field = _field_from_arg(args.field)
    b = _box_from_args(args, field.m)
    res = gaussian_ratio(field, b, args.order, args.samples, args.seed)
    report = {"command": "gauss-ratio", "order": args.order,
              "field_digest": field_digest(field),
              "ratio": res.ratio, "zero_denominator": res.zero_denominator,
              "mean_sup": _estimate_dict(res.numerator),
              "sqrt_kernel_seminorm": res.denominator}
    rows = [{"ratio": res.ratio, "denominator": res.denominator,
             "zero_denominator": res.zero_denominator}]
    return report, rows, 0


def _cmd_limit_study(args):
    doc = _load_json_arg(args.config)
    validate_document("limit_study", doc)
    fields = [field_from_dict(f, validated=True) for f in doc["fields"]]
    limit_field = field_from_dict(doc["limit_field"], validated=True)
    event = event_from_dict(doc["event"], validated=True)
    b = box_from_dict(doc["box"], validated=True)
    rows_out = limit_study(fields, limit_field, event, b, doc["r"],
                           args.samples, args.seed,
                           distance_order=doc.get("distance_order"))
    results = [{"label": r.label, "kernel_distance": r.kernel_distance,
                "is_limit": r.is_limit, **_estimate_dict(r.estimate)}
               for r in rows_out]
    report = {"command": "limit-study", "r": doc["r"],
              "distance_order": doc.get("distance_order", doc["r"] + 2),
              "results": results}
    return report, results, 0


def _cmd_counterexample(args):
    base = unit_interval(args.resolution)
    rows_out = cx.study(args.n, args.samples, args.seed, base)
    results = []
    for r in rows_out:
        results.append({
            "n": r.n,
            "a_n": r.a_n,
            "exact_prob": r.exact_prob,
            "mc_prob": r.estimate.p_hat,
            "stderr": r.estimate.stderr,
            "ci95_low": r.estimate.ci95[0],
            "ci95_high": r.estimate.ci95[1],
            "kernel_sup": r.kernel_sup,
        })
    report = {"command": "counterexample", "seed": args.seed,
              "n_samples": args.samples, "results": results}
    return report, results, 0


def _cmd_validate(args):
    K = _kernel_from_args(args)
    if args.points:
        pts = np.atleast_2d(np.asarray(_load_json_arg(args.points), dtype=float))
        if pts.shape[1] != K.m:
            pts = pts.reshape(-1, K.m)
    else:
        b = _box_from_args(args, K.m)
        full = grid_points(b)
        stride = max(1, full.shape[0] // args.max_points)
        pts = full[::stride][:args.max_points]
    pairs = [(pts[i], pts[j]) for i in range(len(pts)) for j in range(i, len(pts))]
    sym = check_symmetry(K, pairs, tol=args.tol if args.tol is not None else 1e-12)
    psd = check_psd(K, pts, tol=args.tol)
    passed = sym.passed and psd.passed
    report = {
        "command": "validate",
        "field_digest": _digest_of(K),
        "n_points": int(len(pts)),
        "symmetry": {"passed": sym.passed, "max_violation": sym.max_violation,
                     "tolerance": sym.tolerance},
        "psd": {"passed": psd.passed, "min_eigenvalue": psd.min_eigenvalue,
                "tolerance": psd.tolerance},
        "passed": passed,
    }
    rows = [{"symmetry_passed": sym.passed, "max_violation": sym.max_violation,
             "psd_passed": psd.passed, "min_eigenvalue": psd.min_eigenvalue}]
    return report, rows, 0 if passed else _VALIDATION_EXIT


_COMMANDS = {
    "sample": _cmd_sample,
    "covariance": _cmd_covariance,
    "seminorm": _cmd_seminorm,
    "jet-scan": _cmd_jet_scan,
    "estimate": _cmd_estimate,
    "gauss-ratio": _cmd_gauss_ratio,
    "limit-study": _cmd_limit_study,
    "counterexample": _cmd_counterexample,
    "validate": _cmd_validate,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", None):
        set_threads(args.threads)
    try:
        report, rows, code = _COMMANDS[args.command](args)
    except SchemaError as exc:
        print(f"grflab: schema error at {exc.pointer}: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (GrflabError, ValueError, OSError, MemoryError) as exc:
        print(f"grflab: error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    _write_report(report, rows, args)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
