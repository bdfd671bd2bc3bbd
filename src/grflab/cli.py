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
import gc
import io
import json
import locale  # noqa: F401  (argparse's gettext imports it in the first parse: load it at start-up)
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import counterexample as cx
from .basis import box, grid_points, unit_interval
from .exceptions import GrflabError, SchemaError
from .field import apply_design, box_design, sample_batch_coeffs
from .jet import scan_nondegeneracy
from .kernel import (KLKernel, KernelSeminormSpec, check_psd, check_symmetry,
                     eval_kernel, kernel_of, kernel_seminorm, points_array)
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
    unread = None
    try:
        with open(value) as handle:  # Path("") would read "." and name it
            text = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the text
        text, unread = value, exc
    try:
        return json.loads(text, parse_constant=_finite, parse_float=_finite,
                          parse_int=lambda digits: _finite(digits, int))
    except json.JSONDecodeError as exc:
        if unread and not value.lstrip().startswith(("{", "[")):
            raise unread  # neither a readable file nor JSON text: name the path
        raise SchemaError(f"not valid JSON ({exc})")


def _finite(text: str, cast=float):
    # json.loads accepts NaN, +-Infinity and overflowing numbers; no schema rule bounds them
    if not abs(float(text)) < np.inf:  # NaN fails the comparison too
        raise SchemaError(f"not valid JSON (non-finite number {text})")
    return cast(text)


def _is_point(p) -> bool:
    """A JSON number or a list of them; true and false are not numbers here."""
    return all(type(x) in (int, float) for x in (p if isinstance(p, list) else [p]))


def _field_from_arg(value: str):
    return field_from_dict(_load_json_arg(value))


def _kernel_from_args(args):
    if args.kernel:
        return kernel_from_dict(_load_json_arg(args.kernel))
    return kernel_of(_field_from_arg(args.field))


def _box_from_args(args, m: int):
    if args.box:
        return box_from_dict(_load_json_arg(args.box))
    return box([0.0] * m, [1.0] * m)


def _digest_of(K) -> str | None:
    return field_digest(K.field) if isinstance(K, KLKernel) else None


def _estimate_dict(est) -> dict:
    return {"p_hat": est.p_hat, "stderr": est.stderr, "n": est.n_samples,
            "seed": est.seed, "ci95": list(est.ci95)}


def _table(rows: list[dict]) -> list[list]:
    """CSV table of dict rows that share their keys: a header row, then the values."""
    return [list(rows[0] if rows else ()), *(list(row.values()) for row in rows)]


def _write_report(report: dict, table: list[list], args) -> None:
    if args.format == "json":
        payload = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        if len(table) > 1:  # a header alone is not written
            csv.writer(buf).writerows(table)
        payload = buf.getvalue()
    if args.output == "-":
        sys.stdout.write(payload)
        return
    target = Path(args.output)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, target)  # atomic on POSIX
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sample_args(p):
    p.add_argument("--field", required=True, help="field JSON (path or inline)")
    p.add_argument("--box", help="box JSON (path or inline)")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)


def _kernel_or_field(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--kernel", help="kernel JSON (path or inline)")
    g.add_argument("--field", help="field JSON; uses its induced kernel")


def _covariance_args(p):
    _kernel_or_field(p)
    p.add_argument("--points", required=True,
                   help="JSON list of [p, q] point pairs")


def _seminorm_args(p):
    _kernel_or_field(p)
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--box")


def _jet_scan_args(p):
    _kernel_or_field(p)
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--box")
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.add_argument("--require-pass", action="store_true",
                   help="exit 2 unless every point passes")


def _estimate_args(p):
    p.add_argument("--field", required=True)
    p.add_argument("--event", required=True, help="event JSON (path or inline)")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)


def _gauss_ratio_args(p):
    p.add_argument("--field", required=True)
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--box")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)


def _limit_study_args(p):
    p.add_argument("--config", required=True, help="limit study JSON")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)


def _counterexample_args(p):
    p.add_argument("--n", type=int, nargs="+", default=[5])
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resolution", type=int, default=256,
                   help="base grid resolution (rounded up to align bump centers)")


def _validate_args(p):
    _kernel_or_field(p)
    p.add_argument("--box")
    p.add_argument("--points", help="JSON list of points (overrides --box grid)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-points", type=int, default=16)


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand, or of `command` alone.

    Building all nine subparsers takes about 2 ms, so `run` builds only the one
    its argv names; help, usage errors and parsed arguments are the same.
    """
    parser = _Parser(prog="grflab",
                     description="Gaussian random field laboratory: finite "
                                 "Karhunen-Loeve ensembles, covariance kernels, "
                                 "jet certificates, Monte Carlo studies.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, _) in _SUBCOMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_args(p)
            p.add_argument("--format", choices=("json", "csv"), default="json")
            p.add_argument("--output", default="-", help="report path, '-' for stdout")
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies: return (report, csv_table, exit_code)
# ---------------------------------------------------------------------------

def _cmd_sample(args):
    if args.samples < 0:
        raise ValueError("--samples must be >= 0")
    field = _field_from_arg(args.field)
    b = _box_from_args(args, field.m)
    pts = grid_points(b)
    coeffs = sample_batch_coeffs(field, args.seed, np.arange(args.samples))
    design = box_design(field, b, (0,) * field.m)
    values = apply_design(coeffs, design).reshape(args.samples, pts.shape[0], field.k)
    grid, paths = pts.tolist(), values.tolist()
    table = [["sample", *(f"x{i}" for i in range(field.m)),
              *(f"value{j}" for j in range(field.k))]]
    table += [[s, *x, *v] for s, path in enumerate(paths) for x, v in zip(grid, path)]
    report = {
        "command": "sample",
        "field_digest": field_digest(field),
        "seed": args.seed,
        "n_samples": args.samples,
        "grid": grid,
        "samples": paths,
    }
    return report, table, 0


def _cmd_covariance(args):
    K = _kernel_from_args(args)
    pairs = _load_json_arg(args.points)
    if not (isinstance(pairs, list) and all(
            isinstance(pair, list) and len(pair) == 2 and all(map(_is_point, pair))
            for pair in pairs)):
        raise ValueError("--points must be a JSON list of [p, q] point pairs")
    rows = []
    results = []
    for p, q in pairs:
        val = eval_kernel(K, p, q)
        results.append({"p": np.atleast_1d(p).tolist(), "q": np.atleast_1d(q).tolist(),
                        "K": val.tolist()})
        row = {"p": json.dumps(p), "q": json.dumps(q)}
        for j in range(val.shape[0]):
            for l in range(val.shape[1]):
                row[f"K{j}{l}"] = val[j, l]
        rows.append(row)
    report = {"command": "covariance", "field_digest": _digest_of(K),
              "results": results}
    return report, _table(rows), 0


def _cmd_seminorm(args):
    K = _kernel_from_args(args)
    b = _box_from_args(args, K.m)
    value = kernel_seminorm(K, KernelSeminormSpec(b, args.order))
    report = {"command": "seminorm", "order": args.order,
              "field_digest": _digest_of(K), "seminorm": value}
    return report, _table([{"order": args.order, "seminorm": value}]), 0


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
    return report, _table(rows), code


def _cmd_estimate(args):
    field = _field_from_arg(args.field)
    event_doc = _load_json_arg(args.event)
    event = event_from_dict(event_doc)
    est = estimate_probability(field, event, args.samples, args.seed)
    report = {"command": "estimate", "event": event_doc,
              "field_digest": field_digest(field), **_estimate_dict(est)}
    return report, _table([_estimate_dict(est)]), 0


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
    return report, _table(rows), 0


def _cmd_limit_study(args):
    doc = _load_json_arg(args.config)
    validate_document("limit_study", doc)
    fields = (field_from_dict(f, validated=True) for f in doc["fields"])  # one alive at a time
    limit_field = field_from_dict(doc["limit_field"], validated=True)
    event = event_from_dict(doc["event"], validated=True)
    b = box_from_dict(doc["box"], validated=True)
    r = int(doc["r"])
    order = int(doc.get("distance_order", r + 2))
    rows_out = limit_study(fields, limit_field, event, b, r, args.samples, args.seed,
                           distance_order=order)
    results = [{"label": row.label, "kernel_distance": row.kernel_distance,
                "is_limit": row.is_limit, **_estimate_dict(row.estimate)}
               for row in rows_out]
    report = {"command": "limit-study", "r": r, "distance_order": order,
              "results": results}
    return report, _table(results), 0


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
    return report, _table(results), 0


def _cmd_validate(args):
    if args.max_points < 1:
        raise ValueError("--max-points must be >= 1")
    K = _kernel_from_args(args)
    if args.points:
        pts = points_array(_load_json_arg(args.points), K.m)
        if not len(pts):
            raise ValueError("--points must hold at least one point")
    else:
        b = _box_from_args(args, K.m)
        full = grid_points(b)
        stride = max(1, full.shape[0] // args.max_points)
        pts = full[::stride][:args.max_points]
    i, j = np.triu_indices(len(pts))
    pairs = np.stack((pts[i], pts[j]), axis=1)
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
    return report, _table(rows), 0 if passed else _VALIDATION_EXIT


# name -> (help text, argument builder, body)
_SUBCOMMANDS = {
    "sample": ("draw Karhunen-Loeve sample paths on a box grid",
               _sample_args, _cmd_sample),
    "covariance": ("evaluate a covariance kernel at point pairs",
                   _covariance_args, _cmd_covariance),
    "seminorm": ("mixed (r, r) sup seminorm of a kernel on a box grid",
                 _seminorm_args, _cmd_seminorm),
    "jet-scan": ("jet covariance nondegeneracy certificate at every grid point "
                 "(full support of the jet, hence almost-sure transversality)",
                 _jet_scan_args, _cmd_jet_scan),
    "estimate": ("Monte Carlo probability of a path event",
                 _estimate_args, _cmd_estimate),
    "gauss-ratio": ("ratio of the mean sup-norm to the root kernel seminorm "
                    "(the Gaussian sup-norm inequality)",
                    _gauss_ratio_args, _cmd_gauss_ratio),
    "limit-study": ("kernel distances versus event probabilities along a "
                    "sequence of fields with a limit field",
                    _limit_study_args, _cmd_limit_study),
    "counterexample": ("disjoint-bump ensemble report: quantile scale, exact "
                       "small-sup-norm probability, Monte Carlo check, kernel "
                       "sup decay", _counterexample_args, _cmd_counterexample),
    "validate": ("symmetry and positive-semidefiniteness checks of a "
                 "covariance kernel on grid points", _validate_args, _cmd_validate),
}


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):  # an error, not a warning
            report, table, code = _SUBCOMMANDS[args.command][2](args)
        _write_report(report, table, args)
    except SchemaError as exc:
        print(f"grflab: schema error at {exc.pointer}: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (GrflabError, ValueError, OSError, MemoryError, ArithmeticError, RecursionError) as exc:
        print(f"grflab: error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    return code


def main() -> None:
    sys.exit(run())


# keep the gen-2 collections of a command from re-scanning the import-time heap
gc.freeze()


if __name__ == "__main__":
    main()
