"""grflab CLI benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout.  Each operation is one grflab CLI
command in a fresh interpreter (``child.py``), with ``src`` on PYTHONPATH and
BLAS/OpenMP pinned to one thread; commands run one at a time.  A run repeats
whole rounds of the workload's command list while the next round still fits
in ``--seconds``, then checks every report against independent references
(``reference.py``) and that every round's report is byte-identical to the
first.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; details, reports and
traces go to ``perfbench/results/``.

With ``--trace 0`` the metrics are end to end:

* ``setup_s``: median over all commands of the time from process spawn to
  the end of ``import grflab.cli``;
* ``wall_s``: sum over the commands of each command's median wall time;
* ``work_per_s``: the workload's work count divided by the sum over the
  commands of each command's median time inside ``grflab.cli.run``;
* ``peak_rss_mb``: largest maximum resident set size of any child.

With ``--trace 1`` untraced and traced rounds alternate; the metrics are the
per-layer numbers of the traced rounds (medians over rounds) and
``trace.overhead_pct``, the traced time inside ``run`` against the untraced.

``--smoke`` runs every workload once at a tiny size, traced and untraced,
with every check on, and exits non-zero if anything fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
CHILD_TIMEOUT_S = 150
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    for var in THREAD_PINS:
        env[var] = "1"
    env.pop("GRFLAB_THREADS", None)
    return env


class Runner:
    """Spawns the children of one benchmark run, one at a time."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.count = 0

    def _wait(self, proc) -> int:
        try:
            return proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return -9
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def warm_up(self) -> None:
        """Import grflab once untimed (bytecode cache, file cache)."""
        with open(self.workdir / "warm-up.err", "w") as err:
            proc = subprocess.Popen([sys.executable, "-c", "import grflab.cli"],
                                    env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            if self._wait(proc) != 0:
                raise SystemExit(f"cannot import grflab.cli from {ROOT / 'src'}: "
                                 f"see {self.workdir / 'warm-up.err'}")

    def invoke(self, inv: workloads.Invocation, traced: bool) -> dict:
        self.count += 1
        sidecar = self.workdir / f"child-{self.count}.json"
        cmd = [sys.executable, str(BENCH / "child.py"), str(sidecar),
               "1" if traced else "0", "--", *inv.argv]
        errfile = self.workdir / f"child-{self.count}.err"
        with open(errfile, "w") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            code = self._wait(proc)
            wall = time.monotonic() - t0
        if errfile.stat().st_size == 0:
            errfile.unlink()
        out = {"label": inv.label, "code": code, "wall_s": wall, "traced": traced,
               "payload": None}
        try:
            info = json.loads(sidecar.read_text())
        except (OSError, ValueError):
            return out
        sidecar.unlink()
        out.update(setup_s=info["imported_at"] - t0, import_s=info["import_s"],
                   run_s=info["run_s"])
        if traced:
            out["trace"] = info["trace"]
            spans = self.workdir / "traces" / f"{inv.label}-{self.count}.json"
            spans.parent.mkdir(exist_ok=True)
            spans.write_text(json.dumps({"label": inv.label, "spans": info["spans"],
                                         **info["trace"]}))
        if inv.output.is_file():
            out["payload"] = inv.output.read_bytes()
        return out


def run_rounds(runner: Runner, invs, seconds: float, trace: bool) -> list[list[dict]]:
    """Whole rounds while the next one fits, judged by the longest round of
    its kind so far; traced and untraced alternate when tracing, and both
    kinds run at least once."""
    deadline = time.monotonic() + seconds
    rounds, longest = [], {}
    while True:
        traced = trace and len(rounds) % 2 == 1
        start = time.monotonic()
        rounds.append([runner.invoke(inv, traced) for inv in invs])
        longest[traced] = max(longest.get(traced, 0.0), time.monotonic() - start)
        if trace and len(rounds) < 2:
            continue
        upcoming = trace and len(rounds) % 2 == 1
        if time.monotonic() + longest[upcoming] > deadline:
            return rounds


def check_rounds(invs, rounds) -> tuple[int, int, list[str]]:
    """(failed operations, failed report checks, messages) over all rounds.

    The first report a command wrote without error is checked against the
    references; every other round must have written the same bytes.
    """
    failed = check_failures = 0
    messages = []
    for i, inv in enumerate(invs):
        results = [r[i] for r in rounds]
        done = [res for res in results
                if res["code"] == 0 and "run_s" in res and res["payload"] is not None]
        first = done[0]["payload"] if done else None
        errs = reference.check(inv.argv[0], first, inv.spec) if done else []
        if errs:
            check_failures += 1
            messages += [f"{inv.label}: {e}" for e in errs]
        for res in results:
            if res["code"] != 0:
                messages.append(f"{inv.label}: exit code {res['code']}")
            elif res not in done:
                messages.append(f"{inv.label}: no report or no timings")
            elif res["payload"] != first:
                messages.append(f"{inv.label}: report differs from the first round's")
            failed += bool(errs) or res not in done or res["payload"] != first
    return failed, check_failures, messages


def _median_sum(rounds, key, index_count) -> float:
    return sum(statistics.median(r[i][key] for r in rounds) for i in range(index_count))


def end_to_end(invs, rounds) -> dict:
    ok = [r for r in rounds if all("run_s" in x for x in r)]
    if not ok:
        return {}
    timed = [i for i, inv in enumerate(invs) if inv.work is not None]
    work = sum(invs[i].work for i in timed)
    run_s = sum(statistics.median(r[i]["run_s"] for r in ok) for i in timed)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(x["setup_s"] for r in ok for x in r), "unit": "s"},
        "wall_s": {"value": _median_sum(ok, "wall_s", len(invs)), "unit": "s"},
        "work_per_s": {"value": work / run_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def per_layer(invs, rounds) -> dict:
    traced = [r for r in rounds if r[0]["traced"] and all("trace" in x for x in r)]
    plain = [r for r in rounds if not r[0]["traced"] and all("run_s" in x for x in r)]
    if not traced or not plain:
        return {}
    layers = [tracing.layer_metrics([x["trace"] for x in r]) for r in traced]
    values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    values["cli.import_s"] = statistics.median(sum(x["import_s"] for x in r) for r in traced)
    values["cli.report_bytes"] = sum(len(x["payload"] or b"") for x in traced[0])
    traced_run = _median_sum(traced, "run_s", len(invs))
    values["trace.overhead_pct"] = 100.0 * (traced_run / _median_sum(plain, "run_s", len(invs)) - 1.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: dict,
                 tag: str = "") -> dict:
    workdir = RESULTS / f"{name}-seed{seed}-trace{int(trace)}{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    invs = workloads.WORKLOADS[name](workdir, seed, size)
    runner = Runner(workdir)
    runner.warm_up()
    t0 = time.monotonic()
    rounds = run_rounds(runner, invs, seconds, trace)
    measured = time.monotonic() - t0
    failed, check_failures, messages = check_rounds(invs, rounds)
    metrics = per_layer(invs, rounds) if trace else end_to_end(invs, rounds)
    result = {"correct": check_failures == 0, "attempted": len(rounds) * len(invs),
              "failed": failed, "metrics": metrics}
    detail = {"workload": name, "seed": seed, "seconds": seconds, "measured_s": measured,
              "rounds": len(rounds), "messages": messages, "result": result,
              "invocations": [{"label": inv.label, "argv": inv.argv, "work": inv.work,
                               "runs": [{k: v for k, v in r[i].items()
                                         if k not in ("payload", "trace")} for r in rounds]}
                              for i, inv in enumerate(invs)]}
    (workdir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    for msg in messages:
        print(msg, file=sys.stderr)
    return result


def smoke() -> int:
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            res = run_workload(name, 0, 0.0, trace, workloads.SMOKE, tag="-smoke")
            ok = res["correct"] and res["failed"] == 0 and res["metrics"]
            print(f"{name} trace={int(trace)}: {'ok' if ok else 'FAILED'} "
                  f"({res['attempted']} commands, {res['failed']} failed)")
            status |= not ok
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grflab" / "cli.py").is_file():
        print(f"no grflab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          workloads.FULL)
    if not result["metrics"]:
        print("no complete round: no metrics", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
