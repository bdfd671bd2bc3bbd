"""Run one grflab CLI command in this (fresh) interpreter and time it.

Usage: python child.py SIDECAR TRACE -- <grflab arguments>

The command goes through ``grflab.cli.run(argv)``, the function that the
``grflab`` console script and ``python -m grflab.cli`` call, and the process
exits with its return code.  Timings go to the SIDECAR JSON file, never into
the report: the CLOCK_MONOTONIC instant at which ``import grflab.cli``
finished (comparable with the parent's clock), the import time as seen from
inside, and the time spent in ``run``.  With TRACE = 1 the public functions
of every grflab module are wrapped in spans first (see tracing.py) and the
per-function totals are written to the sidecar as well.
"""

import json
import sys
import time

t_start = time.monotonic()
import grflab.cli  # noqa: E402

t_imported = time.monotonic()


def main() -> int:
    sidecar, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    code = grflab.cli.run(argv)
    run_s = time.perf_counter() - t0
    info = {"imported_at": t_imported, "import_s": t_imported - t_start,
            "run_s": run_s, "code": code}
    if tracer is not None:
        tracer.uninstall()
        info["trace"] = tracer.summary()
        info["spans"] = tracer.long_spans()
    with open(sidecar, "w") as handle:
        json.dump(info, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
