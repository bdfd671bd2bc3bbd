"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``.

The smoke test runs every workload once at a tiny size, traced and
untraced, with every report check on.  The other tests check the reference
code against itself and the refusal to run without grflab sources.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def test_smoke_all_workloads_pass_their_checks():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok (") == 6


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-sample",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_vectorized_stream_matches_integer_spec():
    rows = reference.normals_np(12345, 5, 9, 7)
    for i in range(4):
        assert np.array_equal(rows[i], reference.normals_py(12345, 5 + i, 7))


def test_closed_form_partials_match_finite_differences():
    docs = (
        {"type": "bump", "center": [0.4, 0.55], "radius": 0.3, "amplitude": [1.0, -0.5]},
        {"type": "harmonic", "frequency": [2.0, -3.0], "phase": 0.3, "amplitude": [0.7]},
        {"type": "monomial", "exponents": [2, 1], "amplitude": [1.5]},
    )
    p = np.array([[0.47, 0.6]])
    h = 1e-5
    for doc in docs:
        for alpha in reference.multi_indices(2, 1):
            for axis in range(2):
                step = np.eye(2)[axis] * h
                fd = (reference.basis_partial(doc, p + step, alpha)
                      - reference.basis_partial(doc, p - step, alpha)) / (2 * h)
                up = tuple(a + (i == axis) for i, a in enumerate(alpha))
                assert np.allclose(reference.basis_partial(doc, p, up), fd,
                                   rtol=1e-6, atol=1e-6), (doc["type"], alpha, axis)
