"""Smoke gate for the perf benchmark: every workload at ``--smoke`` size.

Run explicitly, like the other benchmark gates::

    PYTHONPATH=src python -m pytest -q benchmarks/perf/test_perf_smoke.py

Two traced smoke invocations (well under a minute together) must emit
exactly the metric names ``BENCHMARK.json`` lists, pass every output
check, produce sane self times, and repeat every deterministic count.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from spans import COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """(last stdout line, envelope, out dir) of two smoke invocations,
    run side by side: only their outputs and counts are checked."""
    outs = [tmp_path_factory.mktemp(f"smoke{attempt}") for attempt in (0, 1)]
    procs = [subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for out in outs]
    runs = []
    for proc, out in zip(procs, outs):
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr[-3000:]
        line = json.loads(stdout.strip().splitlines()[-1])
        runs.append((line, json.loads((out / "perf.json").read_text()), out))
    return runs


def test_metric_names_match_benchmark_json(smoke_runs):
    _line, envelope, _out = smoke_runs[0]
    assert set(envelope["workloads"]) == \
        {w["name"] for w in BENCHMARK["workloads"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for result in envelope["workloads"].values():
        assert set(result["metrics"]) == end_to_end
        assert set(result["layers"]) == per_layer


def test_every_output_check_passes(smoke_runs):
    for line, envelope, _out in smoke_runs:
        assert line["correct"] and line["failed"] == 0, line
        for name, result in envelope["workloads"].items():
            assert result["error_frac"] == 0, (name, result["failures"])


def test_traced_self_times_are_sane(smoke_runs):
    _line, envelope, out = smoke_runs[0]
    for name in envelope["workloads"]:
        trace = json.loads((out / f"trace-{name}.json").read_text())
        self_times = list(trace["self_s"].values())
        assert min(self_times) >= 0.0, name
        assert sum(self_times) <= trace["wall_s"] * (1 + 1e-9), name


def test_deterministic_counts_repeat(smoke_runs):
    (_, first, _), (_, second, _) = smoke_runs
    for name, result in first["workloads"].items():
        again = second["workloads"][name]["layers"]
        assert {c: result["layers"][c] for c in COUNTS} == \
            {c: again[c] for c in COUNTS}, name
