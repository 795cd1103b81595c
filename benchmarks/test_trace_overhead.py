"""Tracing overhead gate + critical-path trajectory (BENCH_trace.json).

Two claims the distributed-tracing layer must keep honest:

* **Overhead < 5%.**  Span open/close journaling rides the control
  path of every occasion (instances, captures, port selection,
  pipeline stages).  A full serial campaign timed with the tracer
  forced off versus on bounds what tracing costs end to end.
* **The critical path agrees serial vs. sharded.**  The span chain
  that bounds the run must name the same bottleneck stage whether the
  occasion ran in one process or as per-site shard workers -- that
  agreement is what makes the profiler trustworthy for the roadmap's
  "which stage is the bottleneck at N workers" question.

Both results land in ``BENCH_trace.json``; CI's ``trace-overhead`` job
runs this module and uploads the JSON plus a Perfetto-loadable
``trace.json`` as artifacts.

Run with
``PYTHONPATH=src python -m pytest benchmarks/test_trace_overhead.py -v -s``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

from bench_json import merge_bench
from repro.core.campaign import CampaignManifest, CampaignRunner
from repro.obs.journal import RunJournal
from repro.obs.trace import TraceTree, critical_path_summary
from repro.obs.tracing import Tracer

TRIALS = 3
MAX_TRACING_OVERHEAD = 0.05

_MANIFEST_KW = dict(
    seed=23, sites=("STAR", "MICH"), occasions=1, traffic_scale=0.005,
    sample_duration=2.0, sample_interval=10.0, samples_per_run=1,
    runs_per_cycle=1, cycles=1, desired_instances=1, traffic_span=120.0)
SERIAL = CampaignManifest(sharded=False, **_MANIFEST_KW)
SHARDED = CampaignManifest(sharded=True, **_MANIFEST_KW)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_trace.json"


@contextmanager
def tracer_forced_off():
    """Force every Tracer built inside the block to start disabled.

    The baseline run is the identical campaign minus span emission --
    the honest denominator for "what does tracing cost".
    """
    original = Tracer.__init__

    def disabled_init(self, journal, clock, enabled=True, context=None):
        original(self, journal, clock, enabled=False, context=context)

    Tracer.__init__ = disabled_init
    try:
        yield
    finally:
        Tracer.__init__ = original


def _best_of(fn, trials=TRIALS):
    best = float("inf")
    for _ in range(trials):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _timed_campaign(root: Path, manifest: CampaignManifest, tag: str,
                    trials: int = TRIALS) -> float:
    counter = [0]

    def run_once():
        run_dir = root / f"{tag}{counter[0]}"
        counter[0] += 1
        CampaignRunner(run_dir, manifest=manifest).run()

    return _best_of(run_once, trials)


def test_tracing_overhead_under_5_percent(tmp_path):
    # Untimed warmup: pay lazy imports and page-cache fills once.
    CampaignRunner(tmp_path / "warmup", manifest=SERIAL).run()

    with tracer_forced_off():
        baseline_s = _timed_campaign(tmp_path, SERIAL, "off")
        off_journal = RunJournal.read(tmp_path / "off0" / "journal.jsonl")
        assert not off_journal.of_kind("span-open"), \
            "baseline must carry no spans"
    traced_s = _timed_campaign(tmp_path, SERIAL, "on")
    journal = RunJournal.read(tmp_path / "on0" / "journal.jsonl")
    spans = len(journal.of_kind("span-open"))
    assert spans > 0, "traced run must journal spans"

    overhead = traced_s / baseline_s - 1.0
    print(f"\ncampaign ({spans} spans): untraced {baseline_s:.2f}s, "
          f"traced {traced_s:.2f}s -> overhead {overhead:+.2%} "
          f"(gate {MAX_TRACING_OVERHEAD:.0%})")
    merge_bench(BENCH_PATH, "overhead", {
        "baseline_s": baseline_s,
        "traced_s": traced_s,
        "overhead_pct": round(100.0 * overhead, 3),
        "spans": spans,
        "gate_pct": 100.0 * MAX_TRACING_OVERHEAD,
        "trials": TRIALS,
    })
    assert overhead < MAX_TRACING_OVERHEAD


def test_critical_path_serial_vs_sharded(tmp_path):
    CampaignRunner(tmp_path / "serial", manifest=SERIAL).run()
    CampaignRunner(tmp_path / "sharded", manifest=SHARDED,
                   shard_workers=2).run()

    summaries = {}
    for tag in ("serial", "sharded"):
        journal = RunJournal.read(tmp_path / tag / "journal.jsonl")
        tree = TraceTree.from_journal(journal)
        assert tree.spans, f"{tag}: no spans reconstructed"
        assert not tree.dangling(), f"{tag}: dangling spans in clean run"
        path = tree.critical_path()
        assert path, f"{tag}: empty critical path"
        summaries[tag] = critical_path_summary(path)

    leaf = {tag: s["path"][-1]["name"] for tag, s in summaries.items()}
    print(f"\ncritical-path bottleneck: serial={leaf['serial']!r} "
          f"sharded={leaf['sharded']!r}")
    merge_bench(BENCH_PATH, "critical_path", {
        "serial": {"total_sim": summaries["serial"]["total_sim"],
                   "stages": summaries["serial"]["stages"],
                   "bottleneck": leaf["serial"]},
        "sharded": {"total_sim": summaries["sharded"]["total_sim"],
                    "stages": summaries["sharded"]["stages"],
                    "bottleneck": leaf["sharded"]},
        "agree": leaf["serial"] == leaf["sharded"],
    })
    # The profiler must name the same bottleneck stage either way.
    assert leaf["serial"] == leaf["sharded"]
