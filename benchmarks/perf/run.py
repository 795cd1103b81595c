#!/usr/bin/env python3
"""Patchwork perf benchmark: end-to-end metrics per workload, plus an
outside-in per-layer trace.

Run from the repository root::

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed 29]
        [--seconds S | --reps N] [--trace [0|1]] [--out DIR] [--smoke]

With no ``--workload`` every workload runs.  Per workload, it picks
the inputs from the seed, prepares them three times (``setup_s``),
then runs timed reps for ``--seconds`` (at least five) or exactly
``--reps``.  The probe that picks the inputs, every setup and every rep
runs in a process of its own, one at a time, so process-wide caches, id
counters and the RSS high-water mark never carry over.  ``--trace``
adds one traced rep whose spans give the per-layer metrics.  Every
time is scaled to an uncontended host by the samplers of
:mod:`hostspeed`, which run on every CPU for the whole invocation.

Every metric is printed by name with its unit.  The last line of
standard output is one JSON object, ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics, or with ``--trace``
the per-layer ones.  ``DIR/perf.json`` (default ``.perf-out/``) gets
the full envelope, and ``--trace`` writes ``DIR/trace-<workload>.json``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import select
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import repro  # noqa: E402

if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
    sys.exit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")

import hostspeed  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
SETUP_REPEATS = 3
MIN_REPS = 5
MAX_REPS = 40
#: Every child must end this long after the invocation started, so a
#: hung rep cannot hold the whole invocation past its time limit.
DEADLINE_S = 165.0


# -- one probe, setup or rep, in its own process -------------------------------

def child_main(spec: Dict[str, Any]) -> None:
    """Run the probe, setup or rep ``spec`` describes; write its result,
    or the error that stopped it, to ``spec["result"]``."""
    workload = suite.WORKLOADS[spec["workload"]]
    try:
        if spec["kind"] == "params":
            result = {"params": workload.params(spec["seed"], spec["smoke"])}
        elif spec["kind"] == "setup":
            window: Dict[str, Any] = {}
            started = time.perf_counter()
            with hostspeed.measured(window):
                prepared = workload.setup(spec["params"], Path(spec["dir"]))
            result = {"setup_s": time.perf_counter() - started,
                      "prepared": prepared, "window": window}
        else:
            result = rep(workload, spec)
    except Exception as error:
        traceback.print_exc()
        result = {"error": f"{spec['label']}: {type(error).__name__}: {error}"}
    Path(spec["result"]).write_text(json.dumps(result))


def rep(workload: "suite.Workload", spec: Dict[str, Any]) -> Dict[str, Any]:
    """Time one operation: wall and CPU around ``timed()``, peak RSS of
    the whole process; with ``trace``, the spans of every layer."""
    tracer = spans.Tracer() if spec["trace"] else None
    measured: Dict[str, Any] = {"window": {}}

    @contextmanager
    def timed():
        if tracer:
            tracer.install()
            root = tracer.open("op")
        own0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        try:
            with hostspeed.measured(measured["window"]):
                yield
        finally:
            wall = time.perf_counter() - started
            own1 = resource.getrusage(resource.RUSAGE_SELF)
            kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
            if tracer:
                tracer.close(root)
                tracer.uninstall()
                # The root span's own clock, so self times sum to it.
                wall = root["busy"]
            measured["wall_s"] = wall
            measured["cpu_s"] = sum(
                getattr(end, f) - getattr(begin, f)
                for begin, end in ((own0, own1), (kids0, kids1))
                for f in ("ru_utime", "ru_stime"))

    outputs = workload.run(spec["params"], spec["prepared"],
                           Path(spec["dir"]), timed, spec["workers"])
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {**measured, "peak_rss_mb": peak_kb / 1024.0, "outputs": outputs}
    if tracer:
        result["spans"] = tracer.spans
        result["journal_events"] = tracer.journal_events
    return result


def spawn(work: Path, label: str, deadline: float, **spec) -> Dict[str, Any]:
    """Run one probe, setup or rep in a fresh process, in a session of
    its own; wait for it, or past ``deadline`` kill it and every worker
    it started.  A rep's directory is deleted after.

    The process is forked from this one, which imports the program but
    never runs it (no threads, no worlds built), so every child starts
    from the same state a fresh interpreter would reach, with its own
    RSS high-water mark, without paying about a second of interpreter
    start-up and imports each time."""
    spec.update(label=label, dir=str(work / label),
                result=str(work / f"{label}.json"))
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        try:
            os.setsid()
            child_main(spec)
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(0)
    exited = os.pidfd_open(pid)
    try:
        if not select.select([exited], [], [],
                             max(1.0, deadline - time.monotonic()))[0]:
            os.killpg(pid, signal.SIGKILL)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        os.close(exited)
        if spec["kind"] == "rep":
            shutil.rmtree(work / label, ignore_errors=True)
    result_path = Path(spec["result"])
    if not result_path.exists():
        return {"error": f"{label}: exit {status}, no result"}
    result = json.loads(result_path.read_text())
    if "error" not in result and spec["kind"] != "params":
        seconds = result.get("setup_s") or result["wall_s"]
        print(f"  {spec['workload']} {label}: {seconds:.3f} s",
              file=sys.stderr)
    return result


# -- one workload ----------------------------------------------------------------

def summarize(values: List[float], unit: str) -> Dict[str, Any]:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "unit": unit,
            "values": values}


def bench_workload(name: str, seed: int, seconds: float, reps: Optional[int],
                   trace: bool, smoke: bool, work: Path, deadline: float,
                   samplers: "hostspeed.Samplers") -> Dict[str, Any]:
    """Every setup, rep and check of one workload.  A failed setup, rep
    or check never raises: it is counted in ``failed`` and listed in
    ``failures``, and the metrics it leaves no data for are left out.

    Every time is multiplied by its process's host-speed factor for
    wall or CPU seconds (``scale``, see :mod:`hostspeed`); the envelope
    keeps the raw seconds beside it."""
    workload = suite.WORKLOADS[name]
    result: Dict[str, Any] = {"metrics": {}, "outputs": {}, "failures": []}
    probe = spawn(work, "params", deadline, kind="params", workload=name,
                  seed=seed, smoke=smoke)
    if "error" in probe:
        raise RuntimeError(probe["error"])
    params = result["params"] = probe["params"]

    setups = []
    for attempt in range(1 if smoke else SETUP_REPEATS):
        setups.append(spawn(work, f"setup{attempt}", deadline, kind="setup",
                            workload=name, params=params))
        if attempt:
            shutil.rmtree(work / f"setup{attempt - 1}", ignore_errors=True)
    ready = [s for s in setups if "error" not in s]
    timed: List[Dict[str, Any]] = []
    traced = None
    if ready:
        prepared = ready[-1]["prepared"]
        for s in ready:
            if s["prepared"].get("reference") != prepared.get("reference"):
                s["error"] = "setup's reference outputs differ between setups"
        workers = workload.workers(params)

        def run_rep(label: str, workers: int, trace: bool = False):
            return spawn(work, label, deadline, kind="rep", workload=name,
                         params=params, prepared=prepared, workers=workers,
                         trace=trace)

        started = time.monotonic()
        while len(timed) < (reps or MIN_REPS) or (
                reps is None and time.monotonic() - started < seconds
                and len(timed) < MAX_REPS):
            timed.append(run_rep(f"rep{len(timed)}", workers))
        if trace:
            # Sharded campaigns are traced at shard_workers=1, so every
            # shard runs in-process and its spans nest.
            traced = run_rep("traced", 1 if workload.sharded else workers,
                             trace=True)
        ran = [r for r in timed + [traced] if r and "error" not in r]
        for r, verdict in zip(ran, workload.check(
                [r["outputs"] for r in ran], prepared)):
            if verdict:
                r["error"] = verdict

    attempted = [r for r in setups + timed + [traced] if r is not None]
    samples = samplers.read()
    for r in attempted:
        if "error" not in r:
            try:
                r["scale"] = samplers.scale(r["window"], samples)
            except RuntimeError as error:
                r["error"] = str(error)
    result["failures"] = [r["error"] for r in attempted if "error" in r]
    result.update(attempted=len(attempted), failed=len(result["failures"]),
                  error_frac=len(result["failures"]) / len(attempted))
    good_setups = [s for s in setups if "error" not in s]
    good = [r for r in timed if "error" not in r]
    result["setups"] = [{k: s[k] for k in ("setup_s", "scale")}
                        for s in good_setups]
    result["reps"] = [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb",
                                         "scale")} for r in good]
    if good_setups:
        result["metrics"]["setup_s"] = summarize(
            [s["setup_s"] * s["scale"]["wall"] for s in good_setups],
            UNITS["setup_s"])
    if good:
        for metric, kind in (("wall_s", "wall"), ("cpu_s", "cpu")):
            result["metrics"][metric] = summarize(
                [r[metric] * r["scale"][kind] for r in good], UNITS[metric])
        result["metrics"]["peak_rss_mb"] = summarize(
            [r["peak_rss_mb"] for r in good], UNITS["peak_rss_mb"])
        first = good[0]["outputs"]
        for key in ("journal_sha256", "records_sha256", "csv_sha256",
                    "pcap_set_sha256"):
            if key in first:
                result["outputs"][key] = first[key]
        if "pcap_set_sha256" in first:
            result["outputs"]["capture.pcap_set_mismatch"] = sum(
                r["outputs"]["pcap_set_sha256"] != first["pcap_set_sha256"]
                for r in good)
    if traced is not None and "error" not in traced and good:
        names = {key for r in good
                 for key in r["outputs"].get("parent_spans", {})}
        parent = {key: statistics.median(
            r["outputs"]["parent_spans"].get(key, 0.0) * r["scale"]["wall"]
            for r in good) for key in names}
        serial = (result["metrics"]["setup_s"]["median"]
                  if workload.sharded and good_setups else None)
        result["layers"] = spans.layer_metrics(
            traced, traced["scale"]["wall"],
            result["metrics"]["wall_s"]["median"],
            serial, parent)
        result["outputs"]["slowest_site"] = spans.slowest_shard(
            traced["spans"])
        result["trace"] = {"wall_s": traced["wall_s"],
                           "scale": traced["scale"],
                           "journal_events": traced["journal_events"],
                           "self_s": spans.self_times(traced["spans"]),
                           "spans": traced["spans"]}
    return result


# -- the command -------------------------------------------------------------------

def report(name: str, result: Dict[str, Any]) -> None:
    print(f"{name}: {result['attempted']} attempted, {result['failed']} "
          f"failed (error_frac {result['error_frac']:.3f})")
    for metric, m in result["metrics"].items():
        print(f"  {metric:24s} {m['median']:12.6g} {m['unit']:6s} "
              f"(median of {m['n']}, min {m['min']:.6g}, max {m['max']:.6g})")
    for metric, value in result.get("layers", {}).items():
        print(f"  {metric:24s} {value:12.6g} {UNITS[metric]}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser.add_argument("--workload", nargs="+", action="extend",
                        choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, default=29)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"],
                        help="measure timed reps for this long")
    parser.add_argument("--reps", type=int, help="exactly N timed reps")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add one traced rep")
    parser.add_argument("--out", type=Path, default=ROOT / ".perf-out")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one setup and one rep each")
    args = parser.parse_args(argv)

    selected = args.workload or names
    reps = 1 if args.smoke else args.reps
    deadline = time.monotonic() + DEADLINE_S * len(selected)
    work_root = ROOT / ".perf-work" / str(os.getpid())
    envelope = {
        "benchmark": "patchwork-perf",
        "host": {"cores": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__,
                 "machine": platform.machine()},
        "params": {"seed": args.seed, "seconds": args.seconds, "reps": reps,
                   "trace": bool(args.trace), "smoke": args.smoke},
        "workloads": {},
    }
    work_root.mkdir(parents=True)
    samplers = hostspeed.Samplers(work_root)
    try:
        for name in selected:
            work = work_root / name
            work.mkdir()
            try:
                result = bench_workload(name, args.seed, args.seconds, reps,
                                        bool(args.trace), args.smoke, work,
                                        deadline, samplers)
            except Exception as error:
                # A failure of the benchmark itself (no inputs fit the
                # seed, a malformed result) still yields a result line.
                traceback.print_exc()
                result = {"metrics": {}, "outputs": {}, "attempted": 1,
                          "failed": 1, "error_frac": 1.0,
                          "failures": [f"{type(error).__name__}: {error}"]}
            finally:
                shutil.rmtree(work, ignore_errors=True)
            envelope["workloads"][name] = result
            report(name, result)
    finally:
        samplers.stop()
        shutil.rmtree(work_root, ignore_errors=True)
        if work_root.parent.exists() and not any(work_root.parent.iterdir()):
            work_root.parent.rmdir()

    args.out.mkdir(parents=True, exist_ok=True)
    for name, result in envelope["workloads"].items():
        trace = result.pop("trace", None)
        if trace is not None:
            (args.out / f"trace-{name}.json").write_text(
                json.dumps(trace, indent=1))
    (args.out / "perf.json").write_text(json.dumps(envelope, indent=1) + "\n")

    results = envelope["workloads"]
    line_metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}/"
        values = (result.get("layers", {}) if args.trace else
                  {m: v["median"] for m, v in result["metrics"].items()})
        for metric, value in values.items():
            line_metrics[prefix + metric] = {"value": value,
                                             "unit": UNITS[metric]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": line_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
