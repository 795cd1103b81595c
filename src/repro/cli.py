"""Command-line interface.

FABRIC users drive the real Patchwork through scripts; this CLI packages
the reproduction's workflows the same way:

``python -m repro study``
    Run the Section-5 infrastructure study and print the Fig 2-6 data.
``python -m repro profile``
    Run a crash-safe profiling campaign (one occasion by default) in the
    output dir -- WAL, checkpoints, ``journal.jsonl``, ``records.json``
    -- then analyze its committed captures and write CSV tables (+ SVG
    charts), ``metrics.prom`` and per-site ``gathered/`` archives.
    ``--resume RUN_DIR`` continues an interrupted run.
``python -m repro campaign``
    Run a Fig 10-style campaign under injected disturbances.
``python -m repro analyze PCAP [PCAP ...]``
    Run the offline pipeline over existing pcap files.
``python -m repro plan RATE FRAME_SIZE``
    Recommend a capture method for a target load.
``python -m repro obs {dump,tail,diff,export} ...``
    Inspect the machine-readable run journals ``profile`` writes.
``python -m repro audit JOURNAL``
    Reconstruct the frame-conservation story of a run from its journal
    alone: per-stage loss waterfall, per-site summary, and the
    congestion-detector scorecard.  Exits 1 if the conservation
    identity is violated.
``python -m repro runs {list,describe} ...``
    Inspect durable campaign run directories: which occasions are
    committed, whether the WAL has a torn tail, what a resume would do.
``python -m repro chaos``
    Crash-fuzz the durable campaign layer: run a reference campaign,
    kill N re-runs at random IO ops, resume each, and check the
    recovery oracles (clean audit, byte-identical journal, no sample
    lost or double-counted).  Exits 1 if any trial fails.
``python -m repro lint [PATH ...]``
    Run reprolint, the AST-based checker for the repo's determinism,
    sim-time, and ledger invariants (rules RL001-RL008).  Exits 1 on
    violations, 2 on unparseable files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Patchwork reproduction: testbed traffic capture & analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="Section-5 infrastructure study")
    study.add_argument("--seed", type=int, default=11)
    study.add_argument("--weeks", type=int, default=52)

    profile = sub.add_parser(
        "profile", help="run a resumable profiling campaign and report on it")
    profile.add_argument("--sites", nargs="*", default=None,
                         help="sites to profile (default: a 4-site testbed)")
    profile.add_argument("--out", type=Path, default=Path("patchwork-out"))
    profile.add_argument("--scale", type=float, default=0.05,
                         help="traffic scale factor")
    profile.add_argument("--sample-duration", type=float, default=5.0)
    profile.add_argument("--sample-interval", type=float, default=30.0)
    profile.add_argument("--samples", type=int, default=2)
    profile.add_argument("--cycles", type=int, default=2)
    profile.add_argument("--instances", type=int, default=2)
    profile.add_argument("--snaplen", type=int, default=200)
    profile.add_argument("--method", choices=["tcpdump", "dpdk", "fpga+dpdk"],
                         default="tcpdump")
    profile.add_argument("--anonymize", action="store_true")
    profile.add_argument("--telemetry-queries", action="store_true",
                         help="enable streaming telemetry: switch-side "
                              "query operators with sketch reports, "
                              "in-band queue-state stamping, and the "
                              "sketch/in-band congestion detectors "
                              "scored alongside the SNMP verdict")
    profile.add_argument("--telemetry-window", type=float, default=1.0,
                         metavar="SECONDS",
                         help="sketch-report tumbling window "
                              "(with --telemetry-queries; default 1.0)")
    profile.add_argument("--charts", action="store_true",
                         help="also render SVG charts")
    profile.add_argument("--seed", type=int, default=42)
    profile.add_argument("--workers", type=int, default=1,
                         help="digest worker processes (0 = one per CPU)")
    profile.add_argument("--json", action="store_true",
                         help="print a machine-readable JSON summary")
    profile.add_argument("--occasions", type=int, default=1,
                         help="occasions to run")
    profile.add_argument("--traffic-span", type=float, default=0.0,
                         help="seconds of traffic to generate per occasion "
                              "(0 = cover the whole sampling plan)")
    profile.add_argument("--shard-workers", type=int, default=0,
                         metavar="N",
                         help="run each site's instance in its own shard "
                              "world and merge the journals "
                              "deterministically; N > 1 "
                              "fans shards over a process pool, and the "
                              "merged output is byte-identical at any N")
    profile.add_argument("--resume", type=Path, default=None, metavar="RUN_DIR",
                         help="resume an interrupted durable campaign "
                              "from its run directory")
    profile.add_argument("--salvage", action="store_true",
                         help="with --resume: adopt the crashed occasion's "
                              "completed samples as DEGRADED instead of "
                              "re-running it")

    campaign = sub.add_parser("campaign", help="Fig 10-style campaign")
    campaign.add_argument("--sites", type=int, default=10,
                          help="number of sites")
    campaign.add_argument("--occasions", type=int, default=6)
    campaign.add_argument("--seed", type=int, default=23)
    campaign.add_argument("--out", type=Path, default=Path("campaign-out"))

    analyze = sub.add_parser("analyze", help="analyze existing pcaps")
    analyze.add_argument("pcaps", nargs="+", type=Path)
    analyze.add_argument("--out", type=Path, default=None,
                         help="write CSVs (and charts) here")
    analyze.add_argument("--charts", action="store_true")
    analyze.add_argument("--workers", type=int, default=1,
                         help="digest worker processes (0 = one per CPU)")
    analyze.add_argument("--cache-dir", type=Path, default=None,
                         help="acap cache directory (default: <out>/acap-cache)")
    analyze.add_argument("--no-cache", action="store_true",
                         help="disable the content-addressed acap cache")
    analyze.add_argument("--json", action="store_true",
                         help="print a machine-readable JSON summary")

    plan = sub.add_parser("plan", help="recommend a capture method")
    plan.add_argument("rate", help="target rate, e.g. 100Gbps")
    plan.add_argument("frame_size", type=int, help="frame size in bytes")
    plan.add_argument("--snaplen", type=int, default=200)

    obs = sub.add_parser("obs", help="inspect run journals")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    dump = obs_sub.add_parser("dump", help="print a journal's events")
    dump.add_argument("journal", type=Path)
    dump.add_argument("--kind", default=None,
                      help="only events of this kind (e.g. span-open, fault)")
    tail = obs_sub.add_parser("tail", help="print a journal's last events")
    tail.add_argument("journal", type=Path)
    tail.add_argument("-n", "--lines", type=int, default=10)
    diff = obs_sub.add_parser("diff", help="compare two journals (exit 1 if "
                                           "they differ)")
    diff.add_argument("journal_a", type=Path)
    diff.add_argument("journal_b", type=Path)
    diff.add_argument("-q", "--quiet", action="store_true",
                      help="no output; communicate via the exit code only")
    export = obs_sub.add_parser(
        "export", help="re-export a journal's final metrics snapshot")
    export.add_argument("journal", type=Path)
    export.add_argument("--format", choices=["prom", "jsonl"], default="prom")

    audit = sub.add_parser(
        "audit", help="frame-conservation audit of a run journal")
    audit.add_argument("journal", type=Path,
                       help="a journal.jsonl written by `repro profile`")
    audit.add_argument("--csv", type=Path, default=None,
                       help="also write the loss waterfall as CSV here "
                            "(with --detectors: the detector comparison)")
    audit.add_argument("--json", action="store_true",
                       help="print a machine-readable JSON audit")
    audit.add_argument("--detectors", action="store_true",
                       help="print the three-way congestion-detector "
                            "comparison (snmp / sketch / inband) instead "
                            "of the full audit report")

    trace = sub.add_parser(
        "trace", help="distributed-trace analysis of a run journal")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_tree_p = trace_sub.add_parser(
        "tree", help="render the reconstructed span tree")
    trace_tree_p.add_argument("journal", type=Path,
                              help="a journal.jsonl or a campaign run dir")
    trace_tree_p.add_argument("--depth", type=int, default=None,
                              help="limit rendering depth")
    trace_tree_p.add_argument("--json", action="store_true",
                              help="print the tree as JSON")
    trace_cp = trace_sub.add_parser(
        "critical-path", help="the span chain that bounds the run "
                              "(sim time)")
    trace_cp.add_argument("journal", type=Path,
                          help="a journal.jsonl or a campaign run dir")
    trace_cp.add_argument("--json", action="store_true")
    trace_cp.add_argument("--csv", type=Path, default=None,
                          help="also write the path table as CSV here")
    trace_export = trace_sub.add_parser(
        "export", help="export the trace for external viewers")
    trace_export.add_argument("journal", type=Path,
                              help="a journal.jsonl or a campaign run dir")
    trace_export.add_argument("--format", choices=["chrome", "folded"],
                              default="chrome",
                              help="chrome: Perfetto-loadable Trace Event "
                                   "JSON; folded: flamegraph folded stacks")
    trace_export.add_argument("-o", "--out", type=Path, default=None,
                              help="write here instead of stdout")
    trace_stats = trace_sub.add_parser(
        "stats", help="per-stage span latency aggregates")
    trace_stats.add_argument("journal", type=Path,
                             help="a journal.jsonl or a campaign run dir")
    trace_stats.add_argument("--json", action="store_true")
    trace_stats.add_argument("--csv", type=Path, default=None,
                             help="also write the stage table as CSV here")
    trace_stats.add_argument("--prom", action="store_true",
                             help="render stage histograms as Prometheus "
                                  "text (p50/p95/p99 quantiles included)")

    runs = sub.add_parser("runs", help="inspect durable campaign run dirs")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="summarize every campaign under a directory")
    runs_list.add_argument("parent", type=Path, nargs="?", default=Path("."))
    runs_list.add_argument("--json", action="store_true")
    runs_describe = runs_sub.add_parser(
        "describe", help="durable state of one campaign run directory")
    runs_describe.add_argument("run_dir", type=Path)
    runs_describe.add_argument("--json", action="store_true")

    chaos = sub.add_parser(
        "chaos", help="crash-fuzz the durable campaign layer and verify "
                      "recovery oracles")
    chaos.add_argument("--trials", type=int, default=50)
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--out", type=Path, default=Path("chaos-out"))
    chaos.add_argument("--workers", type=int, default=0,
                       help="parallel trial processes (0 = one per CPU)")
    chaos.add_argument("--keep-passing", action="store_true",
                       help="keep passing trial directories on disk")
    chaos.add_argument("--sharded", action="store_true",
                       help="fuzz the sharded campaign path: per-site "
                            "shard worlds, shard-commit records, and the "
                            "deterministic journal merge")
    chaos.add_argument("--json", action="store_true",
                       help="print the machine-readable chaos report")

    lint = sub.add_parser(
        "lint", help="check repo invariants (determinism, sim time, ledger)")
    lint.add_argument("paths", nargs="*", type=Path,
                      help="files/directories to lint "
                           "(default: [tool.reprolint] paths, or src/repro)")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable JSON report")
    lint.add_argument("--select", action="append", default=[],
                      metavar="RULE", help="run only these rule ids")
    lint.add_argument("--ignore", action="append", default=[],
                      metavar="RULE", help="skip these rule ids")
    lint.add_argument("--config", type=Path, default=None,
                      help="explicit pyproject.toml (default: nearest)")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="also print pragma-suppressed violations")
    lint.add_argument("--list-rules", action="store_true",
                      help="describe every rule and exit")
    lint.add_argument("--sarif", action="store_true",
                      help="emit a SARIF 2.1.0 log (GitHub code scanning)")
    lint.add_argument("--graph", type=Path, default=None, metavar="PATH",
                      help="write the project index (call graph + event "
                           "registry) as JSON")
    lint.add_argument("--events-md", type=Path, default=None, metavar="PATH",
                      help="regenerate the journal event registry "
                           "(EVENTS.md) from the tree")
    lint.add_argument("--check-events", type=Path, default=None,
                      metavar="PATH",
                      help="fail (exit 1) if the committed event registry "
                           "is stale vs. the tree")
    lint.add_argument("--no-cache", action="store_true",
                      help="ignore and do not write the project-index "
                           "fact cache")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "study": _cmd_study,
        "profile": _cmd_profile,
        "campaign": _cmd_campaign,
        "analyze": _cmd_analyze,
        "plan": _cmd_plan,
        "obs": _cmd_obs,
        "audit": _cmd_audit,
        "trace": _cmd_trace,
        "runs": _cmd_runs,
        "chaos": _cmd_chaos,
        "lint": _cmd_lint,
    }[args.command]
    return handler(args)


# -- handlers ------------------------------------------------------------


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.study import (NetworkActivityModel, concurrency_summary,
                             duration_table, port_distribution_table,
                             slice_study, spread_table)
    from repro.testbed import FederationBuilder
    from repro.testbed.federation import DEFAULT_SITE_NAMES

    federation = FederationBuilder(seed=args.seed).build()
    print(port_distribution_table(federation).render())
    result = slice_study(DEFAULT_SITE_NAMES, weeks=args.weeks, seed=args.seed)
    print()
    print(spread_table(result.schedule).render())
    print()
    print(duration_table(result.schedule).render())
    print()
    print(concurrency_summary(result.schedule).render())
    activity = NetworkActivityModel(result.schedule)
    peak = activity.peak()
    print(f"\npeak network week: {peak.week} at {peak.mean_tbps:.2f} Tbps")
    return 0


def _cpu_workers(workers: int) -> int:
    """Resolve a ``--workers`` value: 0 means one per CPU."""
    return workers if workers > 0 else (os.cpu_count() or 1)


def _cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile``: run (or ``--resume``) a durable campaign, then
    derive the report, ``metrics.prom`` and ``gathered/`` from its run
    directory."""
    from repro.core.campaign import CampaignManifest, CampaignRunner
    from repro.core.checkpoint import WalCorruptionError

    shard_workers = max(args.shard_workers, 1)
    resume = args.resume is not None
    if resume:
        run_dir = args.resume
        if not (run_dir / "campaign.manifest").exists() and \
                not (run_dir / "campaign.wal").exists():
            print(f"error: {run_dir} is not a campaign run directory",
                  file=sys.stderr)
            return 2
        runner = CampaignRunner(run_dir, shard_workers=shard_workers)
        # e.g. a WAL with no manifest: resumable only if the original
        # manifest is restored, not from the CLI alone.
        refusals = (FileNotFoundError, WalCorruptionError)
    else:
        run_dir = args.out
        manifest = CampaignManifest(
            seed=args.seed, sites=tuple(args.sites or
                                        ["STAR", "MICH", "UTAH", "TACC"]),
            occasions=args.occasions,
            traffic_scale=args.scale, sample_duration=args.sample_duration,
            sample_interval=args.sample_interval,
            samples_per_run=args.samples, runs_per_cycle=1,
            cycles=args.cycles, desired_instances=args.instances,
            snaplen=args.snaplen, method=args.method,
            workers=_cpu_workers(args.workers),
            traffic_span=args.traffic_span,
            sharded=args.shard_workers > 0,
            telemetry_queries=args.telemetry_queries,
            telemetry_window=args.telemetry_window,
            anonymize=args.anonymize)
        runner = CampaignRunner(run_dir, manifest=manifest,
                                shard_workers=shard_workers)
        # The output dir already holds a (possibly different) campaign.
        refusals = (FileExistsError, WalCorruptionError)
    try:
        summary = runner.run(resume=resume, salvage=args.salvage)
    except refusals as exc:
        if resume:
            print(f"error: cannot resume {run_dir}: {exc}", file=sys.stderr)
        else:
            print(f"error: {exc}\nto continue it, run `repro profile "
                  f"--resume {run_dir}`; to start a new campaign, pass "
                  "another --out", file=sys.stderr)
        return 2
    report, notes = _profile_outputs(runner, args.charts)
    runs = json.loads((run_dir / "records.json").read_text())["records"]
    if args.json:
        print(json.dumps({
            **summary.to_dict(),
            "runs": runs,
            "report": report.to_dict(include_tables=False),
            "journal": summary.journal_path,
            "metrics": str(run_dir / "metrics.prom"),
        }, indent=2, sort_keys=True))
        return 0 if summary.audit_ok else 1
    if summary.noop:
        print(f"campaign in {summary.run_dir} is already complete "
              f"({len(summary.skipped)} occasions); nothing to run")
        return 0
    for row in runs:
        print(f"{row['site']}: {row['outcome']} ({row['samples_taken']} "
              f"samples, {row['pcap_files']} pcaps, occasion "
              f"{row['occasion']})")
    for label, occasions in (("ran", summary.executed),
                             ("skipped (already committed)", summary.skipped),
                             ("salvaged", summary.salvaged)):
        if occasions:
            print(f"{label}: occasions {occasions}")
    if summary.torn_wal:
        print("warning: the WAL had a torn tail (crash mid-append); "
              "it was truncated to the last committed record",
              file=sys.stderr)
    print(f"\n{report.total_frames} frames captured across "
          f"{len(report.sites)} sites")
    if report.stats is not None:
        print(report.stats.render())
    print(report.tables["frame_sizes_overall"].render())
    print("\n" + "\n".join(notes))
    print(f"success rate: {summary.success_rate:.1%}; "
          f"audit {'ok' if summary.audit_ok else 'FAILED'}")
    print(f"wrote {summary.journal_path} "
          f"(sha256 {summary.journal_sha256[:16]}...)")
    print(f"resume with: repro profile --resume {summary.run_dir}")
    return 0 if summary.audit_ok else 1


def _profile_outputs(runner, charts: bool):
    """Derive a finished campaign's report, metrics and archives.

    The report covers exactly the pcaps the committed occasions name
    (a crashed attempt can leave uncommitted pcaps on disk), digested
    through the run's own acap cache and looked up there by their
    committed sha256, which the campaign verified or just wrote.
    ``metrics.prom`` renders the final journal's last metrics snapshot;
    each ``captures/<site>`` directory is gathered with that site's
    instance logs.  Returns ``(report, notes)`` as
    :func:`_analyze_into` does.
    """
    from repro.core.checkpoint import committed_pcaps
    from repro.core.gather import gather_site
    from repro.obs import RunJournal, to_prometheus

    run_dir, manifest = runner.run_dir, runner.manifest
    committed = committed_pcaps(run_dir)
    pcaps = [run_dir / rel for rel in committed]
    cache_dir = run_dir / "acap-cache" if manifest.cache_enabled else None
    report, notes = _analyze_into(pcaps, run_dir, manifest.workers,
                                  cache_dir, charts, list(committed.values()))
    registry = _final_metrics(RunJournal.read(runner.journal_path))
    (run_dir / "metrics.prom").write_text(
        to_prometheus(registry) if registry is not None else "")
    for site_dir in sorted(p for p in (run_dir / "captures").glob("*")
                           if p.is_dir()):
        logs = sorted((run_dir / "logs").glob(
            f"occ*/{site_dir.name}/instance.log"))
        gather_site(site_dir.name, site_dir, run_dir / "gathered",
                    "".join(log.read_text() for log in logs) or None)
    return report, notes


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.core.checkpoint import describe_run, list_runs

    if args.runs_command == "describe":
        if not args.run_dir.is_dir():
            print(f"error: no such directory: {args.run_dir}",
                  file=sys.stderr)
            return 2
        summaries = [describe_run(args.run_dir)]
    else:
        if not args.parent.is_dir():
            print(f"error: no such directory: {args.parent}", file=sys.stderr)
            return 2
        summaries = list_runs(args.parent)
    if args.json:
        print(json.dumps(summaries, indent=2, sort_keys=True))
        return 0
    if not summaries:
        print("no campaign run directories found")
        return 0
    for summary in summaries:
        committed = summary.get("occasions_committed", 0)
        total = summary.get("occasions_total")
        progress = f"{committed}/{total}" if total is not None else f"{committed}"
        extra = ""
        if summary.get("torn_wal"):
            extra += " torn-wal"
        if summary.get("samples_salvageable"):
            extra += f" salvageable-samples={summary['samples_salvageable']}"
        print(f"{summary['path']}: {summary['state']} "
              f"({progress} occasions committed){extra}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.testbed.chaos import run_chaos

    report = run_chaos(args.out, trials=args.trials, seed=args.seed,
                       workers=args.workers,
                       keep_passing=args.keep_passing,
                       sharded=args.sharded)
    report_path = args.out / "chaos-report.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
        print(f"wrote {report_path}")
    return 0 if report.ok else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.core import PatchworkConfig, SamplingPlan
    from repro.study.behavior import run_campaign
    from repro.testbed import FederationBuilder, TestbedAPI
    from repro.testbed.federation import DEFAULT_SITE_NAMES

    sites = DEFAULT_SITE_NAMES[:args.sites]
    federation = FederationBuilder(seed=42).build(site_names=sites)
    api = TestbedAPI(federation)
    config = PatchworkConfig(
        output_dir=args.out,
        plan=SamplingPlan(sample_duration=2, sample_interval=10,
                          samples_per_run=1, runs_per_cycle=1, cycles=1),
        desired_instances=2)
    result = run_campaign(api, config, occasions=args.occasions,
                          seed=args.seed)
    print(result.to_table().render())
    print()
    print(result.timeline_table().render())
    print(f"\nsuccess rate: {result.success_rate:.1%}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    missing = [p for p in args.pcaps if not p.exists()]
    if missing:
        print(f"error: no such pcap: {missing[0]}", file=sys.stderr)
        return 2
    cache_dir = None
    if not args.no_cache:
        if args.cache_dir is not None:
            cache_dir = args.cache_dir
        elif args.out is not None:
            cache_dir = args.out / "acap-cache"
    report, notes = _analyze_into(args.pcaps, args.out,
                                  _cpu_workers(args.workers), cache_dir,
                                  args.charts)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    print(report.render())
    if report.stats is not None:
        print(f"\n{report.stats.render()}")
    if notes:
        print("\n" + "\n".join(notes))
    return 0


def _analyze_into(pcaps, out: Optional[Path], workers: int,
                  cache_dir: Optional[Path], charts: bool, keys=None):
    """Digest, index and analyze ``pcaps`` (``keys``: their known
    sha256s, as for :meth:`AnalysisPipeline.digest`).

    With ``out``, also write ``csv/`` and (with ``charts``) ``charts/``
    under it.  Returns ``(report, notes)``: one line per
    written directory.
    """
    from repro.analysis import AnalysisPipeline

    pipeline = AnalysisPipeline(max_workers=workers, cache_dir=cache_dir)
    report = pipeline.run(pcaps, keys)
    notes = []
    if out is not None:
        csvs = report.write_csvs(out / "csv")
        notes.append(f"wrote {len(csvs)} CSVs under {out / 'csv'}")
        if charts:
            from repro.analysis.visualize import render_report_charts
            written = render_report_charts(report, out / "charts")
            notes.append(f"wrote {len(written)} charts under "
                         f"{out / 'charts'}")
    return report, notes


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.capture.dpdk import (DpdkCaptureModel, MAX_WORKER_CORES,
                                    OfferedLoad)
    from repro.capture.fpga import FpgaOffloadConfig, FpgaOffloadModel
    from repro.capture.tcpdump import TcpdumpModel
    from repro.util.units import parse_rate

    rate = parse_rate(args.rate)
    frame = args.frame_size
    tcpdump = TcpdumpModel(snaplen=args.snaplen)
    if tcpdump.offer_constant_load(rate, frame, 30.0).loss_fraction < 0.01:
        print("tcpdump suffices (the default method).")
        return 0
    load = OfferedLoad(rate, frame, duration=30.0)
    cores = DpdkCaptureModel(truncation=args.snaplen).min_cores_for(load)
    if cores is not None:
        print(f"use the DPDK writer with {cores} cores "
              f"(truncation {args.snaplen} B).")
        return 0
    fpga = FpgaOffloadModel(FpgaOffloadConfig(truncation=args.snaplen,
                                              sample_one_in=8))
    writer = DpdkCaptureModel(cores=MAX_WORKER_CORES, truncation=args.snaplen)
    if fpga.offer_through(writer, load).loss_percent < 1.0:
        print("use FPGA offload (hardware truncation + 1-in-8 sampling) "
              "feeding the DPDK writer on 15 cores.")
        return 0
    print("not capturable on this host profile; lower the rate or sample "
          "more aggressively.")
    return 1


def _warn_torn(journal, path: Path) -> None:
    """Surface a dropped torn tail (crash mid-write) on stderr."""
    if journal.torn_tail is not None:
        print(f"warning: {path}: dropped a torn final line (process was "
              f"killed mid-write): {journal.torn_tail!r}", file=sys.stderr)


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import (RunJournal, diff_journals, to_metrics_jsonl,
                           to_prometheus)

    paths = [args.journal_a, args.journal_b] if args.obs_command == "diff" \
        else [args.journal]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such journal: {missing[0]}", file=sys.stderr)
        return 2

    if args.obs_command == "dump":
        journal = RunJournal.read(args.journal)
        _warn_torn(journal, args.journal)
        events = journal.of_kind(args.kind) if args.kind else journal.events
        for event in events:
            print(event.to_json())
        return 0

    if args.obs_command == "tail":
        journal = RunJournal.read(args.journal)
        _warn_torn(journal, args.journal)
        for event in journal.events[-max(0, args.lines):]:
            print(event.to_json())
        return 0

    if args.obs_command == "diff":
        journal_a = RunJournal.read(args.journal_a)
        journal_b = RunJournal.read(args.journal_b)
        _warn_torn(journal_a, args.journal_a)
        _warn_torn(journal_b, args.journal_b)
        differences = diff_journals(journal_a, journal_b)
        if not differences:
            if not args.quiet:
                print("journals are identical")
            return 0
        if not args.quiet:
            for difference in differences:
                print(difference)
        return 1

    # export: re-render the journal's last metrics snapshot.
    journal = RunJournal.read(args.journal)
    _warn_torn(journal, args.journal)
    registry = _final_metrics(journal)
    if registry is None:
        print("error: journal has no metrics snapshot", file=sys.stderr)
        return 2
    if args.format == "prom":
        print(to_prometheus(registry), end="")
    else:
        print(to_metrics_jsonl(registry), end="")
    return 0


def _final_metrics(journal):
    """The registry of a journal's last metrics snapshot, or None."""
    from repro.obs import registry_from_snapshot

    snapshots = journal.of_kind("metrics")
    if not snapshots:
        return None
    return registry_from_snapshot(snapshots[-1].data["metrics"])


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.obs import RunJournal
    from repro.obs.audit import audit_journal

    if not args.journal.exists():
        print(f"error: no such journal: {args.journal}", file=sys.stderr)
        return 2
    journal = RunJournal.read(args.journal)
    _warn_torn(journal, args.journal)
    result = audit_journal(journal)
    if not result.ledgers:
        print("error: journal carries no ledger events (did the run use "
              "`repro profile`?)", file=sys.stderr)
        return 2
    if args.detectors and not result.detector_scorecards:
        print("error: journal carries no detector readings (run with "
              "`repro profile --telemetry-queries`)", file=sys.stderr)
        return 2
    if args.csv is not None:
        table = (result.detector_table() if args.detectors
                 else result.waterfall())
        table.to_csv(args.csv)
    if args.json:
        payload = (result.to_dict()["detectors"] if args.detectors
                   else result.to_dict())
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.detectors:
        print(result.detector_table().render())
        if args.csv is not None:
            print(f"\nwrote detector comparison to {args.csv}")
    else:
        print(result.render())
        if args.csv is not None:
            print(f"\nwrote loss waterfall to {args.csv}")
    return 0 if result.ok else 1


def _trace_journal_paths(target: Path) -> Optional[List[Path]]:
    """Resolve a trace target to journal files, in stream order.

    A file is taken as-is.  A campaign run dir resolves to its final
    ``journal.jsonl`` when present, else (an interrupted campaign) to
    its rotated per-occasion segments (``journal/occ*.jsonl``) in
    sequence order.
    """
    from repro.core.checkpoint import SEGMENT_DIR

    if target.is_file():
        return [target]
    if target.is_dir():
        combined = target / "journal.jsonl"
        if combined.is_file():
            return [combined]
        segments = sorted((target / SEGMENT_DIR).glob("occ*.jsonl"))
        if segments:
            return segments
    return None


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import RunJournal
    from repro.obs.export import to_prometheus
    from repro.obs.trace import (TraceTree, chrome_trace_json,
                                 critical_path_summary, to_folded_stacks)
    from repro.util.tables import Table

    paths = _trace_journal_paths(args.journal)
    if paths is None:
        print(f"error: no such journal: {args.journal}", file=sys.stderr)
        return 2
    journals = []
    for path in paths:
        journal = RunJournal.read(path)
        _warn_torn(journal, path)
        journals.append(journal)
    tree = TraceTree.from_journals(journals)
    if not tree.spans:
        print("error: journal carries no span events (was observability "
              "enabled?)", file=sys.stderr)
        return 2

    def fmt(value) -> str:
        return "n/a" if value is None else f"{value:.6f}"

    if args.trace_command == "tree":
        if args.json:
            payload = {
                "spans": len(tree.spans),
                "sites": tree.sites(),
                "dangling": [s.to_dict() | {"children": None}
                             for s in tree.dangling()],
                "orphan_closes": tree.orphan_closes,
                "roots": [root.to_dict() for root in tree.roots],
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(tree.render(max_depth=args.depth), end="")
            dangling = tree.dangling()
            if dangling:
                print(f"\n{len(dangling)} dangling span(s) "
                      f"(opened, never closed)")
        return 0
    if args.trace_command == "critical-path":
        path_spans = tree.critical_path()
        summary = critical_path_summary(path_spans)
        table = Table(["depth", "span", "name", "site", "opened_at",
                       "closed_at", "sim_duration"],
                      title="Critical path (sim time)")
        for depth, span in enumerate(path_spans):
            table.add_row([depth, span.span_id, span.name, span.site,
                           fmt(span.opened_at), fmt(span.closed_at),
                           fmt(span.sim_duration)])
        if args.csv is not None:
            table.to_csv(args.csv)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(table.render())
            print(f"\ncritical path bounds the run at "
                  f"{summary['total_sim']:.3f}s sim time")
            if args.csv is not None:
                print(f"wrote critical path to {args.csv}")
        return 0
    if args.trace_command == "export":
        text = (chrome_trace_json(tree) if args.format == "chrome"
                else to_folded_stacks(tree))
        if args.out is not None:
            args.out.write_text(text)
            print(f"wrote {args.format} trace to {args.out}")
        else:
            print(text, end="")
        return 0
    # stats
    rows = tree.stage_stats()
    table = Table(["stage", "count", "dangling", "sim_total", "sim_self",
                   "wall_total"], title="Per-stage span aggregates")
    for row in rows:
        table.add_row([row["stage"], row["count"], row["dangling"],
                       fmt(row["sim_total"]), fmt(row["sim_self"]),
                       fmt(row["wall_total"]) if row["wall_known"]
                       else "n/a"])
    if args.csv is not None:
        table.to_csv(args.csv)
    if args.prom:
        print(to_prometheus(tree.to_registry()), end="")
    elif args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(table.render())
        if args.csv is not None:
            print(f"\nwrote stage table to {args.csv}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint import (apply_overrides, events_md_stale,
                                     load_config, render_events_md,
                                     render_json, render_rule_list,
                                     render_sarif, render_text, run_lint)

    if args.list_rules:
        print(render_rule_list())
        return 0
    missing = [p for p in args.paths if not p.exists()]
    if missing:
        print(f"error: no such path: {missing[0]}", file=sys.stderr)
        return 2
    config = load_config(explicit=args.config)
    apply_overrides(config, select=tuple(args.select),
                    ignore=tuple(args.ignore))
    if args.no_cache:
        config.use_cache = False
    unknown = [r for r in config.select + config.ignore
               if r.upper() not in _known_rules()]
    if unknown:
        print(f"error: unknown rule id: {unknown[0]} "
              f"(see `repro lint --list-rules`)", file=sys.stderr)
        return 2
    result = run_lint(paths=args.paths or None, config=config)
    observe_only = _observe_only_kinds(config)
    if args.graph is not None and result.index is not None:
        args.graph.parent.mkdir(parents=True, exist_ok=True)
        args.graph.write_text(
            json.dumps(result.index.to_graph_dict(), indent=2,
                       sort_keys=True) + "\n", encoding="utf-8")
    if args.events_md is not None and result.index is not None:
        args.events_md.parent.mkdir(parents=True, exist_ok=True)
        args.events_md.write_text(
            render_events_md(result.index, observe_only), encoding="utf-8")
        print(f"wrote event registry to {args.events_md}")
    if args.check_events is not None and result.index is not None:
        if events_md_stale(result.index, observe_only, args.check_events):
            print(f"error: {args.check_events} is stale vs. the source "
                  f"tree; regenerate with `repro lint --events-md "
                  f"{args.check_events}`", file=sys.stderr)
            return 1
    if args.sarif:
        print(json.dumps(render_sarif(result), indent=2, sort_keys=True))
    elif args.json:
        print(render_json(result))
    elif args.events_md is None:
        print(render_text(result, show_suppressed=args.show_suppressed))
    if result.errors:
        return 2
    return 0 if not result.violations else 1


def _observe_only_kinds(config) -> List[str]:
    declared = config.options_for("RL009").get("observe_only", [])
    if isinstance(declared, str):
        declared = [declared]
    return [str(kind) for kind in declared]


def _known_rules() -> List[str]:
    from repro.devtools.lint import PROJECT_RULES, RULES
    return list(RULES) + list(PROJECT_RULES)


if __name__ == "__main__":  # pragma: no cover
    try:
        code = main()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not an error.
        # Detach stdout so interpreter shutdown doesn't re-raise EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
