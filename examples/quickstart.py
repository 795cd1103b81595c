#!/usr/bin/env python3
"""Quickstart: profile a small federated testbed end to end.

Builds a four-site FABRIC-like federation, lets researcher workloads
run on it, starts Patchwork in all-experiment mode, and pushes the
captures through the full analysis pipeline -- printing the same kinds
of tables the paper's Section 8.2 reports.

Run:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

from repro import quickstart_federation
from repro.analysis import AnalysisPipeline
from repro.core import Coordinator, PatchworkConfig, SamplingPlan


def main() -> None:
    # 1. A testbed with live traffic.  Each site gets a workload
    #    personality (bulk iperf, protocol-diverse apps, chatty, quiet).
    federation, api, poller, orchestrator = quickstart_federation(
        site_names=["STAR", "MICH", "UTAH", "TACC"], traffic_scale=0.05)
    for window in range(3):
        orchestrator.generate_window(window * 100.0, 100.0)

    # 2. Configure Patchwork: 5-second samples every 30 s, two cycles of
    #    port cycling, 200-byte truncation, tcpdump capture (defaults).
    out = Path(tempfile.mkdtemp(prefix="patchwork-quickstart-"))
    config = PatchworkConfig(
        output_dir=out,
        plan=SamplingPlan(sample_duration=5, sample_interval=30,
                          samples_per_run=2, runs_per_cycle=1, cycles=2),
        desired_instances=2,
    )

    # 3. Run one profiling occasion: the coordinator starts an
    #    independent instance at every site, gathers pcaps + logs.
    coordinator = Coordinator(api, config, poller=poller)
    bundle = coordinator.run_profile()
    print("=== Patchwork occasion complete ===")
    for record in bundle.run_records:
        print(f"  {record.site}: {record.outcome.value}, "
              f"{record.samples_taken} samples, {record.pcap_files} pcaps")
    print(f"  captures under {out}")

    # 4. Offline analysis: Digest -> acap -> Index -> Analyze -> Process.
    report = AnalysisPipeline().run(bundle.pcap_paths)
    print(f"\n=== Profile of {report.total_frames} captured frames ===\n")
    print(report.tables["frame_sizes_overall"].render())
    print()
    print(report.tables["header_occurrence"].render(max_rows=12))
    print()
    print(report.tables["header_diversity"].render())
    print(f"\nIPv6 share: {report.ipv6_fraction:.2%}   "
          f"jumbo share: {report.jumbo_fraction:.2%}")
    csvs = report.write_csvs(out / "csv")
    print(f"\nwrote {len(csvs)} CSV files to {out / 'csv'}")


if __name__ == "__main__":
    main()
