"""Tests for trace reconstruction (repro.obs.trace): span trees,
critical path, shard-merge identity, damage tolerance, and the
Perfetto / folded-stacks exporters."""

import json
import pickle
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core.campaign import CampaignRunner
from repro.core.checkpoint import SEGMENT_DIR
from repro.obs import RunJournal
from repro.obs.trace import (
    TraceTree,
    chrome_trace_json,
    critical_path_summary,
    to_chrome_trace,
    to_folded_stacks,
)
from repro.obs.tracing import TraceContext, Tracer, qualify_span_id
from repro.testbed.chaos import default_manifest
from repro.util.atomio import FileIO, SimulatedCrash


def span_open(journal, span, name, t=None, parent=None, **attrs):
    journal.emit("span-open", t=t, span=span, parent=parent, name=name,
                 attrs=attrs)


def span_close(journal, span, name, t=None, **attrs):
    journal.emit("span-close", t=t, span=span, name=name, attrs=attrs)


def nested_journal():
    """root(0..10) > a(0..4), b(4..10) > g(5..9): the critical path is
    root -> b -> g."""
    journal = RunJournal()
    span_open(journal, 0, "root", t=0.0)
    span_open(journal, 1, "a", t=0.0, parent=0)
    span_close(journal, 1, "a", t=4.0)
    span_open(journal, 2, "b", t=4.0, parent=0)
    span_open(journal, 3, "g", t=5.0, parent=2)
    span_close(journal, 3, "g", t=9.0)
    span_close(journal, 2, "b", t=10.0)
    span_close(journal, 0, "root", t=10.0)
    return journal


def shard_segment(site, base_t):
    """A shard's journal as its un-namespaced tracer would write it:
    bare span ids counted from 0 -- the collision surface merge() must
    qualify away."""
    journal = RunJournal()
    span_open(journal, 0, "shard.run", t=base_t, site=site)
    span_open(journal, 1, "capture", t=base_t + 1.0, parent=0)
    span_close(journal, 1, "capture", t=base_t + 2.0)
    span_close(journal, 0, "shard.run", t=base_t + 3.0)
    return journal


class TestReconstruction:
    def test_tree_shape_and_durations(self):
        tree = TraceTree.from_journal(nested_journal())
        assert len(tree.roots) == 1
        root = tree.roots[0]
        assert root.name == "root"
        assert [c.name for c in root.children] == ["a", "b"]
        assert root.sim_duration == 10.0
        # Exclusive time: 10 inclusive minus children's 4 + 6.
        assert root.sim_self == 0.0
        b = root.children[1]
        assert b.sim_duration == 6.0
        assert b.sim_self == 2.0
        assert not tree.dangling()
        assert tree.orphan_closes == 0

    def test_close_attrs_merge_into_span(self):
        journal = RunJournal()
        span_open(journal, 0, "digest", t=0.0, pcaps=3)
        span_close(journal, 0, "digest", t=1.0, cache_hits=2)
        span = TraceTree.from_journal(journal).roots[0]
        assert span.attrs == {"pcaps": 3, "cache_hits": 2}

    def test_site_resolution_order(self):
        journal = RunJournal()
        # Explicit attr beats the qualified-id prefix; children inherit.
        span_open(journal, "STAR/0", "run", t=0.0, site="UTAH")
        span_open(journal, "STAR/1", "inner", t=0.0, parent="STAR/0")
        span_open(journal, 2, "bare", t=0.0, parent="STAR/1")
        tree = TraceTree.from_journal(journal)
        run, = tree.roots
        assert run.site == "UTAH"
        inner, = run.children
        assert inner.site == "STAR"  # from the "STAR/1" prefix
        assert inner.children[0].site == "STAR"  # inherited
        journal2 = RunJournal()
        span_open(journal2, 0, "orphan", t=0.0)
        assert TraceTree.from_journal(journal2).roots[0].site == "main"

    def test_wall_durations_surface_when_journaled(self):
        journal = RunJournal(deterministic=False)
        span_open(journal, 0, "stage", t=0.0)
        journal.emit("span-close", t=1.0, span=0, name="stage", attrs={},
                     volatile={"wall_s": 0.25})
        span = TraceTree.from_journal(journal).roots[0]
        assert span.wall_s == 0.25
        assert span.wall_self == 0.25


class TestMergedShardSegments:
    """Regression: merged shard segments must never cross-link their
    trees through colliding process-local span ids."""

    def test_merge_yields_disjoint_site_trees(self):
        merged = RunJournal.merge([
            ("MICH", shard_segment("MICH", 0.0)),
            ("STAR", shard_segment("STAR", 0.0)),
        ])
        tree = TraceTree.from_journal(merged)
        # Two independent roots -- without id qualification both
        # segments' span 0 would collapse into one generation chain.
        assert len(tree.roots) == 2
        assert sorted(r.span_id for r in tree.roots) == \
            ["MICH/0", "STAR/0"]
        for root in tree.roots:
            site = str(root.span_id).split("/")[0]
            assert [c.span_id for c in root.children] == [f"{site}/1"]
        assert tree.sites() == ["MICH", "STAR"]
        assert not tree.dangling()

    def test_qualification_is_idempotent(self):
        once = RunJournal.merge([("MICH", shard_segment("MICH", 0.0))])
        twice = RunJournal.merge([("MICH", once)])
        assert twice.to_jsonl() == once.to_jsonl()

    def test_merged_segments_under_one_campaign_root(self):
        # The campaign wrapper: shard tracers carry a TraceContext whose
        # root is the occasion span; the parent emits that root around
        # the merged events.  The result must read as ONE tree.
        root_id = "campaign/occ0"

        def shard(site):
            journal = RunJournal()
            tracer = Tracer(journal, None,
                            context=TraceContext(site=site, root=root_id))
            with tracer.span("shard.run", site=site):
                tracer.start_span("capture").end()
            return journal

        merged = RunJournal.merge(
            [("MICH", shard("MICH")), ("STAR", shard("STAR"))], start_seq=0)
        wrapped = RunJournal()
        span_open(wrapped, root_id, "campaign.occasion", t=0.0)
        wrapped.events.extend(merged.events)
        wrapped.reseq(0)
        span_close(wrapped, root_id, "campaign.occasion", t=0.0)
        tree = TraceTree.from_journal(wrapped)
        assert len(tree.roots) == 1
        root = tree.roots[0]
        assert root.name == "campaign.occasion"
        assert sorted(c.span_id for c in root.children) == \
            ["MICH/0", "STAR/0"]
        assert not tree.dangling()


class TestGenerations:
    def test_rotated_segments_reuse_ids_without_merging(self):
        # Each campaign occasion segment restarts the tracer's counter,
        # so the concatenated stream opens span 0 twice.
        seg1, seg2 = RunJournal(), RunJournal()
        span_open(seg1, 0, "occasion", t=0.0)
        span_close(seg1, 0, "occasion", t=5.0)
        span_open(seg2, 0, "occasion", t=10.0)
        span_close(seg2, 0, "occasion", t=15.0)
        tree = TraceTree.from_journals([seg1, seg2])
        assert len(tree.roots) == 2
        assert [(r.opened_at, r.closed_at) for r in tree.roots] == \
            [(0.0, 5.0), (10.0, 15.0)]
        assert not tree.dangling()

    def test_close_matches_most_recent_open_instance(self):
        journal = RunJournal()
        span_open(journal, 0, "occasion", t=0.0)   # crashed, never closed
        span_open(journal, 0, "occasion", t=10.0)  # retry after resume
        span_close(journal, 0, "occasion", t=12.0)
        tree = TraceTree.from_journal(journal)
        first, second = tree.roots
        assert first.dangling
        assert second.closed and second.sim_duration == 2.0
        assert tree.dangling() == [first]


class TestDamageTolerance:
    def test_torn_tail_leaves_dangling_span(self, tmp_path):
        journal = RunJournal()
        span_open(journal, 0, "occasion", t=0.0)
        span_open(journal, 1, "capture", t=1.0, parent=0)
        span_close(journal, 1, "capture", t=2.0)
        span_close(journal, 0, "occasion", t=3.0)
        path = journal.write(tmp_path / "journal.jsonl")
        lines = path.read_text().splitlines(keepends=True)
        # Kill the process mid-write of the capture close: its line
        # survives only partially, and the occasion close never lands.
        path.write_text("".join(lines[:2]) + lines[2][:15])
        damaged = RunJournal.read(path)
        assert damaged.torn_tail is not None
        tree = TraceTree.from_journal(damaged)
        assert [s.name for s in tree.dangling()] == ["occasion", "capture"]
        assert tree.orphan_closes == 0

    def test_orphan_close_counted_not_fatal(self):
        journal = RunJournal()
        span_close(journal, 7, "ghost", t=1.0)
        tree = TraceTree.from_journal(journal)
        assert tree.orphan_closes == 1
        assert not tree.spans

    def test_unknown_parent_gets_synthetic_root(self):
        # A shard segment inspected standalone: its spans parent under
        # the campaign root that lives in another journal.
        journal = RunJournal()
        span_open(journal, "STAR/0", "shard.run", t=0.0,
                  parent="campaign/occ0")
        span_close(journal, "STAR/0", "shard.run", t=1.0)
        tree = TraceTree.from_journal(journal)
        root, = tree.roots
        assert root.synthetic
        assert root.span_id == "campaign/occ0"
        assert [c.name for c in root.children] == ["shard.run"]
        # Synthetic placeholders are bookkeeping, not evidence of a
        # crash, and never appear on reconstructed paths.
        assert not tree.dangling()
        assert [s.name for s in tree.critical_path()] == ["shard.run"]
        assert [s.name for s in root.children[0].path()] == ["shard.run"]


class TestCriticalPath:
    def test_descends_into_latest_ending_child(self):
        tree = TraceTree.from_journal(nested_journal())
        assert [s.name for s in tree.critical_path()] == \
            ["root", "b", "g"]

    def test_summary_shares(self):
        tree = TraceTree.from_journal(nested_journal())
        summary = critical_path_summary(tree.critical_path())
        assert summary["total_sim"] == 10.0
        # root contributes its exclusive 0s, b its exclusive 2s, and
        # the leaf g its inclusive 4s.
        assert summary["stages"] == {"root": 0.0, "b": 0.2, "g": 0.4}
        assert [hop["name"] for hop in summary["path"]] == \
            ["root", "b", "g"]

    def test_empty_tree(self):
        tree = TraceTree.from_journal(RunJournal())
        assert tree.critical_path() == []
        assert critical_path_summary([]) == {"total_sim": 0.0, "stages": {}}

    def test_dangling_root_end_time_from_descendants(self):
        journal = RunJournal()
        span_open(journal, 0, "occasion", t=0.0)
        span_open(journal, 1, "capture", t=1.0, parent=0)
        span_close(journal, 1, "capture", t=8.0)
        tree = TraceTree.from_journal(journal)
        assert tree.roots[0].end_time() == 8.0
        assert [s.name for s in tree.critical_path()] == \
            ["occasion", "capture"]


class TestOutOfOrderCloses:
    def test_manual_spans_closed_after_parent_scope(self):
        # Instance spans outlive the lexical scope that opened them and
        # close in reverse-open order -- both legal for manual spans.
        journal = RunJournal()
        tracer = Tracer(journal, None)
        with tracer.span("occasion") as occasion:
            first = tracer.start_span("instance", instance=1)
            second = tracer.start_span("instance", instance=2)
        second.end()
        first.end()
        tree = TraceTree.from_journal(journal)
        root, = tree.roots
        assert root.name == "occasion" and root.closed
        assert [c.attrs["instance"] for c in root.children] == [1, 2]
        assert all(c.closed for c in root.children)
        assert not tree.dangling()

    def test_interleaved_closes_with_explicit_times(self):
        journal = RunJournal()
        span_open(journal, 0, "occasion", t=0.0)
        span_open(journal, 1, "instance", t=1.0, parent=0)
        span_open(journal, 2, "instance", t=2.0, parent=0)
        span_close(journal, 0, "occasion", t=3.0)
        span_close(journal, 2, "instance", t=4.0)
        span_close(journal, 1, "instance", t=5.0)
        tree = TraceTree.from_journal(journal)
        root, = tree.roots
        assert root.sim_duration == 3.0
        assert [c.sim_duration for c in root.children] == [4.0, 2.0]
        # The path follows the child whose subtree ends last.
        assert [s.opened_at for s in tree.critical_path()] == [0.0, 1.0]


class TestTraceContext:
    def test_tracer_qualifies_ids_and_parents_under_root(self):
        journal = RunJournal()
        tracer = Tracer(journal, None,
                        context=TraceContext(site="STAR",
                                             root="campaign/occ3"))
        with tracer.span("shard.run") as outer:
            inner = tracer.start_span("capture")
            inner.end()
        assert outer.span_id == "STAR/0"
        assert outer.parent_id == "campaign/occ3"
        assert inner.span_id == "STAR/1"
        assert inner.parent_id == "STAR/0"

    def test_round_trips(self):
        context = TraceContext(site="MICH", root="campaign/occ0")
        assert TraceContext.from_dict(context.to_dict()) == context
        assert pickle.loads(pickle.dumps(context)) == context
        assert TraceContext.from_dict({"site": "MICH"}).root is None

    def test_qualify_span_id_idempotent(self):
        assert qualify_span_id("STAR", 4) == "STAR/4"
        assert qualify_span_id("STAR", "MICH/4") == "MICH/4"


class TestChromeTrace:
    def make_tree(self):
        merged = RunJournal.merge([
            ("MICH", shard_segment("MICH", 0.0)),
            ("STAR", shard_segment("STAR", 0.0)),
        ])
        return TraceTree.from_journal(merged)

    def test_pid_per_site_with_metadata(self):
        trace = to_chrome_trace(self.make_tree())
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        processes = {e["args"]["name"]: e["pid"] for e in meta
                     if e["name"] == "process_name"}
        assert processes == {"MICH": 1, "STAR": 2}
        assert any(e["name"] == "thread_name" and
                   e["args"]["name"] == "main" for e in meta)

    def test_complete_events_in_microseconds(self):
        trace = to_chrome_trace(self.make_tree())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 4
        run = next(e for e in spans
                   if e["name"] == "shard.run" and e["cat"] == "STAR")
        assert run["ts"] == 0.0
        assert run["dur"] == 3e6
        assert trace["displayTimeUnit"] == "ms"

    def test_tid_per_instance(self):
        journal = RunJournal()
        span_open(journal, 0, "occasion", t=0.0)
        span_open(journal, 1, "instance.run", t=0.0, parent=0, instance=2)
        span_open(journal, 2, "capture", t=0.0, parent=1)
        for span in (2, 1, 0):
            span_close(journal, span, "x", t=1.0)
        trace = to_chrome_trace(TraceTree.from_journal(journal))
        spans = {e["name"]: e for e in trace["traceEvents"]
                 if e["ph"] == "X"}
        assert spans["occasion"]["tid"] == 0
        # The instance span and everything under it share one lane.
        assert spans["instance.run"]["tid"] == spans["capture"]["tid"] == 1
        threads = [e["args"]["name"] for e in trace["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "thread_name"]
        assert "instance 2" in threads

    def test_dangling_span_flagged_not_unmatched(self):
        journal = RunJournal()
        span_open(journal, 0, "occasion", t=1.0)
        trace = to_chrome_trace(TraceTree.from_journal(journal))
        event, = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert event["dur"] == 0.0
        assert event["args"]["dangling"] is True

    def test_serialization_is_canonical(self):
        text = chrome_trace_json(self.make_tree())
        assert text == chrome_trace_json(self.make_tree())
        assert text.endswith("\n")
        assert json.loads(text)["traceEvents"]


class TestFoldedStacks:
    def test_exclusive_microsecond_weights(self):
        text = to_folded_stacks(TraceTree.from_journal(nested_journal()))
        # root's exclusive time is 0 -> dropped; the rest carry their
        # exclusive sim time in integer usec, lines sorted.
        assert text.splitlines() == [
            "root;a 4000000",
            "root;b 2000000",
            "root;b;g 4000000",
        ]

    def test_empty_tree_yields_no_lines(self):
        assert to_folded_stacks(TraceTree.from_journal(RunJournal())) == ""


class TestStageStats:
    def test_aggregates_sorted_by_total(self):
        rows = TraceTree.from_journal(nested_journal()).stage_stats()
        assert [r["stage"] for r in rows] == ["root", "b", "a", "g"]
        by_stage = {r["stage"]: r for r in rows}
        assert by_stage["b"]["sim_total"] == 6.0
        assert by_stage["b"]["sim_self"] == 2.0
        assert by_stage["root"]["count"] == 1

    def test_registry_carries_histograms_and_quantiles(self):
        from repro.obs.export import to_prometheus

        journal = nested_journal()
        span_open(journal, 9, "crashed", t=0.0)
        registry = TraceTree.from_journal(journal).to_registry()
        snapshot = registry.snapshot()
        assert snapshot["trace.stage.b.sim_seconds"]["count"] == 1
        assert snapshot["trace.spans.dangling"]["value"] == 1
        text = to_prometheus(registry)
        assert 'trace_stage_b_sim_seconds{quantile="0.5"}' in text


class TestTraceCli:
    def span_journal(self, tmp_path):
        path = nested_journal().write(tmp_path / "journal.jsonl")
        return path

    def test_parser(self):
        parser = build_parser()
        args = parser.parse_args(["trace", "critical-path", "j.jsonl",
                                  "--json"])
        assert args.command == "trace"
        assert args.trace_command == "critical-path"
        assert args.json

    def test_missing_journal_exits_two(self, capsys):
        assert main(["trace", "tree", "/nonexistent/journal.jsonl"]) == 2
        assert "no such journal" in capsys.readouterr().err

    def test_spanless_journal_exits_two(self, tmp_path, capsys):
        journal = RunJournal()
        journal.emit("log", t=1.0, message="hello")
        path = journal.write(tmp_path / "bare.jsonl")
        assert main(["trace", "tree", str(path)]) == 2
        assert "no span events" in capsys.readouterr().err

    def test_tree_renders_forest(self, tmp_path, capsys):
        assert main(["trace", "tree",
                     str(self.span_journal(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "root" in out and "  b" in out and "    g" in out

    def test_tree_json(self, tmp_path, capsys):
        assert main(["trace", "tree", str(self.span_journal(tmp_path)),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] == 4
        assert payload["dangling"] == []
        assert payload["roots"][0]["name"] == "root"

    def test_critical_path_json(self, tmp_path, capsys):
        assert main(["trace", "critical-path",
                     str(self.span_journal(tmp_path)), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_sim"] == 10.0
        assert [hop["name"] for hop in payload["path"]] == \
            ["root", "b", "g"]

    def test_export_chrome_to_file(self, tmp_path, capsys):
        journal_path = self.span_journal(tmp_path)
        out = tmp_path / "trace.json"
        assert main(["trace", "export", str(journal_path),
                     "--format", "chrome", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in payload["traceEvents"])
        # Re-export is byte-identical (the determinism the CI parity
        # check relies on).
        again = tmp_path / "again.json"
        assert main(["trace", "export", str(journal_path),
                     "--format", "chrome", "-o", str(again)]) == 0
        assert out.read_bytes() == again.read_bytes()

    def test_export_folded_to_stdout(self, tmp_path, capsys):
        assert main(["trace", "export", str(self.span_journal(tmp_path)),
                     "--format", "folded"]) == 0
        assert "root;b;g 4000000" in capsys.readouterr().out

    def test_stats_json_and_prom(self, tmp_path, capsys):
        journal_path = self.span_journal(tmp_path)
        assert main(["trace", "stats", str(journal_path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["stage"] == "root"
        assert main(["trace", "stats", str(journal_path), "--prom"]) == 0
        assert "trace_stage_root_sim_seconds_count 1" in \
            capsys.readouterr().out

    def test_run_dir_resolves_to_journal(self, tmp_path, capsys):
        self.span_journal(tmp_path)
        assert main(["trace", "tree", str(tmp_path)]) == 0
        assert "root" in capsys.readouterr().out

    def test_run_dir_falls_back_to_segments(self, tmp_path, capsys):
        # A two-occasion campaign that dies just before it writes the
        # final journal.jsonl leaves only its per-occasion segments.
        class DieBeforeFinalJournal(FileIO):
            def replace(self, src, dst):
                if Path(dst).name == "journal.jsonl":
                    raise SimulatedCrash("before the final journal")
                super().replace(src, dst)

        run_dir = tmp_path / "run"
        with pytest.raises(SimulatedCrash):
            CampaignRunner(run_dir, manifest=default_manifest(),
                           io=DieBeforeFinalJournal()).run()
        assert not (run_dir / "journal.jsonl").exists()
        segments = sorted((run_dir / SEGMENT_DIR).glob("occ*.jsonl"))
        assert [p.name for p in segments] == ["occ0000.jsonl", "occ0001.jsonl"]
        assert main(["trace", "tree", str(run_dir), "--json"]) == 0
        roots = [r["name"] for r in json.loads(capsys.readouterr().out)["roots"]]
        assert roots.count("occasion") == 2
