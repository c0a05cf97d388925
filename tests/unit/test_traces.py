"""Unit tests for distributed tracing.

Covers the wire context (`TraceContext` encode/decode/extract), the
recorder's tracing semantics (root minting, inheritance, `start_trace`,
`start_remote`), propagation (fill-only-if-absent vs explicit overwrite,
batched-push per-message fan-out), causal assembly (`repro.telemetry.
traces`) with its edge cases — orphaned spans, duplicate span ids from
retransmissions, skewed per-node clock offsets — the critical-path tiling
invariant, the report CLI's trace options, its multi-file merge and its one
loading policy (directory clock offsets, truncated and malformed lines),
and the fleet report built from a synthetic state directory.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.net import Batcher, UpcallRegistry, install_batch_unwrapper
from repro.sim.inproc import InprocTransport
from repro.sim.messages import Message
from repro.telemetry import (
    TRACE_KEY,
    SpanRecorder,
    TraceContext,
)
from repro.fleet.cli import main as fleet_main
from repro.telemetry.report import check_traces, load, trace_set
from repro.telemetry.report import main as report_main
from repro.telemetry.traces import TraceSpan, assemble, offset_for


@pytest.fixture(autouse=True)
def _global_telemetry_off():
    telemetry.disable()
    yield
    telemetry.disable()


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def tracing_recorder(site: str = "0") -> tuple[SpanRecorder, FakeClock]:
    clock = FakeClock()
    return SpanRecorder(clock=clock, site=site, tracing=True), clock


# --------------------------------------------------------------------- #
# TraceContext wire format
# --------------------------------------------------------------------- #


class TestTraceContext:
    def test_wire_roundtrip(self):
        ctx = TraceContext(trace_id="7:42", parent="7:43", hop=2)
        assert ctx.to_wire() == ["7:42", "7:43", 2]
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    @pytest.mark.parametrize(
        "wire",
        [
            None,
            "7:42",
            ["7:42", "7:43"],  # too short
            ["7:42", "7:43", 2, 9],  # too long
            [1, "7:43", 2],  # trace_id wrong type
            ["7:42", 2, 2],  # parent wrong type
            ["7:42", "7:43", "2"],  # hop wrong type
            {"trace_id": "7:42"},
        ],
    )
    def test_malformed_wire_is_none(self, wire):
        assert TraceContext.from_wire(wire) is None

    def test_extract_from_message_payload_and_passthrough(self):
        ctx = TraceContext(trace_id="1:1", parent="1:1", hop=0)
        msg = Message(
            kind="x", source=1, destination=2, payload={TRACE_KEY: ctx.to_wire()}
        )
        assert TraceContext.extract(msg) == ctx
        assert TraceContext.extract({TRACE_KEY: ctx.to_wire()}) == ctx
        assert TraceContext.extract(ctx) is ctx
        assert TraceContext.extract(None) is None
        assert TraceContext.extract({"no": "context"}) is None
        assert TraceContext.extract(object()) is None


# --------------------------------------------------------------------- #
# Recorder tracing semantics
# --------------------------------------------------------------------- #


class TestRecorderTracing:
    def test_root_span_mints_qualified_trace_id(self):
        rec, _clock = tracing_recorder(site="9")
        span = rec.start("op")
        assert span.trace_id == f"9:{span.span_id}"
        assert span.sid == f"9:{span.span_id}"
        assert span.hop == 0
        span.finish()

    def test_child_inherits_trace_id_and_hop(self):
        rec, _clock = tracing_recorder()
        with rec.start("outer") as outer:
            child = rec.start("inner")
            assert child.trace_id == outer.trace_id
            assert child.hop == outer.hop
            assert child.qualified_parent() == outer.sid
            child.finish()

    def test_start_trace_ignores_ambient_span(self):
        rec, _clock = tracing_recorder()
        with rec.start("harness") as ambient:
            root = rec.start_trace("dat.push")
            assert root.parent_id is None
            assert root.qualified_parent() is None
            assert root.trace_id == root.sid
            assert root.trace_id != ambient.trace_id
            # It still joins the stack: its own children nest under it.
            child = rec.start("child")
            assert child.trace_id == root.trace_id
            child.finish()
            root.finish()

    def test_start_remote_joins_remote_trace_not_local_stack(self):
        rec, _clock = tracing_recorder(site="2")
        ctx = TraceContext(trace_id="1:5", parent="1:5", hop=0)
        with rec.start("local.noise"):
            span = rec.start_remote(ctx, "dat.push_recv")
            assert span.trace_id == "1:5"
            assert span.qualified_parent() == "1:5"
            assert span.hop == 1
            span.finish()

    def test_start_remote_without_context_is_plain_start(self):
        rec, _clock = tracing_recorder()
        span = rec.start_remote(None, "op")
        assert span.trace_id == span.sid and span.hop == 0
        span.finish()

    def test_no_tracing_means_no_trace_fields(self):
        rec = SpanRecorder(clock=FakeClock(), tracing=False)
        span = rec.start_trace("dat.push")
        assert span.trace_id is None
        assert span.trace_context() is None
        payload: dict[str, object] = {}
        span.propagate(payload)
        assert TRACE_KEY not in payload
        span.finish()


# --------------------------------------------------------------------- #
# Propagation
# --------------------------------------------------------------------- #


class TestPropagation:
    def test_propagate_overwrites_copied_context(self):
        rec, _clock = tracing_recorder()
        hop = rec.start("forward.hop")
        stale = ["0:999", "0:999", 7]
        msg = Message(
            kind="fwd", source=1, destination=2, payload={TRACE_KEY: stale, "k": 1}
        )
        hop.propagate(msg)
        assert msg.payload[TRACE_KEY] == [hop.trace_id, hop.sid, hop.hop]
        hop.finish()

    def test_propagate_current_fills_only_if_absent(self):
        with telemetry.enabled(tracing=True):
            with telemetry.span("op") as sp:
                fresh = Message(kind="x", source=1, destination=2, payload={})
                stamped = Message(
                    kind="x",
                    source=1,
                    destination=2,
                    payload={TRACE_KEY: ["0:999", "0:999", 3]},
                )
                telemetry.propagate_current(fresh)
                telemetry.propagate_current(stamped)
                assert fresh.payload[TRACE_KEY] == [sp.trace_id, sp.sid, sp.hop]
                assert stamped.payload[TRACE_KEY] == ["0:999", "0:999", 3]

    def test_batched_pushes_keep_individual_contexts(self):
        """Satellite edge case: batching must not collapse contexts.

        Two pushes enqueued under two different spans ride one net_batch
        envelope; the unwrapped messages must each carry their *own*
        originating context, captured at enqueue time.
        """
        transport = InprocTransport()
        delivered: list[Message] = []
        upcalls = UpcallRegistry()
        upcalls["agg_push"] = lambda m: delivered.append(m)
        install_batch_unwrapper(upcalls, lambda m: upcalls.dispatch(m))
        transport.register(5, upcalls.dispatch)
        batcher = Batcher(transport, window=1.0)

        with telemetry.enabled(tracing=True) as tel:
            contexts = []
            for n in range(2):
                with tel.spans.start_trace(f"push.{n}") as sp:
                    msg = Message(
                        kind="agg_push", source=1, destination=5, payload={"n": n}
                    )
                    batcher.enqueue(msg)
                    contexts.append([sp.trace_id, sp.sid, sp.hop])
            assert delivered == []  # still queued in the window
            transport.advance(1.0)

        assert [m.payload["n"] for m in delivered] == [0, 1]
        got = [m.payload[TRACE_KEY] for m in delivered]
        assert got == contexts
        assert got[0] != got[1]


# --------------------------------------------------------------------- #
# Assembly
# --------------------------------------------------------------------- #


def tspan(
    sid,
    name="op",
    start=0.0,
    end=1.0,
    parent=None,
    trace_id=None,
    hop=0,
    node=None,
):
    return TraceSpan(
        sid=sid,
        name=name,
        start=start,
        end=end,
        trace_parent=parent,
        trace_id=trace_id or sid.split(":")[0] + ":root",
        hop=hop,
        node=node,
    )


class TestAssemble:
    def test_parent_child_linking_and_depth(self):
        root = tspan("0:1", name="dat.push", start=0.0, end=3.0)
        child = tspan("1:1", name="dat.push_recv", start=1.0, end=2.0, parent="0:1", hop=1)
        result = assemble([root, child])
        assert len(result.traces) == 1
        trace = result.traces[0]
        assert not trace.orphaned
        assert trace.depth() == 1
        assert trace.hops() == 1
        assert [s.sid for s in trace.spans] == ["0:1", "1:1"]

    def test_orphaned_span_becomes_flagged_root(self):
        lonely = tspan("2:9", name="dat.push_recv", parent="1:404", hop=3)
        result = assemble([lonely])
        assert len(result.traces) == 1
        assert result.traces[0].orphaned
        assert result.orphans() == result.traces
        assert result.rooted("dat.push_recv") == []  # orphans never count as rooted

    def test_duplicate_sids_first_wins_and_counted(self):
        first = tspan("0:1", name="original")
        retransmit = tspan("0:1", name="retransmitted")
        result = assemble([first, retransmit, tspan("0:2", name="other")])
        assert result.duplicates == 1
        assert result.total_spans == 2
        names = {t.root.name for t in result.traces}
        assert "original" in names and "retransmitted" not in names

    def test_children_sorted_by_start(self):
        root = tspan("0:1", start=0.0, end=10.0)
        late = tspan("0:3", start=5.0, end=6.0, parent="0:1")
        early = tspan("0:2", start=1.0, end=2.0, parent="0:1")
        result = assemble([root, late, early])
        assert [c.sid for c in result.traces[0].root.children] == ["0:2", "0:3"]

    def test_mutual_parent_links_do_not_hang(self):
        a = tspan("0:1", parent="0:2")
        b = tspan("0:2", parent="0:1")
        result = assemble([a, b])  # corrupt links: no root, no infinite loop
        assert result.total_spans == 2
        (trace,) = result.traces
        assert trace.orphaned and trace.root.sid == "0:1"
        assert [s.sid for s in trace.spans] == ["0:1", "0:2"]

    def test_parent_cycles_become_orphaned_traces(self):
        # Regression: spans on a parent cycle were reachable from no root,
        # so they vanished from the traces while total_spans counted them.
        a = tspan("0:1", start=2.0, end=3.0, parent="0:2")
        b = tspan("0:2", start=1.0, end=2.0, parent="0:1")
        c = tspan("0:3", start=0.5, end=1.0, parent="0:3")
        d = tspan("0:4", start=3.0, end=4.0, parent="0:1")  # hangs off a-b
        result = assemble([a, b, c, d])
        assert sum(len(t.spans) for t in result.traces) == result.total_spans == 4
        assert [(t.root.sid, t.orphaned) for t in result.traces] == [
            ("0:3", True),
            ("0:2", True),
        ]
        assert [s.sid for s in result.traces[1].spans] == ["0:2", "0:1", "0:4"]

    def test_nodes_first_seen_order(self):
        root = tspan("0:1", start=0.0, end=3.0, node=7)
        child = tspan("1:1", start=1.0, end=2.0, parent="0:1", node=3)
        trace = assemble([root, child]).traces[0]
        assert trace.nodes() == [7, 3]


class TestCriticalPath:
    def test_segments_tile_root_interval_exactly(self):
        root = tspan("0:1", start=0.0, end=10.0, node="a")
        c1 = tspan("0:2", start=1.0, end=4.0, parent="0:1", node="b")
        c2 = tspan("0:3", start=3.0, end=9.0, parent="0:1", node="c")
        trace = assemble([root, c1, c2]).traces[0]
        segments = trace.critical_path()
        # Contiguous tiling of [0, 10].
        assert segments[0][1] == pytest.approx(0.0)
        assert segments[-1][2] == pytest.approx(10.0)
        for (_s1, _a, b), (_s2, c, _d) in zip(segments, segments[1:]):
            assert b == pytest.approx(c)
        assert trace.critical_path_latency() == pytest.approx(trace.duration)
        # The latest-ending child owns the stretch before the root's tail.
        owners = [seg[0].sid for seg in segments]
        assert "0:3" in owners
        attribution = trace.node_attribution()
        assert sum(attribution.values()) == pytest.approx(10.0)
        assert attribution["c"] == pytest.approx(6.0)  # [3, 9] on the path

    def test_child_overhang_is_clamped_into_parent(self):
        root = tspan("0:1", start=0.0, end=5.0)
        skewed = tspan("1:1", start=4.0, end=8.0, parent="0:1")  # ends after root
        trace = assemble([root, skewed]).traces[0]
        assert trace.critical_path_latency() == pytest.approx(5.0)
        assert all(t0 >= 0.0 and t1 <= 5.0 for _s, t0, t1 in trace.critical_path())

    def test_open_root_has_zero_critical_path(self):
        root = tspan("0:1", start=2.0, end=None)
        trace = assemble([root]).traces[0]
        assert trace.duration == 0.0
        assert trace.critical_path_latency() == 0.0


# --------------------------------------------------------------------- #
# Clock offsets and multi-file assembly (fleet merge)
# --------------------------------------------------------------------- #


def write_export(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def span_line(sid, name, start, end, parent=None, hop=0, node=None):
    record = {
        "type": "span",
        "name": name,
        "span_id": int(sid.split(":")[1]),
        "parent_id": None,
        "start": start,
        "end": end,
        "attrs": {},
        "error": None,
        "trace_id": sid if parent is None else parent,
        "sid": sid,
        "trace_parent": parent,
        "hop": hop,
    }
    if node is not None:
        record["node"] = node
    return record


class TestOffsets:
    def test_offset_for_matches_stem_then_ident_token(self):
        offsets = {"spans-7": 1.5, "9": -2.0}
        assert offset_for("x/spans-7.jsonl", offsets) == 1.5
        assert offset_for("x/spans-9.jsonl", offsets) == -2.0
        assert offset_for("x/spans-8.jsonl", offsets) == 0.0
        assert offset_for("x/spans-8.jsonl", None) == 0.0

    def test_skewed_fleet_files_align_under_offsets(self, tmp_path):
        """Satellite edge case: per-node clocks disagree wildly.

        Node 1's push happens at t=5 on the shared timeline; node 2's
        clock is 95 s behind, so its recv span is stamped ~100. Without
        alignment the child would land far outside the parent; with the
        supervisor's offsets the tree reassembles on one timeline.
        """
        parent_file = tmp_path / "spans-1.jsonl"
        child_file = tmp_path / "spans-2.jsonl"
        write_export(
            parent_file,
            [span_line("1:1", "dat.push", 5.0, 6.0, node=1)],
        )
        write_export(
            child_file,
            [span_line("2:1", "dat.push_recv", 100.2, 100.4, parent="1:1", hop=1, node=2)],
        )
        offsets_file = tmp_path / "offsets.json"
        offsets_file.write_text(json.dumps({"1": 0.0, "2": -94.9}))
        result = trace_set(load([parent_file, child_file], offsets_file).events)
        assert len(result.traces) == 1 and not result.traces[0].orphaned
        trace = result.traces[0]
        child = trace.root.children[0]
        assert child.start == pytest.approx(5.3)
        assert trace.root.start <= child.start <= child.end <= trace.root.end
        assert trace.critical_path_latency() == pytest.approx(trace.duration)

    def test_trace_set_skips_untraced_spans(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        write_export(
            path,
            [
                {"type": "metric", "name": "x"},
                # A span exported with tracing off: no sid — skipped.
                {"type": "span", "name": "plain", "start": 0.0, "end": 1.0},
                span_line("0:1", "traced", 0.0, 1.0),
            ],
        )
        traces = trace_set(load([path]).events)
        assert traces.total_spans == 1
        assert [t.root.name for t in traces.traces] == ["traced"]


# --------------------------------------------------------------------- #
# CLIs
# --------------------------------------------------------------------- #


class TestTracesCli:
    """The trace options of ``python -m repro.telemetry.report``."""

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "nope.jsonl")]) == 2
        assert "no such file or directory" in capsys.readouterr().err

    def test_no_traced_spans_exits_2(self, tmp_path, capsys):
        path = tmp_path / "plain.jsonl"
        write_export(path, [{"type": "span", "name": "p", "start": 0.0, "end": 1.0}])
        assert report_main([str(path), "--check-critical-path"]) == 2
        assert "tracing enabled" in capsys.readouterr().err

    def test_summary_and_json(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_export(
            path,
            [
                span_line("0:1", "dat.push", 0.0, 2.0),
                span_line("1:1", "dat.push_recv", 0.5, 1.5, parent="0:1", hop=1),
            ],
        )
        assert report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 traces from 2 spans" in out
        assert report_main([str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["roots"]) == ["dat.push"]
        assert payload["roots"]["dat.push"]["count"] == 1
        assert payload["orphans"] == 0

    def test_require_root_failure_exits_1(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_export(path, [span_line("0:1", "dat.push", 0.0, 2.0)])
        assert report_main([str(path), "--require-root", "chord.lookup"]) == 1
        assert "CHECK FAIL" in capsys.readouterr().out

    def test_min_depth_with_tail_grace(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_export(
            path,
            [
                span_line("0:1", "dat.push", 0.0, 2.0),
                span_line("1:1", "dat.push_recv", 0.5, 1.5, parent="0:1", hop=1),
                # A push at the very end whose recv never made the export:
                span_line("0:9", "dat.push", 9.9, 10.0),
            ],
        )
        argv = [str(path), "--require-root", "dat.push", "--min-depth", "1"]
        assert report_main(argv) == 1  # the tail push is shallow
        capsys.readouterr()
        assert report_main(argv + ["--tail-grace", "0.5"]) == 0
        assert "in tail grace" in capsys.readouterr().out

    def test_check_critical_path_and_tree(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_export(
            path,
            [
                span_line("0:1", "dat.push", 0.0, 2.0, node=4),
                span_line("1:1", "dat.push_recv", 0.5, 1.5, parent="0:1", hop=1, node=9),
            ],
        )
        assert report_main([str(path), "--check-critical-path", "--tree", "1"]) == 0
        out = capsys.readouterr().out
        assert "critical path == root duration" in out
        assert "dat.push_recv [1:1]" in out  # rendered tree

    def test_offsets_flag(self, tmp_path, capsys):
        span_file = tmp_path / "spans-2.jsonl"
        write_export(
            span_file, [span_line("2:1", "dat.push", 100.0, 101.0)]
        )
        offsets_file = tmp_path / "clock-offsets.json"
        offsets_file.write_text(json.dumps({"2": -100.0}))
        assert report_main([str(span_file), "--offsets", str(offsets_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["traces"] == 1
        assert payload["roots"]["dat.push"]["max_critical_path"] == pytest.approx(1.0)
        assert report_main([str(span_file), "--offsets", str(tmp_path / "gone.json")]) == 2
        assert "cannot read offsets" in capsys.readouterr().err


class TestReportMerge:
    def test_multiple_files_merge_into_traces_section(self, tmp_path, capsys):
        a = tmp_path / "spans-1.jsonl"
        b = tmp_path / "spans-2.jsonl"
        write_export(a, [span_line("1:1", "dat.push", 0.0, 2.0, node=1)])
        write_export(
            b, [span_line("2:1", "dat.push_recv", 0.5, 1.5, parent="1:1", hop=1, node=2)]
        )
        assert report_main([str(a), str(b), "--section", "traces"]) == 0
        out = capsys.readouterr().out
        assert "dat.push" in out
        assert "critical-path time by node" in out

    def test_directory_input_expands(self, tmp_path, capsys):
        write_export(
            tmp_path / "spans-1.jsonl", [span_line("1:1", "dat.push", 0.0, 2.0)]
        )
        assert report_main([str(tmp_path), "--section", "traces"]) == 0
        assert "dat.push" in capsys.readouterr().out

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "ghost.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        assert report_main([str(tmp_path)]) == 2
        assert "no telemetry" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Fleet report (synthetic state dir)
# --------------------------------------------------------------------- #


def telemetry_frame(t, sent, pushes):
    return {
        "event": "telemetry",
        "data": {"t": t, "sent": sent, "received": sent, "pushes": {"11": pushes}},
    }


@pytest.fixture()
def state_dir(tmp_path):
    write_export(
        tmp_path / "telemetry-1.jsonl",
        [telemetry_frame(1.0, 4, 2), telemetry_frame(2.0, 9, 5)],
    )
    write_export(tmp_path / "telemetry-2.jsonl", [telemetry_frame(1.5, 3, 1)])
    write_export(
        tmp_path / "spans-1.jsonl",
        [span_line("1:1", "dat.push", 5.0, 6.0, node=1)],
    )
    write_export(
        tmp_path / "spans-2.jsonl",
        [span_line("2:1", "dat.push_recv", 15.2, 15.6, parent="1:1", hop=1, node=2)],
    )
    (tmp_path / "clock-offsets.json").write_text(json.dumps({"1": 0.0, "2": -10.0}))
    return tmp_path


def fleet_report(state_dir, *flags):
    return fleet_main(["--state-dir", str(state_dir), "report", *flags])


class TestFleetReport:
    """``python -m repro.fleet report``: agents table plus the shared roll-up."""

    def test_build_merges_rollups_and_traces(self, state_dir, capsys):
        assert fleet_report(state_dir, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_agents"] == 2
        assert report["agents"]["1"]["samples"] == 2
        assert report["agents"]["1"]["pushes"] == 5  # last sample wins
        assert report["total_pushes"] == 6
        traces = report["traces"]
        assert traces["spans"] == 2 and traces["orphans"] == 0
        assert traces["offsets"] == {"1": 0.0, "2": -10.0}
        stats = traces["roots"]["dat.push"]
        assert stats["count"] == 1
        assert stats["cross_node"] == 1  # offset alignment linked node 2's recv
        assert stats["max_hops"] == 1

    def test_check_traces_passes_and_fails(self, state_dir):
        traces = trace_set(load([state_dir]).events)
        fleet_gate = {"min_depth": 0, "cross_node": True, "orphan_minority": True}
        results = check_traces(traces, require_root="dat.push", **fleet_gate)
        assert results and all(passed for passed, _message in results)
        passed, message = check_traces(traces, require_root="chord.lookup", **fleet_gate)[0]
        assert not passed and "no traces rooted" in message

    def test_no_span_files_reports_none(self, state_dir, capsys):
        for path in state_dir.glob("spans-*.jsonl"):
            path.unlink()
        assert fleet_report(state_dir, "--json") == 0
        assert json.loads(capsys.readouterr().out)["traces"] is None
        assert fleet_report(state_dir, "--require-traces", "dat.push") == 1
        assert f"CHECK FAIL: no span exports in {state_dir}" in capsys.readouterr().out

    def test_cli_json_and_require_traces(self, state_dir, capsys):
        assert fleet_report(state_dir, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_agents"] == 2
        assert fleet_report(state_dir, "--require-traces", "dat.push") == 0
        assert "check ok" in capsys.readouterr().out
        assert fleet_report(state_dir, "--require-traces", "nope") == 1
        assert "CHECK FAIL" in capsys.readouterr().out

    def test_cli_missing_dir_exits_2(self, tmp_path, capsys):
        assert fleet_report(tmp_path / "ghost") == 2
        assert "no such fleet state directory" in capsys.readouterr().err


class TestOneLoader:
    """``report`` and ``fleet report`` read a state dir the same way."""

    def test_state_dir_offsets_apply_without_flag(self, state_dir, capsys):
        # Regression: the report ignored the directory's clock-offsets.json
        # and charged node 2's 0.4 s on the critical path to node 1.
        assert report_main([str(state_dir), "--section", "traces"]) == 0
        out = capsys.readouterr().out
        assert "60.0%" in out and "40.0%" in out
        assert fleet_report(state_dir) == 0
        out = capsys.readouterr().out
        assert "60.0%" in out and "40.0%" in out

    def test_truncated_final_line_is_skipped_and_named(self, state_dir, capsys):
        with open(state_dir / "spans-2.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "name": "dat.pu')  # a killed writer
        note = "spans-2.jsonl: line 2: truncated final line skipped"
        assert report_main([str(state_dir)]) == 0
        assert note in capsys.readouterr().err
        assert fleet_report(state_dir) == 0
        assert note in capsys.readouterr().err

    def test_malformed_middle_line_exits_2(self, state_dir, capsys):
        path = state_dir / "spans-2.jsonl"
        record = path.read_text()
        path.write_text(record + "not json\n" + record)
        assert report_main([str(state_dir)]) == 2
        assert "spans-2.jsonl: line 2: not a JSON object" in capsys.readouterr().err
        assert fleet_report(state_dir) == 2
        assert "spans-2.jsonl: line 2: not a JSON object" in capsys.readouterr().err
