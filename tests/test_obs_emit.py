"""Tests for the JSONL event emitter and span telemetry."""

import io
import json
import time

import pytest

from repro.errors import ConfigurationError
from repro.obs import JsonlEmitter, MetricsRegistry, SpanRecorder, read_events, worker_utilization
from repro.obs.spans import Span


class TestJsonlEmitter:
    def test_emits_tagged_sequenced_lines(self):
        stream = io.StringIO()
        emitter = JsonlEmitter(stream)
        emitter.emit("increment", {"level": 2})
        emitter.emit("increment", {"level": 3})
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert lines[0] == {"kind": "increment", "seq": 0, "data": {"level": 2}}
        assert lines[1]["seq"] == 1

    def test_path_target_opens_lazily_with_parents(self, tmp_path):
        path = tmp_path / "deep" / "events.jsonl"
        emitter = JsonlEmitter(path)
        assert not path.parent.exists()  # nothing until the first emit
        emitter.emit("x", {})
        emitter.close()
        assert path.exists()

    def test_appends_across_emitters(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlEmitter(path) as first:
            first.emit("a", {})
        with JsonlEmitter(path) as second:
            second.emit("b", {})
        assert [e["kind"] for e in read_events(path)] == ["a", "b"]

    def test_emit_snapshot(self):
        stream = io.StringIO()
        reg = MetricsRegistry()
        reg.counter("ftl.gc_runs").inc(3)
        JsonlEmitter(stream).emit_snapshot(reg)
        event = json.loads(stream.getvalue())
        assert event["kind"] == "metrics"
        assert event["data"]["ftl.gc_runs"]["value"] == 3

    def test_close_leaves_borrowed_streams_open(self):
        stream = io.StringIO()
        emitter = JsonlEmitter(stream)
        emitter.emit("x", {})
        emitter.close()
        assert not stream.closed


class TestReadEvents:
    def test_skips_torn_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps({"kind": "a", "seq": 0, "data": {}})
            + "\n{this line was torn mid-wr"
        )
        events = read_events(path)
        assert len(events) == 1

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n")
        with pytest.raises(ConfigurationError):
            read_events(path)


class TestSpans:
    def test_span_records_elapsed_wall_time(self):
        recorder = SpanRecorder()
        with recorder.span("work"):
            time.sleep(0.01)
        assert len(recorder.spans) == 1
        span = recorder.spans[0]
        assert isinstance(span, Span)
        assert span.name == "work"
        assert span.elapsed_s >= 0.01

    def test_elapsed_sums_by_name(self):
        recorder = SpanRecorder()
        with recorder.span("a"):
            pass
        with recorder.span("a"):
            pass
        with recorder.span("b"):
            pass
        assert recorder.elapsed("a") == pytest.approx(
            sum(s.elapsed_s for s in recorder.spans if s.name == "a")
        )

    def test_total_busy_prefix_filter(self):
        recorder = SpanRecorder()
        with recorder.span("point:1"):
            pass
        with recorder.span("campaign"):
            pass
        busy = recorder.total_busy("point:")
        assert busy <= recorder.total_busy("")
        assert busy == pytest.approx(recorder.spans[0].elapsed_s)

    def test_span_recorded_on_exception(self):
        recorder = SpanRecorder()
        with pytest.raises(ValueError):
            with recorder.span("fails"):
                raise ValueError
        assert recorder.spans[0].name == "fails"


class TestWorkerUtilization:
    def test_full_utilization_clamped_to_one(self):
        assert worker_utilization(10.0, 2, 4.0) == 1.0

    def test_fractional(self):
        assert worker_utilization(4.0, 2, 4.0) == pytest.approx(0.5)

    def test_degenerate_inputs(self):
        assert worker_utilization(1.0, 0, 1.0) == 0.0
        assert worker_utilization(1.0, 2, 0.0) == 0.0

