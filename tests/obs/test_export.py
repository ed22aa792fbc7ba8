"""Tracer primitives and both export formats."""

from __future__ import annotations

import pytest

from repro.obs import (
    WALL_CATEGORY,
    TraceEvent,
    Tracer,
    chrome_trace,
    events_from_dicts,
    load_trace_events,
    wall_clock_annotation,
    write_trace,
)


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    tracer.set_process_label(0, "scheduler")
    tracer.set_process_label(1, "systolic:16x16")
    tracer.set_thread_label(1, 0, "worker 0")
    tracer.instant("job.arrival", 0, job_id="t0-j0", tenant="t0")
    tracer.counter("queue.depth", 1, depth=1)
    tracer.complete("batch.execute", 2, 40, pid=1, tid=0, batch_id=0)
    tracer.instant(
        "job.completed", 42, job_id="t0-j0", tenant="t0",
        arrival_cycle=0, latency_cycles=42, queue_cycles=2, attempts=1,
    )
    return tracer


class TestTracer:
    def test_args_are_key_sorted(self):
        tracer = Tracer()
        tracer.instant("x", 0, zebra=1, alpha=2)
        assert tracer.events[0].args == (("alpha", 2), ("zebra", 1))

    def test_counter_events_use_counter_category(self):
        tracer = Tracer()
        tracer.counter("queue.depth", 5, depth=3)
        event = tracer.events[0]
        assert event.phase == "C" and event.category == "counter"

    def test_complete_span_serializes_duration(self):
        event = TraceEvent("batch.execute", "X", 10, 25)
        assert event.to_dict()["dur"] == 25
        assert "dur" not in TraceEvent("x", "i", 10).to_dict()

    def test_clear_drops_events_and_labels(self):
        tracer = _sample_tracer()
        assert len(tracer) == 4
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.process_labels == {} and tracer.thread_labels == {}

    def test_wall_annotation_is_categorized_for_stripping(self):
        tracer = Tracer()
        seconds = wall_clock_annotation(tracer, cycle=3, stage="drain")
        event = tracer.events[0]
        assert event.category == WALL_CATEGORY
        assert dict(event.args)["wall_seconds"] == seconds
        deterministic = [
            e for e in tracer.events if e.category != WALL_CATEGORY
        ]
        assert deterministic == []


class TestExportFormats:
    @pytest.mark.parametrize("suffix,expected", [(".json", "chrome"),
                                                 (".jsonl", "jsonl")])
    def test_format_dispatch_by_extension(self, tmp_path, suffix, expected):
        tracer = _sample_tracer()
        path = tmp_path / f"trace{suffix}"
        assert write_trace(path, tracer) == expected

    def test_both_formats_load_to_identical_events(self, tmp_path):
        tracer = _sample_tracer()
        chrome_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "trace.jsonl"
        write_trace(chrome_path, tracer)
        write_trace(jsonl_path, tracer)
        from_chrome = events_from_dicts(load_trace_events(chrome_path))
        from_jsonl = events_from_dicts(load_trace_events(jsonl_path))
        assert from_chrome == from_jsonl == list(tracer.events)

    def test_chrome_writes_are_byte_identical(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_trace(first, _sample_tracer())
        write_trace(second, _sample_tracer())
        assert first.read_bytes() == second.read_bytes()

    def test_loader_drops_metadata_records(self, tmp_path):
        tracer = _sample_tracer()
        payload = chrome_trace(tracer)
        assert sum(1 for e in payload["traceEvents"] if e["ph"] == "M") == 3
        path = tmp_path / "trace.json"
        write_trace(path, tracer)
        assert len(load_trace_events(path)) == len(tracer.events)

    def test_loader_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all\n{]\n")
        with pytest.raises(ValueError):
            load_trace_events(path)

    def test_loader_rejects_object_without_trace_events(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"events": []}')
        with pytest.raises(ValueError, match="traceEvents"):
            load_trace_events(path)
