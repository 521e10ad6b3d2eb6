"""Chrome trace export of a fixed-seed run, pinned by a golden snapshot.

The simulator is bit-deterministic for a fixed workload, so the *shape*
of the exported timeline — which tracks exist and how many spans each
carries — is a stable fingerprint of the instrumentation.  The golden
file (``trace_golden.json``) holds that shape for a small seeded GCN
run; regenerate it by running this module as a script::

    PYTHONPATH=src python tests/obs/test_trace_export.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.accel import CPU_ISO_BW, Accelerator
from repro.graphs import citation_graph
from repro.models import GCN
from repro.obs import REQUIRED_TRACE_KEYS, Observer, write_chrome_trace
from repro.runtime import compile_model
from repro.runtime.engine import RuntimeEngine

GOLDEN_PATH = Path(__file__).parent / "trace_golden.json"


def _observed_fixed_seed_run() -> Observer:
    graph = citation_graph(24, 50, seed=5)
    graph.node_features = np.zeros((24, 8), dtype=np.float32)
    program = compile_model(GCN(8, 8, 4), graph)
    observer = Observer()
    # The golden shape (and the span-disjointness invariant) describe the
    # packet model's serialized link reservations, so pin the backend.
    config = CPU_ISO_BW.with_noc_backend("packet")
    RuntimeEngine(Accelerator(config), observer=observer).run(program)
    return observer


def _summarize(document: dict) -> dict:
    """The platform-stable shape of a trace document (names and counts)."""
    thread_names = {
        event["tid"]: event["args"]["name"]
        for event in document["traceEvents"]
        if event["ph"] == "M" and event["name"] == "thread_name"
    }
    span_counts: dict[str, int] = {}
    instant_count = 0
    for event in document["traceEvents"]:
        if event["ph"] == "X":
            label = thread_names[event["tid"]]
            span_counts[label] = span_counts.get(label, 0) + 1
        elif event["ph"] == "i":
            instant_count += 1
    return {
        "track_names": sorted(thread_names.values()),
        "span_counts": dict(sorted(span_counts.items())),
        "instant_events": instant_count,
        "total_events": len(document["traceEvents"]),
    }


@pytest.fixture(scope="module")
def trace_document(tmp_path_factory):
    observer = _observed_fixed_seed_run()
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    written = write_chrome_trace(path, observer.timeline, observer.tracer)
    document = json.loads(path.read_text(encoding="utf-8"))
    assert written == len(document["traceEvents"])
    return document


def test_every_event_has_required_keys(trace_document):
    assert trace_document["traceEvents"]
    for event in trace_document["traceEvents"]:
        for key in REQUIRED_TRACE_KEYS:
            assert key in event, (key, event)
        assert event["pid"] == 1


def test_timestamps_and_durations_non_negative(trace_document):
    for event in trace_document["traceEvents"]:
        assert event["ts"] >= 0
        if event["ph"] == "X":
            assert event["dur"] >= 0


def test_only_known_phases_emitted(trace_document):
    phases = {event["ph"] for event in trace_document["traceEvents"]}
    assert phases <= {"M", "X", "i"}


def test_busy_spans_sorted_and_disjoint_per_track(trace_document):
    by_tid: dict[int, list] = {}
    for event in trace_document["traceEvents"]:
        if event["ph"] == "X":
            by_tid.setdefault(event["tid"], []).append(event)
    for spans in by_tid.values():
        spans.sort(key=lambda e: e["ts"])
        for prev, nxt in zip(spans, spans[1:]):
            assert nxt["ts"] >= prev["ts"] + prev["dur"] - 1e-6


def test_matches_golden_shape(trace_document):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert _summarize(trace_document) == golden


def test_export_is_deterministic(trace_document):
    repeat = _observed_fixed_seed_run()
    assert _summarize(repeat.timeline.chrome_trace(repeat.tracer)) == \
        _summarize(trace_document)


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    observer = _observed_fixed_seed_run()
    summary = _summarize(observer.timeline.chrome_trace(observer.tracer))
    GOLDEN_PATH.write_text(json.dumps(summary, indent=2) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
