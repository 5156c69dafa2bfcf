"""Exporter formats and the ``repro trace`` CLI artifacts."""

import json

import pytest

from repro.bench.figures import BenchScale
from repro.cli import main
from repro.core import RunConfig
from repro.observability import (
    RunManifest,
    Span,
    TraceBuffer,
    chrome_trace,
)
from repro.storage import KB


def make_span(i, *, worker="azurebench#0", phase="put_4096",
              status="ok", error=""):
    return Span(
        trace_id="t", span_id=i, worker=worker, phase=phase,
        backend="sim", service="queue", operation="put_message",
        partition="q0", server="queue-pool/queue-srv-0" if status == "ok"
        else None,
        nbytes=4 * KB, units=1, start=float(i), end=float(i) + 0.25,
        server_latency=0.1, latency_factor=1.0, retries=0,
        status=status, error=error,
    )


# -- JSONL ---------------------------------------------------------------------

def test_jsonl_round_trip(tmp_path):
    buf = TraceBuffer()
    for i in range(3):
        buf.append(make_span(i))
    path = tmp_path / "spans.jsonl"
    buf.write_jsonl(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    docs = [json.loads(line) for line in lines]
    assert [d["span_id"] for d in docs] == [0, 1, 2]
    assert all(d["service"] == "queue" and d["nbytes"] == 4 * KB
               for d in docs)
    # keys are sorted, so the export is byte-deterministic
    assert all(list(d) == sorted(d) for d in docs)


def test_buffer_bounded_and_digest_stable():
    buf = TraceBuffer(capacity=2)
    assert buf.append(make_span(0)) is True
    assert buf.append(make_span(1)) is True
    digest_full = buf.digest()
    assert buf.append(make_span(2)) is False
    assert len(buf) == 2 and buf.dropped == 1
    # dropping preserves the already-recorded prefix
    assert buf.digest() == digest_full


# -- Chrome trace events -------------------------------------------------------

def test_chrome_trace_structure():
    buf_a, buf_b = TraceBuffer(), TraceBuffer()
    buf_a.append(make_span(0, worker="azurebench#0"))
    buf_a.append(make_span(1, worker="azurebench#1",
                           status="error", error="ServerBusyError"))
    buf_b.append(make_span(0, worker="azurebench#0"))
    doc = chrome_trace([("fig6@1", buf_a), ("fig6@2", buf_b)])
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    procs = {e["pid"]: e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert procs == {1: "fig6@1", 2: "fig6@2"}
    threads = {(e["pid"], e["tid"]): e["args"]["name"] for e in events
               if e["ph"] == "M" and e["name"] == "thread_name"}
    assert threads[(1, 1)] == "azurebench#0"
    assert threads[(1, 2)] == "azurebench#1"
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == 3
    first = spans[0]
    # timestamps are microseconds
    assert first["ts"] == 0.0 and first["dur"] == pytest.approx(0.25e6)
    assert first["name"] == "queue.put_message"
    assert first["args"]["phase"] == "put_4096"
    errored = [e for e in spans if e["args"]["status"] == "error"]
    assert len(errored) == 1
    assert errored[0]["args"]["error"] == "ServerBusyError"
    assert "server" not in errored[0]["args"]


# -- Manifest ------------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    config = RunConfig(seed=42, label="fig6", trace=True)
    manifest = RunManifest.from_config(config, figure="fig6", scale="quick",
                                       workers=(1, 2, 4))
    path = tmp_path / "manifest.json"
    manifest.write(str(path))
    doc = json.loads(path.read_text())
    assert doc["figure"] == "fig6"
    assert doc["scale"] == "quick"
    assert doc["backend"] == "sim"
    assert doc["seed"] == 42
    assert doc["workers"] == [1, 2, 4]
    assert doc["trace"] is True
    assert doc["calibration"] and doc["limits"]
    # byte-determinism: no wall clock, stable key order
    assert manifest.to_json() == RunManifest.from_config(
        config, figure="fig6", scale="quick", workers=(1, 2, 4)).to_json()


# -- CLI -----------------------------------------------------------------------

TINY_SCALE = BenchScale(
    name="tiny",
    worker_counts=(1, 2),
    blob_total_chunks=4,
    blob_repeats=1,
    queue_total_messages=8,
    queue_message_sizes=(4 * KB,),
    shared_total_transactions=4,
    shared_think_times=(1.0,),
    table_entity_count=4,
    table_entity_sizes=(4 * KB,),
    seed=7,
)


def test_cli_trace_writes_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("repro.bench.QUICK_SCALE", TINY_SCALE)
    out = tmp_path / "artifacts"
    assert main(["trace", "fig6", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "Fig 6a" in captured and "traced 2 runs" in captured

    trace = json.loads((out / "trace.json").read_text())
    pids = {e["args"]["name"] for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"}
    assert pids == {"fig6@1", "fig6@2"}
    assert any(e["ph"] == "X" for e in trace["traceEvents"])

    hists = json.loads((out / "histograms.json").read_text())
    assert set(hists) == {"merged", "runs"}
    assert "queue.put_message" in hists["merged"]
    assert set(hists["runs"]) == {"fig6@1", "fig6@2"}
    merged_count = hists["merged"]["queue.put_message"]["count"]
    assert merged_count == sum(
        run["queue.put_message"]["count"] for run in hists["runs"].values())

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["figure"] == "fig6"
    assert manifest["seed"] == 7
    assert manifest["workers"] == [1, 2]
    assert manifest["trace"] is True


def test_cli_trace_rejects_unknown_figure(tmp_path, capsys):
    assert main(["trace", "fig12", "--out", str(tmp_path)]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_cli_fig_csv_writes_manifest(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("repro.bench.QUICK_SCALE", TINY_SCALE)
    out = tmp_path / "csv"
    assert main(["fig", "6", "--csv", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["figure"] == "fig6"
    assert manifest["trace"] is False
    assert (out / "fig_6a.csv").exists()
