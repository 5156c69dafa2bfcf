"""run.py against BENCHMARK.json: names, exit codes, pinned digests."""

import json
import os
import shutil
import subprocess
import sys

import des
import live
import pytest
import run
import trace_batch
from conftest import REPO, SUITE


def contract():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_py(root, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "benchmarks", "suite", "run.py"),
         *args], capture_output=True, text=True, timeout=300, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc, (lines[-1] if lines else "")


@pytest.fixture
def checkout(tmp_path):
    """A copy of what the driver's checkout holds, free to tamper with."""
    root = tmp_path / "checkout"
    shutil.copytree(SUITE, root / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), root)
    shutil.copytree(os.path.join(REPO, "src"), root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_contract_names_match_the_harness():
    doc = contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/suite"]
    assert set(run.WORKLOADS) == set(des.SPECS) | {"paper-figs"} | {
        "live-small-closed", "live-small-open", "live-blob-closed"}
    # The driver gates on a subset; the harness runs all seven.
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
    assert set(trace_batch.zeros()) == {m["name"] for m in doc["per_layer"]}
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert live.SEGMENTS >= 3
    # 4 + 22 runs a workload, set-up and slices included, inside 3420 s.
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 10) <= 3420


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_result_line_has_exactly_the_contract_metrics(trace, section):
    proc, last = run_py(REPO, "--workload", "des-queue-overload",
                        "--seed", "2012", "--seconds", "1",
                        "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in contract()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if section == "per_layer":
        pin = json.load(open(os.path.join(SUITE, "pins.json")))
        share = result["metrics"]["failed_op_share"]["value"]
        overload = pin["des-queue-overload"]
        assert share == overload["refused"] / overload["attempted"]


def test_pin_mismatch_fails_the_run(checkout):
    pins_path = checkout / "benchmarks" / "suite" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["des-queue-overload"]["digest"] = "0" * 64
    pins_path.write_text(json.dumps(pins))
    proc, last = run_py(str(checkout), "--workload", "des-queue-overload",
                        "--seed", "2012", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert json.loads(last)["correct"] is False
    assert "CHECK FAILED" in proc.stdout


def test_without_the_program_there_is_no_result(checkout):
    shutil.rmtree(checkout / "src")
    proc, last = run_py(str(checkout), "--workload", "des-mixed-flat",
                        "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not last.startswith("{")


def test_unknown_workload_is_a_usage_error():
    proc, last = run_py(REPO, "--workload", "nope")
    assert proc.returncode == 2 and not last.startswith("{")
