#!/usr/bin/env python3
"""One command for the end-to-end + per-layer benchmark suite.

``python benchmarks/suite/run.py`` runs every workload of the suite (the
three ``BENCHMARK.json`` gates on and four more) in a fresh subprocess,
prints every metric by name with its unit, verifies outputs, and exits
non-zero on a failed check.
``--workload NAME`` runs one workload in this process and prints, as its
last line of standard output, the one-line JSON result the driver reads.
See ``README.md`` beside this file for what each name means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import measure  # noqa: E402 - needs HERE on the path
import reference  # noqa: E402

DEFAULT_SEED = 2012
SETUP_PROBES = 8
#: Every workload the harness runs.  ``BENCHMARK.json`` lists the ones
#: the driver gates on: on a shared two-CPU host only three fit the
#: driver's time limit at a run length whose numbers repeat.
WORKLOADS = ("des-queue-deep", "des-mixed-flat", "des-queue-overload",
             "paper-figs", "live-small-closed", "live-small-open",
             "live-blob-closed")


def load_pins():
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        return json.load(fh)


def require_src() -> None:
    """The suite measures the program in ``src/``; without it, refuse."""
    if not os.path.isdir(os.path.join(measure.SRC, "repro")):
        print(f"run.py: no program to measure: {measure.SRC}/repro is "
              f"missing", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, measure.SRC)


# -- set-up probes -----------------------------------------------------------

def setup_in_this_process(name: str, seed: int) -> None:
    import des
    import paper
    if name in des.SPECS:
        des.setup(name, seed)
    else:
        paper.setup(seed)


def probe_setup_s(name: str, seed: int, pace: reference.Pace) -> float:
    """Median wall time of fresh processes doing only the set-up.

    Interpreter start, imports and schedule build happen once per
    process, so the only way to repeat them is to repeat the process.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             name, "--seed", str(seed)], check=True,
            stdout=subprocess.DEVNULL)  # no timeout: it would poll
        samples.append(time.perf_counter() - start)
        pace.worked(samples[-1])
    return measure.median(samples)


# -- the timed (untraced) runs -----------------------------------------------

def paced_detail(pace: reference.Pace) -> dict:
    return {"reference_slices": len(pace.slices),
            "reference_slice_median_ms": pace.slice_median_s() * 1e3,
            "host_factor": pace.factor()}


def timed_batch(name: str, seed: int, seconds: float, pins):
    """DES and paper-figs: fixed seeded work, repeated; host time varies."""
    import des
    import paper

    pace = reference.Pace()
    setup_s = probe_setup_s(name, seed, pace)
    if name in des.SPECS:
        repeats = measure.repeat_for(
            lambda: des.run_once(name, seed, pace.worked), seconds)
    else:
        repeats = measure.repeat_for(
            lambda: paper.run_once(seed, pace.worked), seconds)
    problems = des.check_batch(name, seed, repeats, pins)
    walls = [r["wall_s"] for r in repeats]
    # Every repeat does the same seeded work; the median repeat, read at
    # the reference host's speed (see reference.py), is the run's time.
    factor = pace.factor()
    wall = measure.median(walls) * factor
    first = repeats[0]
    metrics = {
        "setup_s": setup_s * factor,
        "goodput_ops_s": (first["attempted"] - first["refused"]) / wall,
        # What a ``repro load`` or ``repro all`` user waits for: the run.
        "lat_p50_ms": wall * 1e3,
        "peak_rss_mb": measure.peak_rss_mb(),
    }
    detail = {
        "repeats": len(repeats), "wall_s": [round(w, 4) for w in walls],
        "latency_samples": len(repeats),
        "attempted_per_repeat": first["attempted"],
        "refused_per_repeat": first["refused"],
        "digest": first["digest"],
        **paced_detail(pace),
    }
    return measure.Outcome(
        metrics, attempted=sum(r["attempted"] for r in repeats),
        problems=problems, detail=detail)


def timed_live(name: str, seed: int, seconds: float):
    import live

    pace = reference.Pace()
    segments = [live.run_segment(name, seed, seconds / live.SEGMENTS,
                                 pace.worked)
                for _ in range(live.SEGMENTS)]
    problems = []
    failed = sum(s["failed"] for s in segments)
    if failed:
        errors = [e for s in segments for e in s["errors"]][:3]
        problems.append(f"{name}: {failed} ops failed or came back wrong: "
                        f"{'; '.join(errors)}")
    # Half-second windows over three servers: the median window, read at
    # the reference host's speed, speaks for each metric.
    seen = [w for s in segments for w in s["windows"]]
    factor = pace.factor()
    metrics = {
        "setup_s": measure.median([s["setup_s"] for s in segments]) * factor,
        # An open loop completes what arrives: its rate is the arrival
        # rate whatever the host's speed, read over the whole run.
        "goodput_ops_s": (
            sum(s["ok"] for s in segments) / sum(s["wall_s"] for s in segments)
            if name == "live-small-open" else measure.median(
                [w["goodput_ops_s"] for w in seen]) / factor),
        "lat_p50_ms": measure.median(
            [w["lat_p50_ms"] for w in seen]) * factor,
        "peak_rss_mb": measure.median(
            [s["server_rss_mb"] for s in segments]),
    }
    detail = {
        "repeats": len(segments),
        "windows": len(seen),
        "latency_samples_per_window": measure.median(
            [w["ok"] for w in seen]),
        "window_goodput_ops_s": [round(w["goodput_ops_s"], 1)
                                 for w in seen],
        "window_lat_p95_ms": [round(w["lat_p95_ms"], 3) for w in seen],
        "highest_supported_percentile": min(
            measure.supported_tail(w["ok"]) or 0 for w in seen),
        "goodput_mb_s": measure.median(
            [s["nbytes"] / 1e6 / s["wall_s"] for s in segments]),
        **paced_detail(pace),
    }
    if name == "live-small-open":
        late_p95 = measure.median(
            [measure.percentile(s["lateness"], 95) * 1e3 for s in segments])
        growing = any(s["backlog_max"] > live.OPEN_RATE * 0.25
                      for s in segments)
        detail["late_p95_ms"] = late_p95
        detail["met_limit"] = (
            measure.median([w["lat_p95_ms"] for w in seen])
            <= live.OPEN_LIMIT_MS and not growing)
    return measure.Outcome(
        metrics, attempted=sum(s["ok"] + s["failed"] for s in segments),
        failed=failed, problems=problems, detail=detail)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out: str = ""):
    """Run one workload in this process; return the driver's result."""
    contract = measure.load_contract()
    if name not in WORKLOADS:
        print(f"run.py: unknown workload {name!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        raise SystemExit(2)
    require_src()
    measure.pin_to_one_cpu()
    pins = load_pins()
    section = "per_layer" if trace else "end_to_end"
    if trace:
        if name.startswith("live-"):
            import trace_live as tracer
        else:
            import trace_batch as tracer
        outcome = tracer.run(name, seed, seconds, pins)
    elif name.startswith("live-"):
        outcome = timed_live(name, seed, seconds)
    else:
        outcome = timed_batch(name, seed, seconds, pins)
    metrics = outcome.metrics
    units = {m["name"]: m["unit"] for m in contract[section]}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} do not match "
            f"BENCHMARK.json {section}")
    result = {
        "correct": not outcome.problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    print(f"== {name}  seed={seed}  seconds={seconds:g}  "
          f"trace={int(trace)}")
    for key in units:
        print(f"  {key:40s} {metrics[key]:>16.6g} {units[key]}")
    for key, value in outcome.detail.items():
        print(f"  . {key}: {value}")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")
    if out:
        write_out(out, name, seed, seconds, trace, result, outcome)
    return result


def write_out(path, name, seed, seconds, trace, result, outcome):
    doc = {"workload": name, "seed": seed, "seconds": seconds,
           "trace": int(trace), "host": measure.fingerprint(),
           "result": result, "detail": outcome.detail}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if outcome.spans is not None:
        outcome.spans.write_jsonl(os.path.splitext(path)[0] + ".spans.jsonl")


# -- every workload, each in a fresh process ---------------------------------

def run_child(name: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def run_all(args) -> int:
    contract = measure.load_contract()
    host = measure.fingerprint()
    seconds = args.seconds or contract["run_seconds"]
    ok = True
    doc = {"host": host, "seed": args.seed, "seconds": seconds,
           "runs": args.runs, "workloads": {}}
    for name in WORKLOADS:
        entry = {"end_to_end": {}, "per_layer": {}, "correct": True}
        for run in range(args.runs):
            result = run_child(name, args.seed + run, seconds, 0)
            if result is None or not result["correct"]:
                ok = entry["correct"] = False
                continue
            for key, m in result["metrics"].items():
                entry["end_to_end"].setdefault(key, []).append(m["value"])
        if args.trace:
            result = run_child(name, args.seed, seconds, 1)
            if result is None or not result["correct"]:
                ok = entry["correct"] = False
            else:
                entry["per_layer"] = {k: m["value"]
                                      for k, m in result["metrics"].items()}
        doc["workloads"][name] = entry
    print_summary(contract, doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.record:
        line = {"host": host, "seed": args.seed, "seconds": seconds,
                "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                             time.gmtime()),
                "medians": {
                    name: {k: measure.median(v)
                           for k, v in entry["end_to_end"].items()}
                    for name, entry in doc["workloads"].items()}}
        with open(os.path.join(HERE, "history.jsonl"), "a",
                  encoding="utf-8") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    return 0 if ok else 1


def print_summary(contract, doc) -> None:
    print("\n== medians over "
          f"{doc['runs']} run(s) of {doc['seconds']} s, seeds from "
          f"{doc['seed']} ==")
    for m in contract["end_to_end"]:
        print(f"{m['name']} [{m['unit']}]")
        for name, entry in doc["workloads"].items():
            values = entry["end_to_end"].get(m["name"])
            shown = f"{measure.median(values):.6g}" if values else "FAILED"
            print(f"  {name:22s} {shown}")


def _terminate(signum, frame) -> None:
    # Turn SIGTERM into an exception so ``finally`` blocks stop servers.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in "
                        "this process, and end with the JSON result line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0,
                        help="measured seconds per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced layer replay "
                        "(per-layer metrics) instead of the timed run")
    parser.add_argument("--out", default="", help="write results as JSON "
                        "(spans go to its sibling *.spans.jsonl)")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: untraced runs per "
                             "workload, on consecutive seeds")
    parser.add_argument("--record", action="store_true",
                        help="append the summary line to history.jsonl")
    parser.add_argument("--probe-setup", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.probe_setup:
        require_src()
        setup_in_this_process(args.probe_setup, args.seed)
        return 0
    if args.workload is None:
        return run_all(args)
    seconds = args.seconds or measure.load_contract()["run_seconds"]
    result = run_workload(args.workload, args.seed, seconds,
                          bool(args.trace), args.out)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
