#!/usr/bin/env python3
"""Cold start of ``repro serve``: boot time, resident memory, modules.

``python benchmarks/perf/cold_start.py --base REV [--head REV] [--pairs N]
[--out FILE]`` unpacks both revisions with ``git archive`` into a
temporary directory and boots ``repro serve --nodes 1 --dn 2`` from each
tree, alternating sides (the side that goes first flips every pair).
Each side first gets one discarded boot, which fills its bytecode cache
and counts the modules the server loads (``-X importtime``, one line per
module).  Every measured boot records

* ``boot_s``: ``Popen`` to the "serving" banner on stdout;
* ``vmhwm_mb``: the server's ``VmHWM`` after a fixed burst of 4 KiB
  queue put/get/delete and table upsert/get ops over one keep-alive
  connection (the burst's client is the head tree's wire client).

It prints one JSON document (also written to ``--out``) with the host
fingerprint, every pair, and each side's median.  The committed run is
``benchmarks/perf/BENCH_cold_start.json`` (``docs/performance.md``,
"Cold start").
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "benchmarks", "suite"))

from measure import fingerprint, proc_peak_rss_mb  # noqa: E402

#: Rounds of the burst; each is 5 ops (put, get, delete, upsert, get).
BURST_ROUNDS = 200
SPREAD = 8
PAYLOAD = 4096
BOOT_TIMEOUT_S = 60.0
_BANNER = re.compile(r"(blob|queue|table) http://([\d.]+):(\d+)/")


def unpack(rev: str, into: str) -> str:
    """``git archive`` of ``rev`` extracted under ``into``; its commit."""
    commit = subprocess.run(
        ["git", "-C", REPO, "rev-parse", "--verify", rev + "^{commit}"],
        check=True, capture_output=True, text=True).stdout.strip()
    os.makedirs(into)
    archive = subprocess.Popen(["git", "-C", REPO, "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")
    return commit


def boot(tree: str, *flags: str):
    """Start ``repro serve`` from ``tree``; ``(proc, endpoints, boot_s)``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    # The discarded boot writes the bytecode cache the measured ones read.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *flags, "-m", "repro", "serve", "--nodes", "1",
         "--dn", "2", "--duration", "120"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    seen = b""
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    fd = proc.stdout.fileno()
    while b"serving" not in seen:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            proc.kill()
            raise RuntimeError(f"no banner from {tree} in time")
        chunk = os.read(fd, 4096)
        if not chunk:
            raise RuntimeError(f"repro serve from {tree} exited during boot")
        seen += chunk
    boot_s = time.perf_counter() - t0
    endpoints = {service: (host, int(port)) for service, host, port
                 in _BANNER.findall(seen.decode())}
    return proc, endpoints, boot_s


def burst(endpoints) -> None:
    """The fixed 4 KiB queue/table op burst over one connection."""
    from repro.service.client import ServiceConnection, wire_clients

    def drive(call):
        try:
            next(call)
        except StopIteration as done:
            return done.value
        raise RuntimeError("a wire client call yielded")

    connection = ServiceConnection(endpoints)
    clients = wire_clients(connection)
    queue, table = clients["queue"], clients["table"]
    payload = b"x" * PAYLOAD
    props = {"v": "x" * PAYLOAD}
    # Spread over queues and partitions: one queue or partition takes 500
    # ops/s, and the server enforces the 2012 scalability targets.
    for q in range(SPREAD):
        drive(queue.create_queue(f"coldq{q}"))
    drive(table.create_table("coldt"))
    for i in range(BURST_ROUNDS):
        name, pk = f"coldq{i % SPREAD}", f"p{i % SPREAD}"
        drive(queue.put_message(name, payload))
        message = drive(queue.get_message(name))
        drive(queue.delete_message(name, message.message_id,
                                   message.pop_receipt))
        drive(table.insert_or_replace("coldt", pk, "r", props))
        drive(table.get("coldt", pk, "r"))
    connection.close()


def stop(proc) -> bytes:
    """Terminate and reap the server; its stderr."""
    proc.terminate()
    try:
        _, err = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate(timeout=10)
    return err


def measure(tree: str) -> dict:
    proc, endpoints, boot_s = boot(tree)
    try:
        burst(endpoints)
        vmhwm = proc_peak_rss_mb(proc.pid)
    finally:
        stop(proc)
    return {"boot_s": round(boot_s, 4), "vmhwm_mb": round(vmhwm, 2)}


def count_modules(tree: str) -> int:
    """Modules the server loads through boot and the burst (discarded)."""
    proc, endpoints, _ = boot(tree, "-X", "importtime")
    try:
        burst(endpoints)
    finally:
        err = stop(proc)
    return sum(1 for line in err.decode().splitlines()
               if line.startswith("import time:")
               and not line.rstrip().endswith("imported package"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="revision measured as the baseline")
    parser.add_argument("--head", default="HEAD",
                        help="revision measured against it (default HEAD)")
    parser.add_argument("--pairs", type=int, default=5,
                        help="alternating base/head boot pairs (default 5)")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the JSON document to FILE")
    args = parser.parse_args(argv)

    host = fingerprint()
    with tempfile.TemporaryDirectory(prefix="cold-start-") as scratch:
        sides = {}
        for side in ("base", "head"):
            tree = os.path.join(scratch, side)
            sides[side] = {"rev": getattr(args, side),
                           "commit": unpack(getattr(args, side), tree),
                           "tree": tree}
        sys.path.insert(0, os.path.join(sides["head"]["tree"], "src"))
        for side in sides.values():
            side["modules"] = count_modules(side["tree"])
        pairs = []
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {side: measure(sides[side]["tree"]) for side in order}
            pairs.append(dict(pair, first=order[0]))
    doc = {
        "host": host,
        "burst": f"{BURST_ROUNDS} rounds of 4 KiB queue put/get/delete "
                 f"+ table upsert/get over {SPREAD} queues and partitions, "
                 f"one keep-alive connection",
        "bytecode_cache": "filled by one discarded boot per side",
        "pairs": pairs,
    }
    for name in ("base", "head"):
        side = sides[name]
        doc[name] = {
            "rev": side["rev"], "commit": side["commit"],
            "modules": side["modules"],
            "boot_s_median": round(statistics.median(
                p[name]["boot_s"] for p in pairs), 4),
            "vmhwm_mb_median": round(statistics.median(
                p[name]["vmhwm_mb"] for p in pairs), 2),
        }
    text = json.dumps(doc, indent=1, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
