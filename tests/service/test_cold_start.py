"""A serving process loads serve code only.

``repro serve`` never runs the DES, the figure stack or numpy, so it must
not import them: each would cost every server process resident memory
and boot time for nothing.  The check runs in a fresh interpreter, since
this test process has long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules a serving process must not load (packages include submodules).
NOT_SERVED = ("numpy", "repro.bench", "repro.backend", "repro.compute",
              "repro.core", "repro.sim", "repro.framework", "repro.traffic")

SERVE_EVERY_ROUTE_FAMILY = f"""
import sys

from repro.cli import build_parser
from repro.service import (ClusterRunner, ServiceCluster, ServiceConnection,
                           TenantConfig, TenantDirectory)
from repro.service.client import wire_clients


def drive(call):
    # A wire client's call is a generator that returns without yielding.
    try:
        next(call)
    except StopIteration as done:
        return done.value
    raise AssertionError("a wire client call yielded")


build_parser()
tenants = TenantDirectory([TenantConfig.development(enforce_targets=True)])
cluster = ServiceCluster(nodes=1, dn=2, tenants=tenants)
with ClusterRunner(cluster):
    connection = ServiceConnection(cluster.endpoints(0))
    clients = wire_clients(connection)
    blob, queue, table = clients["blob"], clients["queue"], clients["table"]
    payload = b"x" * 4096

    drive(blob.create_container("coldc"))
    drive(blob.upload_blob("coldc", "b0", payload))
    blob_body = drive(blob.download_block_blob("coldc", "b0"))
    assert blob_body.to_bytes() == payload

    drive(queue.create_queue("coldq"))
    drive(queue.put_message("coldq", payload))
    assert drive(queue.peek_message("coldq")).content.to_bytes() == payload
    message = drive(queue.get_message("coldq"))
    assert message.content.to_bytes() == payload
    drive(queue.delete_message("coldq", message.message_id,
                               message.pop_receipt))

    drive(table.create_table("coldt"))
    drive(table.insert_or_replace("coldt", "p", "r0", {{"v": "a" * 4096}}))
    assert drive(table.get("coldt", "p", "r0"))["v"] == "a" * 4096
    assert len(drive(table.query_partition("coldt", "p"))) == 1
    connection.close()

print("\\n".join(sorted(
    name for name in sys.modules
    if any(name == m or name.startswith(m + ".") for m in {NOT_SERVED!r}))))
"""


def test_serving_every_route_family_loads_no_figure_stack_or_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SERVE_EVERY_ROUTE_FAMILY],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_parser_backends_are_the_backends():
    from repro.backend import BACKENDS
    from repro.cli import build_parser

    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    for command in ("fig", "all", "trace", "load"):
        backend = next(action for action in commands[command]._actions
                       if action.dest == "backend")
        assert list(backend.choices) == sorted(BACKENDS), command
