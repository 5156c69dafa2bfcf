"""A serving process loads serve code only.

``repro serve`` never runs the DES, the fabric cost model, the figure
stack or numpy, so it must not import them: each would cost every server
process resident memory and boot time for nothing.  Nor does a process
compile a wire route before its first call.  The checks run in fresh
interpreters, since this test process has long since imported
everything.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Modules a serving process must not load (packages include submodules).
NOT_SERVED = ("numpy", "repro.bench", "repro.backend", "repro.compute",
              "repro.core", "repro.sim", "repro.framework", "repro.traffic",
              "repro.simkit", "repro.cluster.model",
              "repro.cluster.calibration", "repro.cluster.servers")
#: The standard library a server has no use for.
UNUSED_STDLIB = ("urllib.request", "http.client", "email", "xml.sax")

SERVE_EVERY_ROUTE_FAMILY = f"""
import sys

from repro.cli import build_parser
from repro.service import (ClusterRunner, ServiceCluster, TenantConfig,
                           TenantDirectory)
from tests.service.test_cold_start import exercise

build_parser()
tenants = TenantDirectory([TenantConfig.development(enforce_targets=True)])
cluster = ServiceCluster(nodes=1, dn=2, tenants=tenants)
with ClusterRunner(cluster):
    exercise(cluster.endpoints(0))

print("\\n".join(sorted(
    name for name in sys.modules
    if any(name == m or name.startswith(m + ".") for m in {NOT_SERVED!r}))))
"""


def exercise(endpoints):
    """Blob upload/download, queue put/peek/get/delete and table
    upsert/get/query through the repo's own wire clients."""
    from repro.service.client import ServiceConnection, wire_clients

    def drive(call):
        # A wire client's call is a generator that returns without yielding.
        try:
            next(call)
        except StopIteration as done:
            return done.value
        raise AssertionError("a wire client call yielded")

    connection = ServiceConnection(endpoints)
    clients = wire_clients(connection)
    blob, queue, table = clients["blob"], clients["queue"], clients["table"]
    payload = b"x" * 4096

    drive(blob.create_container("coldc"))
    drive(blob.upload_blob("coldc", "b0", payload))
    assert drive(blob.download_block_blob("coldc", "b0")).to_bytes() \
        == payload

    drive(queue.create_queue("coldq"))
    drive(queue.put_message("coldq", payload))
    assert drive(queue.peek_message("coldq")).content.to_bytes() == payload
    message = drive(queue.get_message("coldq"))
    assert message.content.to_bytes() == payload
    drive(queue.delete_message("coldq", message.message_id,
                               message.pop_receipt))

    drive(table.create_table("coldt"))
    drive(table.insert_or_replace("coldt", "p", "r0", {"v": "a" * 4096}))
    assert drive(table.get("coldt", "p", "r0"))["v"] == "a" * 4096
    assert len(drive(table.query_partition("coldt", "p"))) == 1
    connection.close()


def loaded(names, packages):
    """The ``names`` that are one of ``packages`` or inside one."""
    return sorted(name for name in names
                  if any(name == m or name.startswith(m + ".")
                         for m in packages))


def test_serving_every_route_family_loads_no_figure_stack_or_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    done = subprocess.run([sys.executable, "-c", SERVE_EVERY_ROUTE_FAMILY],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_a_serve_child_loads_no_unused_stdlib(tmp_path):
    """A real ``repro serve`` process, asked every route family; its
    ``-X importtime`` log names each module it loaded."""
    log = tmp_path / "importtime.log"
    with open(log, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-u", "-X", "importtime", "-m", "repro", "serve",
             "--nodes", "1", "--dn", "2", "--duration", "60"],
            env=dict(os.environ, PYTHONPATH=str(SRC)), text=True,
            stdout=subprocess.PIPE, stderr=err)
    try:
        banner = ""
        while "serving" not in banner:
            line = proc.stdout.readline()
            assert line, "repro serve exited before serving"
            banner += line
        exercise({service: (host, int(port)) for service, host, port in
                  re.findall(r"(blob|queue|table) http://([\d.]+):(\d+)/",
                             banner)})
    finally:
        proc.terminate()
        proc.communicate(timeout=30)
    assert proc.returncode == 0
    modules = [line.rsplit("|", 1)[1].strip()
               for line in log.read_text().splitlines()
               if line.startswith("import time:")]
    assert "repro.service.servicenode" in modules
    assert loaded(modules, UNUSED_STDLIB + NOT_SERVED) == []


FIRST_USE = """
import inspect
import threading

from repro.service import wire
from repro.service.httpd import HttpRequest
from repro.service.sharedkey import DEV_ACCOUNT


def compiled(side):
    return [(r.client, r.op) for r in wire.ROUTES if side in vars(r)]


assert compiled("encode") == compiled("decode") == []
stub = wire.ENCODERS["queue", "create_queue"]
calls = []
threads = [threading.Thread(target=lambda: calls.append(stub("q1")))
           for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
assert [(call.method, call.path) for call in calls] == [("PUT", "/q1")] * 8
assert compiled("encode") == [("queue", "create_queue")]
assert compiled("decode") == []
encode = wire.ENCODERS["queue", "create_queue"]
assert inspect.isfunction(encode) and encode.__name__ == "create_queue"
assert stub("q2").path == "/q2"  # a reference taken before compiling

path = f"/{DEV_ACCOUNT}/q1"
request = HttpRequest("PUT", path, path, {}, {}, b"")
assert wire.decode_request("queue", DEV_ACCOUNT, request).op == "create_queue"
assert compiled("decode") == [("queue", "create_queue")]
assert all(map(inspect.isfunction, wire._CANDIDATES["queue", "PUT", "/{}"]))
print("ok")
"""


def test_a_route_compiles_each_side_on_first_use():
    """No route compiles at import; the first call of a side compiles it
    (threads racing to it get equal functions) and puts the function
    where callers look, in ``ENCODERS`` or ``_CANDIDATES``."""
    done = subprocess.run([sys.executable, "-c", FIRST_USE],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr


def test_every_cluster_name_resolves():
    import repro.cluster

    for name in repro.cluster.__all__:
        assert getattr(repro.cluster, name) is not None, name
    from repro.cluster import StorageCluster
    from repro.cluster.model import StorageCluster as defined
    assert StorageCluster is defined


def test_parser_backends_are_the_backends():
    from repro.backend import BACKENDS
    from repro.cli import build_parser

    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    for command in ("fig", "all", "trace", "load"):
        backend = next(action for action in commands[command]._actions
                       if action.dest == "backend")
        assert list(backend.choices) == sorted(BACKENDS), command
