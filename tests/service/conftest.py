"""Shared fixtures: one live SN/DN cluster per test module + raw HTTP.

The ``RawClient`` speaks hand-rolled HTTP/1.1 through ``http.client`` —
no SDK, no repro wire clients — so the conformance suite exercises the
server exactly as an external client would.
"""

import base64
import dataclasses
import http.client
import os
import time

import pytest

from repro.service import TenantConfig, TenantDirectory
from repro.service.cluster import ClusterRunner, ServiceCluster
from repro.service.sharedkey import DEV_ACCOUNT, DEV_KEY, sign_request
from repro.service.wire import _http_date
from repro.storage.limits import LIMITS_2012

#: A second tenant with its own (valid base64) key.
TENANT_B = "contoso"
TENANT_B_KEY = base64.b64encode(b"contoso-secret-key-material-0001").decode()

#: A tenant with targets enforced and a tiny transaction budget, for
#: deterministic ServerBusy responses.
THROTTLED = "throttled"
THROTTLED_KEY = base64.b64encode(b"throttled-secret-key-material-01").decode()
THROTTLED_LIMITS = dataclasses.replace(
    LIMITS_2012, account_transactions_per_second=3)


def listening_ports(pid="self"):
    """The TCP ports process ``pid`` listens on, read from Linux ``/proc``.

    A socket is the process's if its inode is behind one of the
    process's file descriptors; it listens if its state in
    ``net/tcp`` or ``net/tcp6`` is ``0A``.
    """
    inodes = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue  # closed since the listing
        if target.startswith("socket:["):
            inodes.add(target[len("socket:["):-1])
    ports = []
    for table in ("tcp", "tcp6"):
        try:
            with open(f"/proc/{pid}/net/{table}") as fh:
                rows = fh.read().splitlines()[1:]
        except FileNotFoundError:
            continue  # no IPv6 here
        for row in rows:
            fields = row.split()
            if fields[3] == "0A" and fields[9] in inodes:
                ports.append(int(fields[1].rsplit(":", 1)[1], 16))
    return sorted(ports)


@pytest.fixture(scope="module")
def cluster():
    tenants = TenantDirectory([
        TenantConfig.development(enforce_targets=False),
        TenantConfig(TENANT_B, TENANT_B_KEY, enforce_targets=False),
        TenantConfig(THROTTLED, THROTTLED_KEY, limits=THROTTLED_LIMITS,
                     enforce_targets=True),
    ])
    cluster = ServiceCluster(nodes=2, dn=2, tenants=tenants)
    with ClusterRunner(cluster):
        yield cluster


class RawClient:
    """Sign-and-send raw HTTP against one service node's listeners."""

    def __init__(self, endpoints, account=DEV_ACCOUNT, key=DEV_KEY):
        self.endpoints = endpoints
        self.account = account
        self.key = key

    def request(self, service, method, path, *, query=None, headers=None,
                body=b"", sign=True, authorization=None):
        """One exchange; ``path`` is below the account prefix."""
        query = dict(query or {})
        headers = dict(headers or {})
        full_path = f"/{self.account}{path}"
        headers.setdefault("x-ms-date", _http_date(time.time()))
        headers.setdefault("x-ms-version", "2012-02-12")
        if authorization is not None:
            headers["Authorization"] = authorization
        elif sign:
            signable = dict(headers)
            signable["Content-Length"] = str(len(body))
            headers["Authorization"] = sign_request(
                self.account, self.key, method, full_path, query,
                signable, table_flavor=(service == "table"))
        target = full_path
        if query:
            target += "?" + "&".join(f"{k}={v}" for k, v in query.items())
        host, port = self.endpoints[service]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(method, target, body=body or None, headers=headers)
            resp = conn.getresponse()
            payload = resp.read()
            lower = {k.lower(): v for k, v in resp.getheaders()}
            return resp.status, lower, payload
        finally:
            conn.close()


@pytest.fixture(scope="module")
def raw(cluster):
    return RawClient(cluster.endpoints(0))


@pytest.fixture(scope="module")
def raw_sn1(cluster):
    """Same cluster via the second service node (any SN serves any key)."""
    return RawClient(cluster.endpoints(1))
