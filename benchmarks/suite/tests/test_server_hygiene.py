"""No ``repro serve`` child outlives the code that started it."""

import live
import pytest


def test_server_boots_on_ephemeral_ports_and_stops():
    server = live.Server(watchdog_s=30.0)
    try:
        assert set(server.endpoints) == {"blob", "queue", "table"}
        assert all(port > 0 for _host, port in server.endpoints.values())
        assert server in live._LIVE_SERVERS
    finally:
        server.stop()
    assert server.proc.poll() is not None
    assert server not in live._LIVE_SERVERS
    server.stop()  # idempotent


def test_a_failing_segment_still_stops_its_server(monkeypatch):
    started = []
    real_init = live.Server.__init__

    def spying_init(self, watchdog_s):
        real_init(self, watchdog_s)
        started.append(self)

    class BrokenOps:
        def prepare(self):
            raise RuntimeError("resource creation failed")

    monkeypatch.setattr(live.Server, "__init__", spying_init)
    monkeypatch.setattr(live, "make_ops", lambda name, seed: BrokenOps())
    with pytest.raises(RuntimeError, match="resource creation failed"):
        live.run_segment("live-small-closed", 1, 0.5)
    assert len(started) == 1
    assert started[0].proc.poll() is not None
    assert not live._LIVE_SERVERS


def test_a_hung_server_fails_the_op_not_the_benchmark():
    tally = live.Tally()

    def timed_out() -> int:
        raise TimeoutError("timed out")

    tally.record(timed_out, 0.0)
    assert tally.failed == 1 and not tally.latencies
    assert tally.errors == ["TimeoutError: timed out"]
    assert live.REQUEST_TIMEOUT_S <= 5.0
