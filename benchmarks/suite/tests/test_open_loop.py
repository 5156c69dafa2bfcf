"""The open-loop dispatcher times each op from its due instant."""

import threading
import time

import live
from measure import percentile


class StallingServer:
    """Serves one request at a time in ~1 ms; one request stalls."""

    def __init__(self, stall_at: int, stall_s: float) -> None:
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.lock = threading.Lock()
        self.from_send = {}

    def serve(self, _clients, i: int) -> int:
        sent = time.perf_counter()
        with self.lock:
            time.sleep(self.stall_s if i == self.stall_at else 0.001)
        self.from_send[i] = time.perf_counter() - sent
        return 0


def test_a_stall_is_charged_to_the_ops_that_waited_behind_it():
    stall_at, stall_s = 10, 0.2
    server = StallingServer(stall_at, stall_s)
    dues = [0.005 * i for i in range(100)]
    tallies, wall, lateness, backlog_max = live.open_loop(
        server.serve, lambda: None, dues, workers=1)
    latencies = tallies[0].latencies  # one worker: completion = op order
    assert len(latencies) == len(dues) and tallies[0].failed == 0

    # Ops due while the server was stalled were sent late through no
    # fault of their own; from their due instant they waited for it.
    behind = latencies[stall_at + 1:stall_at + 21]
    assert min(behind) > 0.05
    assert percentile(latencies, 95) > 0.1
    # Timed from the send instead, the same ops look fast: this is the
    # coordinated omission the due-instant clock exists to prevent.
    sent_late = [server.from_send[i] for i in range(stall_at + 1, 100)]
    assert percentile(sent_late, 95) < 0.05
    # The dispatcher itself kept to the schedule and saw the queue grow.
    assert percentile(lateness, 95) < 0.01
    assert backlog_max >= 10
    assert wall >= dues[-1]


def test_poisson_schedule_is_a_function_of_the_seed():
    a = live.poisson_dues(7, 400.0, 2.0)
    assert a == live.poisson_dues(7, 400.0, 2.0)
    assert a != live.poisson_dues(8, 400.0, 2.0)
    assert all(x < y for x, y in zip(a, a[1:])) and a[-1] < 2.0
    assert 600 < len(a) < 1000
