"""The kernel ping loop ``benchmarks/suite/replay.py`` imports."""

from repro.bench import perf


def tiny_kernel(**kwargs):
    return perf.kernel_events_per_sec(procs=4, rounds=25, repeats=2,
                                      **kwargs)


class TestKernelBench:
    def test_reports_positive_rate(self):
        sample = tiny_kernel()
        assert sample["events_per_sec"] > 0
        assert sample["procs"] == 4 and sample["rounds"] == 25
        assert sample["scheduler"] == "heap"
        # 4 sleepers x 25 rounds, plus process-start events.
        assert sample["events"] >= 4 * 25

    def test_deterministic_event_count(self):
        assert tiny_kernel()["events"] == tiny_kernel()["events"]

    def test_calendar_scheduler_same_event_count(self):
        """The name selects nothing; ``benchmarks/suite`` still passes it."""
        cal = tiny_kernel(scheduler="calendar")
        assert cal["scheduler"] == "calendar"
        assert cal["events"] == tiny_kernel()["events"]
