"""Seeded open-loop arrival processes.

Closed-loop workloads (N workers, think time) self-throttle: when the
service slows down, the offered load drops with it, which hides the
latency knee.  An *open-loop* workload keeps issuing operations on its
own schedule regardless of completions — the DiPerF discipline.  This
module supplies the schedules: every process is a deterministic function
of its seed, so the same spec always produces the byte-identical stream
of arrival instants on every backend.

Processes::

    PoissonProcess      memoryless arrivals at a constant rate
    MMPPProcess         Markov-modulated on/off bursts (bursty traffic)
    DiurnalProcess      sinusoidal day-shaped rate (thinning)
    RampProcess         linear ramp from a start rate to the target rate
    TraceReplayProcess  replay recorded instants exactly

All inhomogeneous processes use Lewis-Shedler thinning against their
peak rate, so their draws stay exact (no discretisation of the rate
curve).  :class:`ArrivalSpec` is the picklable description used by
``RunConfig``/CLI surfaces; :meth:`ArrivalSpec.build` turns it into a
process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from random import Random
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "MMPPProcess",
    "DiurnalProcess",
    "RampProcess",
    "TraceReplayProcess",
    "ArrivalSpec",
    "PROCESSES",
    "build_process",
    "parse_arrival_spec",
]


class ArrivalProcess:
    """Base class: a seeded, replayable stream of arrival instants."""

    #: Registry name ("poisson", "mmpp", ...).
    name: str = "base"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    # -- subclass surface --------------------------------------------------
    def _stream(self, rng: Random) -> Iterator[float]:
        """Yield strictly increasing arrival times, forever (or until the
        process is exhausted, for finite traces)."""
        raise NotImplementedError

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t`` (ops/s)."""
        raise NotImplementedError

    def expected_count(self, duration: float) -> float:
        """``∫₀^duration rate(t) dt`` — the mean number of arrivals."""
        raise NotImplementedError

    # -- shared surface ----------------------------------------------------
    def times(self, duration: float) -> List[float]:
        """All arrival instants in ``[0, duration)``.

        Every call re-seeds, so the stream is a pure function of the
        process parameters: same spec ⇒ byte-identical list.
        """
        if duration < 0:
            raise ValueError("duration must be >= 0")
        out: List[float] = []
        for t in self._stream(Random(self.seed)):
            if t >= duration:
                break
            out.append(t)
        return out

    def take(self, n: int) -> List[float]:
        """The first ``n`` arrival instants (session-arrival staggering)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        out: List[float] = []
        for t in self._stream(Random(self.seed)):
            if len(out) >= n:
                break
            out.append(t)
        if len(out) < n:
            raise ValueError(
                f"{self.name} process exhausted after {len(out)} arrivals "
                f"(asked for {n}); extend the trace or raise the rate")
        return out


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals: i.i.d. exponential gaps."""

    name = "poisson"

    def __init__(self, rate: float, seed: int = 0) -> None:
        super().__init__(seed)
        if rate <= 0:
            raise ValueError("rate must be > 0")
        self.rate = float(rate)

    def _stream(self, rng: Random) -> Iterator[float]:
        t = 0.0
        while True:
            t += rng.expovariate(self.rate)
            yield t

    def rate_at(self, t: float) -> float:
        return self.rate

    def expected_count(self, duration: float) -> float:
        return self.rate * duration


class MMPPProcess(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (on/off bursts).

    Sojourn times in each state are exponential with means ``mean_on`` /
    ``mean_off``; while *on* the process emits at ``rate_on``, while
    *off* at ``rate_off`` (0 by default — pure bursts).  ``rate_on`` is
    derived so the long-run average equals the requested ``rate``:
    ``rate = (rate_on·mean_on + rate_off·mean_off) / (mean_on+mean_off)``.

    Exactness note: when an exponential gap would cross the end of the
    current state's sojourn, the clock jumps to the boundary and the gap
    is redrawn at the new state's rate — memorylessness makes the
    discard-and-redraw construction exact, not an approximation.
    """

    name = "mmpp"

    def __init__(self, rate: float, seed: int = 0, *,
                 mean_on: float = 1.0, mean_off: float = 3.0,
                 rate_off: float = 0.0) -> None:
        super().__init__(seed)
        if rate <= 0 or mean_on <= 0 or mean_off <= 0 or rate_off < 0:
            raise ValueError("rate/mean_on/mean_off must be > 0, "
                             "rate_off >= 0")
        self.rate = float(rate)
        self.mean_on = float(mean_on)
        self.mean_off = float(mean_off)
        self.rate_off = float(rate_off)
        cycle = self.mean_on + self.mean_off
        self.rate_on = (self.rate * cycle
                        - self.rate_off * self.mean_off) / self.mean_on
        if self.rate_on <= 0:
            raise ValueError(
                f"rate_off={rate_off} already exceeds the average rate "
                f"{rate} over the off fraction; lower it")

    def _stream(self, rng: Random) -> Iterator[float]:
        t = 0.0
        on = True  # start in a burst, like a freshly ramped service
        state_end = rng.expovariate(1.0 / self.mean_on)
        while True:
            rate = self.rate_on if on else self.rate_off
            if rate <= 0:
                t = state_end
            else:
                gap = rng.expovariate(rate)
                if t + gap < state_end:
                    t += gap
                    yield t
                    continue
                t = state_end
            on = not on
            mean = self.mean_on if on else self.mean_off
            state_end = t + rng.expovariate(1.0 / mean)

    def rate_at(self, t: float) -> float:
        # The *average* rate; the realised rate depends on the sampled
        # state path, which rate_at deliberately does not replay.
        return self.rate

    def expected_count(self, duration: float) -> float:
        return self.rate * duration


class _ThinningProcess(ArrivalProcess):
    """Inhomogeneous Poisson via Lewis-Shedler thinning (shared core)."""

    #: Peak rate the candidate stream runs at (set by subclasses).
    rate_max: float

    def _stream(self, rng: Random) -> Iterator[float]:
        t = 0.0
        while True:
            t += rng.expovariate(self.rate_max)
            if rng.random() * self.rate_max < self.rate_at(t):
                yield t


class DiurnalProcess(_ThinningProcess):
    """Sinusoidal day-shaped rate: ``rate·(1 + amp·sin(2πt/period))``.

    ``period`` defaults to a 240 s compressed day so the full cycle fits
    in a short simulated run; ``amp`` in [0, 1) keeps the rate positive.
    """

    name = "diurnal"

    def __init__(self, rate: float, seed: int = 0, *,
                 amp: float = 0.8, period: float = 240.0) -> None:
        super().__init__(seed)
        if rate <= 0 or period <= 0:
            raise ValueError("rate and period must be > 0")
        if not 0 <= amp < 1:
            raise ValueError("amp must be in [0, 1)")
        self.rate = float(rate)
        self.amp = float(amp)
        self.period = float(period)
        self.rate_max = self.rate * (1.0 + self.amp)

    def rate_at(self, t: float) -> float:
        return self.rate * (1.0 + self.amp * math.sin(
            2.0 * math.pi * t / self.period))

    def expected_count(self, duration: float) -> float:
        w = 2.0 * math.pi / self.period
        return (self.rate * duration
                + self.rate * self.amp / w * (1.0 - math.cos(w * duration)))


class RampProcess(_ThinningProcess):
    """Linear ramp from ``start`` to ``rate`` over ``ramp`` seconds, then
    steady at ``rate`` — the warm-up shape load sweeps use."""

    name = "ramp"

    def __init__(self, rate: float, seed: int = 0, *,
                 start: float = 0.0, ramp: float = 60.0) -> None:
        super().__init__(seed)
        if rate <= 0 or ramp <= 0 or start < 0:
            raise ValueError("rate/ramp must be > 0, start >= 0")
        self.rate = float(rate)
        self.start = float(start)
        self.ramp = float(ramp)
        self.rate_max = max(self.rate, self.start)

    def rate_at(self, t: float) -> float:
        if t >= self.ramp:
            return self.rate
        return self.start + (self.rate - self.start) * (t / self.ramp)

    def expected_count(self, duration: float) -> float:
        d = min(duration, self.ramp)
        area = (self.start + self.rate_at(d)) / 2.0 * d
        if duration > self.ramp:
            area += self.rate * (duration - self.ramp)
        return area


class TraceReplayProcess(ArrivalProcess):
    """Replay a recorded stream of arrival instants exactly."""

    name = "trace"

    def __init__(self, instants, seed: int = 0) -> None:
        super().__init__(seed)
        times = [float(t) for t in instants]
        if any(t < 0 for t in times):
            raise ValueError("trace instants must be >= 0")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("trace instants must be non-decreasing")
        self.instants: Tuple[float, ...] = tuple(times)

    def _stream(self, rng: Random) -> Iterator[float]:
        return iter(self.instants)

    def rate_at(self, t: float) -> float:
        if not self.instants:
            return 0.0
        horizon = max(self.instants[-1], 1e-9)
        return len(self.instants) / horizon

    def expected_count(self, duration: float) -> float:
        return float(sum(1 for t in self.instants if t < duration))


#: name -> constructor ``(rate, seed, **params)``.
PROCESSES = {
    "poisson": PoissonProcess,
    "mmpp": MMPPProcess,
    "diurnal": DiurnalProcess,
    "ramp": RampProcess,
}


@dataclass(frozen=True)
class ArrivalSpec:
    """Picklable description of an arrival process.

    ``params`` holds process keyword arguments as a sorted tuple of
    ``(name, value)`` pairs so the spec stays hashable and stable under
    JSON round trips; ``trace`` carries the instants for the replay
    process (where ``rate`` is ignored).
    """

    process: str = "poisson"
    rate: float = 10.0
    seed: int = 0
    params: Tuple[Tuple[str, float], ...] = ()
    trace: Tuple[float, ...] = field(default=(), repr=False)

    def build(self) -> ArrivalProcess:
        return build_process(self.process, self.rate, self.seed,
                             params=dict(self.params), trace=self.trace)

    def with_rate(self, rate: float) -> "ArrivalSpec":
        return replace(self, rate=float(rate))

    def describe(self) -> Dict[str, object]:
        out: Dict[str, object] = {"process": self.process, "seed": self.seed}
        if self.process == "trace":
            out["instants"] = len(self.trace)
        else:
            out["rate"] = self.rate
        out.update(dict(self.params))
        return out


def build_process(name: str, rate: float, seed: int = 0, *,
                  params: Optional[Dict[str, float]] = None,
                  trace: Tuple[float, ...] = ()) -> ArrivalProcess:
    """Instantiate a process by registry name (plus ``trace``)."""
    if name == "trace":
        return TraceReplayProcess(trace, seed=seed)
    try:
        cls = PROCESSES[name]
    except KeyError:
        raise ValueError(
            f"unknown arrival process {name!r}; choose from "
            f"{', '.join(sorted(PROCESSES))}, trace") from None
    try:
        return cls(rate, seed, **(params or {}))
    except TypeError:
        valid = sorted(k for k in cls.__init__.__kwdefaults__ or ())
        raise ValueError(
            f"bad parameters for {name!r}; valid: {', '.join(valid)}"
        ) from None


def parse_arrival_spec(text: str, *, seed: int = 0) -> ArrivalSpec:
    """Parse a CLI spec: ``process:rate[:k=v,k=v...]``.

    Examples: ``poisson:25``, ``mmpp:40:on=2,off=6``,
    ``diurnal:30:amp=0.5,period=120``, ``ramp:50:start=5,ramp=30``.
    Short parameter aliases ``on``/``off`` map to ``mean_on``/``mean_off``.
    """
    parts = text.split(":")
    name = parts[0].strip().lower()
    if name == "trace":
        raise ValueError(
            "trace replay takes a file of instants; use --trace-file "
            "with --process trace on 'repro load'")
    if name not in PROCESSES:
        raise ValueError(
            f"unknown arrival process {name!r}; choose from "
            f"{', '.join(sorted(PROCESSES))}")
    if len(parts) < 2 or not parts[1].strip():
        raise ValueError(f"arrival spec {text!r} needs a rate: "
                         f"'{name}:RATE[:k=v,...]'")
    try:
        rate = float(parts[1])
    except ValueError:
        raise ValueError(f"bad rate {parts[1]!r} in arrival spec "
                         f"{text!r}") from None
    alias = {"on": "mean_on", "off": "mean_off"}
    params: Dict[str, float] = {}
    if len(parts) > 2 and parts[2].strip():
        for pair in parts[2].split(","):
            if "=" not in pair:
                raise ValueError(
                    f"bad parameter {pair!r} in arrival spec {text!r}; "
                    f"expected k=v")
            key, value = pair.split("=", 1)
            key = alias.get(key.strip(), key.strip())
            try:
                params[key] = float(value)
            except ValueError:
                raise ValueError(
                    f"bad value {value!r} for {key} in arrival spec "
                    f"{text!r}") from None
    spec = ArrivalSpec(process=name, rate=rate, seed=seed,
                       params=tuple(sorted(params.items())))
    spec.build()  # validate parameters eagerly (raises ValueError)
    return spec
