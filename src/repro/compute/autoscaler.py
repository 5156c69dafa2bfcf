"""Queue-depth autoscaling: elastic worker fleets on the fabric.

The paper's framework distributes a bag of tasks through queues, so the
natural elasticity signal is *backlog*: how many tasks are sitting in
the task queues right now.  :class:`Autoscaler` polls a caller-supplied
``backlog_fn`` on a fixed cadence and drives a
:class:`~repro.compute.deployment.Deployment` between ``min_instances``
and ``max_instances``:

* backlog above ``high_watermark`` → :meth:`Deployment.add_instance`
  (scale out, one instance per decision);
* backlog at or below ``low_watermark`` → cooperative retire of the
  highest-numbered active instance (scale in; the body drains first).

Decisions are separated by ``cooldown`` seconds so a burst does not
thrash the fleet, mirroring the hysteresis every production autoscaler
(including the later Azure Autoscale) applies.

Determinism: the scaler draws **no randomness** — its schedule is the
fixed polling cadence and its inputs are simulation state, so an
elasticity run is exactly reproducible under a seed, and a run without
an autoscaler is bit-identical to one where the class was never
imported.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..simkit import Environment
from .deployment import Deployment
from .roles import RoleStatus

__all__ = ["Autoscaler"]


class Autoscaler:
    """Watches a backlog metric and scales one deployment on watermarks."""

    def __init__(self, env: Environment, deployment: Deployment,
                 backlog_fn: Callable[[], int], *,
                 high_watermark: int = 8, low_watermark: int = 0,
                 check_interval: float = 2.0, cooldown: float = 6.0,
                 min_instances: int = 1,
                 max_instances: Optional[int] = None) -> None:
        if high_watermark <= low_watermark:
            raise ValueError("need high_watermark > low_watermark")
        if check_interval <= 0 or cooldown < 0:
            raise ValueError("bad autoscaler timing parameters")
        if min_instances < 1:
            raise ValueError("min_instances must be >= 1")
        self.env = env
        self.deployment = deployment
        self.backlog_fn = backlog_fn
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.check_interval = check_interval
        self.cooldown = cooldown
        self.min_instances = min_instances
        self.max_instances = max_instances
        #: ``(time, action, backlog, active_after)`` per decision, with
        #: action in {"scale_out", "scale_in"} — elasticity evidence for
        #: the chaos verdict.
        self.events: List[Tuple[float, str, int, int]] = []
        self.scale_outs = 0
        self.scale_ins = 0
        self._last_action = float("-inf")
        self._process = None
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Autoscaler":
        if self._process is None:
            self._process = self.env.process(
                self._run(), name=f"autoscaler-{self.deployment.name}")
        return self

    def stop(self) -> None:
        self._stopped = True

    # -- inspection --------------------------------------------------------
    def active_instances(self) -> List:
        """Instances still serving: running and not asked to retire."""
        return [i for i in self.deployment.instances
                if i.status is RoleStatus.RUNNING
                and not i.context.retire_requested]

    def describe(self) -> dict:
        return {
            "scale_outs": self.scale_outs,
            "scale_ins": self.scale_ins,
            "peak_instances": max(
                (after for (_, _, _, after) in self.events),
                default=len(self.deployment.instances)),
            "decisions": [
                {"time": t, "action": action, "backlog": backlog,
                 "active": after}
                for (t, action, backlog, after) in self.events],
        }

    # -- the control loop --------------------------------------------------
    def _run(self):
        while not self._stopped:
            yield self.env.timeout(self.check_interval)
            if self._stopped:
                return
            if self.env.now - self._last_action < self.cooldown:
                continue
            backlog = int(self.backlog_fn())
            active = self.active_instances()
            if (backlog > self.high_watermark
                    and (self.max_instances is None
                         or len(active) < self.max_instances)):
                self.deployment.add_instance()
                self.scale_outs += 1
                self._last_action = self.env.now
                self.events.append((self.env.now, "scale_out", backlog,
                                    len(active) + 1))
            elif (backlog <= self.low_watermark
                    and len(active) > self.min_instances):
                # Retire the newest active instance: last hired, first
                # drained (keeps the original fleet stable for restarts).
                victim = max(active, key=lambda i: i.context.role_id)
                self.deployment.retire_instance(victim.context.role_id)
                self.scale_ins += 1
                self._last_action = self.env.now
                self.events.append((self.env.now, "scale_in", backlog,
                                    len(active) - 1))
