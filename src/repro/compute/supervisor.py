"""Role supervision: the fabric's automatic instance recovery.

The 2012 Azure fabric monitored role instances and restarted any that
crashed ("role recycling").  Combined with queue redelivery, that is the
full fault-tolerance story of the paper's framework: the *message* survives
because it was never deleted, and the *worker* survives because the fabric
brings it back.

:class:`Supervisor` watches a deployment and restarts failed instances
after a recycle delay, with an optional restart budget per instance (to
model the fabric giving up on crash-looping roles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..simkit import Environment
from .deployment import Deployment
from .roles import RoleStatus

__all__ = ["Supervisor", "RestartRecord"]


@dataclass(frozen=True)
class RestartRecord:
    """One restart performed by the supervisor."""

    role_id: int
    failed_at: float
    restarted_at: float
    attempt: int


class Supervisor:
    """Watches one deployment and recycles failed instances.

    ``recycle_delay`` models the fabric's detect-and-restart latency
    (tens of seconds in the 2012 fabric).  ``max_restarts`` bounds restarts
    per instance; beyond it the instance stays FAILED (crash-loop cutoff).
    """

    def __init__(self, deployment: Deployment, *,
                 recycle_delay: float = 15.0,
                 poll_interval: float = 1.0,
                 max_restarts: Optional[int] = None) -> None:
        if recycle_delay < 0 or poll_interval <= 0:
            raise ValueError("bad supervisor timing parameters")
        self.deployment = deployment
        self.env: Environment = deployment.env
        self.recycle_delay = recycle_delay
        self.poll_interval = poll_interval
        self.max_restarts = max_restarts
        self.restarts: List[RestartRecord] = []
        self._attempts: Dict[int, int] = {}
        self._process = None
        self._stopped = False

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "Supervisor":
        """Begin watching (idempotent)."""
        if self._process is None:
            self._process = self.env.process(self._watch(), name="supervisor")
        return self

    def stop(self) -> None:
        """Stop watching (lets the simulation drain)."""
        self._stopped = True

    def _watch(self):
        while not self._stopped:
            all_done = True
            for instance in self.deployment.instances:
                if instance.status is RoleStatus.FAILED:
                    role_id = instance.context.role_id
                    attempt = self._attempts.get(role_id, 0) + 1
                    if (self.max_restarts is not None
                            and attempt > self.max_restarts):
                        continue  # crash-loop cutoff: leave it failed
                    failed_at = self.env.now
                    yield self.env.timeout(self.recycle_delay)
                    # Re-check: an operator may have restarted it meanwhile.
                    if instance.status is not RoleStatus.FAILED:
                        continue
                    instance.restart()
                    self._attempts[role_id] = attempt
                    self.restarts.append(RestartRecord(
                        role_id=role_id, failed_at=failed_at,
                        restarted_at=self.env.now, attempt=attempt))
                    all_done = False
                elif instance.status is RoleStatus.RUNNING:
                    all_done = False
            if all_done:
                return  # everything completed (or permanently failed)
            yield self.env.timeout(self.poll_interval)

    # -- inspection --------------------------------------------------------
    @property
    def restart_count(self) -> int:
        return len(self.restarts)

    def restarts_for(self, role_id: int) -> int:
        return self._attempts.get(role_id, 0)
