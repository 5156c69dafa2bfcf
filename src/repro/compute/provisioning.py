"""VM provisioning and deployment-timing model.

The paper's future work: "We will also include resource provisioning times
and application deployment timings."  This module supplies that model so the
deployment-timing ablation benchmark can quantify it.

The 2012-era fabric allocated role instances in stages — image transfer,
VM boot, role host start — and the observable provisioning time grew with
instance size and (weakly) with how many instances were requested at once.
The constants model the ~6-12 minute deployments users of the era measured;
like every fabric constant they are calibrated, seeded, and documented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..simkit import AllOf
from .deployment import Deployment
from .vmsizes import EXTRA_LARGE, EXTRA_SMALL, LARGE, MEDIUM, SMALL, VMSize

__all__ = ["ProvisioningModel", "ProvisionedStart", "provisioned_start"]

#: Mean provisioning minutes per VM size (bigger images + more resources to
#: reserve take longer to allocate).
_MEAN_MINUTES: Dict[str, float] = {
    EXTRA_SMALL.name: 6.0,
    SMALL.name: 7.0,
    MEDIUM.name: 8.0,
    LARGE.name: 9.5,
    EXTRA_LARGE.name: 11.0,
}


@dataclass
class ProvisionedStart:
    """Timing record of one deployment's provisioned start."""

    requested: int
    first_ready_at: float
    all_ready_at: float
    per_instance: List[float]


class ProvisioningModel:
    """Draws per-instance provisioning delays (seconds)."""

    def __init__(self, *, seed: int = 0, sigma: float = 0.25,
                 batch_penalty_s_per_instance: float = 2.0,
                 mean_minutes: Optional[Dict[str, float]] = None) -> None:
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        self._rng = np.random.default_rng(seed)
        self.sigma = sigma
        #: Allocation contention: each extra instance in one request adds a
        #: little to everyone's expected wait.
        self.batch_penalty_s_per_instance = batch_penalty_s_per_instance
        self.mean_minutes = dict(_MEAN_MINUTES if mean_minutes is None
                                 else mean_minutes)

    def mean_seconds(self, vm_size: VMSize, batch_size: int = 1) -> float:
        try:
            base = self.mean_minutes[vm_size.name] * 60.0
        except KeyError:
            raise KeyError(f"no provisioning mean for VM size {vm_size.name!r}")
        return base + self.batch_penalty_s_per_instance * max(0, batch_size - 1)

    def draw(self, vm_size: VMSize, batch_size: int = 1) -> float:
        """One provisioning delay draw (lognormal around the mean)."""
        mean = self.mean_seconds(vm_size, batch_size)
        if self.sigma == 0:
            return mean
        # Mean-preserving lognormal: E[lognormal(mu, s)] = exp(mu + s^2/2).
        mu = np.log(mean) - 0.5 * self.sigma ** 2
        return float(self._rng.lognormal(mu, self.sigma))


def provisioned_start(deployment: Deployment, model: ProvisioningModel
                      ) -> "tuple":
    """Start a deployment behind per-instance provisioning delays.

    Returns ``(all_started_event, record)``: the event fires when every
    instance has been provisioned *and started*; ``record`` is filled in as
    instances come up and is complete once the event fires.  The deployment
    must not have been started yet.
    """
    env = deployment.env
    if deployment._started:
        raise RuntimeError("deployment already started")
    deployment._started = True  # we take over instance starting

    n = len(deployment.instances)
    record = ProvisionedStart(requested=n, first_ready_at=float("inf"),
                              all_ready_at=0.0, per_instance=[0.0] * n)

    def provision(instance, index):
        delay = model.draw(deployment.vm_size, batch_size=n)
        yield env.timeout(delay)
        record.per_instance[index] = env.now
        record.first_ready_at = min(record.first_ready_at, env.now)
        record.all_ready_at = max(record.all_ready_at, env.now)
        instance.start()
        # The provisioning process completes when the role body does, so a
        # waiter on all_started also observes body completion.
        yield instance.process

    procs = [env.process(provision(inst, i))
             for i, inst in enumerate(deployment.instances)]
    return AllOf(env, procs), record
