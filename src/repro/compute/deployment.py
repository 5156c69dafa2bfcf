"""Deployments: groups of role instances managed by the (simulated) fabric.

"In order to evaluate Windows Azure storage mechanisms, we deploy varying
number of virtual machines (VM) and these virtual machines read/write
from/to Azure storage concurrently." (paper Section I)
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..simkit import AllOf, Environment
from .roles import RoleBody, RoleContext, RoleInstance, RoleStatus
from .vmsizes import SMALL, VMSize

__all__ = ["Deployment", "Fabric"]


class Deployment:
    """N instances of one role body, started together.

    The body is any generator function taking a :class:`RoleContext`;
    instance ``role_id`` values run 0..N-1, mirroring the per-worker loops
    of the paper's algorithms.
    """

    def __init__(self, env: Environment, account, body: RoleBody, *,
                 instances: int, vm_size: VMSize = SMALL,
                 name: str = "worker", contain_crashes: bool = False) -> None:
        if instances < 1:
            raise ValueError("instances must be >= 1")
        self.env = env
        self.account = account
        self.name = name
        self.vm_size = vm_size
        self.body = body
        self.contain_crashes = contain_crashes
        self.instances: List[RoleInstance] = [
            RoleInstance(env, body, RoleContext(
                env, role_id=i, instance_count=instances,
                account=account, vm_size=vm_size, role_name=name,
            ), contain_crashes=contain_crashes)
            for i in range(instances)
        ]
        self._started = False

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "Deployment":
        """Start every instance (idempotent)."""
        if not self._started:
            for instance in self.instances:
                instance.start()
            self._started = True
        return self

    def all_done_event(self):
        """Simkit event firing when every instance terminates."""
        self.start()
        return AllOf(self.env, [i.process for i in self.instances])

    def run(self) -> List[Any]:
        """Start and run the simulation until all instances finish.

        Returns the instances' return values in role-id order.
        """
        self.env.run(until=self.all_done_event())
        return self.results()

    # -- inspection --------------------------------------------------------
    def results(self) -> List[Any]:
        return [i.result for i in self.instances]

    def statuses(self) -> List[RoleStatus]:
        return [i.status for i in self.instances]

    @property
    def completed(self) -> bool:
        return all(i.status is RoleStatus.COMPLETED for i in self.instances)

    @property
    def failed_instances(self) -> List[RoleInstance]:
        return [i for i in self.instances if i.status is RoleStatus.FAILED]

    # -- elasticity --------------------------------------------------------
    def add_instance(self) -> RoleInstance:
        """Scale out: append (and start, if running) one new instance.

        The new instance gets the next ``role_id``; existing contexts keep
        their original ``instance_count`` — role bodies must not assume
        the fleet size is static (the paper's framework already doesn't:
        task distribution is queue-pull, not id-partitioned).
        """
        role_id = len(self.instances)
        instance = RoleInstance(self.env, self.body, RoleContext(
            self.env, role_id=role_id, instance_count=role_id + 1,
            account=self.account, vm_size=self.vm_size, role_name=self.name,
        ), contain_crashes=self.contain_crashes)
        self.instances.append(instance)
        if self._started:
            instance.start()
        return instance

    def retire_instance(self, role_id: int) -> None:
        """Scale in, cooperatively: flag one instance to drain and exit.

        The body observes :attr:`RoleContext.retire_requested` at its next
        idle point and returns normally (status COMPLETED) — in-flight
        work is finished, never abandoned.
        """
        self.instances[role_id].context.retire_requested = True

    # -- fault injection ---------------------------------------------------
    def fail_instance(self, role_id: int, cause: Any = "role recycled") -> None:
        """Crash one running instance (tests the framework's fault tolerance)."""
        self.instances[role_id].fail(cause)

    def restart_instance(self, role_id: int) -> None:
        self.instances[role_id].restart()


class Fabric:
    """The Windows Azure Fabric: names and tracks deployments.

    "Fabric … is the network of interconnected physical computing nodes
    consisting of servers, high-speed connections, and switches.  Compute
    and storage components are part of the Fabric." (paper II.B)
    """

    def __init__(self, env: Environment, account) -> None:
        self.env = env
        self.account = account
        self.deployments: Dict[str, Deployment] = {}

    def deploy(self, body: RoleBody, *, instances: int,
               vm_size: VMSize = SMALL, name: str = "worker",
               contain_crashes: bool = False) -> Deployment:
        """Create and register a deployment (names must be unique)."""
        if name in self.deployments:
            raise ValueError(f"deployment {name!r} already exists")
        deployment = Deployment(
            self.env, self.account, body,
            instances=instances, vm_size=vm_size, name=name,
            contain_crashes=contain_crashes,
        )
        self.deployments[name] = deployment
        return deployment

    def start_all(self) -> None:
        for deployment in self.deployments.values():
            deployment.start()

    def run_all(self) -> Dict[str, List[Any]]:
        """Run until every deployment completes; results keyed by name."""
        self.start_all()
        events = [d.all_done_event() for d in self.deployments.values()]
        self.env.run(until=AllOf(self.env, events))
        return {name: d.results() for name, d in self.deployments.items()}
