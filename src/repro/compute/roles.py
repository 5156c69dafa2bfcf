"""Web and worker roles: the Azure compute programming model (paper II.B).

"Its programming primitives consist of two types of processes called web
role and worker role for computation …  Worker roles are the processing
entities representing the backend processing for the web application."

A role *body* is a simkit process generator taking a :class:`RoleContext`;
a :class:`RoleInstance` runs one body on one simulated VM and supports the
failure/recycle semantics of the fabric (instances can crash and restart —
the framework's queue-based fault tolerance is exercised that way).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Optional

from ..simkit import Environment, Interrupt, Process, StopProcess
from .vmsizes import VMSize

__all__ = ["RoleContext", "RoleInstance", "RoleStatus", "RoleBody"]

RoleBody = Callable[["RoleContext"], Generator]


class RoleStatus(enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    STOPPED = "stopped"
    FAILED = "failed"
    COMPLETED = "completed"


class RoleContext:
    """Everything a role body can see: its identity and the environment."""

    def __init__(self, env: Environment, role_id: int, instance_count: int,
                 account, vm_size: VMSize, role_name: str) -> None:
        self.env = env
        #: Zero-based instance index (the paper's ``roleId``).
        self.role_id = role_id
        #: Total instances of this role (the paper's ``workers``).
        self.instance_count = instance_count
        #: The (simulated or emulated) storage account.
        self.account = account
        self.vm_size = vm_size
        self.role_name = role_name
        #: Cooperative scale-in: an autoscaler (or operator) sets this;
        #: long-running bodies check it at idle points and return cleanly
        #: — the 2012 fabric's "delete role instance" was exactly such a
        #: drain-then-remove.
        self.retire_requested = False

    @property
    def now(self) -> float:
        return self.env.now

    def sleep(self, seconds: float):
        """Sleep helper (``Sleep(1 second)`` in Algorithm 2)."""
        return self.env.timeout(seconds)


class _RoleProcess(Process):
    """A role body run as a process, reporting its end to its instance.

    An :class:`Interrupt` (a recycled role) ends the process as a ``None``
    success with the instance FAILED; so does any other exception when the
    instance contains crashes, else the process fails with it.  A body
    that raises :class:`StopProcess` has the instance FAILED with it as
    well, while the process ends as the kernel ends any such process.
    """

    __slots__ = ("role",)

    def __init__(self, env: Environment, generator: Generator, name: str,
                 role: "RoleInstance") -> None:
        super().__init__(env, generator, name)
        self.role = role

    def _exit(self, ok: bool, value: Any) -> None:
        role = self.role
        if ok:
            role.status = RoleStatus.COMPLETED
            role.result = value
        else:
            role.status = RoleStatus.FAILED
            role.failure = value
            if isinstance(value, Interrupt) or role.contain_crashes:
                ok, value = True, None
        Process._exit(self, ok, value)

    def _stop(self, stop: StopProcess) -> None:
        role = self.role
        role.status = RoleStatus.FAILED
        role.failure = stop
        Process._exit(self, True, None if role.contain_crashes
                      else stop.value)


class RoleInstance:
    """One running instance of a web or worker role."""

    def __init__(self, env: Environment, body: RoleBody, context: RoleContext,
                 *, contain_crashes: bool = False) -> None:
        self.env = env
        self.body = body
        self.context = context
        self.status = RoleStatus.CREATED
        self.process: Optional[Process] = None
        self.result: Any = None
        self.failure: Optional[BaseException] = None
        self.restarts = 0
        #: Fabric-style crash containment: application exceptions mark the
        #: instance FAILED (for a Supervisor to recycle) instead of
        #: propagating out of the simulation.
        self.contain_crashes = contain_crashes

    @property
    def name(self) -> str:
        return f"{self.context.role_name}#{self.context.role_id}"

    def start(self) -> Process:
        """Launch the role body as a simkit process.

        The body's generator is the process itself; its end sets
        :attr:`status`, :attr:`result` and :attr:`failure` on the spot
        (:class:`_RoleProcess`).  The body is called here: a body that
        raises at the call, or returns no generator, raises out of this
        method and leaves the instance as it was.
        """
        if self.status is RoleStatus.RUNNING:
            raise RuntimeError(f"{self.name} is already running")
        self.process = _RoleProcess(self.env, self.body(self.context),
                                    self.name, self)
        self.status = RoleStatus.RUNNING
        return self.process

    def fail(self, cause: Any = "role recycled") -> None:
        """Simulate an instance failure (fabric recycle, VM crash)."""
        if self.process is None or not self.process.is_alive:
            raise RuntimeError(f"{self.name} is not running")
        self.process.interrupt(cause)

    def restart(self) -> Process:
        """Start the body again after a failure (fresh generator)."""
        if self.status is RoleStatus.RUNNING:
            raise RuntimeError(f"{self.name} is still running")
        self.restarts += 1
        self.failure = None
        self.status = RoleStatus.CREATED
        return self.start()
