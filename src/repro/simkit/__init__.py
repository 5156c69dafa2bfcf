"""A small, deterministic discrete-event simulation kernel.

``repro.simkit`` provides the event loop the AzureBench substrate runs on.
It follows the SimPy programming model (generator-based processes yielding
events) but is implemented from scratch so the reproduction has no
third-party simulation dependency.

Public surface::

    from repro.simkit import Environment, Interrupt, Resource, Store

    env = Environment()

    def client(env, server):
        with server.request() as req:
            yield req
            yield env.timeout(1.0)   # service time

    server = Resource(env, capacity=2)
    for _ in range(10):
        env.process(client(env, server))
    env.run()
"""

from .environment import Environment
from .events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    NORMAL,
    PENDING,
    Timeout,
    URGENT,
)
from .exceptions import EmptySchedule, Interrupt, SimkitError, StopProcess
from .monitor import Tally
from .process import Detached, Process, ProcessGenerator
from .resources import Request, Resource, Store

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "PENDING",
    "URGENT",
    "NORMAL",
    "Process",
    "Detached",
    "ProcessGenerator",
    "Interrupt",
    "SimkitError",
    "StopProcess",
    "EmptySchedule",
    "Resource",
    "Request",
    "Store",
    "Tally",
]
