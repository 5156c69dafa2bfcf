"""Unified storage-operation pipeline shared by the DES and emulator backends.

One op registry defines the 2012 SDK surface; an ordered interceptor stack
(auth -> analytics -> faults -> throttles) applies every cross-cutting
concern on both backends.  A derived sim client charges the registry's
descriptors on the DES cluster directly; a derived emulator client runs
them through its account's lock and pipeline
(:meth:`repro.emulator.EmulatorAccount.run`); a data node applies them
directly.
"""

from .context import OpContext
from .interceptors import (
    AnalyticsInterceptor,
    AuthInterceptor,
    FaultInterceptor,
    Interceptor,
    Pipeline,
    ThrottleInterceptor,
)
from .registry import OPERATIONS, OpCall, OpSpec
from .clients import (
    blocking_method,
    derive_client_class,
    local_method,
    locked_local_method,
    shim_method,
    sim_method,
)

__all__ = [
    "OpContext",
    "Interceptor",
    "Pipeline",
    "AuthInterceptor",
    "AnalyticsInterceptor",
    "FaultInterceptor",
    "ThrottleInterceptor",
    "OPERATIONS",
    "OpCall",
    "OpSpec",
    "derive_client_class",
    "sim_method",
    "blocking_method",
    "shim_method",
    "local_method",
    "locked_local_method",
]
