"""Derive backend client classes from the operation registry.

Both ``Sim*Client`` and ``Emulator*Client`` classes are generated here from
the single registry in :mod:`repro.pipeline.registry` — one method per
:class:`~repro.pipeline.registry.OpSpec`, bound to what runs it on that
backend:

* :func:`sim_method` — a plain method returning the client cluster's
  round-trip generator, ``cluster.execute(None, body, name)``, built
  around the op body: it prepares on its first resume, charges the
  interceptors and the cost model in simulated time, and applies at the
  completion instant.  Call with ``yield from``.
* :func:`blocking_method` — a plain **blocking method** delegating to
  :meth:`repro.emulator.EmulatorAccount.run` (lock, interceptors, apply).
* :func:`shim_method` — a generator method over the same ``run`` that
  never actually yields, so sim-style bodies (``yield from
  client.op(...)``) run unmodified against the emulator.  This is what
  lets one benchmark body drive either backend.

``local=True`` specs (pure bookkeeping reads) become plain methods on
every backend: no round trip, no charge, no lock contention beyond the
emulator's own.
"""

from __future__ import annotations

from typing import Callable, Dict, Type

from .registry import OPERATIONS, OpSpec

__all__ = [
    "sim_method",
    "blocking_method",
    "shim_method",
    "local_method",
    "locked_local_method",
    "derive_client_class",
]


def _describe(method: Callable, spec: OpSpec) -> Callable:
    method.__name__ = spec.name
    method.__doc__ = spec.body.__doc__
    return method


def sim_method(spec: OpSpec) -> Callable:
    """Method returning the DES round trip of one op body.

    No generator frame of its own: the cluster's round trip prepares the
    body, charges it and applies it (:meth:`StorageCluster.execute`).
    """
    body = spec.body
    name = spec.name

    def method(self, *args, **kwargs):
        return self.cluster.execute(
            None, body(self._call, *args, **kwargs), name)

    return _describe(method, spec)


def blocking_method(spec: OpSpec) -> Callable:
    """Plain blocking method: the emulator account runs the op."""
    def method(self, *args, **kwargs):
        return self.account.run(spec, self._call, args, kwargs)

    return _describe(method, spec)


def shim_method(spec: OpSpec) -> Callable:
    """Never-yielding generator over the emulator account's ``run``.

    ``yield from`` on it returns the blocking result immediately, so code
    written for the sim clients drives the emulator unchanged.
    """
    def method(self, *args, **kwargs):
        return self.account.run(spec, self._call, args, kwargs)
        yield  # pragma: no cover -- marks this as a generator function

    return _describe(method, spec)


def local_method(spec: OpSpec) -> Callable:
    """Bookkeeping read: no round trip on any backend."""
    body = spec.body

    def method(self, *args, **kwargs):
        return body(self._call, *args, **kwargs)

    return _describe(method, spec)


def locked_local_method(spec: OpSpec) -> Callable:
    """Bookkeeping read under the emulator account's lock."""
    body = spec.body

    def method(self, *args, **kwargs):
        with self.account._lock:
            return body(self._call, *args, **kwargs)

    return _describe(method, spec)


def derive_client_class(class_name: str, client_kind: str, base: type, *,
                        method_factory: Callable[[OpSpec], Callable],
                        local_factory: Callable[[OpSpec], Callable] = None,
                        doc: str = None) -> Type:
    """Build one client class: registry methods on top of ``base``."""
    if local_factory is None:
        local_factory = local_method
    namespace: Dict[str, object] = {"__doc__": doc}
    for name, spec in OPERATIONS[client_kind].items():
        factory = local_factory if spec.local else method_factory
        namespace[name] = factory(spec)
    cls = type(class_name, (base,), namespace)
    cls.__module__ = base.__module__
    for attr in cls.__dict__.values():
        if callable(attr):
            attr.__qualname__ = f"{class_name}.{attr.__name__}"
    return cls
