"""The simulated storage fabric: partition servers, cost model, throttles.

Only ``ops`` and ``ratelimit``, all the live tier uses, load with the
package; the fabric model loads when one of its names is first asked for.
"""

from importlib import import_module

from .ops import OpDescriptor, OpKind, Service
from .ratelimit import SlidingWindowThrottle

#: The fabric's names by defining module, loaded on first use (PEP 562).
_FABRIC = {"StorageCluster": "model", "FabricCalibration": "calibration",
           "DEFAULT_CALIBRATION": "calibration", "PartitionServer": "servers",
           "ServerPool": "servers"}


def __getattr__(name: str):
    if name not in _FABRIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_FABRIC[name]}", __name__), name)


__all__ = [
    "StorageCluster",
    "FabricCalibration",
    "DEFAULT_CALIBRATION",
    "OpDescriptor",
    "OpKind",
    "Service",
    "SlidingWindowThrottle",
    "PartitionServer",
    "ServerPool",
]
