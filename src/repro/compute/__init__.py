"""Compute substrate: VM sizes (Table I), roles, deployments, the fabric."""

from .autoscaler import Autoscaler
from .deployment import Deployment, Fabric
from .endpoints import Endpoint, EndpointError, EndpointRegistry, TcpMessage
from .provisioning import ProvisionedStart, ProvisioningModel, provisioned_start
from .roles import RoleBody, RoleContext, RoleInstance, RoleStatus
from .supervisor import RestartRecord, Supervisor
from .vmsizes import (
    EXTRA_LARGE,
    EXTRA_SMALL,
    LARGE,
    MEDIUM,
    SMALL,
    TABLE_I,
    VMSize,
)

__all__ = [
    "Autoscaler",
    "Deployment",
    "Fabric",
    "RoleBody",
    "RoleContext",
    "RoleInstance",
    "RoleStatus",
    "VMSize",
    "TABLE_I",
    "EXTRA_SMALL",
    "SMALL",
    "MEDIUM",
    "LARGE",
    "EXTRA_LARGE",
    "EndpointRegistry",
    "Endpoint",
    "EndpointError",
    "TcpMessage",
    "ProvisioningModel",
    "ProvisionedStart",
    "provisioned_start",
    "Supervisor",
    "RestartRecord",
]
