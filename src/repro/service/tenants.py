"""Per-tenant state at the service node: keys, pipelines, analytics.

Multi-tenancy is the point of the SN tier: each storage account gets its
*own* interceptor pipeline — ``auth -> analytics -> throttles`` in the
canonical stack order — so one tenant's throttle storm consumes only its
own sliding windows and its Storage Analytics see only its own traffic.
The data nodes behind the SN stay tenant-agnostic (they shard state by
account but enforce no targets; admission control is a front-door job,
exactly like the real service's front-ends).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..pipeline import (
    AnalyticsInterceptor,
    AuthInterceptor,
    Pipeline,
    ThrottleInterceptor,
)
from ..storage.analytics import MetricsAggregator, RequestLog
from ..storage.errors import AuthenticationFailedError
from ..storage.limits import LIMITS_2012, ServiceLimits
from . import sharedkey
from .httpd import HttpRequest
from .sharedkey import DEV_ACCOUNT, DEV_KEY, SignatureError

__all__ = ["TenantConfig", "Tenant", "TenantDirectory"]

#: Analytics records kept per tenant, newest last: a server's memory must
#: not grow with the requests it has served.
REQUEST_LOG_TAIL = 1024


@dataclass(frozen=True)
class TenantConfig:
    """One account the service tier serves."""

    account: str
    key: str
    limits: ServiceLimits = LIMITS_2012
    #: Enforce the per-account scalability targets at the front door.
    enforce_targets: bool = True

    @staticmethod
    def development(**overrides) -> "TenantConfig":
        """Azurite's well-known ``devstoreaccount1`` account."""
        return TenantConfig(DEV_ACCOUNT, DEV_KEY, **overrides)


class Tenant:
    """One account's front-door state shared by every service node.

    The pipeline (and hence the throttle windows and analytics sinks) is
    deliberately **one per tenant, not one per service node**: the
    published targets are per *account*, so all SNs of a cluster charge
    the same windows, like the real front-ends sharing the partition
    master's rate state.
    """

    def __init__(self, config: TenantConfig) -> None:
        self.account = config.account
        self.key = config.key
        self.limits = config.limits
        self.log = RequestLog(capacity=REQUEST_LOG_TAIL)
        self.metrics = MetricsAggregator()
        stages = [
            AuthInterceptor(self._authorize_ctx),
            AnalyticsInterceptor(self.log, self.metrics),
        ]
        if config.enforce_targets:
            stages.append(ThrottleInterceptor(config.limits))
        self.pipeline = Pipeline(stages)

    # -- authentication -----------------------------------------------------
    def authorize_request(self, service: str, request: HttpRequest) -> None:
        """Verify the request's SharedKey signature; raise 403 on failure."""
        header = request.header("authorization")
        if not header:
            raise AuthenticationFailedError(
                "request carries no Authorization header")
        try:
            account, _sig = sharedkey.parse_authorization(header)
            if account != self.account:
                raise SignatureError(
                    f"signed for account {account!r}, "
                    f"addressed to {self.account!r}")
            sharedkey.verify_request(
                self.key, request.method, request.path, request.query,
                request.headers, header,
                table_flavor=(service == "table"))
        except SignatureError as exc:
            raise AuthenticationFailedError(str(exc)) from None

    def _authorize_ctx(self, ctx) -> None:
        """AuthInterceptor hook: the raw request rides on ``ctx.extras``."""
        wire = ctx.extras.get("wire")
        if wire is None:
            return  # not a wire-borne op (tests driving the pipeline bare)
        service, request = wire
        self.authorize_request(service, request)


class TenantDirectory:
    """Account name -> :class:`Tenant`, shared by all service nodes."""

    def __init__(self, configs: Optional[Iterable[TenantConfig]] = None
                 ) -> None:
        self._tenants: Dict[str, Tenant] = {}
        for config in (configs if configs is not None
                       else [TenantConfig.development()]):
            self.add(config)

    def add(self, config: TenantConfig) -> Tenant:
        if config.account in self._tenants:
            raise ValueError(f"tenant {config.account!r} already registered")
        tenant = Tenant(config)
        self._tenants[config.account] = tenant
        return tenant

    def get(self, account: str) -> Tenant:
        tenant = self._tenants.get(account)
        if tenant is None:
            # The real service does not reveal which accounts exist: an
            # unknown account fails authentication, not lookup.
            raise AuthenticationFailedError(
                f"unknown storage account {account!r}")
        return tenant

    def accounts(self) -> list:
        return sorted(self._tenants)

    def __iter__(self):
        return iter(self._tenants.values())
