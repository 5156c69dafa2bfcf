"""Health-checked DN membership, ring healing, and shard rebalancing.

This is the failure-domain control plane of the service tier:

* **Health checks** — every data node is heartbeated (``_ping`` over the
  internal frame protocol) on a seeded-jittered interval.  Missed beats
  move a node ``UP -> SUSPECT -> DEAD`` (crash-stop: a DEAD node never
  returns; a replacement would join as a fresh index).  Timers draw from
  ``Random(f"{seed}:hb:{node}")`` so schedules are reproducible.
* **Ring healing** — a DEAD node is removed from the
  :class:`~repro.service.ring.HashRing`; its arcs fall to the ring
  successors immediately, so routing never again selects it.
* **Rebalancing** — after a heal, surviving holders stream the
  under-replicated shards (``_export_* -> _import_*`` pseudo-ops on the
  DN protocol) to the new owners until every partition label is back to
  R replicas.  ``drain`` is the planned-removal variant: copy first,
  then retire the node, so replication never dips below R.
* **Request-path state** — per-DN circuit breakers
  (:class:`repro.resilience.CircuitBreaker`) and the hedge retry budget
  (:class:`repro.resilience.RetryBudget`) that the service nodes consult
  on every routed call.

Defaults are the null failure domain: ``replicas=1`` and
``health_checks=False`` reduce the tier to the old static single-owner
behavior (no heartbeats, no hedging, breakers never trip a healthy DN),
which is what keeps the sim-path figures bit-identical.

Migration streams are snapshot copies racing any concurrent writers, the
same weak guarantee real rebalancers give; the chaos campaign's ledger
check (zero acked-write loss, at-least-once queues) is the contract.
"""

from __future__ import annotations

import asyncio
import enum
from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from ..resilience import CircuitBreaker, RetryBudget
from ..storage.clock import Clock
from .ring import DEFAULT_VNODES, HashRing

__all__ = ["NodeState", "FailureDomainConfig", "Membership"]


class NodeState(enum.Enum):
    UP = "up"
    SUSPECT = "suspect"
    DRAINING = "draining"
    DEAD = "dead"


@dataclass(frozen=True)
class FailureDomainConfig:
    """Knobs of the DN failure domain (defaults = failure domain off)."""

    #: Copies of every partition label (R).  1 = the old single-owner map.
    replicas: int = 1
    vnodes: int = DEFAULT_VNODES
    #: Heartbeat + death detection + rebalance on/off.
    health_checks: bool = False
    #: Seconds between heartbeats to one DN (jittered ±20%).
    heartbeat_interval: float = 0.2
    #: Missed beats before a node is SUSPECT / DEAD.
    suspect_after: int = 1
    dead_after: int = 3
    #: Per-heartbeat reply deadline.
    heartbeat_timeout: float = 1.0
    #: Per-DN deadline for a routed data call.
    dn_timeout: float = 10.0
    #: Reads: seconds before a hedged second request to another replica.
    hedge_delay: float = 0.05
    #: Token bucket bounding cluster-wide hedge amplification.
    hedge_budget: float = 64.0
    hedge_refill: float = 16.0
    #: Per-DN circuit breaker (consecutive transport failures).
    breaker_failures: int = 3
    breaker_reset: float = 0.5
    #: Retry-After surfaced with 503 while a shard has no live owner.
    retry_after: float = 0.5
    #: Migrate under-replicated shards after a heal.
    rebalance: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.replicas < 1 or self.vnodes < 1:
            raise ValueError("replicas and vnodes must be >= 1")
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat interval/timeout must be > 0")
        if not 1 <= self.suspect_after <= self.dead_after:
            raise ValueError("need 1 <= suspect_after <= dead_after")
        if self.dn_timeout <= 0 or self.hedge_delay < 0:
            raise ValueError("dn_timeout must be > 0, hedge_delay >= 0")
        if self.breaker_failures < 1 or self.breaker_reset <= 0:
            raise ValueError("breaker_failures >= 1, breaker_reset > 0")
        if self.retry_after <= 0:
            raise ValueError("retry_after must be > 0")

    @classmethod
    def kill_test(cls, replicas: int, seed: int) -> "FailureDomainConfig":
        """Health checks that declare a killed DN dead in well under a
        second: what ``repro load --kill-dn`` and the dn-failover
        campaign run their clusters on."""
        return cls(replicas=replicas, health_checks=True,
                   heartbeat_interval=0.1, suspect_after=1, dead_after=3,
                   heartbeat_timeout=0.5, retry_after=0.25, seed=seed)


#: Transport-level failures a replica call can die of (vs. a StorageError,
#: which is a *successful* round trip reporting a storage-level outcome).
TRANSPORT_ERRORS = (ConnectionError, OSError, asyncio.TimeoutError,
                    EOFError, asyncio.IncompleteReadError)


@dataclass
class _NodeHealth:
    state: NodeState = NodeState.UP
    misses: int = 0
    breaker: Optional[CircuitBreaker] = None


class Membership:
    """Shared DN liveness + placement view for every SN of one cluster."""

    def __init__(self, config: FailureDomainConfig,
                 clients: Sequence, accounts: Sequence[str],
                 clock: Clock) -> None:
        self.config = config
        self.clock = clock
        self.clients = list(clients)
        self.accounts = list(accounts)
        self.ring = HashRing(range(len(self.clients)),
                             vnodes=config.vnodes,
                             replicas=config.replicas)
        self._health: Dict[int, _NodeHealth] = {
            i: _NodeHealth(breaker=CircuitBreaker(
                failure_threshold=config.breaker_failures,
                reset_timeout=config.breaker_reset))
            for i in range(len(self.clients))
        }
        self.hedge_budget = RetryBudget(
            capacity=config.hedge_budget, refill_rate=config.hedge_refill)
        #: Observable accounting (tests, campaign reports).
        self.counters: Dict[str, int] = {
            "heartbeats": 0, "suspects": 0, "deaths": 0, "rebalances": 0,
            "shards_migrated": 0, "replica_errors": 0, "hedges": 0,
            "no_owner_503s": 0,
        }
        self._tasks: List[asyncio.Task] = []
        #: 3.11's ``wait_for`` swallows a cancel that lands as a ping answers.
        self._stopping = False
        # Made by start() on the cluster's event loop (py3.9 binds asyncio
        # primitives to the loop current at construction time).
        self._rebalance_lock: Optional[asyncio.Lock] = None
        self._settled: Optional[asyncio.Event] = None
        self._died: Optional[asyncio.Event] = None
        #: Cluster-clock instants of the last death and the heal completing.
        self.last_death_at: Optional[float] = None
        self.last_heal_at: Optional[float] = None

    # -- views ---------------------------------------------------------------
    def state(self, node: int) -> NodeState:
        return self._health[node].state

    def routable(self, node: int) -> bool:
        return self._health[node].state is not NodeState.DEAD

    def live_indices(self) -> List[int]:
        """Broadcast/fan-out target set: every non-dead node."""
        return [i for i in sorted(self._health) if self.routable(i)]

    def owners(self, label: str) -> Tuple[int, ...]:
        """Routable replica set of ``label``, primary first."""
        return tuple(i for i in self.ring.owners(label)
                     if self.routable(i))

    def breaker(self, node: int) -> CircuitBreaker:
        return self._health[node].breaker

    def note_replica_error(self) -> None:
        self.counters["replica_errors"] += 1

    def allow_hedge(self, now: float) -> bool:
        """Spend one hedge token; False when the budget is exhausted."""
        if self.hedge_budget.backoff(1, None, now=now) is None:
            return False
        self.counters["hedges"] += 1
        return True

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Start the heartbeat loops on the current event loop."""
        if self._settled is None:
            self._rebalance_lock = asyncio.Lock()
            self._settled, self._died = asyncio.Event(), asyncio.Event()
            self._settled.set()
        if not self.config.health_checks or self._tasks:
            return
        for i in range(len(self.clients)):
            self._tasks.append(asyncio.ensure_future(self._heartbeat(i)))

    async def stop(self) -> None:
        self._stopping = True
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    async def wait_settled(self, timeout: float = 30.0) -> bool:
        """Block until no rebalance is in flight (True) or timeout."""
        return await _in_time(self._settled.wait(), timeout)

    async def wait_deaths(self, count: int, timeout: float = 30.0) -> bool:
        """Block until ``count`` nodes have been declared dead (True) or
        timeout; ``mark_dead`` wakes the wait."""
        async def counted() -> None:
            while self.counters["deaths"] < count:
                self._died.clear()
                await self._died.wait()
        return await _in_time(counted(), timeout)

    # -- health checking -----------------------------------------------------
    async def _heartbeat(self, node: int) -> None:
        cfg = self.config
        rng = Random(f"{cfg.seed}:hb:{node}")
        while not self._stopping:
            # Seeded jitter de-synchronizes the per-node probes while
            # keeping the schedule reproducible under the seed.
            await asyncio.sleep(cfg.heartbeat_interval
                                * (0.8 + 0.4 * rng.random()))
            health = self._health[node]
            if health.state is NodeState.DEAD:
                return
            self.counters["heartbeats"] += 1
            try:
                await asyncio.wait_for(
                    self.clients[node].call("", "", "_ping", (), {}),
                    cfg.heartbeat_timeout)
            except TRANSPORT_ERRORS + (RuntimeError,):
                health.misses += 1
                if health.misses >= cfg.dead_after:
                    self.mark_dead(node)
                    return
                if (health.misses >= cfg.suspect_after
                        and health.state is NodeState.UP):
                    health.state = NodeState.SUSPECT
                    self.counters["suspects"] += 1
            else:
                health.misses = 0
                if health.state is NodeState.SUSPECT:
                    health.state = NodeState.UP

    def mark_dead(self, node: int) -> None:
        """Crash-stop ``node``: heal the ring, schedule the rebalance."""
        health = self._health[node]
        if health.state is NodeState.DEAD:
            return
        health.state = NodeState.DEAD
        self.last_death_at = self.clock.now()
        self.ring.remove(node)
        if self.config.rebalance and len(self.ring) >= 1:
            self._settled.clear()
            task = asyncio.ensure_future(self._rebalance_after_death())
            self._tasks.append(task)
        # Waiters last: once one sees the death, the settled event must
        # already be cleared.
        self.counters["deaths"] += 1
        self._died.set()

    async def _rebalance_after_death(self) -> None:
        try:
            await self.rebalance(self.ring)
        finally:
            self.last_heal_at = self.clock.now()
            self._settled.set()

    # -- planned removal -----------------------------------------------------
    async def drain(self, node: int) -> None:
        """Gracefully retire ``node``: copy first, then leave the ring.

        Unlike a crash, replication never dips below R: the node keeps
        serving (DRAINING) while its shards stream to the owners of the
        post-removal ring; only then does it stop being routable.
        """
        health = self._health[node]
        if health.state is NodeState.DEAD:
            return
        health.state = NodeState.DRAINING
        target = HashRing((i for i in self.ring.nodes if i != node),
                          vnodes=self.config.vnodes,
                          replicas=self.config.replicas)
        await self.rebalance(target)
        self.ring = target
        health.state = NodeState.DEAD

    # -- rebalancing ---------------------------------------------------------
    async def rebalance(self, target: HashRing) -> None:
        """Restore R copies of every data-holding label under ``target``.

        Holders are discovered from live manifests; every label whose
        desired owner set (under ``target``) misses a copy gets one
        streamed from its first surviving holder.  Idempotent: imports
        skip nothing destructive, and a second pass finds no gaps.
        """
        async with self._rebalance_lock:
            sources = [i for i in sorted(self._health) if self.routable(i)]
            migrated = 0
            for account in self.accounts:
                manifests: Dict[int, Dict] = {}
                for i in sources:
                    try:
                        manifests[i] = await self.clients[i].call(
                            account, "", "_manifest", (), {})
                    except TRANSPORT_ERRORS + (RuntimeError,):
                        continue  # died under us; heartbeats will notice
                migrated += await self._heal_account(
                    account, target, manifests)
            self.counters["rebalances"] += 1
            self.counters["shards_migrated"] += migrated

    async def _heal_account(self, account: str, target: HashRing,
                            manifests: Dict[int, Dict]) -> int:
        # resource key -> (export op, import op, export args) + holders
        resources: Dict[Tuple, List[int]] = {}
        for node, manifest in manifests.items():
            for container, blob in manifest.get("blobs", ()):
                key = ("blob", f"{container}/{blob}")
                resources.setdefault(key, []).append(node)
            for queue in manifest.get("queues", ()):
                resources.setdefault(("queue", queue), []).append(node)
            for pk in manifest.get("partitions", ()):
                resources.setdefault(("table", pk), []).append(node)
        migrated = 0
        for (client_kind, route_key), holders in sorted(resources.items()):
            label = f"{account}/{client_kind}/{route_key}"
            desired = [i for i in target.owners(label) if self.routable(i)]
            missing = [i for i in desired if i not in holders]
            if not missing:
                continue
            source = next((i for i in desired if i in holders),
                          holders[0])
            for dest in missing:
                try:
                    payload = await self.clients[source].call(
                        account, "", f"_export_{client_kind}",
                        (route_key,), {})
                    await self.clients[dest].call(
                        account, "", f"_import_{client_kind}",
                        (route_key, payload), {})
                    migrated += 1
                except TRANSPORT_ERRORS + (RuntimeError,):
                    self.note_replica_error()
        return migrated


async def _in_time(awaitable, timeout: float) -> bool:
    """Await ``awaitable``: True, or False once ``timeout`` seconds pass."""
    try:
        await asyncio.wait_for(awaitable, timeout)
        return True
    except asyncio.TimeoutError:
        return False
