"""The geo-replication ledger: the replication contract as laws.

The :class:`GeoLedger` is the geo counterpart of the queue-conservation
:class:`~repro.chaos.ledger.QueueLedger`: it folds plain *ledger events*
— tuples, so tests can synthesize histories without the harness — and
evaluates the replication contract as algebraic laws:

* ``("ack", seq, t)`` — the primary acknowledged mutation ``seq`` at
  time ``t`` (one per replication-log record);
* ``("ship", seq, ack_t, apply_t)`` — the shipper applied record
  ``seq`` (acked at ``ack_t``) on the secondary at ``apply_t``;
* ``("probe", t, primary, floor, secondary)`` — a staleness probe: at
  time ``t`` a monotone counter read ``secondary`` from the secondary
  endpoint while the primary's ground truth was ``primary`` and
  ``floor`` was the newest value acknowledged strictly before the Last
  Sync Time (the freshness the watermark *guarantees*);
* ``("promote", t, lst)`` — the secondary was promoted at ``t`` with
  final Last Sync Time ``lst``.

The hypothesis suite in ``tests/geo/test_geo_ledger.py`` pins the laws.

:meth:`GeoLedger.violations` checks:

1. no phantom ships (every shipped seq was acked, at the same ack time,
   at most once);
2. prefix shipping (records apply strictly in sequence order: no gaps
   behind a shipped record among earlier acked seqs, and apply times
   are monotone in seq);
3. causality and the lag bound (``ack_t <= apply_t``, and when
   ``max_lag`` is given, ``apply_t - ack_t <= max_lag``);
4. durability at promotion (every mutation acknowledged strictly before
   the final Last Sync Time was shipped — the bounded-loss contract of
   a forced failover), and at most one promotion;
5. probe staleness (``floor <= secondary <= primary``: the secondary is
   never newer than the primary nor staler than the Last Sync Time
   guarantees) and monotone secondary reads over probe time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

__all__ = ["GeoLedger", "geo_ledger_from_events"]


@dataclass(frozen=True)
class GeoLedger:
    """Replication-contract accounting for one geo-replicated account."""

    #: (seq, ack_time) — primary acknowledgements (log records).
    acks: FrozenSet[Tuple[int, float]] = frozenset()
    #: (seq, ack_time, apply_time) — secondary applications.
    ships: FrozenSet[Tuple[int, float, float]] = frozenset()
    #: (time, primary, floor, secondary) — staleness probes.
    probes: FrozenSet[Tuple[float, int, int, int]] = frozenset()
    #: (time, last_sync_time) — promotions (at most one is lawful).
    promotions: FrozenSet[Tuple[float, float]] = frozenset()

    # -- derived -----------------------------------------------------------
    def shipped_seqs(self) -> FrozenSet[int]:
        return frozenset(seq for (seq, _, _) in self.ships)

    def final_last_sync_time(self) -> Optional[float]:
        """The promotion watermark, if the account failed over."""
        if not self.promotions:
            return None
        return max(lst for (_, lst) in self.promotions)

    # -- the laws ----------------------------------------------------------
    def violations(self, *, max_lag: Optional[float] = None) -> List[str]:
        """Every replication-contract breach, as human-readable strings.

        ``max_lag`` is the caller's total staleness allowance — the
        configured replication lag plus any injected stall width plus
        shipper poll slack; ``None`` skips the lag-bound law (stall
        windows legitimately stretch apply times).
        """
        out: List[str] = []
        ack_times: Dict[int, float] = {}
        for seq, t in sorted(self.acks):
            if seq in ack_times and ack_times[seq] != t:
                out.append(
                    f"record {seq} acknowledged twice at different times "
                    f"({ack_times[seq]:.6f} and {t:.6f})")
            ack_times.setdefault(seq, t)

        ship_by_seq: Dict[int, List[Tuple[float, float]]] = {}
        for seq, ack_t, apply_t in sorted(self.ships):
            ship_by_seq.setdefault(seq, []).append((ack_t, apply_t))
        for seq, entries in sorted(ship_by_seq.items()):
            if seq not in ack_times:
                out.append(
                    f"record {seq} shipped without an acknowledgement "
                    f"(phantom ship)")
                continue
            if len(entries) > 1:
                out.append(
                    f"record {seq} shipped {len(entries)} times "
                    f"(duplicate application)")
            for ack_t, apply_t in entries:
                if ack_t != ack_times[seq]:
                    out.append(
                        f"record {seq} shipped with ack time {ack_t:.6f} "
                        f"but was acknowledged at {ack_times[seq]:.6f}")
                if apply_t < ack_t:
                    out.append(
                        f"record {seq} applied at {apply_t:.6f}, before "
                        f"its acknowledgement at {ack_t:.6f} (time travel)")
                elif (max_lag is not None
                      and apply_t - ack_t > max_lag
                      and not math.isclose(apply_t - ack_t, max_lag,
                                           rel_tol=1e-9, abs_tol=1e-9)):
                    # The tolerance forgives float rounding only: an
                    # apply at exactly ack + lag must not be flagged
                    # because (ack + lag) - ack landed one ULP high.
                    out.append(
                        f"record {seq} applied {apply_t - ack_t:.3f}s "
                        f"after its ack, beyond the {max_lag:.3f}s "
                        f"staleness allowance")

        # Prefix shipping: behind any shipped record, every earlier
        # acked seq must be shipped too, and applies are seq-ordered.
        shipped = self.shipped_seqs()
        if shipped:
            frontier = max(shipped)
            for seq in sorted(ack_times):
                if seq < frontier and seq not in shipped:
                    out.append(
                        f"record {seq} skipped: later record {frontier} "
                        f"shipped first (gap in the log prefix)")
            last_apply = None
            for seq in sorted(ship_by_seq):
                for _, apply_t in ship_by_seq[seq]:
                    if last_apply is not None and apply_t < last_apply:
                        out.append(
                            f"record {seq} applied at {apply_t:.6f}, "
                            f"earlier than a lower-seq record "
                            f"({last_apply:.6f}) — out-of-order replay")
                    last_apply = (apply_t if last_apply is None
                                  else max(last_apply, apply_t))

        if len(self.promotions) > 1:
            out.append(
                f"{len(self.promotions)} promotions recorded; a failover "
                f"promotes the secondary at most once")
        lst = self.final_last_sync_time()
        if lst is not None:
            for seq, t in sorted(ack_times.items()):
                if t < lst and seq not in shipped:
                    out.append(
                        f"record {seq} (acked at {t:.6f}) lost by failover "
                        f"despite Last Sync Time {lst:.6f} covering it")

        last_secondary = None
        for t, primary, floor, secondary in sorted(self.probes):
            if secondary > primary:
                out.append(
                    f"probe at {t:.6f}: secondary read {secondary} newer "
                    f"than the primary's {primary}")
            if secondary < floor:
                out.append(
                    f"probe at {t:.6f}: secondary read {secondary} older "
                    f"than the Last-Sync-Time floor {floor}")
            if last_secondary is not None and secondary < last_secondary:
                out.append(
                    f"probe at {t:.6f}: secondary read {secondary} went "
                    f"backwards (previous probe saw {last_secondary})")
            last_secondary = secondary
        return out


def geo_ledger_from_events(events: Iterable[Tuple]) -> GeoLedger:
    """Fold plain geo ledger events into one :class:`GeoLedger`."""
    acks = set()
    ships = set()
    probes = set()
    promotions = set()
    for event in events:
        kind = event[0]
        if kind == "ack":
            acks.add((event[1], event[2]))
        elif kind == "ship":
            ships.add((event[1], event[2], event[3]))
        elif kind == "probe":
            probes.add((event[1], event[2], event[3], event[4]))
        elif kind == "promote":
            promotions.add((event[1], event[2]))
        else:
            raise ValueError(f"unknown geo ledger event kind {kind!r}")
    return GeoLedger(
        acks=frozenset(acks), ships=frozenset(ships),
        probes=frozenset(probes), promotions=frozenset(promotions),
    )
