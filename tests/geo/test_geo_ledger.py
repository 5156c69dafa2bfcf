"""Unit and property tests for the geo-replication ledger algebra.

The hypothesis properties mirror the queue-conservation suite
(``tests/chaos/test_ledger.py``): conforming replication histories
never produce false violations, and a spliced-away ship event is
*always* detected by the prefix/durability laws.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.ledger import GeoLedger, geo_ledger_from_events

LAG = 2.0


# -- history generators --------------------------------------------------------

@st.composite
def conforming_events(draw, min_records=0, min_shipped=0):
    """Geo ledger events of a conforming run.

    Acks arrive in seq order at strictly increasing times; a prefix of
    them ships in order, each within the lag; an optional promotion
    freezes the Last Sync Time at the shipped frontier; probes read a
    monotone counter that is never newer than the primary nor older
    than the watermark floor.
    """
    n = draw(st.integers(max(min_records, min_shipped), 12))
    events = []
    ack_times = []
    t = 0.0
    for seq in range(n):
        t += draw(st.floats(0.1, 2.0, allow_nan=False))
        ack_times.append(t)
        events.append(("ack", seq, t))
    shipped = draw(st.integers(min_shipped, n))
    apply_t = 0.0
    for seq in range(shipped):
        # In-order apply, at or after the ack, within the lag.
        apply_t = max(apply_t,
                      ack_times[seq] + draw(st.floats(0.0, LAG,
                                                      allow_nan=False)))
        events.append(("ship", seq, ack_times[seq], apply_t))
    promoted = draw(st.booleans())
    if promoted:
        # Strict durability: every ack *before* the watermark shipped,
        # so the watermark may sit anywhere up to the first lost ack.
        lst = ack_times[shipped - 1] if shipped else 0.0
        events.append(("promote", t + 1.0, lst))
    secondary = 0
    probe_t = 0.0
    for _ in range(draw(st.integers(0, 4))):
        probe_t += draw(st.floats(0.1, 1.0, allow_nan=False))
        secondary += draw(st.integers(0, 3))
        primary = secondary + draw(st.integers(0, 3))
        floor = max(0, secondary - draw(st.integers(0, secondary)))
        events.append(("probe", probe_t, primary, floor, secondary))
    return events


# -- no false positives --------------------------------------------------------

@given(conforming_events())
@settings(max_examples=100)
def test_conforming_histories_have_no_violations(events):
    assert geo_ledger_from_events(events).violations(max_lag=LAG) == []


@given(conforming_events())
@settings(max_examples=60)
def test_no_lag_bound_is_always_lenient(events):
    """Dropping the lag law can only remove violations, never add."""
    assert geo_ledger_from_events(events).violations() == []


# -- guaranteed detection ------------------------------------------------------

@given(conforming_events(min_shipped=2), st.randoms())
@settings(max_examples=100)
def test_spliced_ship_is_always_detected(events, rng):
    """Erase one non-frontier ship: the prefix law must flag the gap."""
    ships = sorted(e[1] for e in events if e[0] == "ship")
    victim = rng.choice(ships[:-1])  # keep the frontier so a gap opens
    spliced = [e for e in events if not (e[0] == "ship" and e[1] == victim)]
    violations = geo_ledger_from_events(spliced).violations(max_lag=LAG)
    assert any("gap in the log prefix" in v or "lost by failover" in v
               for v in violations), violations


def test_phantom_ship_detected():
    events = [("ship", 3, 1.0, 2.0)]
    assert any("phantom ship" in v
               for v in geo_ledger_from_events(events).violations())


def test_duplicate_ship_detected():
    events = [("ack", 0, 1.0), ("ship", 0, 1.0, 2.0), ("ship", 0, 1.0, 2.5)]
    assert any("duplicate application" in v
               for v in geo_ledger_from_events(events).violations())


def test_ack_time_mismatch_detected():
    events = [("ack", 0, 1.0), ("ship", 0, 1.5, 2.0)]
    assert any("was acknowledged at" in v
               for v in geo_ledger_from_events(events).violations())


def test_time_travel_detected():
    events = [("ack", 0, 3.0), ("ship", 0, 3.0, 2.0)]
    assert any("time travel" in v
               for v in geo_ledger_from_events(events).violations())


def test_lag_bound_enforced_only_when_given():
    events = [("ack", 0, 1.0), ("ship", 0, 1.0, 9.0)]
    ledger = geo_ledger_from_events(events)
    assert ledger.violations() == []
    assert any("staleness allowance" in v
               for v in ledger.violations(max_lag=LAG))


def test_out_of_order_replay_detected():
    events = [("ack", 0, 1.0), ("ack", 1, 2.0),
              ("ship", 0, 1.0, 5.0), ("ship", 1, 2.0, 4.0)]
    assert any("out-of-order replay" in v
               for v in geo_ledger_from_events(events).violations())


def test_double_promotion_detected():
    events = [("promote", 5.0, 1.0), ("promote", 6.0, 2.0)]
    assert any("at most once" in v
               for v in geo_ledger_from_events(events).violations())


def test_durability_breach_detected():
    """An ack strictly before the final LST that never shipped is loss
    the watermark promised could not happen."""
    events = [("ack", 0, 1.0), ("promote", 5.0, 2.0)]
    assert any("lost by failover" in v
               for v in geo_ledger_from_events(events).violations())


def test_bounded_loss_is_not_a_violation():
    """Acks at or after the watermark are the lawful forced-failover
    casualty list."""
    events = [("ack", 0, 1.0), ("ship", 0, 1.0, 1.5),
              ("ack", 1, 3.0), ("promote", 5.0, 2.0)]
    assert geo_ledger_from_events(events).violations() == []


def test_probe_newer_than_primary_detected():
    events = [("probe", 1.0, 3, 0, 4)]
    assert any("newer than the primary" in v
               for v in geo_ledger_from_events(events).violations())


def test_probe_staler_than_floor_detected():
    events = [("probe", 1.0, 5, 3, 2)]
    assert any("older than the Last-Sync-Time floor" in v
               for v in geo_ledger_from_events(events).violations())


def test_probe_regression_detected():
    events = [("probe", 1.0, 5, 0, 4), ("probe", 2.0, 5, 0, 3)]
    assert any("went backwards" in v
               for v in geo_ledger_from_events(events).violations())


def test_unknown_event_kind_raises():
    with pytest.raises(ValueError, match="unknown geo ledger event"):
        geo_ledger_from_events([("teleport", 1, 2.0)])


def test_final_last_sync_time():
    assert GeoLedger().final_last_sync_time() is None
    ledger = geo_ledger_from_events([("promote", 5.0, 3.25)])
    assert ledger.final_last_sync_time() == 3.25
