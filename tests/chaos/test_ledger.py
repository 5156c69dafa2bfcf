"""Unit and property tests for the queue-conservation ledger algebra.

The hypothesis properties pin the two guarantees the chaos harness
leans on: conforming histories never produce false violations, and a
spliced synthetic drop is *always* detected.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.ledger import ledger_from_events


# -- history generators --------------------------------------------------------

@st.composite
def conforming_events(draw, min_messages=0):
    """Ledger events of a loss-free run: every lifecycle is explained."""
    queues = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    events = []
    for m in range(draw(st.integers(min_messages, 10))):
        queue = draw(st.sampled_from(queues))
        msg_id = f"m{m}"
        events.append(("put", queue, msg_id))
        deliveries = draw(st.integers(0, 3))
        for d in range(deliveries):
            explained = ("" if d == 0
                         else draw(st.sampled_from(["dup", "timeout"])))
            events.append(("deliver", queue, msg_id, d + 1, explained))
        if deliveries and draw(st.booleans()):
            events.append(("delete", queue, msg_id, True))
            if draw(st.booleans()):
                # A stale receipt after redelivery: tolerated, not a law.
                events.append(("delete", queue, msg_id, False))
        else:
            events.append(("remaining", queue, msg_id))
    for _ in range(draw(st.integers(0, 2))):
        # Injected (attributed) losses are expected, not violations.
        events.append(("put_lost", draw(st.sampled_from(queues)), True))
    if draw(st.booleans()):
        # A purged queue absorbs its leftovers.
        events.append(("put", "purged-q", "px"))
        events.append(("purge", "purged-q"))
    return events


# -- no false positives --------------------------------------------------------

@given(conforming_events())
@settings(max_examples=100)
def test_conforming_histories_have_no_violations(events):
    assert ledger_from_events(events).violations() == []


# -- guaranteed detection ------------------------------------------------------

@given(conforming_events(min_messages=1), st.randoms())
@settings(max_examples=100)
def test_spliced_drop_is_always_detected(events, rng):
    """Erase one message's landing: the checker must flag the splice."""
    victims = [e[2] for e in events if e[0] == "put" and e[1] != "purged-q"]
    victim = rng.choice(victims)
    spliced = [e for e in events
               if not (len(e) > 2 and e[2] == victim and e[0] != "put")]
    violations = ledger_from_events(spliced).violations()
    assert any("vanished" in v for v in violations), violations


def test_silent_loss_detected():
    events = [("put_lost", "q", False)]
    violations = ledger_from_events(events).violations()
    assert len(violations) == 1 and "without an injected" in violations[0]


def test_injected_loss_is_not_a_violation():
    assert ledger_from_events([("put_lost", "q", True)]).violations() == []


def test_phantom_delivery_detected():
    events = [("deliver", "q", "ghost", 1, "")]
    assert any("phantom" in v
               for v in ledger_from_events(events).violations())


def test_unexplained_duplicate_detected():
    events = [("put", "q", "m"), ("deliver", "q", "m", 1, ""),
              ("deliver", "q", "m", 2, ""), ("delete", "q", "m", True)]
    assert any("unexplained duplicate" in v
               for v in ledger_from_events(events).violations())


def test_explained_duplicate_conforms():
    events = [("put", "q", "m"), ("deliver", "q", "m", 1, ""),
              ("deliver", "q", "m", 2, "timeout"),
              ("delete", "q", "m", True)]
    assert ledger_from_events(events).violations() == []


def test_delete_without_delivery_detected():
    events = [("put", "q", "m"), ("delete", "q", "m", True)]
    assert any("delete without delivery" in v
               for v in ledger_from_events(events).violations())


def test_phantom_remainder_detected():
    events = [("remaining", "q", "ghost")]
    assert any("phantom remainder" in v
               for v in ledger_from_events(events).violations())


def test_purge_covers_undeleted_messages():
    events = [("put", "q", "m"), ("purge", "q")]
    assert ledger_from_events(events).violations() == []


def test_unknown_event_kind_raises():
    with pytest.raises(ValueError, match="unknown ledger event"):
        ledger_from_events([("teleport", "q", "m")])


def test_acked_puts_counts_landed_and_lost():
    ledger = ledger_from_events([
        ("put", "q", "a"), ("put", "q", "b"),
        ("put_lost", "q", True), ("put_lost", "q", False)])
    assert ledger.acked_puts("q") == 4
    assert ledger.queues() == ["q"]
