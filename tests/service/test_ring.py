"""Property suite for the DN placement ring + the routing-equivalence pin.

The ring replaced the service nodes' static ``crc32(label) mod M`` map,
so besides the classic consistent-hashing properties (distinct replica
sets, construction-order independence, minimal movement, rough balance)
this file pins the backward-compatibility claim: with a single data
node the ring routes every label exactly where the old modulo map did.
"""

import zlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.membership import FailureDomainConfig, Membership
from repro.service.ring import DEFAULT_VNODES, HashRing
from repro.storage.clock import ManualClock

node_ids = st.integers(min_value=0, max_value=31)
node_sets = st.sets(node_ids, min_size=1, max_size=8)
labels = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=48)


def primary(ring, label):
    """The label's first owner, whatever the ring's R."""
    return ring.owners(label, replicas=1)[0]


# -- replica sets -----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(nodes=node_sets, label=labels,
       replicas=st.integers(min_value=1, max_value=5))
def test_owners_are_distinct_ring_members(nodes, label, replicas):
    ring = HashRing(nodes, replicas=replicas)
    owners = ring.owners(label)
    assert len(owners) == len(set(owners)) == min(replicas, len(nodes))
    assert all(node in nodes for node in owners)
    assert owners[0] == primary(ring, label)


@settings(max_examples=100, deadline=None)
@given(nodes=node_sets, label=labels)
def test_replica_override_widens_without_reordering(nodes, label):
    ring = HashRing(nodes, replicas=1)
    narrow = ring.owners(label)
    wide = ring.owners(label, replicas=len(nodes))
    assert wide[:1] == narrow
    assert len(wide) == len(nodes)


# -- determinism ------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(nodes=st.lists(node_ids, min_size=1, max_size=8, unique=True),
       label=labels)
def test_construction_order_is_irrelevant(nodes, label):
    forward = HashRing(nodes, replicas=2)
    backward = HashRing(reversed(nodes), replicas=2)
    assert forward.owners(label) == backward.owners(label)


@settings(max_examples=50, deadline=None)
@given(nodes=node_sets, label=labels)
def test_add_is_idempotent(nodes, label):
    ring = HashRing(nodes, replicas=2)
    before = ring.owners(label)
    for node in nodes:
        ring.add(node)
    assert ring.owners(label) == before


# -- minimal movement -------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(nodes=node_sets, newcomer=node_ids, label=labels)
def test_join_moves_keys_only_to_the_newcomer(nodes, newcomer, label):
    ring = HashRing(nodes)
    before = primary(ring, label)
    ring.add(newcomer)
    after = primary(ring, label)
    assert after in (before, newcomer)


@settings(max_examples=100, deadline=None)
@given(nodes=st.sets(node_ids, min_size=2, max_size=8), label=labels)
def test_leave_moves_only_the_leavers_keys(nodes, label):
    ring = HashRing(nodes)
    victim = min(nodes)
    before = primary(ring, label)
    ring.remove(victim)
    if before != victim:
        assert primary(ring, label) == before
    else:
        assert primary(ring, label) in nodes - {victim}


@settings(max_examples=50, deadline=None)
@given(nodes=st.sets(node_ids, min_size=2, max_size=6), label=labels)
def test_survivor_replicas_survive_a_death(nodes, label):
    """Every live replica of a label is still a replica after a death."""
    ring = HashRing(nodes, replicas=2)
    before = ring.owners(label)
    victim = before[0]
    ring.remove(victim)
    after = ring.owners(label)
    for node in before[1:]:
        assert node in after


# -- balance ----------------------------------------------------------------

def test_ownership_is_roughly_balanced():
    ring = HashRing(range(6), vnodes=DEFAULT_VNODES)
    counts = Counter(primary(ring, f"acct/blob/cont/blob-{i}")
                     for i in range(6000))
    assert set(counts) == set(range(6))
    mean = 6000 / 6
    assert max(counts.values()) < 2.0 * mean
    assert min(counts.values()) > mean / 3.0


# -- edges ------------------------------------------------------------------

def test_empty_ring():
    ring = HashRing()
    assert ring.owners("anything") == ()


def test_remove_to_empty_then_readd():
    ring = HashRing([3])
    ring.remove(3)
    assert len(ring) == 0 and ring.owners("x") == ()
    ring.add(3)
    assert primary(ring, "x") == 3


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        HashRing(vnodes=0)
    with pytest.raises(ValueError):
        HashRing(replicas=0)


# -- the backward-compatibility pin -----------------------------------------

@settings(max_examples=200, deadline=None)
@given(label=labels)
def test_single_node_ring_matches_the_old_modulo_map(label):
    """One DN: ring routing == the pre-ring ``crc32(label) % M`` map."""
    ring = HashRing([0], replicas=1)
    assert ring.owners(label) == (zlib.crc32(label.encode("utf-8")) % 1,)


@settings(max_examples=50, deadline=None)
@given(account=st.sampled_from(["devstoreaccount1", "contoso"]),
       key=labels)
def test_null_failure_domain_membership_routes_like_old_sn(account, key):
    """R=1, health checks off, one DN: Membership is the old router."""
    membership = Membership(FailureDomainConfig(), [object()], [account],
                            ManualClock())
    label = f"{account}/blob/{key}"
    assert membership.owners(label) == (0,)
    assert membership.live_indices() == [0]
