import copy

import pytest

from guardsim.ledger import serialize_events
from guardsim.oracle import _ALLOWED_DISPATCH
from guardsim.token import EFFECT_KINDS, TokenState
from guardsim.units import to_units

from conftest import fund_accounts, refused


def test_mint_initial_state_is_ok(sim, parties):
    alice, _, _ = parties
    sim.contract.mint(alice, 1)
    token = sim.contract.token(1)
    assert token.owner == alice
    assert token.state is TokenState.OK
    assert token.provenance == []


def test_mint_duplicate_rejected(sim, parties):
    alice, _, _ = parties
    sim.contract.mint(alice, 1)
    with refused("AlreadyMinted"):
        sim.contract.mint(alice, 1)


def test_token_count_matches_mints(sim, parties):
    alice, bob, _ = parties
    for token_id in range(1, 8):
        sim.contract.mint(alice if token_id % 2 else bob, token_id)
    assert len(sim.contract.tokens) == 7


def test_guard_owner_on_ok_token_passes(sim, parties):
    alice, bob, _ = parties
    sim.contract.mint(alice, 1)
    assert sim.contract.transfer_guard(1, alice) is None
    assert sim.contract.transfer_guard(1, bob) == "NotAuthorized"


def test_guard_rejects_locked_even_for_owner(sim, parties):
    alice, _, _ = parties
    sim.contract.mint(alice, 1)
    sim.access.lock(alice, 1)
    assert sim.contract.transfer_guard(1, alice) == "Locked"


def test_guard_freeze_expiry_is_inclusive(sim, parties):
    alice, _, _ = parties
    sim.contract.mint(alice, 1)
    now = sim.ledger.time
    sim.contract.token(1).frozen_until = now + 50
    assert sim.contract.transfer_guard(1, alice) == "Frozen"
    sim.ledger.advance_time(49)
    assert sim.contract.transfer_guard(1, alice) == "Frozen"
    sim.ledger.advance_time(1)  # now == frozen_until
    assert sim.contract.transfer_guard(1, alice) is None


def test_guard_is_pure(sim, parties):
    alice, bob, _ = parties
    sim.contract.mint(alice, 1)
    sim.access.lock(alice, 1)
    before = serialize_events(sim.ledger.events)
    state_before = (sim.contract.token(1).state, sim.contract.token(1).owner)
    for caller in (alice, bob):
        sim.contract.transfer_guard(1, caller)
    assert serialize_events(sim.ledger.events) == before
    assert (sim.contract.token(1).state, sim.contract.token(1).owner) == state_before


def test_approve_and_clearing_on_transfer(sim, parties):
    alice, bob, carol = parties
    sim.contract.mint(alice, 1)
    sim.contract.approve(alice, bob, 1)
    assert sim.contract.token(1).approved == bob
    # approved party moves the token; approval must clear on the ownership change
    verdict = sim.contract.transfer_from(bob, alice, carol, 1, to_units(10))
    assert verdict.status == "safe"
    assert sim.contract.token(1).approved is None
    assert sim.contract.token(1).owner == carol


def test_approve_on_locked_token_rejected(sim, parties):
    alice, bob, _ = parties
    sim.contract.mint(alice, 1)
    sim.access.lock(alice, 1)
    with refused("Locked"):
        sim.contract.approve(alice, bob, 1)


def test_operator_approval_flow(sim, parties):
    alice, bob, carol = parties
    sim.contract.mint(alice, 1)
    sim.contract.set_approval_for_all(alice, bob, True)
    assert sim.contract.transfer_guard(1, bob) is None
    verdict = sim.contract.transfer_from(bob, alice, carol, 1, to_units(10))
    assert verdict.status == "safe"


def test_flagged_operator_blocked_but_revocation_allowed(sim, parties):
    alice, bob, _ = parties
    sim.ledger.set_explorer_flag(bob, True)
    with refused("PhishingOperatorBlocked"):
        sim.contract.set_approval_for_all(alice, bob, True)
    assert any(ev.kind == "SupervisionBlocked" for ev in sim.ledger.events)
    sim.contract.set_approval_for_all(alice, bob, False)  # revoking is always fine


def test_blacklisted_operator_blocked(sim, parties):
    alice, bob, _ = parties
    sim.blacklist_operator(bob)
    with refused("PhishingOperatorBlocked"):
        sim.contract.set_approval_for_all(alice, bob, True)


def test_clean_transfer_locks_on_receipt(sim, parties):
    alice, bob, _ = parties
    sim.contract.mint(alice, 1)
    verdict = sim.contract.transfer_from(alice, alice, bob, 1, to_units(10))
    token = sim.contract.token(1)
    assert verdict.status == "safe"
    assert token.owner == bob
    assert token.state is TokenState.LOCKED
    assert token.provenance == [sim.ledger.time] and token.last_sale_price == to_units(10)


def test_transfer_from_wrong_owner(sim, parties):
    alice, bob, carol = parties
    sim.contract.mint(alice, 1)
    sim.contract.set_approval_for_all(alice, carol, True)
    with refused("NotOwner"):
        sim.contract.transfer_from(carol, bob, carol, 1, to_units(1))


def test_underpriced_transfer_freezes_owner_keeps_token(sim, parties):
    alice, bob, carol = parties
    sim.contract.mint(alice, 1)
    sim.contract.mint(alice, 2)
    sim.contract.transfer_from(alice, alice, bob, 2, to_units(10))  # floor = 10
    now = sim.ledger.time
    verdict = sim.contract.transfer_from(alice, alice, carol, 1, to_units(4))
    token = sim.contract.token(1)
    assert verdict.status == "may_lost"
    assert token.owner == alice
    assert token.state is TokenState.OK
    assert token.frozen_until == now + sim.config.freeze_ticks
    assert not any(ev.kind == "Transfer" and ev.payload["token_id"] == 1 for ev in sim.ledger.events)


def test_flagged_sender_transfer_reclaims_to_treasury(sim, parties):
    alice, bob, _ = parties
    sim.contract.mint(alice, 1)
    sim.ledger.set_explorer_flag(alice, True)
    verdict = sim.contract.transfer_from(alice, alice, bob, 1, to_units(10))
    token = sim.contract.token(1)
    assert verdict.status == "hacked"
    assert token.owner == sim.treasury
    assert token.state is TokenState.RECLAIMED
    assert token.pre_reclaim_owner == alice


def test_safe_transfer_from_uses_distinct_event_kind(sim, parties):
    alice, bob, _ = parties
    sim.contract.mint(alice, 1)
    sim.contract.transfer_from(alice, alice, bob, 1, to_units(10), safe_variant=True)
    kinds = [ev.kind for ev in sim.ledger.events]
    assert "SafeTransfer" in kinds and "Transfer" not in kinds


@pytest.mark.parametrize("action", sorted(EFFECT_KINDS))
def test_oracle_ops_reject_non_bridge_callers(sim, parties, action):
    alice, _, _ = parties
    sim.contract.mint(alice, 1)
    for caller in (None, object(), sim):
        with refused("NotOracle"):
            sim.contract.apply_dispatch(action, 1, by=caller, until=sim.ledger.time + 1, to=alice)


def test_unknown_action_has_no_effect(sim, parties):
    alice, _, _ = parties
    sim.contract.mint(alice, 1)
    log = serialize_events(sim.ledger.events)
    before = copy.deepcopy(sim.contract.token(1))
    with refused("NotOracle"):
        sim.contract.apply_dispatch("burn", 1, by=sim.bridge, to=alice)
    assert serialize_events(sim.ledger.events) == log
    assert sim.contract.token(1) == before


def test_every_dispatchable_action_has_an_effect_event():
    actions = set().union(*_ALLOWED_DISPATCH.values())
    assert actions <= set(EFFECT_KINDS)


def test_lock_unlock_round_trip_restores_guard(sim, parties):
    alice, bob, _ = parties
    sim.contract.mint(alice, 1)
    baseline = [sim.contract.transfer_guard(1, who) for who in parties]
    sim.bridge.privileged_dispatch("lock", origin="dac", token_id=1)
    assert sim.contract.token(1).state is TokenState.LOCKED
    sim.bridge.privileged_dispatch("unlock", origin="dac", token_id=1)
    assert sim.contract.token(1).state is TokenState.OK
    after = [sim.contract.transfer_guard(1, who) for who in parties]
    assert after == baseline


def test_unlock_of_reclaimed_token_is_immutable(sim, parties):
    alice, _, _ = parties
    sim.contract.mint(alice, 1)
    sim.bridge.privileged_dispatch("reclaim", origin="drm", token_id=1)
    with refused("ReclaimedImmutable"):
        sim.contract.apply_dispatch("unlock", 1, by=sim.bridge)


def test_reclaim_twice_rejected_and_preserves_provenance(sim, parties):
    alice, bob, _ = parties
    sim.contract.mint(alice, 1)
    sim.contract.transfer_from(alice, alice, bob, 1, to_units(10))
    provenance = list(sim.contract.token(1).provenance)
    sim.bridge.privileged_dispatch("reclaim", origin="drm", token_id=1)
    assert sim.contract.token(1).provenance == provenance
    with refused("AlreadyReclaimed"):
        sim.contract.apply_dispatch("reclaim", 1, by=sim.bridge)


def test_verdict_return_requires_reclaimed_state(sim, parties):
    alice, bob, _ = parties
    sim.contract.mint(alice, 1)
    with refused("NotInArbitration"):
        sim.contract.apply_dispatch("return", 1, by=sim.bridge, to=bob)
    sim.bridge.privileged_dispatch("reclaim", origin="drm", token_id=1)
    sim.bridge.privileged_dispatch("return", origin="das", token_id=1, to=bob)
    token = sim.contract.token(1)
    assert token.owner == bob
    assert token.state is TokenState.LOCKED


def test_transfer_on_fresh_simulation_has_no_request_gap(sim):
    alice, bob = fund_accounts(sim, 2)
    sim.contract.mint(alice, 1)
    sim.contract.mint(alice, 2)
    sim.contract.transfer_from(alice, alice, bob, 1, to_units(10))
    sim.contract.transfer_from(alice, alice, bob, 2, to_units(10))
    ids = [ev.payload["request_id"] for ev in sim.ledger.events if ev.kind == "RiskRequested"]
    assert ids == [1, 2]
