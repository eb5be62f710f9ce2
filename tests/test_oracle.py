import pytest

from guardsim.risk import MAY_LOST, RiskVerdict, TransferIntent, extract_features
from guardsim.token import TokenState
from guardsim.units import to_units

from conftest import fund_accounts, refused


def _transfer(sim, a, b, token_id, price):
    return sim.contract.transfer_from(a, a, b, token_id, to_units(price))


def test_request_ids_are_monotone(sim):
    alice, bob = fund_accounts(sim, 2)
    sim.contract.mint(alice, 1)
    sim.contract.mint(alice, 2)
    _transfer(sim, alice, bob, 1, 10)
    _transfer(sim, alice, bob, 2, 10)
    assert [ev.payload["request_id"] for ev in sim.ledger.events if ev.kind == "RiskFulfilled"] == [1, 2]


def test_requested_precedes_fulfilled_same_id(sim):
    alice, bob = fund_accounts(sim, 2)
    sim.contract.mint(alice, 1)
    _transfer(sim, alice, bob, 1, 10)
    kinds = [(ev.kind, ev.payload.get("request_id")) for ev in sim.ledger.events if ev.kind.startswith("Risk")]
    assert kinds == [("RiskRequested", 1), ("RiskFulfilled", 1)]


def test_verdict_equals_offline_evaluate_on_snapshot(sim):
    alice, bob = fund_accounts(sim, 2)
    sim.contract.mint(alice, 1)
    sim.contract.mint(alice, 2)
    _transfer(sim, alice, bob, 2, 10)
    # recompute on the same snapshot the bridge consumed (state before effects
    # differs from after only through this token, which may_lost leaves put)
    intent = TransferIntent(alice, alice, bob, 1, to_units(4), sim.ledger.time)
    expected = sim.engine.evaluate(intent, sim.contract)
    verdict = _transfer(sim, alice, bob, 1, 4)
    assert verdict.status == expected.status == MAY_LOST
    assert verdict.features == expected.features


def test_fulfill_twice_rejected(sim):
    alice, bob = fund_accounts(sim, 2)
    sim.contract.mint(alice, 1)
    verdict = _transfer(sim, alice, bob, 1, 10)
    (request_id,) = [ev.payload["request_id"] for ev in sim.ledger.events if ev.kind == "RiskFulfilled"]
    with refused("InvalidRequest"):
        sim.bridge.fulfill(request_id, verdict)
    with refused("InvalidRequest"):
        sim.bridge.fulfill(999, verdict)


def test_fulfill_safe_touches_no_token(sim):
    alice, bob = fund_accounts(sim, 2)
    sim.contract.mint(alice, 1)
    assert _transfer(sim, alice, bob, 1, 10).status == "safe"
    assert not any(ev.kind in ("Frozen", "Reclaimed") for ev in sim.ledger.events)


def test_fulfill_hacked_reclaims_and_opens_case(sim):
    alice, bob = fund_accounts(sim, 2)
    sim.ledger.set_explorer_flag(bob, True)
    sim.contract.mint(alice, 1)
    assert _transfer(sim, alice, bob, 1, 10).status == "hacked"
    kinds = [ev.kind for ev in sim.ledger.events]
    assert kinds.index("RiskFulfilled") < kinds.index("Reclaimed") < kinds.index("CaseOpened")
    case = sim.arbitration.case(1)
    assert case.reporter == alice
    assert case.respondent == sim.treasury
    assert case.deposit == 0 and case.auto_opened


def test_request_fulfill_bijection_over_run(sim):
    alice, bob, carol = fund_accounts(sim, 3)
    sim.ledger.set_explorer_flag(carol, True)
    for token_id, (target, price) in enumerate([(bob, 10), (bob, 1), (carol, 10)], start=1):
        sim.contract.mint(alice, token_id)
        _transfer(sim, alice, target, token_id, price)
    requested = [ev.payload["request_id"] for ev in sim.ledger.events if ev.kind == "RiskRequested"]
    fulfilled = [ev.payload["request_id"] for ev in sim.ledger.events if ev.kind == "RiskFulfilled"]
    assert requested == fulfilled == [1, 2, 3]


def test_privileged_dispatch_rejects_unknown_origins(sim):
    alice, _ = fund_accounts(sim, 2)
    sim.contract.mint(alice, 1)
    with refused("NotOracle"):
        sim.bridge.privileged_dispatch("lock", origin="user", token_id=1)
    with refused("NotOracle"):
        sim.bridge.privileged_dispatch("reclaim", origin="dac", token_id=1)
    with refused("NotOracle"):
        sim.bridge.privileged_dispatch("unlock", origin="drm", token_id=1)


def test_dac_originated_unlock_round_trip(sim):
    alice, _ = fund_accounts(sim, 2)
    sim.contract.mint(alice, 1)
    sim.bridge.privileged_dispatch("lock", origin="dac", token_id=1)
    sim.bridge.privileged_dispatch("unlock", origin="dac", token_id=1)
    assert sim.contract.token(1).state is TokenState.OK
    kinds = [ev.kind for ev in sim.ledger.events]
    assert "Locked" in kinds and "Unlocked" in kinds


def test_every_state_event_preceded_by_dispatch(sim):
    alice, bob = fund_accounts(sim, 2)
    sim.ledger.set_explorer_flag(bob, True)
    sim.contract.mint(alice, 1)
    sim.bridge.privileged_dispatch("lock", origin="dac", token_id=1)
    sim.bridge.privileged_dispatch("unlock", origin="dac", token_id=1)
    _transfer(sim, alice, bob, 1, 10)  # hacked -> reclaim
    events = sim.ledger.events
    for index, ev in enumerate(events):
        if ev.kind in ("Locked", "Unlocked", "Frozen", "Unfrozen", "Reclaimed", "Returned"):
            assert events[index - 1].kind == "OracleDispatch"
            assert events[index - 1].payload["token_id"] == ev.payload["token_id"]


def test_an_unlock_dispatch_of_an_ok_token_is_refused_before_it_is_logged(sim):
    """``AccessControl.unlock`` refuses an OK token before any dispatch; the bridge's own check refuses it too."""
    (alice,) = fund_accounts(sim, 1)
    sim.contract.mint(alice, 1)
    events = list(sim.ledger.events)
    with refused("NotLocked"):
        sim.bridge.privileged_dispatch("unlock", origin="dac", token_id=1)
    assert sim.ledger.events == events
    assert sim.contract.token(1).state is TokenState.OK
