import pytest
from hypothesis import given, strategies as st

from guardsim.access_control import UnlockAttestation
from guardsim.sim import Simulation
from guardsim.token import TokenState
from guardsim.units import to_units

from conftest import fund_accounts, refused


@pytest.fixture
def setup(sim):
    alice, aux, mallory = fund_accounts(sim, 3)
    sim.contract.mint(alice, 1)
    return sim, alice, aux, mallory


def test_register_and_unlock_flow(setup):
    sim, alice, aux, _ = setup
    sim.access.register_aux(alice, aux, sim.access.registration_digest(alice, aux))
    sim.access.lock(alice, 1)
    assert sim.contract.token(1).state is TokenState.LOCKED
    sim.access.unlock(alice, 1, sim.access.make_attestation(alice, 1))
    assert sim.contract.token(1).state is TokenState.OK
    assert any(ev.kind == "UnlockConfirmed" for ev in sim.ledger.events)


def test_tampered_registration_digest_rejected(setup):
    sim, alice, aux, _ = setup
    digest = bytearray(sim.access.registration_digest(alice, aux))
    digest[0] ^= 0x01
    with refused("SignatureInvalid"):
        sim.access.register_aux(alice, aux, bytes(digest))


def test_self_link_rejected(setup):
    sim, alice, _, _ = setup
    with refused("SelfLink"):
        sim.access.register_aux(alice, alice, b"\x00" * 32)


def test_reregistration_replaces_and_stale_aux_cannot_unlock(setup):
    sim, alice, aux, _ = setup
    new_aux = sim.ledger.create_account(0)
    sim.access.register_aux(alice, aux, sim.access.registration_digest(alice, aux))
    stale = sim.access.make_attestation(alice, 1)
    sim.access.register_aux(alice, new_aux, sim.access.registration_digest(alice, new_aux))
    sim.access.lock(alice, 1)
    with refused("SignatureInvalid"):
        sim.access.unlock(alice, 1, stale)
    sim.access.unlock(alice, 1, sim.access.make_attestation(alice, 1))
    assert sim.contract.token(1).state is TokenState.OK


def test_lock_requires_ownership(setup):
    sim, _, _, mallory = setup
    with refused("NotOwner"):
        sim.access.lock(mallory, 1)


def test_lock_is_idempotent_and_still_logs(setup):
    sim, alice, _, _ = setup
    sim.access.lock(alice, 1)
    locked_events = sum(1 for ev in sim.ledger.events if ev.kind == "Locked")
    sim.access.lock(alice, 1)
    assert sim.contract.token(1).state is TokenState.LOCKED
    assert sum(1 for ev in sim.ledger.events if ev.kind == "Locked") == locked_events + 1


def test_unlock_without_registration(setup):
    sim, alice, _, _ = setup
    sim.access.lock(alice, 1)
    with refused("NoAuxRegistered"):
        sim.access.unlock(alice, 1, UnlockAttestation(alice, alice, 1, 0, 0, b"\x00" * 32))


def test_unlock_of_ok_token_rejected(setup):
    sim, alice, aux, _ = setup
    sim.access.register_aux(alice, aux, sim.access.registration_digest(alice, aux))
    with refused("NotLocked"):
        sim.access.unlock(alice, 1, sim.access.make_attestation(alice, 1))


def test_replayed_attestation_rejected(setup):
    sim, alice, aux, _ = setup
    sim.access.register_aux(alice, aux, sim.access.registration_digest(alice, aux))
    sim.access.lock(alice, 1)
    attestation = sim.access.make_attestation(alice, 1)
    sim.access.unlock(alice, 1, attestation)
    sim.access.lock(alice, 1)
    with refused("SignatureInvalid"):
        sim.access.unlock(alice, 1, attestation)


def test_unlock_of_reclaimed_token_immutable(setup):
    sim, alice, aux, _ = setup
    sim.access.register_aux(alice, aux, sim.access.registration_digest(alice, aux))
    sim.bridge.privileged_dispatch("reclaim", origin="drm", token_id=1)
    with refused("ReclaimedImmutable"):
        sim.access.unlock(alice, 1, UnlockAttestation(alice, aux, 1, 0, 0, b"\x00" * 32))


@given(schedule=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=8))
def test_attestation_replay_never_succeeds(schedule):
    """Whatever interleaving of lock/unlock happens, a consumed attestation stays dead."""
    sim = Simulation(seed=5)
    alice = sim.ledger.create_account(to_units(10))
    aux = sim.ledger.create_account(0)
    sim.ledger.advance_time(86400)
    sim.contract.mint(alice, 1)
    sim.access.register_aux(alice, aux, sim.access.registration_digest(alice, aux))
    sim.access.lock(alice, 1)
    spent = sim.access.make_attestation(alice, 1)
    sim.access.unlock(alice, 1, spent)
    for action in schedule:
        if action == 0:
            sim.access.lock(alice, 1)
        elif action == 1 and sim.contract.token(1).state is TokenState.LOCKED:
            sim.access.unlock(alice, 1, sim.access.make_attestation(alice, 1))
        else:
            sim.access.lock(alice, 1)
            with refused("SignatureInvalid"):
                sim.access.unlock(alice, 1, spent)
            assert sim.contract.token(1).state is TokenState.LOCKED
