import hashlib
import json

import pytest

from guardsim import ledger as ledger_module
from guardsim.errors import RejectedInput
from guardsim.ledger import Ledger, derive_address, serialize_events
from guardsim.units import to_units

from conftest import refused


def test_create_account_zero_balance():
    ledger = Ledger(seed=1)
    address = ledger.create_account(0)
    assert ledger.account(address).balance == 0


def test_two_accounts_same_seed_are_distinct():
    ledger = Ledger(seed=42)
    a = ledger.create_account(to_units(10))
    b = ledger.create_account(to_units(10))
    assert a != b


def test_negative_initial_balance_rejected():
    with pytest.raises(RejectedInput):
        Ledger(seed=1).create_account(-1)


def test_negative_mint_rejected_and_logs_nothing():
    ledger = Ledger(seed=1)
    a = ledger.create_account(to_units(5))
    events = list(ledger.events)
    with pytest.raises(RejectedInput, match="amount must be >= 0"):
        ledger.mint_value(a, -1, reason="juror_reward")
    assert ledger.events == events
    assert ledger.account(a).balance == to_units(5)
    assert ledger.conservation_holds()


def test_addresses_are_pure_function_of_seed_and_counter():
    # independent oracle: derive the expected address directly
    assert derive_address(42, 0) == derive_address(42, 0)
    assert derive_address(42, 0) != derive_address(42, 1)
    assert derive_address(42, 0) != derive_address(43, 0)
    one = Ledger(seed=42)
    two = Ledger(seed=42)
    assert [one.create_account(0) for _ in range(5)] == [two.create_account(0) for _ in range(5)]


def test_same_seed_same_ops_identical_logs():
    def build():
        ledger = Ledger(seed=7)
        a = ledger.create_account(to_units(5))
        b = ledger.create_account(0)
        ledger.advance_time(100)
        ledger.transfer_value(a, b, to_units(2))
        return ledger

    assert build().log_digest() == build().log_digest()
    assert serialize_events(build().events) == serialize_events(build().events)


def test_transfer_exact_balance_boundary():
    ledger = Ledger()
    a = ledger.create_account(to_units(5))
    b = ledger.create_account(0)
    ledger.transfer_value(a, b, to_units(5))
    assert ledger.account(a).balance == 0
    assert ledger.account(b).balance == to_units(5)


def test_transfer_zero_still_logs_event():
    ledger = Ledger()
    a = ledger.create_account(to_units(1))
    b = ledger.create_account(0)
    before = len(ledger.events)
    ledger.transfer_value(a, b, 0)
    assert ledger.account(a).balance == to_units(1)
    assert len(ledger.events) == before + 1


def test_insufficient_funds_changes_nothing():
    ledger = Ledger()
    a = ledger.create_account(to_units(5))
    b = ledger.create_account(0)
    before = len(ledger.events)
    with refused("InsufficientFunds"):
        ledger.transfer_value(a, b, to_units(6))
    assert ledger.account(a).balance == to_units(5)
    assert ledger.account(b).balance == 0
    assert len(ledger.events) == before


def test_advance_time():
    ledger = Ledger()
    assert ledger.advance_time(100) == 100
    assert ledger.advance_time(0) == 100
    with pytest.raises(RejectedInput):
        ledger.advance_time(-1)


def test_empty_log_digest_is_sha256_of_nothing():
    assert Ledger().log_digest() == hashlib.sha256(b"").digest()


def test_single_byte_mutation_changes_digest():
    ledger = Ledger(seed=3)
    a = ledger.create_account(to_units(5))
    b = ledger.create_account(0)
    ledger.transfer_value(a, b, to_units(1))
    stream = bytearray(serialize_events(ledger.events))
    baseline = hashlib.sha256(bytes(stream)).digest()
    position = bytes(stream).index(b"amount") + 10
    stream[position] ^= 0x01
    assert hashlib.sha256(bytes(stream)).digest() != baseline


def test_canonical_lines_have_sorted_keys_and_no_floats():
    ledger = Ledger(seed=3)
    a = ledger.create_account(to_units(5))
    ledger.mint_value(a, to_units(1), reason="juror_reward")
    for ev in ledger.events:
        line = ev.to_line()
        body = json.loads(line)
        assert list(body) == sorted(body)
        assert json.dumps(body, sort_keys=True, separators=(",", ":")) == line

    def no_floats(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for item in node.values():
                no_floats(item)
        elif isinstance(node, list):
            for item in node:
                no_floats(item)

    no_floats([json.loads(ev.to_line()) for ev in ledger.events])


def test_float_payload_rejected_at_append():
    ledger = Ledger()
    with pytest.raises(TypeError, match="^TimeAdvanced event: field 'delta' is not an integer$"):
        ledger.append_event("TimeAdvanced", {"delta": 1.5, "now": 0})
    assert ledger.events == []


def test_event_application_is_prefix_composable():
    # replaying 1..i then i+1..n matches replaying 1..n, for the balance fold
    ledger = Ledger(seed=9)
    a = ledger.create_account(to_units(5))
    b = ledger.create_account(to_units(1))
    ledger.transfer_value(a, b, to_units(2))
    ledger.mint_value(b, to_units(1), reason="juror_reward")
    ledger.transfer_value(b, a, to_units(3))
    events = ledger.events

    def fold(evs, state=None):
        state = dict(state or {})
        for ev in evs:
            p = ev.payload
            if ev.kind == "AccountCreated":
                state[p["address"]] = to_units(p["balance"])
            elif ev.kind == "ValueTransferred":
                state[p["from"]] -= to_units(p["amount"])
                state[p["to"]] += to_units(p["amount"])
            elif ev.kind == "ValueMinted":
                state[p["to"]] += to_units(p["amount"])
        return state

    whole = fold(events)
    for split in range(len(events) + 1):
        assert fold(events[split:], fold(events[:split])) == whole
    assert whole == {addr: acct.balance for addr, acct in ledger.accounts.items()}


def test_conservation_across_mixed_operations():
    ledger = Ledger(seed=11)
    a = ledger.create_account(to_units(5))
    b = ledger.create_account(to_units(3))
    ledger.transfer_value(a, b, to_units(4))
    ledger.mint_value(a, to_units("0.01"), reason="juror_reward")
    assert ledger.conservation_holds()
    assert hashlib.sha256(serialize_events(ledger.events)).digest() == ledger.log_digest()


def _written(ledger: Ledger, path) -> bytes:
    """The bytes ``ledger.write`` puts in a new file at ``path``."""
    with open(path, "wb") as file:
        ledger.write(file)
    return path.read_bytes()


def test_the_log_renders_new_events_on_demand(tmp_path):
    ledger = Ledger(seed=5)
    assert ledger.log_digest() == hashlib.sha256(b"").digest()
    a = ledger.create_account(to_units(5))
    assert _written(ledger, tmp_path / "log") == serialize_events(ledger.events)
    b = ledger.create_account(0)
    ledger.advance_time(7)
    assert ledger.log_digest() == hashlib.sha256(serialize_events(ledger.events)).digest()
    ledger.transfer_value(a, b, to_units(2))
    assert ledger.log_digest() == hashlib.sha256(serialize_events(ledger.events)).digest()
    assert _written(ledger, tmp_path / "log") == serialize_events(ledger.events)
    assert _written(ledger, tmp_path / "again") == serialize_events(ledger.events)  # a second write, whole
    ledger.mint_value(b, to_units(1), reason="juror_reward")
    assert ledger.log_digest() == hashlib.sha256(serialize_events(ledger.events)).digest()


def _ledger_of(events: int) -> Ledger:
    ledger = Ledger(seed=5)
    for n in range(events):
        ledger.create_account(n)
    return ledger


def test_the_log_renders_across_chunks_and_raises_once_events_are_dropped(tmp_path):
    ledger = _ledger_of(600)  # three chunks of 256 events
    assert ledger.log_digest() == hashlib.sha256(serialize_events(ledger.events)).digest()
    ledger.advance_time(1)
    assert _written(ledger, tmp_path / "log") == serialize_events(ledger.events)
    ledger.drop_checked(600)
    assert [ev.kind for ev in ledger.events] == ["TimeAdvanced"]
    with pytest.raises(RuntimeError, match="no log bytes"):
        _written(ledger, tmp_path / "dropped")
    with pytest.raises(RuntimeError, match="no log bytes"):
        ledger.log_digest()


def test_each_event_is_rendered_once_until_the_log_is_written(tmp_path, monkeypatch):
    renders = []  # the number of events of each call that renders lines

    def counting(events):
        renders.append(len(events))
        return serialize_events(events)

    monkeypatch.setattr(ledger_module, "serialize_events", counting)
    ledger = _ledger_of(600)
    digest = ledger.log_digest()
    assert renders == [256, 256, 88]
    ledger.advance_time(1)
    assert ledger.log_digest() != digest and renders[3:] == [1]  # only the new event
    log = _written(ledger, tmp_path / "log")
    assert log == serialize_events(ledger.events) and len(renders) == 4  # the write reuses the digest's chunks
    assert ledger.log_digest() == hashlib.sha256(log).digest() and len(renders) == 4
    assert ledger._chunks is None  # the file is the only copy
    assert _written(ledger, tmp_path / "again") == log and renders[4:] == [256, 256, 89]
