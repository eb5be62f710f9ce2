"""Deterministic in-process chain substrate.

Accounts, value balances, logical time and contract events all funnel through
one append-only log. The log's canonical line-delimited JSON form is the unit
of truth for replay: two runs agree if and only if their serialized logs are
byte-identical, which `log_digest` condenses to a single hash. The ledger
renders each event to its canonical line once, when its log bytes are first
asked for, and keeps those bytes for the digest, log files and replay checks.
Every line goes through one C encoder built at import time with the settings
of ``json.dumps(sort_keys=True, separators=(",", ":"), ensure_ascii=True)``,
so no encoder object is constructed per event. Payloads are checked when they
are appended, in one walk: a value of an exact leaf type (str, int, bool,
None) passes at once, and every other value takes the ``isinstance`` rules.
``EventRecord`` and the other records built per step or transfer are
immutable ``typing.NamedTuple`` classes, built positionally; the check refuses
a tuple with ``_fields`` (a record), which would otherwise encode as an array.

Canonical serialization rules:
  - object keys sorted, compact separators, ASCII only;
  - no JSON floats anywhere: value amounts are fixed 18-digit decimal strings,
    scores are round-trip float strings produced by ``repr``;
  - one event per line, terminated by a newline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from json import JSONEncoder
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import NamedTuple

from .errors import InsufficientFunds, RejectedInput, UnknownAccount
from .units import fmt_units

Address = str

_ADDR_DOMAIN = b"guardsim/address/v1"

# Run seeds are packed into 8 unsigned bytes here and in the wallet keys.
SEEDS = range(2**64)
# Integer step arguments, int config values and logical time: non-negative 64-bit signed integers.
INTS = range(2**63)


def derive_address(seed: int, counter: int) -> Address:
    """Pure function of (run seed, creation counter) -> 20-byte hex address."""
    material = _ADDR_DOMAIN + seed.to_bytes(8, "big", signed=False) + counter.to_bytes(8, "big")
    return "0x" + hashlib.sha256(material).digest()[:20].hex()


@dataclass
class Account:
    address: Address
    balance: int  # sub-units, never negative
    explorer_flagged: bool = False
    created_at: int = 0


class EventRecord(NamedTuple):
    seq: int
    time: int
    kind: str
    payload: dict

    def to_line(self) -> str:
        body = {"kind": self.kind, "payload": self.payload, "seq": self.seq, "time": self.time}
        return "".join(_encode(body, 0))


# The encoder json.dumps(sort_keys=True, separators=(",", ":"), ensure_ascii=True)
# would construct on every call, built once. markers=None: a shared markers dict
# keeps the ids of a failed encode and would report false circular references.
_encode = c_make_encoder(
    None,  # markers
    JSONEncoder().default,
    encode_basestring_ascii,
    None,  # indent
    ":",
    ",",
    True,  # sort_keys
    False,  # skipkeys
    True,  # allow_nan
)

_LEAF_TYPES = frozenset({str, int, bool, type(None)})


def _check_payload(value) -> None:
    # floats would break byte-stable serialization; reject them at the source.
    # An exact leaf type returns at once, in the loops too; the rest take the isinstance rules.
    if type(value) in _LEAF_TYPES:
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError("event payload keys must be strings")
            if type(item) not in _LEAF_TYPES:
                _check_payload(item)
    elif isinstance(value, (list, tuple)) and not hasattr(value, "_fields"):  # a record is no JSON array
        for item in value:
            if type(item) not in _LEAF_TYPES:
                _check_payload(item)
    elif isinstance(value, float):
        raise TypeError("float in event payload; render it to a string first")
    elif not isinstance(value, (str, int)):
        raise TypeError(f"unsupported payload value: {value!r}")


def serialize_events(events: list[EventRecord]) -> bytes:
    return "".join([ev.to_line() + "\n" for ev in events]).encode("ascii")


class Ledger:
    """Single-threaded mutable chain state plus its append-only event log."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.time = 0
        self.accounts: dict[Address, Account] = {}
        self.events: list[EventRecord] = []
        self.minted_total = 0
        self._next_seq = 1
        self._creation_counter = 0
        self._log = b""  # canonical bytes of events[:_rendered]
        self._rendered = 0

    # -- event log ---------------------------------------------------------

    def append_event(self, kind: str, payload: dict) -> EventRecord:
        _check_payload(payload)
        record = EventRecord(self._next_seq, self.time, kind, payload)
        self._next_seq += 1
        self.events.append(record)
        return record

    def serialized(self) -> bytes:
        """The log's canonical bytes; renders only the events appended since the last call."""
        if self._rendered < len(self.events):
            self._log += serialize_events(self.events[self._rendered :])
            self._rendered = len(self.events)
        return self._log

    def log_digest(self) -> bytes:
        return hashlib.sha256(self.serialized()).digest()

    # -- accounts and value ------------------------------------------------

    def account(self, address: Address) -> Account:
        try:
            return self.accounts[address]
        except KeyError:
            raise UnknownAccount(address) from None

    def create_account(self, initial_balance: int) -> Address:
        if initial_balance < 0:
            raise RejectedInput("initial balance must be >= 0")
        address = derive_address(self.seed, self._creation_counter)
        self._creation_counter += 1
        self.accounts[address] = Account(address, initial_balance, created_at=self.time)
        self.minted_total += initial_balance
        self.append_event("AccountCreated", {"address": address, "balance": fmt_units(initial_balance)})
        return address

    def transfer_value(self, from_addr: Address, to_addr: Address, amount: int) -> None:
        if amount < 0:
            raise RejectedInput("amount must be >= 0")
        source = self.account(from_addr)
        target = self.account(to_addr)
        if source.balance < amount:
            raise InsufficientFunds(f"balance {fmt_units(source.balance)} < {fmt_units(amount)}")
        source.balance -= amount
        target.balance += amount
        self.append_event(
            "ValueTransferred",
            {
                "from": from_addr,
                "to": to_addr,
                "amount": fmt_units(amount),
                "from_balance": fmt_units(source.balance),
                "to_balance": fmt_units(target.balance),
            },
        )

    def mint_value(self, to_addr: Address, amount: int, reason: str) -> None:
        if amount < 0:
            raise RejectedInput("amount must be >= 0")
        target = self.account(to_addr)
        target.balance += amount
        self.minted_total += amount
        self.append_event(
            "ValueMinted",
            {"to": to_addr, "amount": fmt_units(amount), "reason": reason, "to_balance": fmt_units(target.balance)},
        )

    def set_explorer_flag(self, address: Address, flagged: bool) -> None:
        account = self.account(address)
        account.explorer_flagged = flagged
        self.append_event("ExplorerFlagSet", {"address": address, "flagged": flagged})

    # -- time ----------------------------------------------------------------

    def advance_time(self, delta: int) -> int:
        if delta < 0 or self.time + delta not in INTS:
            raise RejectedInput(f"time {self.time} + {delta} is outside [0, 2**63)")
        self.time += delta
        self.append_event("TimeAdvanced", {"delta": delta, "now": self.time})
        return self.time

    # -- audits ----------------------------------------------------------------

    def total_balance(self) -> int:
        return sum(acct.balance for acct in self.accounts.values())

    def conservation_holds(self) -> bool:
        """All value in accounts must equal everything ever minted."""
        return self.total_balance() == self.minted_total
