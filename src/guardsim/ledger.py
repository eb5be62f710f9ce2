"""Deterministic in-process chain substrate.

Accounts, value balances, logical time and contract events all funnel through
one append-only log. The log's canonical line-delimited JSON form is the unit
of truth for replay: two runs agree if and only if their serialized logs are
byte-identical, which `log_digest` condenses to a single hash. The ledger
renders each event to its canonical line once, when its log bytes are first
asked for, and keeps those bytes for the digest, log files and replay checks.
``EVENT_KINDS`` is the list of event kinds and their fields: each payload
field with its leaf kind, and ``SHAPES`` the nested objects. From it, each
kind's first render generates one function per key set that writes the line
with a single %-format, the bytes of ``json.dumps(sort_keys=True,
separators=(",", ":"), ensure_ascii=True)``: strings escaped by the same
``encode_basestring_ascii``, integers as ``%d``, booleans as true/false. The
functions are kept for every ledger in the process. A payload the table does
not admit (an unknown kind or key set, a value of another type, a float, a
null where none is allowed) raises TypeError and renders nothing.

Payloads are checked when they are appended, in one walk: a value of an exact
leaf type (str, int, bool, None) passes at once, and every other value takes
the ``isinstance`` rules.
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
from json.encoder import encode_basestring_ascii
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
        seq, time, kind, payload = self
        return (_RENDERERS.get(kind) or _renderer(kind))(seq, time, payload)


# The event table: every event kind the program writes, each payload field with its leaf kind.
# "address", "amount", "score", "ratio" and "text" are JSON strings, and a trailing "?" also
# admits null; "int" is an integer and "bool" a boolean. A name in SHAPES is a nested object,
# and "[x]" a list of x. A kind written with several key sets lists each of them.
SHAPES = {
    "config": dict.fromkeys(
        (
            "freeze_ticks", "beta_underprice", "turnover_threshold", "window_ticks", "credit_threshold",
            "p_hacked", "p_suspect", "credit_w_portfolio", "credit_w_age", "credit_w_flag", "jury_f",
            "juror_reward", "gas_fee", "deposit_rate", "deposit_min",
        ),
        "text",
    ),
    "features": {
        "sender": "address", "recipient": "address", "price": "amount", "floor": "amount?",
        "price_ratio": "ratio?", "turnover_count": "int", "sender_credit": "score", "recipient_credit": "score",
        "sender_flagged": "bool", "recipient_flagged": "bool", "token_state": "text", "prior_abnormal": "bool",
        "model_score": "score",
    },
    "hit": {"rule": "text", "severity": "text", "detail": "text"},
}
_DISPATCH = {"action": "text", "origin": "text", "token_id": "int"}
_TRANSFER = {
    "token_id": "int", "from": "address", "to": "address", "price": "amount", "caller": "address",
    "request_id": "int", "guard_state": "text", "guard_frozen": "bool", "new_state": "text", "new_owner": "address",
}
EVENT_KINDS = {
    "AccountCreated": {"address": "address", "balance": "amount"},
    "Approval": {"token_id": "int", "owner": "address", "approved": "address"},
    "ApprovalForAll": {"owner": "address", "operator": "address", "approved": "bool"},
    "AuxRegistered": {"main": "address", "aux": "address", "nonce": "int"},
    "CaseClosed": {
        "case_id": "int", "verdict": "text", "tally_reporter": "int", "tally_holder": "int", "quorum": "int",
        "deposit": "amount", "refund": "amount", "gas_charged": "amount", "auto": "bool", "reporter_balance": "amount",
    },
    "CaseOpened": {
        "case_id": "int", "token_id": "int", "reporter": "address", "respondent": "address", "deposit": "amount",
        "auto": "bool", "reporter_balance": "amount",
    },
    "EvidenceSubmitted": {"case_id": "int", "party": "address", "digest": "text"},
    "ExplorerFlagSet": {"address": "address", "flagged": "bool"},
    "Frozen": {"token_id": "int", "until": "int"},
    "Genesis": {
        "name": "text", "seed": "int", "config": "config", "treasury": "address", "fee_sink": "address",
        "escrow": "address",
    },
    "HonorAwarded": {"case_id": "int", "juror": "address", "reward": "amount", "share": "amount"},
    "JuryEmpaneled": {"case_id": "int", "jury": "[address]"},
    "Locked": {"token_id": "int", "previous_state": "text"},
    "Minted": {"token_id": "int", "to": "address"},
    "ModelTableSet": {"sender": "text", "recipient": "text", "score": "score"},  # an address or "*"
    "OracleDispatch": (_DISPATCH, {**_DISPATCH, "until": "int"}, {**_DISPATCH, "to": "address"}),
    "PhishingListed": {"operator": "address"},
    "Reclaimed": {"token_id": "int", "prior_owner": "address"},
    "Returned": {"token_id": "int", "to": "address", "new_state": "text"},
    "RiskFulfilled": {"request_id": "int", "status": "text", "hits": "[hit]", "features": "features"},
    "RiskRequested": {
        "request_id": "int", "caller": "address", "from": "address", "to": "address", "token_id": "int",
        "price": "amount", "time": "int",
    },
    "SafeTransfer": _TRANSFER,
    "Step": {"index": "int", "command": "text"},
    "StepRejected": {"index": "int", "error": "text", "detail": "text"},
    "SupervisionBlocked": {"owner": "address", "operator": "address", "reason": "text"},
    "TimeAdvanced": {"delta": "int", "now": "int"},
    "Transfer": _TRANSFER,
    "Unfrozen": {"token_id": "int"},
    "UnlockConfirmed": {"main": "address", "aux": "address", "token_id": "int"},
    "Unlocked": {"token_id": "int"},
    "ValueMinted": {"to": "address", "amount": "amount", "reason": "text", "to_balance": "amount"},
    "ValueTransferred": {
        "from": "address", "to": "address", "amount": "amount", "from_balance": "amount", "to_balance": "amount",
    },
    "VoteCast": {"case_id": "int", "juror": "address", "vote": "text"},
}

_STRINGS = frozenset({"address", "amount", "score", "ratio", "text"})
# kind -> its renderer, generated by the kind's first render. Each is a pure function of the
# constant table, so every ledger in the process shares them; importing generates none.
_RENDERERS: dict = {}


def _renderer(kind: str):
    """Generate, keep and return the renderer of ``kind``'s canonical line."""
    spec = EVENT_KINDS.get(kind)
    if spec is None:
        raise TypeError(f"unknown event kind {kind!r}")
    if isinstance(spec, dict):
        render = _generate(kind, spec, line=True)
    else:  # pick the key set by the payload's keys
        options = [(frozenset(fields), _generate(kind, fields, line=True)) for fields in spec]

        def render(seq, time, p):
            for keys, option in options:
                if type(p) is dict and p.keys() == keys:
                    return option(seq, time, p)
            raise TypeError(f"a {kind} payload is not in the event table")

    _RENDERERS[kind] = render
    return render


def _generate(name: str, fields: dict, line: bool = False):
    """Compile one function that renders an object of ``fields`` with a single %-format.

    For a ``line``, the function takes ``(seq, time, payload)`` of a ``name`` event and returns
    its whole line; otherwise it takes the object and returns its JSON. As ``collections.namedtuple``
    builds code, the source comes from the table alone, never from payload values. A missing
    or extra key, a value of another type, or null where the table admits none raises
    TypeError.
    """
    namespace = {"esc": encode_basestring_ascii}
    loads, guards, slots, values = [], [], [], []
    for i, key in enumerate(sorted(fields)):
        leaf, v, f = fields[key], f"v{i}", f"f{i}"
        loads.append(f"{v} = p[{key!r}]")
        if leaf == "int":
            slot, value = "%d", v
            guards.append(f"type({v}) is int")  # not bool, whose %d is 1
        elif leaf == "bool":
            slot, value = "%s", f"('true' if {v} else 'false')"
            guards.append(f"type({v}) is bool")
        elif leaf in _STRINGS:
            slot, value = "%s", f"esc({v})"  # a TypeError on anything but a string
        elif leaf[-1] == "?" and leaf[:-1] in _STRINGS:
            slot, value = "%s", f"('null' if {v} is None else esc({v}))"
        elif leaf[0] == "[":
            item = leaf[1:-1]
            namespace[f] = encode_basestring_ascii if item in _STRINGS else _generate(item, SHAPES[item])
            slot, value = "[%s]", f"','.join(map({f}, {v}))"
            guards.append(f"type({v}) is list")
        else:
            namespace[f] = _generate(leaf, SHAPES[leaf])
            slot, value = "%s", f"{f}({v})"
        slots.append(encode_basestring_ascii(key).replace("%", "%%") + ":" + slot)
        values.append(value)
    template = "{" + ",".join(slots) + "}"
    params = "p"
    if line:
        template = '{"kind":' + encode_basestring_ascii(name).replace("%", "%%") + ',"payload":' + template
        template += ',"seq":%d,"time":%d}'
        params = "seq, time, p"
        guards.append("type(seq) is int and type(time) is int")
        values += ["seq", "time"]
    source = (
        f"def render({params}):\n"
        "    try:\n"
        f"        if type(p) is dict and len(p) == {len(fields)}:\n"
        + "".join(f"            {load}\n" for load in loads)
        + f"            if {' and '.join(guards) or 'True'}:\n"
        f"                return {template!r} % ({', '.join(values)},)\n"
        "    except (KeyError, TypeError):\n"
        "        pass\n"
        f"    raise TypeError({f'a {name} payload is not in the event table'!r})\n"
    )
    exec(source, namespace)
    return namespace["render"]


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
