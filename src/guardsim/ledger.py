"""Deterministic in-process chain substrate.

Accounts, value balances, logical time and contract events all funnel through
one append-only log. The log's canonical line-delimited JSON form is the unit
of truth for replay: two runs agree if and only if their serialized logs are
byte-identical, which `log_digest` condenses to a single hash. The ledger
renders each event to its canonical line once, ``_CHUNK`` events a chunk, when
its log's bytes are first asked for. It hashes each chunk as it is rendered and
keeps the chunks, never joined, only until ``write`` puts them in a file: then
it drops them and keeps the digest, so the file is the log's only copy, and a
later request for bytes renders the whole log again. Replay and report keep
neither: they check each chunk of re-executed events against the recorded log
and then ``drop_checked`` it, after which the ledger has no log bytes to give.
``EVENT_KINDS`` is the one definition of an event, for writing and for
reading: each kind's payload fields with their leaf kinds, and ``SHAPES`` the
nested objects. From it, a kind's first use generates one function of
exact-type guards that checks a payload and renders its line with a single
%-format, in the bytes of ``json.dumps(sort_keys=True, separators=(",", ":"),
ensure_ascii=True)``. ``Ledger.append_event`` and the
log readers run its check (``check_event``): a payload it refuses (an unknown
kind or key set, a value of another type or a subclass, a float, a null where
none is allowed, a record, which is no list) is neither appended nor read,
and the error names the kind and the field. ``EventRecord.to_line`` raises
TypeError on the same payloads. ``EventRecord`` and the other records built per
step or transfer are immutable ``typing.NamedTuple`` classes, built positionally.

Canonical serialization rules:
  - object keys sorted, compact separators, ASCII only;
  - no JSON floats anywhere: value amounts are fixed 18-digit decimal strings,
    scores are round-trip float strings produced by ``repr``;
  - one event per line, terminated by a newline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import BinaryIO, NamedTuple

from .config import INTS, SimConfig
from .errors import Refused, RejectedInput
from .units import fmt_units

Address = str

_ADDR_DOMAIN = b"guardsim/address/v1"

# Run seeds are packed into 8 unsigned bytes here and in the wallet keys.
SEEDS = range(2**64)


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
        line = (_GENERATED.get(kind) or _generated(kind))(payload, seq, time)
        if type(line) is str:
            return line
        raise TypeError(check_event(kind, payload) or f"a {kind} event needs an integer seq and time")


# The event table: every event kind the program writes, each payload field with its leaf kind.
# "address", "amount", "score", "ratio" and "text" are JSON strings, and a trailing "?" also
# admits null; "int" is an integer and "bool" a boolean. A name in SHAPES is a nested object,
# and "[x]" a list of x. A kind written with several key sets lists each of them: its base set
# first, then sets that each add one key of their own. The Genesis ``config`` object has one
# text field per field of ``SimConfig``, which is the one list of its keys.
SHAPES = {
    "config": dict.fromkeys((key.name for key in fields(SimConfig)), "text"),
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
# kind -> the function generated from its entry by the kind's first use. Each is a pure function of
# the constant table, so every ledger in the process shares them; importing generates none.
_GENERATED: dict = {}


def check_event(kind: str, payload) -> str | None:
    """None if the table admits ``payload`` as a ``kind`` event, else what it breaks, naming the kind and field."""
    if type(kind) is not str or kind not in EVENT_KINDS:
        return f"unknown event kind {kind!r}"
    found = (_GENERATED.get(kind) or _generated(kind))(payload)
    if found is None:
        return None
    field, problem = found
    return f"{kind} event: " + (f"field {field!r} {problem}" if field else f"payload {problem}")


def _generated(kind: str):
    """Generate and keep the function of ``kind``; an unknown kind raises TypeError."""
    spec = EVENT_KINDS.get(kind)
    if spec is None:
        raise TypeError(f"unknown event kind {kind!r}")
    walk = _GENERATED[kind] = _generate(kind, spec, line=True)
    return walk


def _generate(name: str, spec, line: bool = False):
    """Compile the one function that checks an object of ``spec`` and renders it with a single %-format.

    ``spec`` is a dict of fields, or a tuple of key sets: a base set, then sets that each add one key
    of their own. An object holding such a key is checked against its set, any other against the
    base set. The function returns ``(field, problem)`` for the first field the object breaks, with
    the field's path (``"features.floor"``, ``"hits[0].rule"``; "" for the object itself); else, asked
    to render, the object's JSON (for a ``line``, the line of a ``name`` event, given an integer seq
    and time); else None. Like ``collections.namedtuple``, it builds source from the table alone.
    """
    namespace = {"esc": encode_basestring_ascii, "stray": _stray}
    base, *variants = spec if isinstance(spec, tuple) else (spec,)
    if line:
        source = ["def walk(p, seq=None, time=None):", "    render = type(seq) is int and type(time) is int"]
    else:
        source = ["def walk(p, render):"]
    source += ["    if type(p) is not dict:", "        return '', 'is not an object'"]
    for n, fields in enumerate(variants, start=1):
        (key,) = fields.keys() - base.keys()  # the key of its own that picks this set
        source += [f"    if {key!r} in p:", *(f"        {s}" for s in _block(name, fields, line, namespace, n))]
    source += [f"    {s}" for s in _block(name, base, line, namespace, 0)]
    exec("\n".join(source) + "\n", namespace)
    return namespace["walk"]


def _block(name: str, fields: dict, line: bool, namespace: dict, n: int) -> list[str]:
    """The statements of ``_generate``'s function that check and render a dict of ``fields``.

    The names they use are suffixed ``n`` and put in ``namespace``.
    """
    namespace[f"keys{n}"] = frozenset(fields)
    loads, checks, slots, values = [], [], [], []
    at = "" if line else "."  # a nested object's paths start with a dot, for its holder to prefix
    for i, key in enumerate(sorted(fields)):
        leaf, v, s, c = fields[key], f"v{i}", f"s{i}", f"c{n}_{i}"
        loads.append(f"{v} = p[{key!r}]")
        guard = None
        if leaf == "int":  # not bool, whose %d is 1
            guard, problem, slot, value = f"type({v}) is int", "is not an integer", "%d", v
        elif leaf == "bool":
            guard, problem, slot, value = f"type({v}) is bool", "is not a boolean", "%s", f"('true' if {v} else 'false')"
        elif leaf in _STRINGS:
            guard, problem, slot, value = f"type({v}) is str", "is not a string", "%s", f"esc({v})"
        elif leaf[-1] == "?" and leaf[:-1] in _STRINGS:
            guard, problem = f"({v} is None or type({v}) is str)", "is not a string or null"
            slot, value = "%s", f"('null' if {v} is None else esc({v}))"
        elif leaf[0] == "[" and leaf[1:-1] in _STRINGS:
            guard, problem = f"(type({v}) is list and all(type(x) is str for x in {v}))", "is not a list of strings"
            slot, value = "[%s]", f"','.join(map(esc, {v}))"
        elif leaf[0] == "[":  # a list of SHAPES objects, each checked and rendered by its own function
            namespace[c] = _generate(leaf[1:-1], SHAPES[leaf[1:-1]])
            slot, value = "[%s]", f"','.join({s})"
            checks += [
                f"if type({v}) is not list:", f"    return {at + key!r}, 'is not a list'", f"{s} = []",
                f"for n, x in enumerate({v}):", f"    found = {c}(x, render)", "    if type(found) is tuple:",
                f"        return '%s[%d]%s' % ({at + key!r}, n, found[0]), found[1]", f"    {s}.append(found)",
            ]
        else:  # a SHAPES object
            namespace[c] = _generate(leaf, SHAPES[leaf])
            slot, value = "%s", s
            checks += [f"{s} = {c}({v}, render)", f"if type({s}) is tuple:", f"    return {at + key!r} + {s}[0], {s}[1]"]
        if guard is not None:
            checks += [f"if not {guard}:", f"    return {at + key!r}, {problem!r}"]
        slots.append(encode_basestring_ascii(key).replace("%", "%%") + ":" + slot)
        values.append(value)
    template = "{" + ",".join(slots) + "}"
    if line:
        template = '{"kind":' + encode_basestring_ascii(name).replace("%", "%%") + ',"payload":' + template
        template += ',"seq":%d,"time":%d}'
        values += ["seq", "time"]
    return [
        f"if len(p) != {len(fields)}:", f"    return stray(p, keys{n}, {at!r})", "try:",
        *(f"    {load}" for load in loads), "except KeyError:", f"    return stray(p, keys{n}, {at!r})",
        *checks, "if render:", f"    return {template!r} % ({', '.join(values)},)", "return None",
    ]


def _stray(p: dict, keys: frozenset, at: str) -> tuple[str, str]:
    """The first field of ``keys`` (sorted) that ``p`` lacks, else the first key of ``p`` outside them."""
    for key in sorted(keys):
        if key not in p:
            return at + key, "is missing"
    return at + str(next(key for key in p if key not in keys)), "is not in the event table"


# Events rendered at a time: about 40 KB of log lines, so neither a render nor a check holds a second log.
_CHUNK = 256


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
        self._chunks: list[bytes] | None = []  # canonical bytes of events[:_hashed]; None once written
        self._hash = hashlib.sha256()  # of the canonical bytes of events[:_hashed]
        self._hashed: int | None = 0  # None once checked events are dropped

    # -- event log ---------------------------------------------------------

    def append_event(self, kind: str, payload: dict) -> EventRecord:
        """Append a ``kind`` event; a payload the event table refuses raises TypeError and appends nothing."""
        walk = _GENERATED.get(kind)
        if walk is None or walk(payload) is not None:  # the kind's first use, or a refusal
            problem = check_event(kind, payload)
            if problem is not None:
                raise TypeError(problem)
        record = EventRecord(self._next_seq, self.time, kind, payload)
        self._next_seq += 1
        self.events.append(record)
        return record

    def _render(self) -> list[bytes]:
        """The log's canonical bytes, ``_CHUNK`` events a chunk; renders and hashes only the events not yet hashed."""
        if self._hashed is None:
            raise RuntimeError("this ledger dropped events checked against a recorded log; it has no log bytes")
        if self._chunks is None:  # written: render and hash the whole log again
            self._chunks, self._hash, self._hashed = [], hashlib.sha256(), 0
        for start in range(self._hashed, len(self.events), _CHUNK):
            chunk = serialize_events(self.events[start : start + _CHUNK])
            self._chunks.append(chunk)
            self._hash.update(chunk)
        self._hashed = len(self.events)
        return self._chunks

    def drop_checked(self, count: int) -> None:
        """Drop the first ``count`` events, checked against a recorded log; the log's bytes are then gone."""
        del self.events[:count]
        self._hashed = None

    def log_digest(self) -> bytes:
        """The log's SHA-256; renders nothing if no event was appended since the last digest or write."""
        if self._hashed != len(self.events):
            self._render()
        return self._hash.digest()

    def write(self, file: BinaryIO) -> None:
        """Write the log's canonical bytes to ``file``, then drop them: the file is their only copy."""
        file.writelines(self._render())
        self._chunks = None

    # -- accounts and value ------------------------------------------------

    def account(self, address: Address) -> Account:
        try:
            return self.accounts[address]
        except KeyError:
            raise Refused("UnknownAccount", address) from None

    def create_account(self, initial_balance: int) -> Address:
        if initial_balance < 0:
            raise RejectedInput("initial balance must be >= 0")
        address = derive_address(self.seed, len(self.accounts))  # no account is ever dropped
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
            raise Refused("InsufficientFunds", f"balance {fmt_units(source.balance)} < {fmt_units(amount)}")
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

    def conservation_holds(self) -> bool:
        """All value in accounts must equal everything ever minted."""
        return sum(acct.balance for acct in self.accounts.values()) == self.minted_total
