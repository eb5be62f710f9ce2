"""Event-log audits.

These checks work purely on the serialized event stream, independently of the
live objects that produced it, so they double as tamper detection: every
value-moving event records its post balances, and the audit refolds the whole
history and cross-checks each recorded balance and the final conservation
identity. ``Audit`` is the fold, one event at a time, so report audits a log
as it streams; ``audit_events`` runs it over a list. It trusts the keys and
types of the event table, which checks every event at append and at parse; an
amount spelling that ``to_units`` refuses is a ``ReplayError`` naming the
event's seq and kind.
"""

from __future__ import annotations

from typing import Iterable

from .config import SimConfig
from .errors import RejectedInput, ReplayError
from .ledger import EventRecord
from .token import EFFECT_KINDS
from .units import to_units

_OWNERSHIP_KINDS = {"Minted", "Transfer", "SafeTransfer", "Reclaimed", "Returned"}
_DISPATCHED_KINDS = {kind: action for action, kind in EFFECT_KINDS.items()}  # effect event -> action


def audit_events(events: list[EventRecord]) -> list[str]:
    """Return every invariant violation found in the stream (empty means clean)."""
    return Audit(events).finish()


class Audit:
    """The audit as a fold: ``add`` each event in log order, then ``finish`` for the violations.

    It also counts what a report shows: Step and StepRejected events and the verdict of each
    RiskFulfilled event, so one pass over a log serves both.
    """

    def __init__(self, events: Iterable[EventRecord] = ()):
        self.violations: list[str] = []
        self.balances: dict[str, int] = {}
        # the number of risk requests so far, whether the n-th had id n, and the last one's id
        self.requests, self.gap_free, self.last_request = 0, True, None
        self.unpaired: dict[int, str] | None = {}  # request id -> the kind of its one event so far; None once broken
        self.reclaimed: set[int] = set()  # the tokens whose last ownership event left them RECLAIMED
        self.juror_reward_each: int | None = None
        self.gas_fee = SimConfig().gas_fee  # replaced by the genesis config
        self.previous: EventRecord | None = None
        self.minted = self.honor_count = self.reward_minted_total = self.steps = self.rejected = 0
        self.verdicts: dict[str, int] = {}
        for ev in events:
            self.add(ev)

    def _check_balance(self, seq: int, addr: str, recorded: str) -> None:
        if self.balances.get(addr, 0) != to_units(recorded):
            self.violations.append(f"seq {seq}: recorded balance for {addr} diverges from refolded history")

    def _pair(self, request_id: int, kind: str) -> None:
        """Fold a RiskRequested or RiskFulfilled event into the pairing check: request ids rise strictly,
        and each is fulfilled once, before or after its request. An id at or below the last request
        that no unpaired event holds can never pair, so it breaks pairing for good."""
        unpaired, last = self.unpaired, self.last_request
        if unpaired is not None:
            half = unpaired.pop(request_id, None)
            if half == kind or (last is not None and request_id <= last and (half is None or kind == "RiskRequested")):
                self.unpaired = None
            elif half is None:
                unpaired[request_id] = kind

    def add(self, ev: EventRecord) -> None:
        seq, _time, kind, p = ev
        violations, balances, reclaimed = self.violations, self.balances, self.reclaimed
        try:
            if kind == "Step":
                self.steps += 1
            elif kind == "StepRejected":
                self.rejected += 1
            elif kind == "Genesis":
                self.gas_fee = to_units(p["config"]["gas_fee"])
            elif kind == "AccountCreated":
                amount = to_units(p["balance"])
                balances[p["address"]] = amount
                self.minted += amount
            elif kind == "ValueTransferred":
                amount = to_units(p["amount"])
                balances[p["from"]] = balances.get(p["from"], 0) - amount
                balances[p["to"]] = balances.get(p["to"], 0) + amount
                self._check_balance(seq, p["from"], p["from_balance"])
                self._check_balance(seq, p["to"], p["to_balance"])
                if balances[p["from"]] < 0:
                    violations.append(f"seq {seq}: balance of {p['from']} went negative")
            elif kind == "ValueMinted":
                amount = to_units(p["amount"])
                balances[p["to"]] = balances.get(p["to"], 0) + amount
                self.minted += amount
                self._check_balance(seq, p["to"], p["to_balance"])
                if p["reason"] == "juror_reward":
                    self.reward_minted_total += amount
            elif kind == "RiskRequested":
                self.requests += 1
                self.gap_free = self.gap_free and p["request_id"] == self.requests
                self._pair(p["request_id"], kind)
                self.last_request = p["request_id"]
            elif kind == "RiskFulfilled":
                self._pair(p["request_id"], kind)
                self.verdicts[p["status"]] = self.verdicts.get(p["status"], 0) + 1
            elif kind == "HonorAwarded":
                self.honor_count += 1
                if self.juror_reward_each is None:
                    self.juror_reward_each = to_units(p["reward"])
            elif kind == "CaseClosed":
                if p["verdict"] == "FOR_REPORTER" and p["tally_reporter"] < p["quorum"]:
                    violations.append(f"seq {seq}: FOR_REPORTER verdict with only {p['tally_reporter']} votes")
                if p["verdict"] == "FOR_HOLDER" and not p["auto"]:
                    # the reporter forfeits the deposit and pays the gas fee, capped by its balance
                    gas = to_units(p["gas_charged"])
                    owed = min(self.gas_fee, to_units(p["reporter_balance"]) + gas)
                    if to_units(p["refund"]) or gas != owed:
                        violations.append(f"seq {seq}: FOR_HOLDER closure did not charge the reporter")
        except RejectedInput as exc:  # an amount that to_units refuses
            raise ReplayError(f"seq {seq}: {kind} event: {exc}") from None

        # token state machine checks: of a token's states, only RECLAIMED decides one
        if kind in _OWNERSHIP_KINDS:
            token_id = p["token_id"]
            if kind in ("Transfer", "SafeTransfer"):
                if p["guard_state"] != "OK":
                    violations.append(f"seq {seq}: transfer completed on {p['guard_state']} token {token_id}")
                if p["guard_frozen"]:
                    violations.append(f"seq {seq}: transfer completed on frozen token {token_id}")
                if token_id in reclaimed:
                    violations.append(f"seq {seq}: reclaimed token {token_id} moved outside a verdict return")
                if p["new_state"] != "LOCKED":
                    violations.append(f"seq {seq}: received token {token_id} not locked on receipt")
            elif kind == "Returned":
                if token_id not in reclaimed:
                    violations.append(f"seq {seq}: verdict return on token {token_id} that was not reclaimed")
                if p["new_state"] != "LOCKED":
                    violations.append(f"seq {seq}: returned token {token_id} not locked on receipt")
            if kind == "Reclaimed" or p.get("new_state") == "RECLAIMED":  # a Minted event has no new state
                reclaimed.add(token_id)
            else:
                reclaimed.discard(token_id)

        # a dispatch and its effect event are adjacent, in both directions
        previous = self.previous
        action = _DISPATCHED_KINDS.get(kind)
        dispatched = previous is not None and previous.kind == "OracleDispatch"
        paired = dispatched and previous.payload["action"] == action and previous.payload["token_id"] == p["token_id"]
        if action is not None and not paired:
            violations.append(f"seq {seq}: {kind} event without an immediately preceding dispatch")
        if dispatched and not paired:
            violations.append(f"seq {previous.seq}: OracleDispatch without its effect event immediately after")
        self.previous = ev

    def finish(self) -> list[str]:
        """Every violation in the events added so far, with those only the whole stream shows."""
        violations = list(self.violations)
        if self.previous is not None and self.previous.kind == "OracleDispatch":
            violations.append(f"seq {self.previous.seq}: OracleDispatch without its effect event immediately after")
        if sum(self.balances.values()) != self.minted:
            violations.append("conservation: account balances do not equal total minted value")
        if self.unpaired is None or self.unpaired:
            violations.append("request/fulfill pairing broken")
        if not self.gap_free:
            violations.append("request ids are not gap-free")
        if self.juror_reward_each is not None and self.reward_minted_total != self.honor_count * self.juror_reward_each:
            violations.append("minted juror rewards do not match honor awards")
        return violations
