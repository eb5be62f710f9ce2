"""Event-log audits.

These checks work purely on the serialized event stream, independently of the
live objects that produced it, so they double as tamper detection: every
value-moving event records its post balances, and the audit refolds the whole
history and cross-checks each recorded balance and the final conservation
identity. It trusts the keys and types of the event table, which checks every
event at append and at parse; an amount spelling that ``to_units`` refuses is
a ``ReplayError`` naming the event's seq and kind.
"""

from __future__ import annotations

from .config import JuryConfig
from .errors import RejectedInput, ReplayError
from .ledger import EventRecord
from .token import EFFECT_KINDS
from .units import to_units

_OWNERSHIP_KINDS = {"Minted", "Transfer", "SafeTransfer", "Reclaimed", "Returned"}
_DISPATCHED_KINDS = {kind: action for action, kind in EFFECT_KINDS.items()}  # effect event -> action


def audit_events(events: list[EventRecord]) -> list[str]:
    """Return every invariant violation found in the stream (empty means clean)."""
    violations: list[str] = []
    balances: dict[str, int] = {}
    minted = 0
    request_ids: list[int] = []
    fulfilled: dict[int, int] = {}
    token_state: dict[int, str] = {}
    honor_count = 0
    reward_minted_total = 0
    juror_reward_each: int | None = None
    gas_fee = JuryConfig().gas_fee  # replaced by the genesis config

    def check_balance(seq: int, addr: str, recorded: str) -> None:
        if balances.get(addr, 0) != to_units(recorded):
            violations.append(f"seq {seq}: recorded balance for {addr} diverges from refolded history")

    previous: EventRecord | None = None
    try:
        for ev in events:
            seq, _time, kind, p = ev
            if kind == "Genesis":
                gas_fee = to_units(p["config"]["gas_fee"])
            elif kind == "AccountCreated":
                amount = to_units(p["balance"])
                balances[p["address"]] = amount
                minted += amount
            elif kind == "ValueTransferred":
                amount = to_units(p["amount"])
                balances[p["from"]] = balances.get(p["from"], 0) - amount
                balances[p["to"]] = balances.get(p["to"], 0) + amount
                check_balance(seq, p["from"], p["from_balance"])
                check_balance(seq, p["to"], p["to_balance"])
                if balances[p["from"]] < 0:
                    violations.append(f"seq {seq}: balance of {p['from']} went negative")
            elif kind == "ValueMinted":
                amount = to_units(p["amount"])
                balances[p["to"]] = balances.get(p["to"], 0) + amount
                minted += amount
                check_balance(seq, p["to"], p["to_balance"])
                if p["reason"] == "juror_reward":
                    reward_minted_total += amount
            elif kind == "RiskRequested":
                request_ids.append(p["request_id"])
            elif kind == "RiskFulfilled":
                fulfilled[p["request_id"]] = fulfilled.get(p["request_id"], 0) + 1
            elif kind == "HonorAwarded":
                honor_count += 1
                if juror_reward_each is None:
                    juror_reward_each = to_units(p["reward"])
            elif kind == "CaseClosed":
                if p["verdict"] == "FOR_REPORTER" and p["tally_reporter"] < p["quorum"]:
                    violations.append(f"seq {seq}: FOR_REPORTER verdict with only {p['tally_reporter']} votes")
                if p["verdict"] == "FOR_HOLDER" and not p["auto"]:
                    # the reporter forfeits the deposit and pays the gas fee, capped by its balance
                    gas = to_units(p["gas_charged"])
                    owed = min(gas_fee, to_units(p["reporter_balance"]) + gas)
                    if to_units(p["refund"]) or gas != owed:
                        violations.append(f"seq {seq}: FOR_HOLDER closure did not charge the reporter")

            # token state machine checks
            if kind in _OWNERSHIP_KINDS:
                token_id = p["token_id"]
                if kind == "Minted":
                    token_state[token_id] = "OK"
                elif kind in ("Transfer", "SafeTransfer"):
                    if p["guard_state"] != "OK":
                        violations.append(f"seq {seq}: transfer completed on {p['guard_state']} token {token_id}")
                    if p["guard_frozen"]:
                        violations.append(f"seq {seq}: transfer completed on frozen token {token_id}")
                    if token_state.get(token_id) == "RECLAIMED":
                        violations.append(f"seq {seq}: reclaimed token {token_id} moved outside a verdict return")
                    if p["new_state"] != "LOCKED":
                        violations.append(f"seq {seq}: received token {token_id} not locked on receipt")
                    token_state[token_id] = p["new_state"]
                elif kind == "Reclaimed":
                    token_state[token_id] = "RECLAIMED"
                elif kind == "Returned":
                    if token_state.get(token_id) != "RECLAIMED":
                        violations.append(f"seq {seq}: verdict return on token {token_id} that was not reclaimed")
                    if p["new_state"] != "LOCKED":
                        violations.append(f"seq {seq}: returned token {token_id} not locked on receipt")
                    token_state[token_id] = p["new_state"]

            # a dispatch and its effect event are adjacent, in both directions
            action = _DISPATCHED_KINDS.get(kind)
            dispatched = previous is not None and previous.kind == "OracleDispatch"
            paired = (
                dispatched
                and previous.payload["action"] == action
                and previous.payload["token_id"] == p["token_id"]
            )
            if action is not None and not paired:
                violations.append(f"seq {seq}: {kind} event without an immediately preceding dispatch")
            if dispatched and not paired:
                violations.append(f"seq {previous.seq}: OracleDispatch without its effect event immediately after")
            previous = ev
    except RejectedInput as exc:  # an amount that to_units refuses
        raise ReplayError(f"seq {ev.seq}: {ev.kind} event: {exc}") from None

    if previous is not None and previous.kind == "OracleDispatch":
        violations.append(f"seq {previous.seq}: OracleDispatch without its effect event immediately after")

    if sum(balances.values()) != minted:
        violations.append("conservation: account balances do not equal total minted value")
    if sorted(fulfilled) != request_ids or any(n != 1 for n in fulfilled.values()):
        violations.append("request/fulfill pairing broken")
    if request_ids != list(range(1, len(request_ids) + 1)):
        violations.append("request ids are not gap-free")
    if juror_reward_each is not None and reward_minted_total != honor_count * juror_reward_each:
        violations.append("minted juror rewards do not match honor awards")
    return violations
