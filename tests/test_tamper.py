"""Audit checks fired by hand edits of canned logs.

``report`` re-executes a log. Where the recorded bytes diverge from the re-run,
it audits the recorded events on their own, lists each violation the re-run
lacks, then names the divergence. Each test below rewrites one event of the
log of ``scenarios/replevin.tps`` (or ``clean_sale.tps`` or ``hot_sale.tps``),
or cuts the log short, so that one audit check fires alone, or the two sides of
one check: the report's violations are that check and the divergence line, and
it exits 1.
"""

import json
from pathlib import Path

import pytest

from guardsim.cli import main
from guardsim.units import UNIT, fmt_units, to_units

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _run(tmp_path, name):
    log = tmp_path / f"{name}.jsonl"
    assert main(["run", str(SCENARIOS / f"{name}.tps"), "--out", str(log)]) == 0
    return log


@pytest.fixture
def replevin_log(tmp_path):
    return _run(tmp_path, "replevin")


def _events(log):
    return [json.loads(line) for line in log.read_text().splitlines()]


def _rewrite(log, seq, edit):
    """Rewrite the payload of the event at ``seq`` in canonical form with ``edit(payload)``."""
    lines = log.read_bytes().splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if json.loads(line)["seq"] == seq)
    body = json.loads(lines[index])
    edit(body["payload"])
    lines[index] = json.dumps(body, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    log.write_bytes(b"".join(lines))


def _report_violations(log, capsys):
    capsys.readouterr()
    assert main(["report", str(log)]) == 1
    out = capsys.readouterr().out
    return [line.removeprefix("violation: ") for line in out.splitlines() if line.startswith("violation: ")]


def test_a_transfer_that_overdraws_its_payer(replevin_log, capsys):
    """The last value transfer, the victim's gas fee, moves more than the payer holds. Both recorded
    balances follow the refold, and neither party moves value later, so no balance check fires."""
    last = [ev for ev in _events(replevin_log) if ev["kind"] == "ValueTransferred"][-1]
    payer, seq = last["payload"]["from"], last["seq"]

    def overdraw(p):
        held = to_units(p["from_balance"]) + to_units(p["amount"])
        amount = held + UNIT
        p.update(
            amount=fmt_units(amount),
            from_balance=fmt_units(held - amount),
            to_balance=fmt_units(to_units(p["to_balance"]) - to_units(p["amount"]) + amount),
        )

    _rewrite(replevin_log, seq, overdraw)
    assert _report_violations(replevin_log, capsys) == [
        f"seq {seq}: balance of {payer} went negative",
        f"recorded log diverges from deterministic re-execution at seq {seq}",
    ]


def test_a_reporter_verdict_short_of_the_quorum(replevin_log, capsys):
    (closed,) = [ev for ev in _events(replevin_log) if ev["kind"] == "CaseClosed"]
    seq, quorum = closed["seq"], closed["payload"]["quorum"]
    assert closed["payload"]["verdict"] == "FOR_REPORTER"
    _rewrite(replevin_log, seq, lambda p: p.update(tally_reporter=quorum - 1))
    assert _report_violations(replevin_log, capsys) == [
        f"seq {seq}: FOR_REPORTER verdict with only {quorum - 1} votes",
        f"recorded log diverges from deterministic re-execution at seq {seq}",
    ]


def test_an_address_created_twice_breaks_conservation(replevin_log, capsys):
    """Mallory's AccountCreated names alice instead. Both hold 10 and mallory moves no value, so every
    recorded balance still matches its refold; only the check for an address created twice fires."""
    created = [ev for ev in _events(replevin_log) if ev["kind"] == "AccountCreated"]
    alice, mallory = created[3:5]  # after the treasury, the fee sink and the escrow
    assert alice["payload"]["balance"] == mallory["payload"]["balance"] == fmt_units(10 * UNIT)
    address = alice["payload"]["address"]
    _rewrite(replevin_log, mallory["seq"], lambda p: p.update(address=address))
    assert _report_violations(replevin_log, capsys) == [
        f"seq {mallory['seq']}: address {address} created twice",
        f"recorded log diverges from deterministic re-execution at seq {mallory['seq']}",
    ]


def test_a_value_event_that_names_an_address_never_created(replevin_log, capsys):
    """The fee sink's AccountCreated names a stranger instead. The fee sink opens at 0, so the
    refold of each gas fee paid to it still matches the recorded balance; only the check for an
    address that no AccountCreated created fires, once for each value event that pays it."""
    created = [ev for ev in _events(replevin_log) if ev["kind"] == "AccountCreated"]
    sink = created[1]  # after the treasury
    address = sink["payload"]["address"]
    assert sink["payload"]["balance"] == fmt_units(0)
    transfers = [ev for ev in _events(replevin_log) if ev["kind"] == "ValueTransferred"]
    paid = [ev["seq"] for ev in transfers if ev["payload"]["to"] == address]
    assert len(paid) == 1  # the victim's gas fee
    _rewrite(replevin_log, sink["seq"], lambda p: p.update(address="0x" + "0" * 38 + "aa"))
    assert _report_violations(replevin_log, capsys) == [
        *(f"seq {seq}: value event names {address}, which no earlier AccountCreated created" for seq in paid),
        f"recorded log diverges from deterministic re-execution at seq {sink['seq']}",
    ]


def test_a_transfer_of_a_frozen_token(tmp_path, capsys):
    log = _run(tmp_path, "clean_sale")
    first = next(ev for ev in _events(log) if ev["kind"] == "Transfer")
    seq, token_id = first["seq"], first["payload"]["token_id"]
    _rewrite(log, seq, lambda p: p.update(guard_frozen=True))
    assert _report_violations(log, capsys) == [
        f"seq {seq}: transfer completed on frozen token {token_id}",
        f"recorded log diverges from deterministic re-execution at seq {seq}",
    ]


def test_a_rejected_step_that_left_events_behind(tmp_path, capsys):
    """The rejection of hot_sale's frozen-token transfer names the step before it instead: the
    underpriced sale, whose risk check and freeze are in the log, so a rejected step left events."""
    log = _run(tmp_path, "hot_sale")
    (rejected,) = [ev for ev in _events(log) if ev["kind"] == "StepRejected"]
    seq, index = rejected["seq"], rejected["payload"]["index"] - 1
    _rewrite(log, seq, lambda p: p.update(index=index))
    assert _report_violations(log, capsys) == [
        f"seq {seq}: rejected step {index} left events behind",
        f"recorded log diverges from deterministic re-execution at seq {seq}",
    ]


def test_a_juror_reward_that_no_honor_award_matches(replevin_log, capsys):
    """The first HonorAwarded sets the reward each award is worth; doubling it leaves the minted
    total short of the awards, while every recorded balance still matches its refold."""
    first = next(ev for ev in _events(replevin_log) if ev["kind"] == "HonorAwarded")
    reward = to_units(first["payload"]["reward"])
    _rewrite(replevin_log, first["seq"], lambda p: p.update(reward=fmt_units(2 * reward)))
    assert _report_violations(replevin_log, capsys) == [
        "minted juror rewards do not match honor awards",
        f"recorded log diverges from deterministic re-execution at seq {first['seq']}",
    ]


def test_a_dispatch_that_names_another_token(replevin_log, capsys):
    """The dispatch and its effect event no longer pair, so both directions of the adjacency check fire."""
    dispatch = next(ev for ev in _events(replevin_log) if ev["kind"] == "OracleDispatch")
    seq, action = dispatch["seq"], dispatch["payload"]["action"]
    assert action == "reclaim"
    _rewrite(replevin_log, seq, lambda p: p.update(token_id=p["token_id"] + 1))
    assert _report_violations(replevin_log, capsys) == [
        f"seq {seq + 1}: Reclaimed event without an immediately preceding dispatch",
        f"seq {seq}: OracleDispatch without its effect event immediately after",
        f"recorded log diverges from deterministic re-execution at seq {seq}",
    ]


def test_a_log_that_ends_on_a_dispatch(replevin_log, capsys):
    """Only ``Audit.finish`` can see that the last event is a dispatch with no effect after it."""
    dispatch = next(ev for ev in _events(replevin_log) if ev["kind"] == "OracleDispatch")
    seq = dispatch["seq"]
    lines = replevin_log.read_bytes().splitlines(keepends=True)
    replevin_log.write_bytes(b"".join(line for line in lines if json.loads(line)["seq"] <= seq))
    assert _report_violations(replevin_log, capsys) == [
        f"seq {seq}: OracleDispatch without its effect event immediately after",
        f"recorded log diverges from deterministic re-execution at seq {seq + 1}",
    ]
