"""Minimized regression scenarios under ``tests/regressions``, one per defect found, and refusals that
no scenario file reaches, run from scenario text."""

from pathlib import Path

from guardsim.audit import audit_events
from guardsim.runner import run_scenario
from guardsim.scenario import load_scenario, parse_scenario
from guardsim.units import fmt_units, to_units

REGRESSIONS = Path(__file__).resolve().parent / "regressions"
CANNED = Path(__file__).resolve().parent.parent / "scenarios"


def _run(path):
    return run_scenario(load_scenario(path))


def test_refused_dispatch_leaves_no_dispatch_event():
    sim, report = _run(REGRESSIONS / "dangling_dispatch.tps")
    events = sim.ledger.events
    assert [ev.payload["error"] for ev in events if ev.kind == "StepRejected"] == ["ReclaimedImmutable"]
    assert not any(ev.kind == "OracleDispatch" and ev.payload["action"] == "lock" for ev in events)
    assert events[-2].kind == "Step" and events[-1].kind == "StepRejected"
    assert report.ok


def test_audit_flags_a_dispatch_without_its_effect():
    sim, _report = _run(REGRESSIONS / "dangling_dispatch.tps")
    events = list(sim.ledger.events)
    rejected = events[-1]
    dangling = rejected._replace(kind="OracleDispatch", payload={"action": "lock", "origin": "dac", "token_id": 1})
    spliced = events[:-1] + [dangling, rejected]
    assert any("OracleDispatch without its effect" in v for v in audit_events(spliced))
    assert any("OracleDispatch without its effect" in v for v in audit_events(events + [dangling]))


def test_for_holder_closure_is_clean_under_zero_economics():
    sim, report = _run(REGRESSIONS / "zero_economics.tps")
    closed = next(ev for ev in sim.ledger.events if ev.kind == "CaseClosed")
    assert closed.payload["verdict"] == "FOR_HOLDER" and not closed.payload["auto"]
    assert to_units(closed.payload["deposit"]) == to_units(closed.payload["gas_charged"]) == 0
    assert report.ok, report.violations


def test_bad_amounts_are_rejected_steps():
    sim, report = _run(REGRESSIONS / "bad_amounts.tps")
    rejected = [ev.payload for ev in sim.ledger.events if ev.kind == "StepRejected"]
    assert [p["index"] for p in rejected] == list(range(3, report.steps_total))
    assert {p["error"] for p in rejected} == {"RejectedInput"}
    assert report.ok, report.violations


def test_refusals_no_other_scenario_reaches_are_logged_steps():
    sim, report = _run(REGRESSIONS / "unreached_refusals.tps")
    rejected = [ev.payload for ev in sim.ledger.events if ev.kind == "StepRejected"]
    assert [(p["index"], p["error"], p["detail"]) for p in rejected] == [
        (17, "RejectedInput", "token id must be positive"),
        (18, "RejectedInput", "amount must be >= 0"),
        (19, "CaseClosed", "1"),
        (20, "CaseClosed", "1"),
    ]
    assert report.case_outcomes == [{"case_id": 1, "verdict": "FOR_HOLDER", "auto": False}]
    assert report.ok, report.violations


def test_refusals_that_no_scenario_file_reaches_are_rejected_steps():
    stranger = "0x" + "0" * 38 + "aa"  # an address no account was created at
    scenario = parse_scenario(
        "ACCOUNT alice 10\nACCOUNT bob 10\nMINT alice 1\n"
        "TRANSFER alice alice bob 1 -1\n"  # the price parses to a negative amount
        "UNLOCK alice 1\n"  # no aux wallet: the attestation is refused before unlock runs
        f"PAY alice {stranger} 1\n"
    )
    sim, report = run_scenario(scenario)
    alice = report.names["alice"]
    events = sim.ledger.events
    assert [(ev.payload["index"], ev.payload["error"], ev.payload["detail"]) for ev in events if ev.kind == "StepRejected"] == [
        (3, "RejectedInput", "price must be >= 0"),
        (4, "NoAuxRegistered", alice),
        (5, "UnknownAccount", stranger),
    ]
    assert [ev.kind for ev in events[-6:]] == ["Step", "StepRejected"] * 3  # each leaves only its pair
    assert sim.contract.token(1).owner == alice
    assert report.ok, report.violations


def test_time_stays_below_2_to_the_63():
    sim, report = _run(REGRESSIONS / "huge_ticks.tps")
    top = 2**63 - 1
    frozen = next(ev for ev in sim.ledger.events if ev.kind == "Frozen")
    assert frozen.payload["until"] == 2 * top
    assert sim.ledger.time == top
    assert sim.ledger.events[-2].payload["command"] == "ADVANCE 1"
    assert sim.ledger.events[-1].kind == "StepRejected"
    assert sim.ledger.events[-1].payload["error"] == "RejectedInput"
    assert report.steps_rejected == 1 and report.ok, report.violations


def test_an_approved_address_cannot_approve():
    sim, report = _run(REGRESSIONS / "approved_cannot_approve.tps")
    events = sim.ledger.events
    rejected = [ev.payload for ev in events if ev.kind == "StepRejected"]
    assert [(p["index"], p["error"]) for p in rejected] == [(5, "NotAuthorized")]
    approvals = [ev.payload["approved"] for ev in events if ev.kind == "Approval"]
    assert approvals == [report.names["b"]]
    assert sim.contract.token(1).approved == report.names["b"]
    assert report.ok, report.violations


def _tamper_closure(events, **changes):
    return [
        ev._replace(payload={**ev.payload, **changes}) if ev.kind == "CaseClosed" else ev for ev in events
    ]


def test_audit_still_flags_an_uncharged_reporter():
    for path, changes in (
        (REGRESSIONS / "zero_economics.tps", {"gas_charged": fmt_units(1)}),  # gas above the configured 0
        (CANNED / "malicious_report.tps", {"gas_charged": fmt_units(0)}),  # gas waived
        (CANNED / "malicious_report.tps", {"refund": "0.400000000000000000"}),  # deposit refunded
    ):
        sim, report = _run(path)
        assert report.ok
        violations = audit_events(_tamper_closure(sim.ledger.events, **changes))
        assert any("did not charge the reporter" in v for v in violations), (path.name, changes)
