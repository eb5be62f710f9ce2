"""Acceptance suite: one test per criterion, each printing its own verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from guardsim.access_control import UnlockAttestation
from guardsim.arbitration import FOR_HOLDER, FOR_REPORTER, QuorumTally
from guardsim.config import SimConfig, apply_override, config_from_payload
from guardsim.errors import SimError
from guardsim.fuzz import Fuzzer
from guardsim.risk import classify_payload
from guardsim.runner import replay_log, run_scenario, write_log
from guardsim.scenario import load_scenario
from guardsim.sim import Simulation
from guardsim.token import TokenState
from guardsim.units import to_units

from conftest import fund_accounts
from riskgrid import build_grid_view, grid_points, oracle_status

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CANNED = sorted(SCENARIOS.glob("*.tps"))


def check(criterion, name, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print(f"ACCEPTANCE {criterion} ({name}): {status}" + (f" [{detail}]" if detail else ""))
    assert condition, f"criterion {criterion} ({name}) failed: {detail}"


# -- 1. lock safety under fuzzing ------------------------------------------------


def test_acceptance_1_lock_safety():
    result = Fuzzer(seed=20260809).run(100_000)
    check(
        1,
        "lock safety",
        result.ok and result.ops >= 100_000 and result.transfers_checked > 0,
        f"{result.ops} ops, {result.transfers_checked} completed transfers, violation={result.violation}",
    )


# -- 2. three verdicts, all offline-recomputable ------------------------------------


def test_acceptance_2_verdict_coverage_and_recompute():
    seen = set()
    mismatches = 0
    verdicts = 0
    for path in CANNED:
        sim, _report = run_scenario(load_scenario(path))
        genesis = next(ev for ev in sim.ledger.events if ev.kind == "Genesis")
        config = config_from_payload(genesis.payload["config"])
        for ev in sim.ledger.events:
            if ev.kind != "RiskFulfilled":
                continue
            verdicts += 1
            seen.add(ev.payload["status"])
            status, rules = classify_payload(ev.payload["features"], config)
            logged_rules = [h["rule"] for h in ev.payload["hits"]]
            if status != ev.payload["status"] or rules != logged_rules:
                mismatches += 1
    check(
        2,
        "three-verdict coverage",
        seen >= {"safe", "may_lost", "hacked"} and mismatches == 0 and verdicts > 0,
        f"statuses={sorted(seen)}, {verdicts} verdicts recomputed, {mismatches} mismatches",
    )


# -- 3. rule engine vs brute-force rule text -----------------------------------------


def test_acceptance_3_rule_engine_oracle_equivalence():
    sim = Simulation(seed=0)
    points = disagreements = 0
    for point in grid_points():
        points += 1
        request, price, view = build_grid_view(*point)
        verdict = sim.engine.evaluate(request, price, view)
        expected_status, expected_rules = oracle_status(*point)
        if verdict.status != expected_status or [h["rule"] for h in verdict.hits] != expected_rules:
            disagreements += 1
    check(
        3,
        "rule-engine oracle equivalence",
        points >= 2000 and disagreements == 0,
        f"{points} grid points, {disagreements} disagreements",
    )


# -- 4. quorum voting equivalence -----------------------------------------------------


def _tally_oracle(votes, quorum):
    return FOR_REPORTER if list(votes).count(FOR_REPORTER) >= quorum else FOR_HOLDER


def _das_outcome(assignment, order, jury_f):
    config = apply_override(SimConfig(), "jury_f", str(jury_f))
    sim = Simulation(seed=3, config=config)
    alice, bob = fund_accounts(sim, 2, age_ticks=0)
    jurors = fund_accounts(sim, config.jury_size, balance=5, age_ticks=86400)
    sim.contract.mint(alice, 1)
    sim.contract.transfer_from(alice, alice, bob, 1, to_units(10))
    case_id = sim.arbitration.file_report(alice, 1)
    jury = sim.arbitration.empanel_jury(case_id, jurors, seed=sim.seed)
    outcome = None
    cast = []
    for position in order:
        outcome = sim.arbitration.cast_vote(case_id, jury[position], assignment[position])
        cast.append(assignment[position])
        if outcome is not None:
            break
    reporter_votes = cast.count(FOR_REPORTER)
    return outcome, reporter_votes, sim


def test_acceptance_4_bft_vote_equivalence():
    sides = (FOR_REPORTER, FOR_HOLDER)
    failures = 0
    cases = 0

    # f=1: every assignment in every arrival order, end to end through the simulator
    for assignment in itertools.product(sides, repeat=4):
        for order in itertools.permutations(range(4)):
            cases += 1
            outcome, reporter_votes, _sim = _das_outcome(assignment, order, jury_f=1)
            if outcome != _tally_oracle(assignment, 3):
                failures += 1
            if outcome == FOR_REPORTER and reporter_votes < 3:
                failures += 1

    # f=2: every assignment in every arrival order on the vote machine the
    # arbitration system delegates to
    for assignment in itertools.product(sides, repeat=7):
        for order in itertools.permutations(range(7)):
            cases += 1
            tally = QuorumTally(quorum=5, size=7)
            outcome = None
            for position in order:
                outcome = tally.cast(f"j{position}", assignment[position])
                if outcome is not None:
                    break
            if outcome != _tally_oracle(assignment, 5):
                failures += 1
            if outcome == FOR_REPORTER and tally.count(FOR_REPORTER) < 5:
                failures += 1

    # f=2 sampled end-to-end cross-check
    rng = random.Random(4)
    for _ in range(40):
        cases += 1
        assignment = tuple(rng.choice(sides) for _ in range(7))
        order = list(range(7))
        rng.shuffle(order)
        outcome, reporter_votes, _sim = _das_outcome(assignment, tuple(order), jury_f=2)
        if outcome != _tally_oracle(assignment, 5):
            failures += 1
        if outcome == FOR_REPORTER and reporter_votes < 5:
            failures += 1

    check(4, "BFT vote equivalence", failures == 0, f"{cases} vote sequences, {failures} failures")


# -- 5. end-to-end replevin -------------------------------------------------------------


def test_acceptance_5_replevin_end_to_end():
    sim, report = run_scenario(load_scenario(SCENARIOS / "replevin.tps"))
    alice = report.names["alice"]
    token = sim.contract.token(1)
    owns_locked = token.owner == alice and token.state is TokenState.LOCKED
    net_cost = to_units(10) - sim.ledger.account(alice).balance
    exact_gas = net_cost == sim.config.gas_fee
    conserved = sim.ledger.conservation_holds() and sim.ledger.account(sim.escrow).balance == 0
    check(
        5,
        "end-to-end replevin",
        owns_locked and exact_gas and conserved and not report.violations,
        f"owner_ok={owns_locked}, net_cost={net_cost}, conserved={conserved}",
    )


# -- 6. replay determinism ----------------------------------------------------------------


def _flip_one_digit(line: bytes) -> bytes:
    # change one digit character in place; the line stays valid JSON
    body = line.split(b'"seq"', 1)[0]
    for index, byte in enumerate(body):
        char = chr(byte)
        if char.isdigit():
            replacement = str((int(char) + 1) % 10).encode()
            return line[:index] + replacement + line[index + 1 :]
    raise AssertionError("no digit found to mutate")


def _mutation_target(lines: list[bytes]) -> int:
    # mutate a recorded effect: a mutated Step line is a *different program*
    # whose divergence only surfaces at its first differing effect
    middle = len(lines) // 2
    ordered = sorted(range(len(lines)), key=lambda i: abs(i - middle))
    for index in ordered:
        if b'"kind":"Step"' in lines[index] or b'"kind":"Genesis"' in lines[index]:
            continue
        if any(chr(b).isdigit() for b in lines[index].split(b'"seq"', 1)[0]):
            return index
    raise AssertionError("no effect line to mutate")


def test_acceptance_6_replay_determinism(tmp_path):
    failures = []
    for path in CANNED:
        sim, _report = run_scenario(load_scenario(path))
        log = tmp_path / f"{path.stem}.jsonl"
        write_log(sim, log)
        outcome, _ = replay_log(log)
        if not outcome.passed:
            failures.append(f"{path.stem}: clean replay failed at {outcome.divergence_seq}")
            continue
        lines = log.read_bytes().splitlines(keepends=True)
        target = _mutation_target(lines)
        mutated = list(lines)
        mutated[target] = _flip_one_digit(lines[target])
        log.write_bytes(b"".join(mutated))
        damaged, _ = replay_log(log)
        if damaged.passed or damaged.divergence_seq != target + 1:
            failures.append(f"{path.stem}: mutation at seq {target + 1} detected at {damaged.divergence_seq}")
    check(6, "replay determinism", not failures, "; ".join(failures) or f"{len(CANNED)} logs verified")


# -- 7. anti-griefing economics ------------------------------------------------------------


def test_acceptance_7_malicious_report_economics():
    fuzzer = Fuzzer(seed=77, ops_per_run=500)
    holder_closures = 0
    non_punitive = 0
    sequences = 60
    for index in range(sequences):
        from guardsim.fuzz import _sequence_seed, first_violation

        _scenario, sim, _transfers = fuzzer._generate_sequence(_sequence_seed(77, index), 500)
        violation = first_violation(sim)
        assert violation is None, violation
        for ev in sim.ledger.events:
            if ev.kind == "CaseClosed" and ev.payload["verdict"] == FOR_HOLDER and not ev.payload["auto"]:
                holder_closures += 1
                net = (
                    to_units(ev.payload["refund"])
                    - to_units(ev.payload["deposit"])
                    - to_units(ev.payload["gas_charged"])
                )
                if net >= 0:
                    non_punitive += 1
    check(
        7,
        "anti-griefing economics",
        holder_closures > 0 and non_punitive == 0,
        f"{holder_closures} FOR_HOLDER closures of filed reports, {non_punitive} non-punitive",
    )


# -- 8. reclaim immutability ------------------------------------------------------------------


def _reclaimed_fixture():
    sim = Simulation(seed=8)
    alice = sim.ledger.create_account(to_units(10))
    aux = sim.ledger.create_account(0)
    bob = sim.ledger.create_account(to_units(10))
    sim.ledger.advance_time(86400)
    sim.contract.mint(alice, 1)
    sim.access.register_aux(alice, aux, sim.access.registration_digest(alice, aux))
    sim.ledger.set_explorer_flag(bob, True)
    sim.contract.transfer_from(alice, alice, bob, 1, to_units(10))  # hacked -> RECLAIMED
    assert sim.contract.token(1).state is TokenState.RECLAIMED
    return sim, alice, aux, bob


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=24))
def test_acceptance_8_reclaim_immutable_property(ops):
    sim, alice, aux, bob = _reclaimed_fixture()
    treasury = sim.treasury
    for op in ops:
        try:
            if op == 0:
                sim.access.lock(alice, 1)
            elif op == 1:
                sim.access.unlock(alice, 1, sim.access.make_attestation(alice, 1))
            elif op == 2:
                sim.access.unlock(bob, 1, UnlockAttestation(bob, aux, 1, sim.ledger.time, 0, b"\x00" * 32))
            elif op == 3:
                sim.contract.transfer_from(alice, alice, bob, 1, to_units(5))
            elif op == 4:
                sim.contract.transfer_from(bob, bob, alice, 1, 0, safe_variant=True)
            elif op == 5:
                sim.contract.approve(alice, bob, 1)
            elif op == 6:
                sim.access.register_aux(alice, aux, sim.access.registration_digest(alice, aux))
            else:
                sim.contract.set_approval_for_all(bob, alice, True)
        except SimError:
            pass
        token = sim.contract.token(1)
        assert token.state is TokenState.RECLAIMED
        assert token.owner == treasury


def test_acceptance_8_reclaim_immutability_summary():
    # the property test above exhausted the dac/contract surface; a verdict is
    # the one path that moves a reclaimed token, which closes the criterion
    sim, alice, aux, bob = _reclaimed_fixture()
    jurors = fund_accounts(sim, 4, balance=5, age_ticks=0)
    sim.arbitration.empanel_jury(1, jurors, seed=sim.seed)
    for juror in sim.arbitration.case(1).jury[:3]:
        sim.arbitration.cast_vote(1, juror, FOR_REPORTER)
    token = sim.contract.token(1)
    check(
        8,
        "reclaim immutability",
        token.owner == alice and token.state is TokenState.LOCKED,
        "no dac/contract call sequence moved a reclaimed token; the arbitration verdict did",
    )
