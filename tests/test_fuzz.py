import re

import pytest

from guardsim import fuzz
from guardsim.audit import audit_events
from guardsim.errors import RejectedInput
from guardsim.fuzz import Fuzzer
from guardsim.runner import run_scenario, run_step
from guardsim.scenario import parse_scenario, parse_step
from guardsim.sim import Simulation
from guardsim.token import TokenContract
from guardsim.units import to_units

from test_digests import FUZZ_CORPUS


def test_fuzz_clean_at_moderate_scale():
    result = Fuzzer(seed=101, ops_per_run=250).run(5000)
    assert result.ok
    assert result.ops == 5000
    assert result.sequences == 20


def test_fuzz_different_seeds_different_traces():
    one = Fuzzer(seed=1).run(400)
    two = Fuzzer(seed=2).run(400)
    assert one.ok and two.ok


def test_fuzzer_catches_a_seeded_guard_bug_and_minimizes(monkeypatch):
    # disable the guard entirely: locked/reclaimed tokens become transferable
    monkeypatch.setattr(TokenContract, "transfer_guard", lambda self, tid, caller: None)
    result = Fuzzer(seed=7, ops_per_run=300).run(3000)
    assert not result.ok
    # the audit at the end of the first sequence catches it
    assert result.sequences == 1
    assert re.fullmatch(r"seq \d+: transfer completed on LOCKED token \d+", result.violation)
    assert result.trace is not None
    # the minimized trace is a valid scenario that still carries the attack
    minimized = parse_scenario(result.trace)
    verbs = [step.verb for step in minimized.steps]
    assert any(v in ("TRANSFER", "SAFE_TRANSFER") for v in verbs)
    # greedy minimization should have stripped the irrelevant op tail
    assert len(minimized.steps) < 300
    _sim, report = run_scenario(minimized)
    assert any(re.fullmatch(r"seq \d+: transfer completed on LOCKED token \d+", v) for v in report.violations)


def test_first_violation_reports_live_books_that_the_log_does_not_show():
    sim = Simulation(seed=1)
    alice = sim.ledger.create_account(to_units(5))
    assert fuzz.first_violation(sim) is None
    sim.ledger.account(alice).balance += 1  # the live books drift; no event records it
    assert audit_events(sim.ledger.events) == []
    assert fuzz.first_violation(sim) == "live conservation check failed"


def test_fuzz_trace_runs_under_the_failing_sequence_seed(monkeypatch):
    monkeypatch.setattr(TokenContract, "transfer_guard", lambda self, tid, caller: None)
    result = Fuzzer(seed=7, ops_per_run=300).run(3000)
    assert not result.ok
    trace = parse_scenario(result.trace)
    seq_seed = fuzz._sequence_seed(7, result.sequences - 1)
    assert (trace.name, trace.seed) == (f"fuzz-{seq_seed}", seq_seed)
    _sim, report = run_scenario(trace)
    assert report.violations


@pytest.mark.parametrize("seed", [7, 1, 3])
def test_the_minimized_trace_reproduces_the_reported_violation(monkeypatch, seed):
    # each seed's sequence holds several guard bugs; a trace that drops the reported one is no repro
    monkeypatch.setattr(TokenContract, "transfer_guard", lambda self, tid, caller: None)
    result = Fuzzer(seed, ops_per_run=300).run(3000)
    _sim, report = run_scenario(parse_scenario(result.trace))

    def without_seq(violation):
        return re.sub(r"\Aseq \d+: ", "", violation)

    assert without_seq(result.violation) == "transfer completed on LOCKED token 1"
    assert without_seq(report.violations[0]) == without_seq(result.violation)


@pytest.mark.parametrize("ops_per_run", [0, -1])
def test_fuzzer_rejects_a_non_positive_sequence_length(ops_per_run):
    # Fuzzer.run would never finish with such a length, so only the constructor is exercised
    with pytest.raises(RejectedInput):
        Fuzzer(seed=1, ops_per_run=ops_per_run)


@pytest.mark.parametrize("seed", sorted(FUZZ_CORPUS))
def test_every_fuzz_step_equals_the_parse_of_its_command(seed, monkeypatch):
    # the fuzzer builds each step from its drawn values; parsing the logged command must give the same step
    steps = []

    def recording_run_step(ctx, index, step):
        steps.append(step)
        return run_step(ctx, index, step)

    monkeypatch.setattr(fuzz, "run_step", recording_run_step)
    result = Fuzzer(seed).run(8 * 400)
    assert result.ok and len(steps) == 8 * 400
    assert [step for step in steps if step != parse_step(step.raw)] == []
