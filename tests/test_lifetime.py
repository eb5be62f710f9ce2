"""A dropped simulation is freed by reference counting alone.

A ``Simulation`` owns its components, and the two links back (the contract's
to its oracle bridge, the bridge's to arbitration) are weak. So no reference
cycle keeps a simulation or any of its components alive once the last strong
reference to it is dropped. Every test here runs with the cyclic collector
disabled: an object that only the collector could free stays alive and fails.
"""

import gc
import weakref
from pathlib import Path

import pytest

from guardsim.fuzz import Fuzzer, _sequence_seed
from guardsim.runner import replay_log, run_scenario, write_log
from guardsim.scenario import load_scenario
from guardsim.sim import Simulation
from guardsim.token import EFFECT_KINDS, TokenContract

from conftest import refused

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.tps"))


@pytest.fixture(autouse=True)
def no_cyclic_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def parts(sim):
    """Weak references to ``sim`` and to every component it owns."""
    owned = (sim, sim.ledger, sim.engine, sim.contract, sim.bridge, sim.access, sim.arbitration)
    return [weakref.ref(obj) for obj in owned]


def alive(refs):
    return [type(ref()).__name__ for ref in refs if ref() is not None]


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_a_scenario_run_is_freed_when_dropped(path):
    sim, _report = run_scenario(load_scenario(path))
    refs = parts(sim)
    del sim
    assert alive(refs) == []


def test_a_fuzz_sequence_is_freed_when_dropped():
    _scenario, sim, _transfers = Fuzzer(1)._generate_sequence(_sequence_seed(1, 0), 400)
    refs = parts(sim)
    del sim
    assert alive(refs) == []


def test_a_replayed_sim_with_an_auto_case_is_freed_when_dropped(tmp_path):
    sim, report = run_scenario(load_scenario(next(p for p in SCENARIOS if p.stem == "replevin")))
    assert report.verdict_counts.get("hacked") and any(case["auto"] for case in report.case_outcomes)
    write_log(sim, tmp_path / "replevin.jsonl")
    del sim
    outcome, sim = replay_log(tmp_path / "replevin.jsonl")
    assert outcome.passed and any(case.auto_opened for case in sim.arbitration.cases.values())
    refs = parts(sim)
    del sim
    assert alive(refs) == []


def test_each_fuzz_sim_is_freed_before_the_next_is_built(monkeypatch):
    # with the guard off, seed 7's first sequence fails and is minimized: one sim per candidate
    monkeypatch.setattr(TokenContract, "transfer_guard", lambda self, tid, caller: None)
    refs, alive_at_build = [], []
    original = Simulation.__init__

    def recording_init(sim, *args, **kwargs):
        alive_at_build.append(alive(refs))
        original(sim, *args, **kwargs)
        refs.extend(parts(sim))

    monkeypatch.setattr(Simulation, "__init__", recording_init)
    result = Fuzzer(7, ops_per_run=300).run(3000)
    assert not result.ok and len(alive_at_build) > 2  # the sequence and its minimizer's candidates
    assert alive_at_build == [[]] * len(alive_at_build)
    assert alive(refs) == []


def test_a_contract_whose_bridge_is_gone_refuses_bridge_only_calls():
    sim = Simulation(name="orphan")
    alice, bob = sim.ledger.create_account(10), sim.ledger.create_account(10)
    sim.contract.mint(alice, 1)
    contract, bridge = sim.contract, weakref.ref(sim.bridge)
    del sim
    assert bridge() is None
    for caller in (None, object()):
        for action in EFFECT_KINDS:
            with refused("NotOracle"):
                contract.apply_dispatch(action, 1, by=caller, until=contract.now + 1, to=alice)
        with refused("NotOracle"):
            contract.mark_abnormal(1, by=caller)
    with refused("NotOracle"):
        contract.transfer_from(alice, alice, bob, 1, 0)
    token = contract.token(1)
    assert (token.owner, token.state, token.frozen_until, token.abnormal_times) == (alice, "OK", None, [])
