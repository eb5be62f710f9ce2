"""Replay and report hold one copy of the log.

They re-execute a log and check the new events against the recorded bytes a
chunk at a time, and on a match the ledger keeps the recorded bytes as its
log. So replay's peak memory exceeds what its result holds by a small part of
the log's size, and report's peak exceeds it by about one log.
"""

import gc
import tracemalloc

import pytest

from guardsim.runner import replay_log, report_from_log, run_scenario, write_log
from guardsim.scenario import parse_scenario


@pytest.fixture(scope="module")
def mint_log(tmp_path_factory):
    """A log of 6,000 MINTs, about 1.2 MB."""
    text = "ACCOUNT a 10\n" + "".join(f"MINT a {token_id}\n" for token_id in range(1, 6001))
    sim, report = run_scenario(parse_scenario(text))
    assert report.ok and report.steps_rejected == 0
    log = tmp_path_factory.mktemp("memory") / "mints.jsonl"
    write_log(sim, log)
    assert log.stat().st_size > 1_000_000
    return log


def traced(call, *args):
    """``call(*args)``, the memory its result holds and its peak, both above what was held before it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before


def test_replay_and_report_build_no_second_copy_of_the_log(mint_log):
    size = mint_log.stat().st_size
    (outcome, sim), replay_held, replay_peak = traced(replay_log, mint_log)
    assert outcome.passed
    assert sim.ledger.serialized() == mint_log.read_bytes()
    del sim
    assert replay_peak - replay_held < 0.25 * size, (replay_peak - replay_held) / size
    report, _held, report_peak = traced(report_from_log, mint_log)
    assert report.ok
    assert report_peak < replay_held + 1.5 * size, (report_peak - replay_held) / size
