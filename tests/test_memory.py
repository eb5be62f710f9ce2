"""A run holds at most one rendering of its log, and only until it is written;
replay and report hold neither the log nor the event history.

A run renders its log a chunk at a time when its digest or its write first
asks for it, and keeps the chunks, never joined, until ``write_log`` puts them
in the file; then the ledger keeps only the digest. Replay and report read a
log in one forward pass and check the re-executed events against the file a
chunk at a time, and line by line from the first chunk that differs; each
chunk is dropped once checked (report folds its counts, audit and digest over
it first, and audits each recorded line that differs as it reads it). So what
they use beyond the state they hold, the replayed simulation and report's
result, stays about the same as the log grows, whether or not the log
matches: it is the chunks in flight, not the log.
"""

import gc
import hashlib
import tracemalloc

import pytest

from guardsim.runner import execute_scenario, replay_log, report_from_log, run_scenario, write_log
from guardsim.scenario import parse_scenario

from test_harness import _count_renders

MB = 1_000_000
MINTS = (3000, 6000)


def mint_scenario(mints: int):
    return parse_scenario("ACCOUNT a 10\n" + "".join(f"MINT a {token_id}\n" for token_id in range(1, mints + 1)))


@pytest.fixture(scope="module")
def mint_logs(tmp_path_factory):
    """Logs of 3,000 and 6,000 MINTs, about 0.6 and 1.2 MB."""
    logs = []
    for mints in MINTS:
        sim, report = run_scenario(mint_scenario(mints))
        assert report.ok and report.steps_rejected == 0
        log = tmp_path_factory.mktemp("memory") / f"mints-{mints}.jsonl"
        write_log(sim, log)
        logs.append(log)
    assert logs[-1].stat().st_size > MB
    return logs


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


@pytest.fixture(scope="module")
def tampered_logs(mint_logs, tmp_path_factory):
    """The MINT logs with the token id of their last line changed by one."""
    logs = []
    for mints, log in zip(MINTS, mint_logs):
        head, last = log.read_bytes().rstrip(b"\n").rsplit(b"\n", 1)
        assert last.startswith(b'{"kind":"Minted",') and f'"token_id":{mints}}}'.encode() in last
        tampered = tmp_path_factory.mktemp("memory") / f"tampered-{mints}.jsonl"
        edited = last.replace(f'"token_id":{mints}}}'.encode(), f'"token_id":{mints + 1}}}'.encode())
        tampered.write_bytes(head + b"\n" + edited + b"\n")
        logs.append(tampered)
    return logs


def net_peaks(log, passed: bool = True) -> tuple[int, int]:
    """The peaks of replay and report above the state each holds: the replayed simulation, and report's result."""
    (outcome, sim), replay_held, replay_peak = traced(replay_log, log)
    assert outcome.passed is passed
    del sim
    report, report_held, report_peak = traced(report_from_log, log)
    assert report.ok is passed
    return replay_peak - replay_held, report_peak - replay_held - report_held


def grown_peaks(logs, passed: bool = True) -> tuple[list[int], tuple[int, ...], tuple[int, ...]]:
    """The sizes of ``logs`` and the net peaks of replay and report on each; asserts the peaks grow by at
    most 0.25 MB per added MB of log."""
    sizes = [log.stat().st_size for log in logs]
    replays, reports = zip(*(net_peaks(log, passed) for log in logs))
    added = (sizes[1] - sizes[0]) / MB
    assert (replays[1] - replays[0]) / MB <= 0.25 * added, replays
    assert (reports[1] - reports[0]) / MB <= 0.25 * added, reports
    return sizes, replays, reports


def test_replay_and_report_build_no_second_copy_of_the_log(mint_logs):
    # nor a first: what they use beyond their state does not grow with the log
    sizes, (replay_small, replay_large), (report_small, report_large) = grown_peaks(mint_logs)
    for size, replay, report in zip(sizes, (replay_small, replay_large), (report_small, report_large)):
        assert replay < 0.5 * size and report < 0.5 * size, (size, replay, report)
    assert replay_large < 0.25 * sizes[1], replay_large / sizes[1]


def test_a_replayed_ledger_keeps_no_log(mint_logs):
    outcome, sim = replay_log(mint_logs[0])
    assert outcome.passed and sim.ledger.events == []
    with pytest.raises(RuntimeError, match="no log bytes"):
        sim.ledger.log_digest()


def test_a_log_that_differs_at_its_end_is_read_in_memory_bounded_by_the_state(tampered_logs):
    # from the first chunk that differs the lines are compared, decoded and audited one by one
    grown_peaks(tampered_logs, passed=False)


def test_a_divergent_replay_keeps_no_event_history(tampered_logs):
    outcome, sim = replay_log(tampered_logs[0])
    assert (outcome.passed, outcome.divergence_seq) == (False, len(tampered_logs[0].read_bytes().splitlines()))
    assert sim.ledger.events == []
    with pytest.raises(RuntimeError, match="no log bytes"):
        sim.ledger.log_digest()


def run_and_write(scenario, log):
    """A run of ``scenario`` whose log is written to ``log``: its sim and its report."""
    sim, report = run_scenario(scenario)
    write_log(sim, log)
    return sim, report


@pytest.mark.parametrize("mints", MINTS)
def test_a_run_and_its_write_peak_at_one_rendering_of_the_log(mints, tmp_path):
    # above the sim and report, which hold no log bytes once written (the next test): the chunks,
    # never joined, and one chunk in flight
    (_sim, _report), held, peak = traced(run_and_write, mint_scenario(mints), tmp_path / "mints.jsonl")
    size = (tmp_path / "mints.jsonl").stat().st_size
    assert peak - held < 1.25 * size, (peak - held) / size


@pytest.mark.parametrize("mints", MINTS)
def test_once_written_a_run_holds_no_log_bytes(mints, tmp_path, monkeypatch):
    scenario, log = mint_scenario(mints), tmp_path / "mints.jsonl"
    unrendered, unrendered_held, _peak = traced(lambda: execute_scenario(scenario).sim)
    del unrendered
    sim, held, _peak = traced(lambda: run_and_write(scenario, log)[0])
    size = log.stat().st_size
    assert held - unrendered_held <= 0.1 * size, (held - unrendered_held) / size
    renders = _count_renders(monkeypatch)
    digest, digest_held, _peak = traced(sim.ledger.log_digest)
    assert digest == hashlib.sha256(log.read_bytes()).digest()
    assert renders[0] == 0 and digest_held < 1000
