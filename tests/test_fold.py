"""The audit fold and the streamed report, against plain computations over the whole history.

``report_from_log`` folds its counts, its audit and its digest over the log a
chunk at a time, as the re-executed events are checked and dropped. Each test
here recomputes the same figures from a run that keeps every event.
"""

import hashlib
import json
import os
import threading
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guardsim.audit import Audit, audit_events
from guardsim.ledger import EventRecord, serialize_events
from guardsim.runner import parse_log, replay_log, report_from_log, run_scenario, scenario_from_events
from guardsim.scenario import load_scenario

from test_digests import FUZZ_CORPUS
from test_harness import TPS, _corpus_logs


@pytest.fixture(scope="module")
def fuzz_logs():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {seed: _corpus_logs(monkeypatch, seed) for seed in sorted(FUZZ_CORPUS)}


def _logs(source, fuzz_logs) -> list[bytes]:
    if type(source) is int:
        return fuzz_logs[source]
    return [serialize_events(run_scenario(load_scenario(source))[0].ledger.events)]


def _rerun(data: bytes):
    """The run that re-executes ``data`` with every event kept, and its report."""
    scenario, config = scenario_from_events(parse_log(data))
    return run_scenario(scenario, base_config=config)


SOURCES = pytest.mark.parametrize(
    "source", [*TPS, *sorted(FUZZ_CORPUS)], ids=lambda s: f"fuzz-{s}" if type(s) is int else s.stem
)


@SOURCES
def test_the_fold_counts_and_audits_what_the_whole_history_shows(source, fuzz_logs):
    for data in _logs(source, fuzz_logs):
        sim, report = _rerun(data)
        events = sim.ledger.events
        audit = Audit()
        for ev in events:
            audit.add(ev)
        assert audit.finish() == audit.finish() == audit_events(events) == report.violations
        kinds = [ev.kind for ev in events]
        verdicts = [ev.payload["status"] for ev in events if ev.kind == "RiskFulfilled"]
        assert (report.steps_total, report.steps_rejected) == (kinds.count("Step"), kinds.count("StepRejected"))
        assert report.verdict_counts == {status: verdicts.count(status) for status in set(verdicts)}


@SOURCES
def test_a_streamed_report_equals_the_report_of_the_whole_history(source, fuzz_logs, tmp_path):
    for n, data in enumerate(_logs(source, fuzz_logs)):
        log = tmp_path / f"{n}.jsonl"
        log.write_bytes(data)
        _sim, report = _rerun(data)
        assert report.digest == hashlib.sha256(data).hexdigest()
        assert asdict(report_from_log(log)) == asdict(report)


def _longer_balance(line: bytes) -> bytes:
    body = json.loads(line)
    body["payload"]["to_balance"] = "999.000000000000000000"
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def _shorter_time(line: bytes) -> bytes:
    head, time = line.rsplit(b'"time":', 1)
    return head + b'"time":' + time[1:]  # one digit fewer: the chunk read past it ends inside the next line


@pytest.mark.parametrize("edit", [_longer_balance, _shorter_time])
@pytest.mark.parametrize("seed", sorted(FUZZ_CORPUS))
def test_a_log_tampered_after_the_first_chunks_reports_as_the_whole_history_does(seed, edit, fuzz_logs, tmp_path):
    data = fuzz_logs[seed][0]
    lines = data.splitlines(keepends=True)
    assert len(lines) > 3 * 256
    target = next(i for i in range(len(lines) // 2, len(lines)) if b'"kind":"ValueTransferred"' in lines[i])
    lines[target] = edit(lines[target])
    log = tmp_path / "tampered.jsonl"
    log.write_bytes(b"".join(lines))
    outcome, _sim = replay_log(log)
    assert (outcome.passed, outcome.divergence_seq) == (False, target + 1)
    sim, report = _rerun(data)
    recorded = [v for v in audit_events(parse_log(log.read_bytes())) if v not in report.violations]
    want = report.violations + recorded + [f"recorded log diverges from deterministic re-execution at seq {target + 1}"]
    rebuilt = report_from_log(log)
    assert rebuilt.violations == want
    assert (rebuilt.digest, rebuilt.final_tokens) == (sim.ledger.log_digest().hex(), report.final_tokens)


def _through_a_pipe(tmp_path, data: bytes, call):
    """``call`` of a FIFO that a thread writes ``data`` to: a path that cannot seek."""
    fifo = tmp_path / "log.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as file:
            file.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return call(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()
        fifo.unlink()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_log_read_from_a_pipe_replays_and_reports_as_from_a_file(fuzz_logs, tmp_path):
    data = fuzz_logs[sorted(FUZZ_CORPUS)[0]][0]
    log = tmp_path / "fuzz.jsonl"
    tampered = data.replace(b'"kind":"Minted"', b'"kind":"Minted" ', 1)
    for recorded in (data, tampered):
        log.write_bytes(recorded)
        outcome = _through_a_pipe(tmp_path, recorded, replay_log)[0]
        assert outcome == replay_log(log)[0] and outcome.passed == (recorded == data)
        assert asdict(_through_a_pipe(tmp_path, recorded, report_from_log)) == asdict(report_from_log(log))


_OWNERSHIP = st.tuples(
    st.sampled_from(("Minted", "Transfer", "SafeTransfer", "Reclaimed", "Returned")),
    st.integers(1, 3),
    st.sampled_from(("OK", "LOCKED", "RECLAIMED")),
)


def _token_state_violations(moves) -> list[str]:
    """The token state checks, on a dict of every token's last state."""
    state, found = {}, []
    for seq, (kind, token_id, new_state) in enumerate(moves, start=1):
        if kind == "Minted":
            state[token_id] = "OK"
        elif kind in ("Transfer", "SafeTransfer"):
            if state.get(token_id) == "RECLAIMED":
                found.append(f"seq {seq}: reclaimed token {token_id} moved outside a verdict return")
            if new_state != "LOCKED":
                found.append(f"seq {seq}: received token {token_id} not locked on receipt")
            state[token_id] = new_state
        elif kind == "Reclaimed":
            state[token_id] = "RECLAIMED"
        else:
            if state.get(token_id) != "RECLAIMED":
                found.append(f"seq {seq}: verdict return on token {token_id} that was not reclaimed")
            if new_state != "LOCKED":
                found.append(f"seq {seq}: returned token {token_id} not locked on receipt")
            state[token_id] = new_state
    return found


@settings(max_examples=300, deadline=None)
@given(st.lists(_OWNERSHIP, max_size=12))
def test_the_audit_keeps_only_the_reclaimed_tokens_and_flags_what_every_state_would(moves):
    events = []
    for seq, (kind, token_id, new_state) in enumerate(moves, start=1):
        payload = {"token_id": token_id}
        if kind in ("Transfer", "SafeTransfer"):
            payload.update(guard_state="OK", guard_frozen=False, new_state=new_state)
        elif kind == "Returned":
            payload["new_state"] = new_state
        events.append(EventRecord(seq, 0, kind, payload))
    token_checks = ("reclaimed token", "not locked on receipt", "that was not reclaimed")
    found = [v for v in audit_events(events) if any(check in v for check in token_checks)]
    assert found == _token_state_violations(moves)


_RISK = ("RiskRequested", "RiskFulfilled")
_PAIRING = ("request/fulfill pairing broken", "request ids are not gap-free")


def _pairing_violations(stream) -> list[str]:
    """The request/fulfil checks on the list of request ids and a count per fulfilled id."""
    request_ids, fulfilled = [], {}
    for kind, request_id in stream:
        if kind == "RiskRequested":
            request_ids.append(request_id)
        else:
            fulfilled[request_id] = fulfilled.get(request_id, 0) + 1
    found = []
    if sorted(fulfilled) != request_ids or any(n != 1 for n in fulfilled.values()):
        found.append(_PAIRING[0])
    if request_ids != list(range(1, len(request_ids) + 1)):
        found.append(_PAIRING[1])
    return found


@st.composite
def _risk_streams(draw):
    """Requests 1..n, each followed by its fulfil, then edited: an event dropped, one with any id
    inserted, or two neighbours swapped. So ids repeat, go missing or backwards, are never
    requested, or are fulfilled before they are requested."""
    n = draw(st.integers(0, 6))
    stream = [(kind, request_id) for request_id in range(1, n + 1) for kind in _RISK]
    for _ in range(draw(st.integers(0, 3))):
        edit, at = draw(st.sampled_from(("drop", "insert", "swap"))), draw(st.integers(0, len(stream)))
        if edit == "insert":
            stream.insert(at, (draw(st.sampled_from(_RISK)), draw(st.integers(-1, n + 2))))
        elif edit == "drop" and at < len(stream):
            del stream[at]
        elif at + 1 < len(stream):
            stream[at], stream[at + 1] = stream[at + 1], stream[at]
    return stream


@settings(max_examples=500, deadline=None)
@given(_risk_streams())
@example([("RiskRequested", 0), ("RiskFulfilled", 0)])  # pairs, though no id 0 is ever requested in a run
def test_the_audit_pairs_requests_as_it_reads_them_as_the_whole_lists_would(stream):
    events = [
        EventRecord(seq, 0, kind, {"request_id": request_id, **({"status": "safe"} if kind == "RiskFulfilled" else {})})
        for seq, (kind, request_id) in enumerate(stream, start=1)
    ]
    assert [v for v in audit_events(events) if v in _PAIRING] == _pairing_violations(stream)


def test_the_audit_holds_only_the_open_requests():
    audit = Audit()
    for request_id in range(1, 1001):
        audit.add(EventRecord(2 * request_id - 1, 0, "RiskRequested", {"request_id": request_id}))
        assert audit.unpaired == {request_id: "RiskRequested"}
        audit.add(EventRecord(2 * request_id, 0, "RiskFulfilled", {"request_id": request_id, "status": "safe"}))
        assert audit.unpaired == {}
    assert audit.finish() == []


@pytest.mark.parametrize("seed", sorted(FUZZ_CORPUS))
def test_a_line_added_or_cut_at_either_end_of_a_log_is_found(seed, fuzz_logs, tmp_path):
    data = fuzz_logs[seed][0]
    lines = data.splitlines(keepends=True)
    last_step = max(i for i, line in enumerate(lines) if line.startswith(b'{"kind":"Step",'))
    assert last_step < len(lines) - 1
    log = tmp_path / "edited.jsonl"
    for recorded, seq in (
        (b"".join(lines[: last_step + 1]), last_step + 2),  # the last step's effects cut
        (data + lines[-1], len(lines) + 1),
        (b"".join(lines[:-1]), len(lines)),
        (b"".join(lines[1:]), 1),
        (data + b"\n\n", None),
        (data[:-1], None),  # the last line without its newline is still that line
    ):
        log.write_bytes(recorded)
        outcome, _sim = replay_log(log)
        assert (outcome.passed, outcome.divergence_seq) == (seq is None, seq)
        assert report_from_log(log).ok == (seq is None)
