import hashlib
import json
from pathlib import Path

import pytest

from guardsim.audit import Audit
from guardsim.config import SimConfig, apply_override, load_config
from guardsim.errors import RejectedInput, ReplayError
from guardsim.fuzz import Fuzzer
from guardsim.ledger import EventRecord, serialize_events
from guardsim.risk import classify_payload
from guardsim import runner
from guardsim.runner import RunContext, replay_log, report_from_log, run_scenario, run_step, write_log
from guardsim.scenario import Scenario, load_scenario, parse_scenario
from guardsim.sim import Simulation
from guardsim.token import TokenState
from guardsim.units import to_units

from test_digests import FUZZ_CORPUS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CANNED = sorted(SCENARIOS.glob("*.tps"))


def run_canned(name):
    scenario = load_scenario(SCENARIOS / f"{name}.tps")
    return run_scenario(scenario)


def test_theft_recovery_blocks_everything():
    sim, report = run_canned("theft_recovery")
    token = sim.contract.token(1)
    assert token.owner == report.names["alice"]
    assert token.state is TokenState.LOCKED
    rejects = [ev.payload["error"] for ev in sim.ledger.events if ev.kind == "StepRejected"]
    assert rejects == ["Locked", "Locked", "SignatureInvalid", "Locked"]
    assert report.ok


def test_hot_sale_freeze_then_clean_sale():
    sim, report = run_canned("hot_sale")
    assert report.verdict_counts == {"safe": 2, "may_lost": 1}
    token = sim.contract.token(1)
    assert token.owner == report.names["carol"]
    assert token.state is TokenState.LOCKED
    rejects = [ev.payload["error"] for ev in sim.ledger.events if ev.kind == "StepRejected"]
    assert rejects == ["Frozen"]
    assert report.ok


def test_replevin_returns_token_to_victim():
    sim, report = run_canned("replevin")
    alice = report.names["alice"]
    token = sim.contract.token(1)
    assert token.owner == alice
    assert token.state is TokenState.LOCKED
    assert report.verdict_counts == {"hacked": 1}
    assert report.case_outcomes == [{"case_id": 1, "verdict": "FOR_REPORTER", "auto": True}]
    # net cost of the whole recovery is exactly the arbitration gas fee
    assert sim.ledger.account(alice).balance == to_units(10) - sim.config.gas_fee
    assert report.ok


def test_malicious_report_punishes_reporter():
    sim, report = run_canned("malicious_report")
    rival = report.names["rival"]
    case = sim.arbitration.case(1)
    assert case.verdict == "FOR_HOLDER"
    assert sim.contract.token(1).owner == report.names["bob"]
    assert sim.contract.token(1).state is TokenState.OK
    assert sim.contract.token(1).frozen_until is None
    expected_cost = case.deposit + sim.config.gas_fee
    assert sim.ledger.account(rival).balance == to_units(10) - expected_cost
    assert report.ok


def test_clean_sale_two_safe_verdicts():
    sim, report = run_canned("clean_sale")
    assert report.verdict_counts == {"safe": 2}
    assert report.steps_rejected == 0
    assert report.ok


@pytest.mark.parametrize("path", CANNED, ids=lambda p: p.stem)
def test_every_canned_scenario_is_replayable(path, tmp_path):
    sim, report = run_scenario(load_scenario(path))
    log = tmp_path / f"{path.stem}.jsonl"
    write_log(sim, log)
    outcome, _resim = replay_log(log)
    assert outcome.passed, outcome
    rebuilt = report_from_log(log)
    assert rebuilt.digest == report.digest
    assert rebuilt.ok


@pytest.mark.parametrize("path", CANNED, ids=lambda p: p.stem)
def test_digest_stable_across_100_repeated_runs(path):
    scenario = load_scenario(path)
    digests = {run_scenario(scenario)[1].digest for _ in range(100)}
    assert len(digests) == 1


def test_advance_split_equivalent_for_freeze_expiry():
    prologue = (
        "ACCOUNT alice 10\nACCOUNT bob 10\nACCOUNT carol 10\nADVANCE 86400\n"
        "MINT alice 1\nMINT alice 2\nTRANSFER alice alice bob 2 10\n"
        "TRANSFER alice alice carol 1 4\n"  # may_lost: frozen for 7200
    )
    split = prologue + "ADVANCE 86000\nADVANCE 401\nTRANSFER alice alice carol 1 10\n"
    single = prologue + "ADVANCE 86401\nTRANSFER alice alice carol 1 10\n"
    sim_a, _ = run_scenario(parse_scenario(split))
    sim_b, _ = run_scenario(parse_scenario(single))
    line_a = sim_a.contract.state_line(1)
    line_b = sim_b.contract.state_line(1)
    assert line_a == line_b
    assert "state=LOCKED" in line_a  # the post-freeze sale went through in both


def test_replay_round_trips_config_overrides(tmp_path):
    text = (
        "NAME tuned\nSEED 5\n"
        "CONFIG p_hacked 0.85\nCONFIG beta_underprice 0.4\nCONFIG juror_reward 0.02\n"
        "ACCOUNT alice 10\nACCOUNT bob 10\nADVANCE 86400\n"
        "MINT alice 1\nMINT alice 2\nTRANSFER alice alice bob 2 10\n"
        "TRANSFER alice alice bob 1 3\n"  # 3 < 0.4 * 10 under the override
    )
    sim, report = run_scenario(parse_scenario(text))
    assert report.verdict_counts == {"safe": 1, "may_lost": 1}
    log = tmp_path / "tuned.jsonl"
    write_log(sim, log)
    outcome, resim = replay_log(log)
    assert outcome.passed
    assert resim.config.p_hacked == 0.85


def test_empty_scenario_yields_all_zero_report(tmp_path):
    sim, report = run_scenario(parse_scenario("NAME empty\n"))
    log = tmp_path / "empty.jsonl"
    write_log(sim, log)
    rebuilt = report_from_log(log)
    assert rebuilt.steps_total == 0
    assert rebuilt.verdict_counts == {}
    assert rebuilt.final_tokens == [] and rebuilt.case_outcomes == []
    assert rebuilt.ok


def test_seed_override_changes_addresses_not_validity():
    scenario = load_scenario(SCENARIOS / "clean_sale.tps")
    _, base = run_scenario(scenario)
    _, moved = run_scenario(scenario, seed=1234)
    assert base.digest != moved.digest
    assert moved.ok


def test_mutated_log_fails_replay_at_that_seq(tmp_path):
    sim, _report = run_canned("hot_sale")
    log = tmp_path / "hot_sale.jsonl"
    write_log(sim, log)
    lines = log.read_bytes().splitlines(keepends=True)
    target = next(i for i, line in enumerate(lines) if b"RiskFulfilled" in line and b"may_lost" in line)
    lines[target] = lines[target].replace(b'"status":"may_lost"', b'"status":"mby_lost"', 1)
    log.write_bytes(b"".join(lines))
    outcome, _ = replay_log(log)
    assert not outcome.passed
    assert outcome.divergence_seq == target + 1


def test_truncated_or_garbage_log_is_replay_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"kind": "Genesis"\n')
    with pytest.raises(ReplayError):
        replay_log(bad)
    empty = tmp_path / "no_genesis.jsonl"
    empty.write_text("")
    with pytest.raises(ReplayError):
        replay_log(empty)


def _count_calls(monkeypatch, name: str) -> list[int]:
    """Count the calls made through ``runner.<name>``, in a one-element list."""
    calls = [0]
    original = getattr(runner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, name, counting)
    return calls


def _count_audits(monkeypatch) -> list[int]:
    """Count the audit folds begun, by ``audit_events`` or by a report's check, in a one-element list."""
    calls = [0]
    original = Audit.__init__

    def counting(audit, *events):
        calls[0] += 1
        original(audit, *events)

    monkeypatch.setattr(Audit, "__init__", counting)
    return calls


def _replay_and_report_counted(monkeypatch, log):
    """``replay_log`` and ``report_from_log`` of ``log``, each with its (parse_log, execute_scenario) call counts."""
    parses, runs = _count_calls(monkeypatch, "parse_log"), _count_calls(monkeypatch, "execute_scenario")
    outcome, _ = replay_log(log)
    replay_calls = (parses[0], runs[0])
    parses[0] = runs[0] = 0
    rebuilt = report_from_log(log)
    return outcome, replay_calls, rebuilt, (parses[0], runs[0])


def test_tampered_balance_is_flagged_by_report(tmp_path, monkeypatch):
    sim, _report = run_canned("malicious_report")
    log = tmp_path / "tampered.jsonl"
    write_log(sim, log)
    lines = log.read_bytes().splitlines(keepends=True)
    target = next(i for i, line in enumerate(lines) if b"ValueTransferred" in line)
    body = json.loads(lines[target])
    body["payload"]["to_balance"] = "999.000000000000000000"
    lines[target] = json.dumps(body, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    log.write_bytes(b"".join(lines))
    calls = _count_audits(monkeypatch)
    rebuilt = report_from_log(log)
    assert not rebuilt.ok
    assert any("diverges" in v for v in rebuilt.violations)
    # a divergence also audits the recorded events, from a copy of the run's fold at the first chunk that
    # differs, and reports their own violation with it
    assert calls[0] == 1
    seq = body["seq"]
    assert rebuilt.violations == [
        f"seq {seq}: recorded balance for {body['payload']['to']} diverges from refolded history",
        f"recorded log diverges from deterministic re-execution at seq {seq}",
    ]


def test_config_file_and_scenario_overrides(tmp_path):
    config_file = tmp_path / "sim.conf"
    config_file.write_text("freeze_ticks = 100\np_hacked = 0.8\n# comment\njury_f 2\n")
    config = load_config(config_file)
    assert config.freeze_ticks == 100
    assert config.p_hacked == 0.8
    assert config.jury_size == 7 and config.quorum == 5
    scenario = parse_scenario("CONFIG freeze_ticks 50\nACCOUNT a 1\n")
    sim, _ = run_scenario(scenario, base_config=config)
    assert sim.config.freeze_ticks == 50  # scenario override wins over file
    assert sim.config.jury_f == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("jury_f", "-1"),
        ("freeze_ticks", "-1"),
        ("window_ticks", "-86400"),
        ("turnover_threshold", "-3"),
        ("juror_reward", "-0.01"),
        ("gas_fee", "-0.001"),
        ("deposit_min", "-1"),
        ("deposit_rate", "-1/20"),
        ("beta_underprice", "-1/2"),
        ("gas_fee", "Infinity"),
        ("juror_reward", "NaN"),
        ("deposit_min", "1e99999999"),
        ("beta_underprice", "Infinity"),
        ("deposit_rate", "1e-99999999"),
        ("freeze_ticks", str(2**63)),
        ("jury_f", str(2**63)),
        ("credit_threshold", "nan"),
        ("p_hacked", "inf"),
        ("p_suspect", "-inf"),
        ("credit_w_portfolio", "1e999"),
        ("credit_w_age", "NaN"),
        ("credit_w_flag", "-Infinity"),
    ],
)
def test_out_of_range_config_value_is_rejected_at_load(key, value, tmp_path):
    with pytest.raises(RejectedInput, match=f"bad value for {key}"):
        apply_override(SimConfig(), key, value)
    config_file = tmp_path / "sim.conf"
    config_file.write_text(f"{key} = {value}\n")
    with pytest.raises(RejectedInput):
        load_config(config_file)


def test_genesis_logs_effective_config():
    scenario = parse_scenario("CONFIG beta_underprice 0.25\n")
    sim, _ = run_scenario(scenario)
    genesis = next(ev for ev in sim.ledger.events if ev.kind == "Genesis")
    assert genesis.payload["config"]["beta_underprice"] == "1/4"
    assert genesis.payload["config"]["freeze_ticks"] == "7200"


def test_error_steps_do_not_abort_run():
    scenario = parse_scenario(
        "ACCOUNT a 1\nMINT a 1\nMINT a 1\nTRANSFER a a a 99 0\nADVANCE 5\n"
    )
    sim, report = run_scenario(scenario)
    assert report.steps_total == 5
    assert report.steps_rejected == 2
    assert sim.ledger.time == 5


def test_which_bad_argument_is_rejected_first():
    # VOTE checks its vote before it resolves its juror; every other verb converts left to right
    scenario = parse_scenario(
        "ACCOUNT a 1\nVOTE ghost 1 X\nTRANSFER a ghost a 1 bad\nACCOUNT a bad\n"
        "MODEL ghost * bad\nAPPROVE_ALL a ghost maybe\nFLAG ghost maybe\n"
    )
    sim, _report = run_scenario(scenario)
    rejected = [(ev.payload["error"], ev.payload["detail"]) for ev in sim.ledger.events if ev.kind == "StepRejected"]
    assert rejected == [
        ("RejectedInput", "vote must be R or H, got 'X'"),
        ("UnknownName", "ghost"),
        ("RejectedInput", "name already bound: a"),
        ("UnknownName", "ghost"),
        ("UnknownName", "ghost"),
        ("UnknownName", "ghost"),
    ]


def test_a_model_score_that_is_not_finite_is_a_rejected_step():
    values = ["nan", "inf", "-inf", "1e999"]
    scenario = parse_scenario("ACCOUNT a 1\n" + "".join(f"MODEL a * {value}\n" for value in values) + "MODEL a * 0.5\n")
    sim, report = run_scenario(scenario)
    rejected = [(ev.payload["error"], ev.payload["detail"]) for ev in sim.ledger.events if ev.kind == "StepRejected"]
    assert rejected == [("RejectedInput", f"bad model score {value!r}") for value in values]
    assert report.steps_rejected == len(values)


def test_write_log_matches_a_fresh_rendering_between_steps(tmp_path):
    sim = Simulation(3, name="interleaved")
    ctx = RunContext(sim)
    log, again = tmp_path / "interleaved.jsonl", tmp_path / "again.jsonl"
    commands = ["ACCOUNT a 5", "ACCOUNT b 0", "ADVANCE 86400", "MINT a 1", "TRANSFER a a b 1 2", "MINT b 1"]
    for index, command in enumerate(commands):
        run_step(ctx, index, parse_scenario(command).steps[0])
        if index % 3 == 0:
            write_log(sim, log)
            assert log.read_bytes() == serialize_events(sim.ledger.events)
        elif index % 3 == 1:
            write_log(sim, again)
            assert again.read_bytes() == serialize_events(sim.ledger.events)
        else:
            assert sim.ledger.log_digest().hex() == hashlib.sha256(serialize_events(sim.ledger.events)).hexdigest()
    write_log(sim, log)
    assert log.read_bytes() == serialize_events(sim.ledger.events)


def _count_renders(monkeypatch) -> list[int]:
    calls = [0]
    original = EventRecord.to_line

    def counting(record):
        calls[0] += 1
        return original(record)

    monkeypatch.setattr(EventRecord, "to_line", counting)
    return calls


def test_each_execution_renders_each_event_once(tmp_path, monkeypatch):
    calls = _count_renders(monkeypatch)
    sim, _report = run_canned("replevin")
    log = tmp_path / "replevin.jsonl"
    write_log(sim, log)
    outcome, _resim = replay_log(log)
    assert outcome.passed
    assert report_from_log(log).ok
    # one rendering each for the run, the replay and the report; the write reuses the run's
    assert calls[0] == 3 * len(sim.ledger.events)


def test_a_tampered_log_renders_each_event_about_once(tmp_path, monkeypatch):
    # the chunks that matched are dropped as they are checked, so the line comparison renders only the rest
    text = "ACCOUNT a 10\n" + "".join(f"MINT a {token_id}\n" for token_id in range(1, 6001))
    lines = serialize_events(run_scenario(parse_scenario(text))[0].ledger.events).splitlines(keepends=True)
    assert lines[-1].startswith(b'{"kind":"Minted",') and b'"token_id":6000}' in lines[-1]
    lines[-1] = lines[-1].replace(b'"token_id":6000}', b'"token_id":6001}')
    log = tmp_path / "mints.jsonl"
    log.write_bytes(b"".join(lines))
    calls = _count_renders(monkeypatch)
    outcome, _resim = replay_log(log)
    assert (outcome.passed, outcome.divergence_seq) == (False, len(lines))
    replay_renders, calls[0] = calls[0], 0
    rebuilt = report_from_log(log)
    assert rebuilt.violations[-1] == f"recorded log diverges from deterministic re-execution at seq {len(lines)}"
    assert replay_renders < 1.5 * len(lines), replay_renders / len(lines)
    assert calls[0] < 1.5 * len(lines), calls[0] / len(lines)


def test_fuzzing_renders_no_line(monkeypatch):
    calls = _count_renders(monkeypatch)
    assert Fuzzer(0).run(400).ok
    assert calls[0] == 0


def test_non_canonical_line_fails_replay_and_report(tmp_path):
    sim, _report = run_canned("hot_sale")
    log = tmp_path / "hot_sale.jsonl"
    write_log(sim, log)
    lines = log.read_bytes().splitlines(keepends=True)
    target = next(i for i, line in enumerate(lines) if b"RiskFulfilled" in line)
    body = json.loads(lines[target])
    # the same JSON value, with a space after each colon
    lines[target] = json.dumps(body, sort_keys=True, separators=(",", ": ")).encode() + b"\n"
    assert json.loads(lines[target]) == body
    log.write_bytes(b"".join(lines))
    outcome, _ = replay_log(log)
    assert not outcome.passed
    assert outcome.divergence_seq == target + 1
    rebuilt = report_from_log(log)
    assert not rebuilt.ok
    assert f"recorded log diverges from deterministic re-execution at seq {target + 1}" in rebuilt.violations


def test_blank_lines_in_a_log_are_ignored(tmp_path, monkeypatch):
    sim, report = run_canned("replevin")
    log = tmp_path / "replevin.jsonl"
    write_log(sim, log)
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"\n" + b"\n".join(lines[:5]) + b"\n\n" + b"".join(lines[5:]) + b"\n")
    outcome, replay_calls, rebuilt, report_calls = _replay_and_report_counted(monkeypatch, log)
    assert outcome.passed, outcome
    assert rebuilt.ok, rebuilt.violations
    assert rebuilt.digest == report.digest
    # the bytes differ, so the lines are compared one by one, each decoded as it is read
    assert replay_calls == report_calls == (0, 1)


def test_report_of_a_clean_log_audits_once(tmp_path, monkeypatch):
    sim, _report = run_canned("replevin")
    log = tmp_path / "replevin.jsonl"
    write_log(sim, log)
    calls = _count_audits(monkeypatch)
    assert report_from_log(log).ok
    assert calls[0] == 1


@pytest.mark.parametrize("path", CANNED, ids=lambda p: p.stem)
def test_a_canonical_log_is_replayed_from_its_step_lines_alone(path, tmp_path, monkeypatch):
    sim, report = run_scenario(load_scenario(path))
    log = tmp_path / f"{path.stem}.jsonl"
    write_log(sim, log)
    outcome, replay_calls, rebuilt, report_calls = _replay_and_report_counted(monkeypatch, log)
    assert outcome.passed, outcome
    assert rebuilt.digest == report.digest and rebuilt.ok
    # no full parse of the log and one execution each
    assert replay_calls == report_calls == (0, 1)


def test_non_canonical_step_line_is_a_divergence_at_its_seq(tmp_path, monkeypatch):
    sim, _report = run_canned("hot_sale")
    log = tmp_path / "hot_sale.jsonl"
    write_log(sim, log)
    lines = log.read_bytes().splitlines(keepends=True)
    target = next(i for i, line in enumerate(lines) if b'"kind":"Step"' in line and b"TRANSFER" in line)
    body = json.loads(lines[target])
    lines[target] = json.dumps(body, sort_keys=True, separators=(",", ": ")).encode() + b"\n"
    assert json.loads(lines[target]) == body
    log.write_bytes(b"".join(lines))
    outcome, replay_calls, rebuilt, report_calls = _replay_and_report_counted(monkeypatch, log)
    assert not outcome.passed
    assert outcome.divergence_seq == target + 1
    assert f"recorded log diverges from deterministic re-execution at seq {target + 1}" in rebuilt.violations
    # the step is only compared, not executed; the one run diverges there
    assert replay_calls == report_calls == (0, 1)


def test_tampered_price_fails_replay_after_one_execution(tmp_path, monkeypatch):
    sim, _report = run_canned("replevin")
    log = tmp_path / "replevin.jsonl"
    write_log(sim, log)
    lines = log.read_bytes().splitlines(keepends=True)
    target = next(i for i, line in enumerate(lines) if b'"kind":"RiskRequested"' in line)
    body = json.loads(lines[target])
    body["payload"]["price"] = "0.000000000000000001"
    lines[target] = json.dumps(body, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    log.write_bytes(b"".join(lines))
    outcome, replay_calls, rebuilt, report_calls = _replay_and_report_counted(monkeypatch, log)
    assert not outcome.passed
    assert outcome.divergence_seq == target + 1
    assert rebuilt.violations[-1] == f"recorded log diverges from deterministic re-execution at seq {target + 1}"
    assert replay_calls == report_calls == (0, 1)


def _corpus_logs(monkeypatch, seed: int) -> list[bytes]:
    """The logs of the 8 sequences of 400 ops that ``Fuzzer(seed)`` runs for its pinned corpus."""
    sims = []
    original = Simulation.__init__

    def recording_init(sim, *args, **kwargs):
        original(sim, *args, **kwargs)
        sims.append(sim)

    monkeypatch.setattr(Simulation, "__init__", recording_init)
    assert Fuzzer(seed).run(8 * 400).ok
    return [serialize_events(sim.ledger.events) for sim in sims]


TPS = sorted([*CANNED, *(SCENARIOS.parent / "tests" / "regressions").glob("*.tps")])


def _capture_and_replay_streams(path):
    """The scenario and config the benchmark captures from a written log (``scenario_from_events`` of
    ``read_log``), and the name, seed, steps and config of the stream replay executes from the same file."""
    captured = runner.scenario_from_events(runner.read_log(path))
    with open(path, "rb") as file:
        scenario, config = runner._log_scenario(file, runner._Check(file, False))
        replayed = (Scenario(scenario.name, scenario.seed, steps=list(scenario.steps)), config)
    return captured, replayed


@pytest.mark.parametrize("source", [*TPS, *sorted(FUZZ_CORPUS)], ids=lambda s: f"fuzz-{s}" if type(s) is int else s.stem)
def test_the_fast_read_equals_the_full_parse(source, monkeypatch, tmp_path):
    """Replay's stream of a written log is what the benchmark captures from it, with the Genesis config."""
    if type(source) is int:
        logs = _corpus_logs(monkeypatch, source)
    else:
        logs = [serialize_events(run_scenario(load_scenario(source))[0].ledger.events)]
    for n, data in enumerate(logs):
        log = tmp_path / f"{n}.jsonl"
        log.write_bytes(data)
        captured, replayed = _capture_and_replay_streams(log)
        genesis = next(ev for ev in runner.read_log(log) if ev.kind == "Genesis")
        assert captured == replayed and captured[0].steps
        assert captured[1] == runner.genesis_config(genesis)


def test_the_benchmark_capture_skips_a_step_before_genesis_as_replay_does(tmp_path):
    sim, _report = run_canned("replevin")
    log = tmp_path / "moved.jsonl"
    write_log(sim, log)
    lines = log.read_bytes().splitlines(keepends=True)
    genesis = next(i for i, line in enumerate(lines) if b'"kind":"Genesis"' in line)
    step = next(i for i, line in enumerate(lines) if line.startswith(b'{"kind":"Step"'))
    log.write_bytes(b"".join([*lines[:genesis], lines[step], *lines[genesis:step], *lines[step + 1 :]]))
    captured, replayed = _capture_and_replay_streams(log)
    assert captured == replayed
    assert len(captured[0].steps) == len(load_scenario(SCENARIOS / "replevin.tps").steps) - 1


def test_the_benchmark_capture_names_a_bad_step_command_as_replay_does(tmp_path):
    sim, _report = run_canned("replevin")
    log = tmp_path / "bad_step.jsonl"
    write_log(sim, log)
    lines = log.read_bytes().splitlines(keepends=True)
    target = [i for i, line in enumerate(lines) if line.startswith(b'{"kind":"Step"')][2]
    body = json.loads(lines[target])
    body["payload"]["command"] = "FLY alice"
    lines[target] = json.dumps(body, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    log.write_bytes(b"".join(lines))
    message = f"^seq {body['seq']}: bad Step command 'FLY alice' "
    with pytest.raises(ReplayError, match=message) as captured:
        runner.scenario_from_events(runner.read_log(log))
    with pytest.raises(ReplayError, match=message) as replayed:
        replay_log(log)
    assert str(captured.value) == str(replayed.value)


@pytest.mark.parametrize("seed", sorted(FUZZ_CORPUS))
def test_every_fuzz_verdict_recomputes_from_its_own_payload(seed, monkeypatch):
    """``classify_payload`` under the log's Genesis config gives every logged status and rule list of a
    pinned fuzz corpus, whose verdicts carry model scores, flags and hacked statuses the canned logs lack."""
    statuses, scored, flagged = set(), 0, 0
    for data in _corpus_logs(monkeypatch, seed):
        events = runner.parse_log(data)
        config = runner.genesis_config(next(ev for ev in events if ev.kind == "Genesis"))
        for ev in events:
            if ev.kind == "RiskFulfilled":
                features = ev.payload["features"]
                logged = (ev.payload["status"], [hit["rule"] for hit in ev.payload["hits"]])
                assert classify_payload(features, config) == logged, ev.seq
                statuses.add(logged[0])
                scored += features["model_score"] != "0.0"
                flagged += features["sender_flagged"] or features["recipient_flagged"]
    assert statuses == {"safe", "may_lost", "hacked"} and scored and flagged, (statuses, scored, flagged)


def test_an_escaped_evidence_text_is_read_by_the_fast_path(tmp_path, monkeypatch):
    text = (SCENARIOS / "malicious_report.tps").read_text()
    evidence = 'EVIDENCE bob 1 receipt "signed" at C:\\deals\\café 💥'
    scenario = parse_scenario(text.replace("EVIDENCE bob 1 original purchase receipt", evidence))
    sim, report = run_scenario(scenario)
    log = tmp_path / "escaped.jsonl"
    write_log(sim, log)
    step = next(line for line in log.read_bytes().splitlines() if b"EVIDENCE bob" in line)
    assert b'receipt \\"signed\\" at C:\\\\deals\\\\caf\\u00e9 \\ud83d\\udca5"' in step
    assert not any(ev.kind == "StepRejected" for ev in sim.ledger.events)
    outcome, replay_calls, rebuilt, report_calls = _replay_and_report_counted(monkeypatch, log)
    assert outcome.passed, outcome
    assert rebuilt.ok and rebuilt.digest == report.digest
    assert replay_calls == report_calls == (0, 1)


def test_swapped_step_lines_diverge_at_the_first_of_them(tmp_path, monkeypatch):
    sim, _report = run_canned("hot_sale")
    log = tmp_path / "hot_sale.jsonl"
    write_log(sim, log)
    lines = log.read_bytes().splitlines(keepends=True)
    steps = [i for i, line in enumerate(lines) if line.startswith(b'{"kind":"Step",')]
    first, second = steps[0], next(i for i in steps if b"TRANSFER" in lines[i])
    lines[first], lines[second] = lines[second], lines[first]
    log.write_bytes(b"".join(lines))
    outcome, replay_calls, rebuilt, report_calls = _replay_and_report_counted(monkeypatch, log)
    assert not outcome.passed
    assert outcome.divergence_seq == first + 1
    assert rebuilt.violations[-1] == f"recorded log diverges from deterministic re-execution at seq {first + 1}"
    # the one run executes the steps in file order
    assert replay_calls == report_calls == (0, 1)


def test_a_step_line_runs_where_it_stands_whatever_its_index(tmp_path, monkeypatch):
    sim, _report = run_canned("clean_sale")
    log = tmp_path / "clean_sale.jsonl"
    write_log(sim, log)
    lines = log.read_bytes().splitlines(keepends=True)
    target = next(i for i, line in enumerate(lines) if line.startswith(b'{"kind":"Step",') and b"TRANSFER" in line)
    body = json.loads(lines[target])
    body["payload"]["index"] = 0
    lines[target] = json.dumps(body, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    log.write_bytes(b"".join(lines))
    outcome, replay_calls, rebuilt, report_calls = _replay_and_report_counted(monkeypatch, log)
    # its step is not moved to the front: the first line that differs is the edited one
    assert (outcome.passed, outcome.divergence_seq) == (False, target + 1)
    assert rebuilt.violations[-1] == f"recorded log diverges from deterministic re-execution at seq {target + 1}"
    assert replay_calls == report_calls == (0, 1)


def test_a_step_line_before_genesis_is_only_compared(tmp_path, monkeypatch):
    sim, _report = run_canned("replevin")
    log = tmp_path / "replevin.jsonl"
    write_log(sim, log)
    lines = log.read_bytes().splitlines(keepends=True)
    genesis = next(i for i, line in enumerate(lines) if line.startswith(b'{"kind":"Genesis",'))
    first = next(i for i, line in enumerate(lines) if line.startswith(b'{"kind":"Step",'))
    assert b"ACCOUNT alice 10" in lines[first]
    lines.insert(genesis, lines.pop(first))
    log.write_bytes(b"".join(lines))
    outcome, replay_calls, rebuilt, report_calls = _replay_and_report_counted(monkeypatch, log)
    assert (outcome.passed, outcome.divergence_seq) == (False, genesis + 1)
    # the run is that of the Step lines after the Genesis line: alice is never created, so no token is minted
    without = parse_scenario((SCENARIOS / "replevin.tps").read_text().replace("ACCOUNT alice 10\n", "", 1))
    assert rebuilt.final_tokens == run_scenario(without)[1].final_tokens == []
    assert replay_calls == report_calls == (0, 1)
