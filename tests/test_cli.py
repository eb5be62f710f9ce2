import functools
import json
from pathlib import Path

import pytest

from guardsim import cli, runner
from guardsim.cli import main
from guardsim.fuzz import Fuzzer, FuzzResult
from guardsim.ledger import EVENT_KINDS, serialize_events
from guardsim.runner import ReplayOutcome, run_scenario, write_log
from guardsim.scenario import load_scenario
from test_fast_paths import logged_sims

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
TPS = sorted([*SCENARIOS.glob("*.tps"), *ROOT.glob("tests/regressions/*.tps")])


@pytest.fixture
def replevin_log(tmp_path):
    log = tmp_path / "replevin.jsonl"
    assert main(["run", str(SCENARIOS / "replevin.tps"), "--out", str(log)]) == 0
    return log


def test_run_writes_log_and_reports(tmp_path, capsys):
    log = tmp_path / "replevin.jsonl"
    assert main(["run", str(SCENARIOS / "replevin.tps"), "--out", str(log)]) == 0
    assert log.exists()
    out = capsys.readouterr().out
    assert "hacked=1" in out
    assert "FOR_REPORTER" in out


def test_run_missing_or_invalid_scenario_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.tps")]) == 2
    bad = tmp_path / "bad.tps"
    bad.write_text("FROB x\n")
    assert main(["run", str(bad)]) == 2


def test_replay_pass_and_fail(replevin_log, capsys):
    assert main(["replay", str(replevin_log)]) == 0
    data = replevin_log.read_bytes().replace(b'"price":"10.000000000000000000"', b'"price":"11.000000000000000000"')
    mutated = replevin_log.with_name("mutated.jsonl")
    mutated.write_bytes(data)
    assert main(["replay", str(mutated)]) == 1
    out = capsys.readouterr().out
    assert "fail at seq" in out


def test_replay_corrupt_log_exit_2(tmp_path):
    broken = tmp_path / "broken.jsonl"
    broken.write_text("not json at all\n")
    assert main(["replay", str(broken)]) == 2


def test_a_line_with_a_wrong_envelope_exit_2(replevin_log, capsys):
    lines = replevin_log.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"seq":3,', b'"seq":"3",', 1)  # valid JSON, but its seq is a string
    replevin_log.write_bytes(b"".join(lines))
    for command in ("replay", "report", "state", "case", "explain"):
        argv = [command, str(replevin_log)] + ([] if command in ("replay", "report") else ["1"])
        assert main(argv) == 2
        assert capsys.readouterr().err == f"{command} error: line 3: not a canonical event record\n"


def test_report_command(replevin_log, capsys):
    assert main(["report", str(replevin_log)]) == 0
    out = capsys.readouterr().out
    assert "conservation: ok" in out


def test_report_on_tampered_log_exits_nonzero(replevin_log):
    data = replevin_log.read_bytes().replace(
        b'"amount":"0.010000000000000000"', b'"amount":"0.090000000000000000"', 1
    )
    assert data != replevin_log.read_bytes()
    tampered = replevin_log.with_name("tampered.jsonl")
    tampered.write_bytes(data)
    assert main(["report", str(tampered)]) == 1


def test_state_output_format(replevin_log, capsys):
    assert main(["state", str(replevin_log), "1"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("token=1 owner=0x")
    assert "state=LOCKED" in line and line.endswith("frozen_until=-")
    assert main(["state", str(replevin_log), "99"]) == 2


def test_case_record_output(replevin_log, capsys):
    assert main(["case", str(replevin_log), "1"]) == 0
    out = capsys.readouterr().out
    assert "case=1 token=1 status=closed verdict=FOR_REPORTER auto" in out
    assert "deposit=0.000000000000000000" in out
    assert out.count("vote=FOR_REPORTER") == 3
    assert "evidence" in out
    assert main(["case", str(replevin_log), "9"]) == 2


@pytest.mark.parametrize("path", TPS, ids=lambda p: p.stem)
def test_state_and_case_print_what_the_live_run_holds(path, tmp_path, monkeypatch, capsys):
    sim, _report = run_scenario(load_scenario(path))
    log = tmp_path / "run.jsonl"
    write_log(sim, log)
    assert sim.contract.tokens
    for token_id in sorted(sim.contract.tokens):
        assert main(["state", str(log), str(token_id)]) == 0
        assert capsys.readouterr().out == sim.contract.state_line(token_id) + "\n"

    def cases_printed() -> list[str]:
        printed = []
        for case_id in sorted(sim.arbitration.cases):
            assert main(["case", str(log), str(case_id)]) == 0
            printed.append(capsys.readouterr().out)
        return printed

    from_log = cases_printed()
    # the same printer, fed the live sim instead of the re-executed one
    monkeypatch.setattr(cli, "replay_log", lambda _path: (ReplayOutcome(True), sim))
    assert cases_printed() == from_log


def test_state_prints_the_run_of_the_canonical_step_lines(replevin_log, monkeypatch, capsys):
    lines = replevin_log.read_bytes().splitlines(keepends=True)
    target = next(i for i, line in enumerate(lines) if line.startswith(b'{"kind":"Step"') and b"MINT" in line)
    lines[target] = lines[target].replace(b'":', b'": ', 1)  # not canonical: only compared, so token 1 is never minted
    replevin_log.write_bytes(b"".join(lines))
    runs = []
    execute = runner.execute_scenario
    monkeypatch.setattr(runner, "execute_scenario", lambda *a, **k: runs.append(1) or execute(*a, **k))
    assert main(["state", str(replevin_log), "1"]) == 2
    assert capsys.readouterr().err == "state error: 1\n"
    assert len(runs) == 1


def test_a_step_line_that_is_not_ascii_is_only_compared(replevin_log, capsys):
    lines = replevin_log.read_bytes().splitlines(keepends=True)
    target = next(i for i, line in enumerate(lines) if line.startswith(b'{"kind":"Step"') and b"MINT" in line)
    lines[target] = lines[target].replace(b'"command":"MINT', '"command":"MéINT'.encode(), 1)
    replevin_log.write_bytes(b"".join(lines))
    # its command is never parsed, so it is a divergence rather than a bad Step command
    assert main(["replay", str(replevin_log)]) == 1
    assert capsys.readouterr().out == f"replay: fail at seq {target + 1} (event diverges from deterministic re-execution)\n"
    assert main(["state", str(replevin_log), "1"]) == 2
    assert capsys.readouterr().err == "state error: 1\n"


def test_explain_recomputes_verdict(replevin_log, capsys):
    assert main(["explain", str(replevin_log), "1"]) == 0
    out = capsys.readouterr().out
    assert "status=hacked" in out
    assert "R4_FLAGGED_PARTY" in out
    assert "offline recompute: hacked (agrees)" in out
    assert main(["explain", str(replevin_log), "42"]) == 2


@pytest.mark.parametrize("ratio", ["1/0", "0.5", "-1/2"])
def test_explain_refuses_a_logged_ratio_other_than_digits_over_digits(tmp_path, capsys, ratio):
    log = tmp_path / "hot_sale.jsonl"
    assert main(["run", str(SCENARIOS / "hot_sale.tps"), "--out", str(log)]) == 0
    lines = log.read_bytes().splitlines(keepends=True)
    target = next(i for i, line in enumerate(lines) if b'"kind":"RiskFulfilled"' in line and b'"price_ratio":"' in line)
    body = json.loads(lines[target])
    request_id = str(body["payload"]["request_id"])
    capsys.readouterr()
    assert main(["explain", str(log), request_id]) == 0
    assert "offline recompute: may_lost (agrees)" in capsys.readouterr().out
    body["payload"]["features"]["price_ratio"] = ratio
    lines[target] = json.dumps(body, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    log.write_bytes(b"".join(lines))
    assert main(["explain", str(log), request_id]) == 2
    assert capsys.readouterr().err == f"explain error: seq {body['seq']}: RiskFulfilled event: not a ratio: {ratio!r}\n"


def test_fuzz_command(capsys):
    assert main(["fuzz", "--iters", "800", "--seed", "3"]) == 0
    assert "no invariant violations" in capsys.readouterr().out


def test_fuzz_violation_prints_it_and_the_minimized_trace_exit_1(monkeypatch, capsys):
    """No fuzz seed finds a violation in this code, so a stub fuzzer reports one."""
    trace = "NAME fuzz-9\nSEED 9\nACCOUNT u0 10\nMINT u0 1\n"
    calls = []

    class StubFuzzer:
        def __init__(self, seed, ops_per_run):
            calls.append((seed, ops_per_run))

        def run(self, total_ops):
            calls.append(total_ops)
            return FuzzResult(total_ops, 2, 5, "seq 41: transfer completed on LOCKED token 1", trace)

    monkeypatch.setattr(cli, "Fuzzer", StubFuzzer)
    assert main(["fuzz", "--iters", "60", "--seed", "4", "--ops-per-run", "30"]) == 1
    assert calls == [(4, 30), 60]
    assert capsys.readouterr().out == (
        "fuzz: 60 operations across 2 sequences\n"
        "violation: seq 41: transfer completed on LOCKED token 1\n"
        "minimized reproducing scenario:\n"
        f"{trace}\n"
    )


def test_run_respects_config_file(tmp_path, capsys):
    conf = tmp_path / "sim.conf"
    conf.write_text("freeze_ticks = 9\n")
    log = tmp_path / "out.jsonl"
    assert main(["run", str(SCENARIOS / "clean_sale.tps"), "--out", str(log), "--config", str(conf)]) == 0
    genesis = json.loads(log.read_text().splitlines()[3])
    assert genesis["kind"] == "Genesis"
    assert genesis["payload"]["config"]["freeze_ticks"] == "9"


def test_fuzz_non_positive_ops_per_run_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(Fuzzer, "run", lambda *_args: pytest.fail("Fuzzer.run must not be reached"))
    assert main(["fuzz", "--iters", "10", "--ops-per-run", "0"]) == 2
    assert "ops per run" in capsys.readouterr().err


def test_missing_files_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nonexistent.jsonl")
    for command in ("replay", "report", "state", "case", "explain"):
        argv = [command, missing] + ([] if command in ("replay", "report") else ["1"])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command} error:") and err.count("\n") == 1
    conf = str(tmp_path / "nonexistent.conf")
    assert main(["run", str(SCENARIOS / "clean_sale.tps"), "--out", str(tmp_path / "x.jsonl"), "--config", conf]) == 2
    assert "nonexistent.conf" in capsys.readouterr().err


def test_run_bad_config_value_exit_2(tmp_path, capsys):
    conf = tmp_path / "sim.conf"
    conf.write_text("jury_f = -1\n")
    log = str(tmp_path / "out.jsonl")
    assert main(["run", str(SCENARIOS / "clean_sale.tps"), "--out", log, "--config", str(conf)]) == 2
    scenario = tmp_path / "bad_config.tps"
    scenario.write_text("CONFIG window_ticks -5\nACCOUNT a 1\n")
    assert main(["run", str(scenario), "--out", log]) == 2
    assert capsys.readouterr().err.count("config error: bad value") == 2


NOT_FINITE = ["nan", "inf", "-inf", "1e999"]


def test_a_float_config_value_that_is_not_finite_exit_2(tmp_path, capsys):
    """Every comparison with NaN is false, so ``credit_threshold nan`` would let a credit of 0 pass R3."""
    conf, scenario, log = tmp_path / "sim.conf", tmp_path / "not_finite.tps", tmp_path / "out.jsonl"
    for value in NOT_FINITE:
        conf.write_text(f"credit_threshold = {value}\n")
        assert main(["run", str(SCENARIOS / "clean_sale.tps"), "--out", str(log), "--config", str(conf)]) == 2
        scenario.write_text(f"CONFIG credit_threshold {value}\nACCOUNT a 1\n")
        assert main(["run", str(scenario), "--out", str(log)]) == 2
        error = f"config error: bad value for credit_threshold: {value!r} (not a finite number: {value!r})\n"
        assert capsys.readouterr().err == error * 2
    assert not log.exists()


def test_run_seed_outside_64_bits_exit_2(tmp_path, capsys):
    log = str(tmp_path / "out.jsonl")
    for seed in ("-1", str(2**64)):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(SCENARIOS / "clean_sale.tps"), "--out", log, "--seed", seed])
        assert exit_info.value.code == 2
        assert f"must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert main(["run", str(SCENARIOS / "clean_sale.tps"), "--out", log, "--seed", str(2**64 - 1)]) == 0


def test_run_seed_that_is_not_an_integer_exit_2(tmp_path, capsys):
    log = tmp_path / "out.jsonl"
    with pytest.raises(SystemExit) as exit_info:
        main(["run", str(SCENARIOS / "clean_sale.tps"), "--out", str(log), "--seed", "abc"])
    assert exit_info.value.code == 2
    assert "argument --seed: not an integer: 'abc'" in capsys.readouterr().err
    assert not log.exists()


@pytest.mark.parametrize("key", ["tolerated_faulty", "jury_size", "quorum", "no_such_key"])
def test_run_config_key_that_is_not_a_genesis_key_exit_2(tmp_path, capsys, key):
    """Only the keys the Genesis event logs are config keys, not the names of fields or properties."""
    conf = tmp_path / "sim.conf"
    conf.write_text(f"{key} = 2\n")
    log = tmp_path / "out.jsonl"
    assert main(["run", str(SCENARIOS / "clean_sale.tps"), "--out", str(log), "--config", str(conf)]) == 2
    scenario = tmp_path / "unknown_key.tps"
    scenario.write_text(f"CONFIG {key} 2\nACCOUNT a 1\n")
    assert main(["run", str(scenario), "--out", str(log)]) == 2
    assert capsys.readouterr().err == f"config error: unknown config key: {key!r}\n" * 2
    assert not log.exists()


def test_seed_directive_outside_64_bits_exit_2(tmp_path, capsys):
    scenario = tmp_path / "big_seed.tps"
    scenario.write_text(f"ACCOUNT a 1\nSEED {2**64}\n")
    assert main(["run", str(scenario), "--out", str(tmp_path / "out.jsonl")]) == 2
    assert f"parse error: line 2: SEED must be in [0, 2**64), got {2**64}" in capsys.readouterr().err


def test_integers_of_4300_digits_exit_2(tmp_path, capsys):
    nines = "9" * 4300  # two such ADVANCEs, or a freeze this long, would pass the int-to-str limit
    for text, error in (
        (f"ACCOUNT a 1\nADVANCE {nines}\nADVANCE {nines}\n", "parse error: line 2: ADVANCE arg 1 must be an integer"),
        (f"CONFIG freeze_ticks {nines}\nACCOUNT a 1\nACCOUNT b 1\nMINT a 1\nREPORT b 1\n", "config error: bad value"),
    ):
        scenario = tmp_path / "huge.tps"
        scenario.write_text(text)
        assert main(["run", str(scenario), "--out", str(tmp_path / "out.jsonl")]) == 2
        assert capsys.readouterr().err.startswith(error)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_genesis_seed_outside_64_bits_exit_2(replevin_log, capsys, seed):
    seq = _edit_first(replevin_log, "Genesis", lambda p: p.update(seed=seed))
    for command in ("replay", "report", "state", "case"):
        argv = [command, str(replevin_log)] + ([] if command in ("replay", "report") else ["1"])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command} error: seq {seq}: Genesis seed {seed} is outside [0, 2**64)")


def test_unparseable_step_command_exit_2(replevin_log, capsys):
    lines = replevin_log.read_bytes().splitlines(keepends=True)
    target = next(i for i, line in enumerate(lines) if b'"kind":"Step"' in line)
    body = json.loads(lines[target])
    body["payload"]["command"] = "BOGUS a 1"
    lines[target] = json.dumps(body, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    bogus = replevin_log.with_name("bogus.jsonl")
    bogus.write_bytes(b"".join(lines))
    assert main(["replay", str(bogus)]) == 2
    assert main(["report", str(bogus)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"seq {target + 1}: bad Step command 'BOGUS a 1'") == 2


@pytest.mark.parametrize(
    "old, new, error",
    [
        ("TRANSFER", "transfer", "seq 17: Step command 'transfer alice alice bob 2 10' is not in normal form "
         "'TRANSFER alice alice bob 2 10'"),
        ("TRANSFER ", "TRANSFER  ", "seq 17: Step command 'TRANSFER  alice alice bob 2 10' is not in normal form "
         "'TRANSFER alice alice bob 2 10'"),
        ("TRANSFER", "TRANSFERX", "seq 17: bad Step command 'TRANSFERX alice alice bob 2 10' (unknown verb 'TRANSFERX')"),
        ("TRANSFER", "\\xTRANSFER", "line 17: not a canonical event record (Invalid \\escape: line 1 column 38 (char 37))"),
    ],
    ids=["lower-case-verb", "two-spaces", "unknown-verb", "bad-escape"],
)
def test_a_bad_step_line_abandons_the_fast_run_for_the_full_parse(tmp_path, capsys, old, new, error):
    log = tmp_path / "hot_sale.jsonl"
    assert main(["run", str(SCENARIOS / "hot_sale.tps"), "--out", str(log)]) == 0
    lines = log.read_bytes().splitlines(keepends=True)
    target = next(i for i, line in enumerate(lines) if line.startswith(b'{"kind":"Step","payload":{"command":"TRANSFER'))
    assert target + 1 == 17
    lines[target] = lines[target].replace(f'"command":"{old}'.encode(), f'"command":"{new}'.encode(), 1)
    log.write_bytes(b"".join(lines))
    # the step stream ends at the bad line, which is reported once the whole file is read
    with log.open("rb") as file:
        check = runner._Check(file, False)
        steps = [step.raw for step in runner._log_scenario(file, check)[0].steps]
    assert steps == [json.loads(line)["payload"]["command"] for line in lines[:target] if b'"kind":"Step"' in line]
    assert check.stop == (None if new == "\\xTRANSFER" else (lines[target], error.split(": ", 1)[1]))
    capsys.readouterr()
    for command in ("replay", "report", "state"):
        argv = [command, str(log)] + ([] if command in ("replay", "report") else ["1"])
        assert main(argv) == 2
        assert capsys.readouterr().err == f"{command} error: {error}\n"


def test_non_utf8_byte_in_a_log_exit_2(replevin_log, capsys):
    lines = replevin_log.read_bytes().splitlines(keepends=True)
    target = next(i for i, line in enumerate(lines) if b'"kind":"Step"' in line)
    lines[target] = lines[target].replace(b'"command":"', b'"command":"\xff', 1)
    broken = replevin_log.with_name("non_utf8.jsonl")
    broken.write_bytes(b"".join(lines))
    for command in ("replay", "report", "state", "case", "explain"):
        argv = [command, str(broken)] + ([] if command in ("replay", "report") else ["1"])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command} error: line {target + 1}: not a canonical event record")


def _edit_first(log, kind, edit):
    """Rewrite the first event of ``kind`` in ``log`` with ``edit(payload)``; returns its seq."""
    lines = log.read_bytes().splitlines(keepends=True)
    target = next(i for i, line in enumerate(lines) if f'"kind":"{kind}"'.encode() in line)
    body = json.loads(lines[target])
    edit(body["payload"])
    lines[target] = json.dumps(body, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    log.write_bytes(b"".join(lines))
    return body["seq"]


@pytest.mark.parametrize(
    "kind, edit, commands",
    [
        ("Step", lambda p: p.pop("index"), ("replay", "report", "state", "case")),
        ("Step", lambda p: p.pop("command"), ("replay", "report", "state", "case")),
        ("Genesis", lambda p: p.pop("name"), ("replay", "report", "state", "case")),
        ("Genesis", lambda p: p.pop("seed"), ("replay", "report", "state", "case")),
        ("Step", lambda p: p.update(index="0"), ("replay", "report", "state", "case")),
        ("Genesis", lambda p: p.update(seed="7"), ("replay", "report", "state", "case")),
        ("Genesis", lambda p: p.pop("config"), ("replay", "report", "state", "case", "explain")),
        ("Genesis", lambda p: p["config"].update(jury_f="-1"), ("replay", "report", "state", "case", "explain")),
        ("Step", lambda p: p.update(command="MINT a 1\nMINT a 7"), ("replay", "report", "state", "case")),
        ("Step", lambda p: p.update(command="SEED 5"), ("replay", "report", "state", "case")),
        ("Step", lambda p: p.update(command=p["command"] + " # note"), ("replay", "report", "state", "case")),
        ("ValueTransferred", lambda p: p.pop("to_balance"), ("report",)),
        ("ValueTransferred", lambda p: p.update(amount="abc"), ("report",)),
        ("RiskFulfilled", lambda p: p.pop("request_id"), ("report", "explain")),
        ("RiskFulfilled", lambda p: p.pop("features"), ("explain",)),
        ("Minted", lambda p: p.pop("token_id"), ("report",)),
        ("CaseClosed", lambda p: p.update(tally_reporter="x"), ("report",)),
        ("RiskFulfilled", lambda p: p["features"].update(sender_credit="x"), ("explain",)),
    ],
    ids=["step-no-index", "step-no-command", "genesis-no-name", "genesis-no-seed", "step-text-index",
         "genesis-text-seed", "genesis-no-config", "genesis-bad-config", "step-two-commands", "step-directive",
         "step-not-normal-form", "value-no-to-balance", "value-text-amount", "fulfilled-no-request-id",
         "fulfilled-no-features", "minted-no-token-id", "closed-text-tally", "fulfilled-text-credit"],
)
def test_malformed_step_or_genesis_payload_exit_2(replevin_log, capsys, kind, edit, commands):
    seq = _edit_first(replevin_log, kind, edit)
    for command in commands:
        argv = [command, str(replevin_log)] + ([] if command in ("replay", "report") else ["1"])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command} error: seq {seq}: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", NOT_FINITE)
def test_a_genesis_float_that_is_not_finite_is_a_bad_log(replevin_log, capsys, value):
    seq = _edit_first(replevin_log, "Genesis", lambda p: p["config"].update(credit_threshold=value))
    for command in ("replay", "report", "state", "case", "explain"):
        argv = [command, str(replevin_log)] + ([] if command in ("replay", "report") else ["1"])
        assert main(argv) == 2
        bad = f"bad value for credit_threshold: {value!r} (not a finite number: {value!r})"
        assert capsys.readouterr().err == f"{command} error: seq {seq}: bad Genesis config ({bad})\n"


def test_a_fault_is_reported_when_its_line_is_read(replevin_log, capsys):
    # of two faults in a log, the first in the file is reported, except a bad Step command, which waits
    # for the end of the file
    data = replevin_log.read_bytes()
    _edit_first(replevin_log, "Minted", lambda p: p.pop("token_id"))  # a line the table refuses
    seq = _edit_first(replevin_log, "Genesis", lambda p: p.update(seed=-1))
    for command in ("replay", "report", "state"):
        assert main([command, str(replevin_log)] + (["1"] if command == "state" else [])) == 2
        assert capsys.readouterr().err == f"{command} error: seq {seq}: Genesis seed -1 is outside [0, 2**64)\n"
    replevin_log.write_bytes(data)
    seq = _edit_first(replevin_log, "ValueTransferred", lambda p: p.update(amount="abc"))
    lines = replevin_log.read_bytes().splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines) if line.startswith(b'{"kind":"Step"'))
    lines[last] = lines[last].replace(b'"command":"', b'"command":"BOGUS ', 1)
    assert last + 1 < seq  # the bad Step command comes first
    replevin_log.write_bytes(b"".join(lines))
    assert main(["report", str(replevin_log)]) == 2
    assert capsys.readouterr().err == f"report error: seq {seq}: ValueTransferred event: not a decimal amount: 'abc'\n"


def test_text_request_id_among_several_is_a_report_error(tmp_path, capsys):
    log = tmp_path / "clean_sale.jsonl"
    assert main(["run", str(SCENARIOS / "clean_sale.tps"), "--out", str(log)]) == 0
    assert log.read_bytes().count(b'"kind":"RiskFulfilled"') > 1
    capsys.readouterr()
    seq = _edit_first(log, "RiskFulfilled", lambda p: p.update(request_id=str(p["request_id"])))
    assert main(["report", str(log)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"report error: seq {seq}: RiskFulfilled event: field 'request_id' ") and err.count("\n") == 1


@functools.cache
def first_logs() -> dict[str, tuple[bytes, dict]]:
    """kind -> the log of the first run, in ``logged_sims`` order, that logs that kind, and the
    payload of its first event of the kind."""
    logs: dict[str, tuple[bytes, dict]] = {}
    for sim in logged_sims():
        for ev in sim.ledger.events:
            if ev.kind not in logs:
                logs[ev.kind] = (serialize_events(sim.ledger.events), ev.payload)
    return logs


@pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
def test_an_event_the_table_refuses_exit_2_naming_its_seq_and_field(kind, tmp_path, capsys):
    data, payload = first_logs()[kind]
    field = min(payload)
    mistyped = 7 if isinstance(payload[field], str) else "7"
    edits = {
        "drop": (field, lambda p: p.pop(field)),
        "add": ("extra", lambda p: p.update(extra=1)),
        "mistype": (field, lambda p: p.update({field: mistyped})),
    }
    for name, (named, edit) in edits.items():
        log = tmp_path / f"{name}.jsonl"
        log.write_bytes(data)
        seq = _edit_first(log, kind, edit)
        for command in ("report", "replay"):
            assert main([command, str(log)]) == 2, (name, command)
            err = capsys.readouterr().err
            assert err.startswith(f"{command} error: seq {seq}: {kind} event: field '{named}' "), err
            assert err.count("\n") == 1
