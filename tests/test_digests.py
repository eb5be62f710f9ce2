"""Golden digests: the SHA-256 of the log `sim run` writes for every `.tps` file,
and of the logs of a fuzz corpus.

The canonical log is the unit of truth, so any change to rendering, payloads or
execution order shows here. A change that alters a digest on purpose updates the
value and says why.
"""

import hashlib
from pathlib import Path

import pytest

from guardsim.cli import main
from guardsim.fuzz import Fuzzer
from guardsim.ledger import serialize_events
from guardsim.scenario import VERBS
from guardsim.sim import Simulation

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    "scenarios/clean_sale.tps": "c02307d3465cb06d7e3a4d982b6433dfcbf45fe6733c71b2a842449d209b9bd1",
    "scenarios/hot_sale.tps": "4c5f66eea89140d623ebab384dfdb8b3813a174b5077043729ff696f0f890348",
    "scenarios/malicious_report.tps": "af0a0f616147d6518e962794c0d20961f7c827345d66e121e716f82e2cca2c17",
    "scenarios/replevin.tps": "02f17f49d324a7307dfda34ce5a4e206296310f7e957bbb4a8817230fe3451b7",
    "scenarios/theft_recovery.tps": "e06ee070273c6aac6bde8fd8a7fb40c3df6664a577bddbae662000fef626300f",
    "tests/regressions/approved_cannot_approve.tps": "94ba1257b36b2fefc45d50bde125900c74b62c0f4d66291bac569b62d810f67a",
    "tests/regressions/bad_amounts.tps": "b3e780d87ddc5e932a20645df2a635a15d4a5d042007a21d69acf334ab24350a",
    "tests/regressions/dangling_dispatch.tps": "7998fdf06cc0bd4b5edfc92466d59c39875dddf7d137112b1712b7c2a06580df",
    "tests/regressions/huge_ticks.tps": "90cec27be1d7ab9fd1e26a3c6eb30b012ff83993f93aa981bda5d482edeaf219",
    "tests/regressions/unfunded_juror.tps": "665ccda6599138bf19b7f9ff14dcea986e09fd74c578c10d9e1efc62d01b0a5b",
    "tests/regressions/unreached_refusals.tps": "d0a7c93fb8eacbaa1ffc7cccdf217e3df38408dd585662733800c7fa843dbc85",
    "tests/regressions/zero_economics.tps": "a4c11395b65a69176dd3cae268233ab69668b22180e7e9dbdda48c0e61956b4c",
}


def test_every_scenario_file_has_a_golden_digest():
    found = {str(p.relative_to(ROOT)) for p in [*ROOT.glob("scenarios/*.tps"), *ROOT.glob("tests/regressions/*.tps")]}
    assert found == set(GOLDEN)


@pytest.mark.parametrize("scenario", sorted(GOLDEN), ids=lambda s: Path(s).stem)
def test_run_log_digest_is_pinned(scenario, tmp_path, capsys):
    log = tmp_path / "out.jsonl"
    assert main(["run", str(ROOT / scenario), "--out", str(log)]) == 0
    digest = hashlib.sha256(log.read_bytes()).hexdigest()
    assert digest == GOLDEN[scenario]
    assert f"log digest: {digest}" in capsys.readouterr().out


# fuzz seed -> (SHA-256 of the concatenated logs of the 8 sequences of 400 ops, transfers checked)
FUZZ_CORPUS = {
    1: ("269cd86ce96ee4cbda247c87ea1489d08a91861868545f144b63ffc0229d4bec", 44),
    4242: ("3e2be3a470156bfcf3445f73dadfa12c58933334a69e1f1f4b41141f6331ca54", 67),
}


@pytest.mark.parametrize("seed", sorted(FUZZ_CORPUS))
def test_fuzz_corpus_digest_is_pinned(seed, monkeypatch):
    sims = []
    original = Simulation.__init__

    def recording_init(sim, *args, **kwargs):
        original(sim, *args, **kwargs)
        sims.append(sim)

    monkeypatch.setattr(Simulation, "__init__", recording_init)
    result = Fuzzer(seed).run(8 * 400)
    assert result.ok and len(sims) == result.sequences == 8
    digest = hashlib.sha256(b"".join(serialize_events(sim.ledger.events) for sim in sims)).hexdigest()
    assert (digest, result.transfers_checked) == FUZZ_CORPUS[seed]
    # every verb of the DSL is generated: a new verb without a generator fails here
    commands = {ev.payload["command"] for sim in sims for ev in sim.ledger.events if ev.kind == "Step"}
    assert {command.split()[0] for command in commands} == set(VERBS)
