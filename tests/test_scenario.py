import pytest

from guardsim.errors import ParseError
from guardsim.scenario import format_scenario, load_scenario, parse_scenario, parse_step


def test_empty_text_is_valid_empty_scenario():
    scenario = parse_scenario("")
    assert scenario.steps == []
    assert scenario.seed == 0


def test_unknown_verb_names_its_line():
    text = "ACCOUNT alice 10\nFROB alice\n"
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert err.value.line_no == 2
    assert "FROB" in str(err.value)


def test_arity_and_int_validation():
    with pytest.raises(ParseError):
        parse_scenario("MINT alice\n")
    with pytest.raises(ParseError):
        parse_scenario("MINT alice one\n")
    with pytest.raises(ParseError):
        parse_scenario("SEED x\n")
    for directive, reason in (("NAME", "NAME needs a value"), ("CONFIG freeze_ticks", "CONFIG needs a key and a value")):
        with pytest.raises(ParseError) as err:
            parse_scenario(f"ACCOUNT alice 1\n{directive}\n")
        assert (err.value.line_no, err.value.reason) == (2, reason)
    # integer arguments lie in [0, 2**63); each error names its line
    for bad in (str(2**63), "9" * 4300, "-1"):
        for text in (f"ACCOUNT alice 1\nMINT alice {bad}\n", f"ACCOUNT alice 1\nADVANCE {bad}\n"):
            with pytest.raises(ParseError) as err:
                parse_scenario(text)
            assert err.value.line_no == 2
            assert str(err.value).startswith("line 2: ")
    top = str(2**63 - 1)
    step = parse_scenario(f"MINT alice {top}\nADVANCE {top}\n").steps
    assert [s.values for s in step] == [("alice", 2**63 - 1), (2**63 - 1,)]


def test_parse_step_reads_one_line():
    step = parse_step("mint  a 1_000   # comment", 7)
    assert (step.line_no, step.verb, step.values) == (7, "MINT", ("a", 1000))
    assert step.raw == "MINT a 1_000"  # the logged command keeps the integer as written
    assert step.verb is parse_step("MINT b 2").verb  # one verb string per verb, not one per line
    assert parse_step("FLAG a").values == ("a", "on")
    assert parse_step("FLAG a off").values == ("a", "off")
    assert parse_step("EVIDENCE a 1").values == ("a", 1, "")
    assert parse_step("EVIDENCE a 1 some  words").values == ("a", 1, "some words")
    for line, reason in (
        ("", "no step on this line"),
        ("  # only a comment", "no step on this line"),
        ("SEED 5", "SEED is a directive, not a step"),
        ("frob a", "unknown verb 'frob'"),
        ("FLAG a on off", "FLAG takes 1..2 args"),
        ("EVIDENCE a", "EVIDENCE takes 2+ args"),
        ("MINT a 1 2", "MINT takes 2..2 args"),
        ("TRANSFER a b c -1 0", "TRANSFER arg 4 must be an integer in [0, 2**63)"),
    ):
        with pytest.raises(ParseError) as err:
            parse_step(line, 3)
        assert (err.value.line_no, err.value.reason) == (3, reason)


def test_directives_and_comments():
    text = """
    # a comment
    NAME my run
    SEED 99
    CONFIG freeze_ticks 100
    ACCOUNT alice 10   # trailing comment
    """
    scenario = parse_scenario(text)
    assert scenario.name == "my run"
    assert scenario.seed == 99
    assert scenario.config_overrides == [("freeze_ticks", "100")]
    assert [s.raw for s in scenario.steps] == ["ACCOUNT alice 10"]


def test_round_trip_normalization():
    text = "name demo\nseed 3\naccount   alice   10\nmint alice 1\nevidence alice 1 some words here\n"
    normalized = format_scenario(parse_scenario(text))
    # normalizing is idempotent and parse-stable
    assert format_scenario(parse_scenario(normalized)) == normalized
    first = parse_scenario(text)
    second = parse_scenario(normalized)
    assert first.name == second.name and first.seed == second.seed
    assert [s.raw for s in first.steps] == [s.raw for s in second.steps]


def test_format_scenario_keeps_config_lines():
    text = "NAME demo\nSEED 3\nCONFIG jury_f 2\nCONFIG beta_underprice 1/3\nACCOUNT alice 10\nMINT alice 1\n"
    scenario = parse_scenario(text)
    assert scenario.config_overrides == [("jury_f", "2"), ("beta_underprice", "1/3")]
    assert format_scenario(scenario) == text
    assert parse_scenario(format_scenario(scenario)) == scenario


def test_load_scenario_uses_stem_as_default_name(tmp_path):
    path = tmp_path / "demo_run.tps"
    path.write_text("ACCOUNT a 1\n")
    assert load_scenario(path).name == "demo_run"


def test_every_canned_scenario_parses():
    from pathlib import Path

    corpus = sorted(Path(__file__).resolve().parent.parent.joinpath("scenarios").glob("*.tps"))
    assert len(corpus) >= 5
    for path in corpus:
        scenario = load_scenario(path)
        assert scenario.steps
