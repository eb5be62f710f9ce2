"""Tests of the benchmark itself: generator, self-time arithmetic, patch hygiene.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import sys
from array import array

import pytest

import run
from spans import self_times
from workload import check_report, generate


def test_generator_is_deterministic():
    for kind in ("market", "disputes"):
        one = generate(kind, 7, 30, 40, 10)
        assert one.text == generate(kind, 7, 30, 40, 10).text
        assert one.expected == generate(kind, 7, 30, 40, 10).expected
        assert one.text != generate(kind, 8, 30, 40, 10).text


@pytest.mark.parametrize("kind", ["market", "disputes"])
def test_small_workload_has_no_rejections_and_its_intended_mix(kind):
    from guardsim.runner import run_scenario
    from guardsim.scenario import parse_scenario

    workload = generate(kind, 3, 20, 120, 8)
    _sim, report = run_scenario(parse_scenario(workload.text))
    assert report.steps_rejected == 0
    assert check_report(workload, report) == []
    assert report.ok
    verdicts = workload.expected.verdicts
    if kind == "market":
        assert verdicts == {"safe": 120, "may_lost": 0, "hacked": 0}
    else:
        assert min(verdicts.values()) > 0
        assert workload.expected.cases_for_reporter > verdicts["hacked"]  # genuine reports too
        assert workload.expected.cases_for_holder > 0


def test_mix_argument_sets_the_round_kinds():
    from guardsim.runner import run_scenario
    from guardsim.scenario import parse_scenario

    workload = generate("thefts", 4, 10, 41, 6, mix={"safe": 1, "hacked": 1})
    _sim, report = run_scenario(parse_scenario(workload.text))
    assert check_report(workload, report) == []
    assert workload.expected.verdicts == {"safe": 21, "may_lost": 0, "hacked": 20}
    assert workload.expected.cases_for_reporter == 20
    with pytest.raises(ValueError):
        generate("market", 4, 10, 41, 6, mix={"bogus": 1})


def test_check_report_notices_a_wrong_mix():
    from guardsim.runner import run_scenario
    from guardsim.scenario import parse_scenario

    workload = generate("disputes", 3, 20, 60, 8)
    _sim, report = run_scenario(parse_scenario(workload.text))
    workload.expected.verdicts["hacked"] += 1
    assert any("verdicts" in problem for problem in check_report(workload, report))


def test_self_time_subtracts_direct_children_only():
    # a [0, 100] calls b [10, 40] and c [50, 90]; b calls d [20, 30]; e [100, 110] is a root
    names = ["a", "b", "c", "d", "e"]
    name_of = array("i", [0, 1, 3, 2, 4])
    parent = array("i", [-1, 0, 1, 0, -1])
    start = array("q", [0, 10, 20, 50, 100])
    end = array("q", [100, 40, 30, 90, 110])
    stats = self_times(names, name_of, parent, start, end)
    assert {n: (s.calls, s.self_ns) for n, s in stats.items()} == {
        "a": (1, 100 - 30 - 40),
        "b": (1, 30 - 10),
        "c": (1, 40),
        "d": (1, 10),
        "e": (1, 10),
    }
    assert sum(s.self_ns for s in stats.values()) == 110  # covered wall time


def _bindings():
    """Every function-valued attribute of every guardsim module and class."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name != "guardsim" and not name.startswith("guardsim."):
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, item in vars(value).items():
                    seen[(name, attr, member)] = item
    return seen


def test_traced_run_restores_every_wrapped_function(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "disputes", {"tokens": 12, "rounds": 30, "users": 6})
    bench = run.Bench("disputes", 5)
    bench.setup()
    before = _bindings()
    metrics = run.trace(bench, 0.0)
    after = _bindings()
    assert before.keys() == after.keys()
    assert [key for key in before if before[key] is not after[key]] == []
    assert bench.checks.failed == 0
    # the trace table matches the code: every target was found and called
    assert metrics["runner.run_scenario.calls"][0] == 3
    assert metrics["ledger.to_line_per_event"][0] == 7
    assert metrics["risk.verdict.hacked"][0] > 0
    layers = sum(metrics[f"{layer}.self_s"][0] for layer in run.LAYERS)
    assert layers + metrics["other.self_s"][0] == pytest.approx(metrics["trace.wall_s"][0])


def test_install_reports_missing_targets():
    from spans import Tracer

    patches = Tracer().install(["risk.no_such_function"], {})
    assert patches.missing == ["risk.no_such_function"]
    patches.restore()


def _market_trace(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "market", {"tokens": 20, "rounds": 12, "users": 4})
    bench = run.Bench("market", 2)
    bench.setup()
    return bench, run.trace(bench, 0.0)


def test_tokens_scanned_counts_the_records_read(tmp_path, monkeypatch):
    bench, metrics = _market_trace(tmp_path, monkeypatch)
    assert bench.checks.failed == 0
    assert metrics["risk.tokens_scanned_per_transfer"][0] == 3 * 20  # floor scan + two owner scans

    # An indexed owner lookup reads no records; what it returns does not matter here.
    from guardsim.sim import SimView

    monkeypatch.setattr(SimView, "tokens_owned_by", lambda _view, _address: [])
    _bench, metrics = _market_trace(tmp_path, monkeypatch)
    assert metrics["risk.tokens_scanned_per_transfer"][0] == 20  # the floor scan only


def test_fresh_setup_times_a_new_interpreter(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "disputes", {"tokens": 12, "rounds": 30, "users": 6})
    bench = run.Bench("disputes", 5)
    bench.setup()
    assert bench.fresh_setup_s() > 0
    assert (bench.checks.attempted, bench.checks.failed) == (1, 0)  # it parsed as many steps
