"""Differential tests: the log path's fast code against the straightforward code it replaced.

Each oracle below is the previous implementation, kept verbatim: ``json.dumps``
for the canonical line and the ``Decimal``/``Fraction`` amount parser. The
line renderer is generated from the event table and renders only the payloads
the table admits, each to the bytes of ``json.dumps``; any other payload raises
TypeError. ``Ledger.append_event`` checks with the same generated function,
and ``admits`` below, a plain walk of the table, is the reference for both.
"""

import copy
import json
import os
import re
import subprocess
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, note, settings
from hypothesis import strategies as st

from guardsim.errors import RejectedInput
from guardsim.fuzz import Fuzzer
from guardsim.ledger import EVENT_KINDS, SHAPES, EventRecord, Ledger, serialize_events
from guardsim.runner import run_scenario
from guardsim.scenario import load_scenario
from guardsim.sim import Simulation
from guardsim.units import DECIMALS, UNIT, to_units

ROOT = Path(__file__).resolve().parent.parent


class Count(int):
    pass


class Ratio(float):
    pass


class Record(dict):
    pass


class Items(list):
    pass


def oracle_to_line(record: EventRecord) -> str:
    body = {"kind": record.kind, "payload": record.payload, "seq": record.seq, "time": record.time}
    return json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def oracle_to_units(value: str) -> int:
    try:
        frac = Fraction(Decimal(value))
    except InvalidOperation:
        raise RejectedInput(f"not a decimal amount: {value!r}") from None
    scaled = frac * UNIT
    if scaled.denominator != 1:
        raise RejectedInput(f"amount finer than {DECIMALS} decimal digits: {value!r}")
    return scaled.numerator


def outcome(fn, value):
    """The value ``fn`` returns, or the type and message of what it raises."""
    try:
        return ("ok", fn(value))
    except Exception as exc:  # noqa: BLE001 - the exception itself is the compared outcome
        return (type(exc), str(exc))


# -- canonical lines -------------------------------------------------------------
#
# The line renderer admits exactly the payloads of the event table. Each admitted
# payload renders to the oracle's bytes; every other one raises TypeError.

any_text = st.text(st.characters(blacklist_categories=()), max_size=12)  # non-ASCII, lone surrogates, ""
valid_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.integers().map(Count)
    | any_text
)
KEY_SETS = [
    (kind, fields)
    for kind, spec in EVENT_KINDS.items()
    for fields in (spec if isinstance(spec, tuple) else (spec,))
]


def leaf_values(leaf: str):
    if leaf == "int":
        return st.integers(min_value=-(2**200), max_value=2**200)
    if leaf == "bool":
        return st.booleans()
    if leaf[-1] == "?":
        return st.none() | any_text
    if leaf[0] == "[":
        return st.lists(leaf_values(leaf[1:-1]), max_size=3)
    if leaf in SHAPES:
        return objects(SHAPES[leaf])
    return any_text


def objects(fields: dict):
    return st.fixed_dictionaries({key: leaf_values(leaf) for key, leaf in fields.items()})


admitted_events = st.sampled_from(KEY_SETS).flatmap(
    lambda key_set: st.builds(
        EventRecord,
        st.integers(min_value=1, max_value=2**64),
        st.integers(min_value=0, max_value=2**64),
        st.just(key_set[0]),
        objects(key_set[1]),
    )
)


def slots(fields: dict, obj: dict, at: str = ""):
    """``(container, key, leaf kind, path)`` of every value in ``obj``, nested values and list items too."""
    for key, leaf in fields.items():
        path = at + key
        yield obj, key, leaf, path
        value = obj[key]
        if leaf[0] == "[":
            item = leaf[1:-1]
            for index, element in enumerate(value):
                yield value, index, item, f"{path}[{index}]"
                if item in SHAPES:
                    yield from slots(SHAPES[item], element, f"{path}[{index}].")
        elif leaf in SHAPES:
            yield from slots(SHAPES[leaf], value, path + ".")


def refuse(data, record: EventRecord) -> tuple[str, EventRecord]:
    """One way to make ``record`` a payload the table does not admit, drawn by ``data``."""
    payload = copy.deepcopy(record.payload)
    fields = next(fields for kind, fields in KEY_SETS if kind == record.kind and set(fields) == set(payload))
    found = list(slots(fields, payload))
    dicts = [payload] + [value[key] for value, key, leaf, _path in found if leaf in SHAPES]
    ways = {
        "unknown kind": None,
        "extra key": dicts,
        "missing key": [obj for obj in dicts if obj],
        "renamed key": [obj for obj in dicts if obj],
        "bool in an int field": [slot for slot in found if slot[2] == "int"],
        "int subclass in an int field": [slot for slot in found if slot[2] == "int"],
        "int in a bool field": [slot for slot in found if slot[2] == "bool"],
        "text in a list field": [slot for slot in found if slot[2][0] == "["],
        "float": found,
        "None in a field not marked optional": [slot for slot in found if slot[2][-1] != "?"],
    }
    way = data.draw(st.sampled_from([way for way, targets in ways.items() if targets != []]))
    if way == "unknown kind":
        kind = data.draw(any_text.filter(lambda text: text not in EVENT_KINDS))
        return way, record._replace(kind=kind)
    target = data.draw(st.sampled_from(ways[way]))
    if way in ("missing key", "renamed key"):
        value = target.pop(data.draw(st.sampled_from(sorted(target))))
        if way == "renamed key":
            target[data.draw(any_text.filter(lambda key: key not in target))] = value
    elif way == "extra key":
        target[data.draw(any_text.filter(lambda key: key not in target))] = data.draw(valid_leaves)
    else:
        container, key, _leaf, _path = target
        container[key] = {
            "bool in an int field": data.draw(st.booleans()),
            "int subclass in an int field": Count(data.draw(st.integers())),
            "int in a bool field": data.draw(st.integers(min_value=0, max_value=1)),
            "text in a list field": data.draw(any_text),
            "float": data.draw(st.floats(allow_nan=False)),
            "None in a field not marked optional": None,
        }[way]
    if target is payload:  # OracleDispatch without "until" is another of its key sets
        assume((record.kind, frozenset(payload)) not in {(kind, frozenset(fields)) for kind, fields in KEY_SETS})
    return way, record._replace(payload=payload)


@settings(max_examples=600, deadline=None)
@given(admitted_events)
@example(EventRecord(1, 0, "Step", {"index": 0, "command": "café € \U0001f600 \ud800 \"%\\"}))
@example(EventRecord(2**64, 2**64, "JuryEmpaneled", {"case_id": -(2**200), "jury": []}))
@example(EventRecord(3, 4, "OracleDispatch", {"action": "", "origin": "%s", "token_id": 2**200, "until": 0}))
def test_to_line_equals_json_dumps(record):
    assert record.to_line() == oracle_to_line(record)


@settings(max_examples=400, deadline=None)
@given(admitted_events, admitted_events, st.data())
def test_every_payload_the_table_refuses_raises_and_renders_nothing(record, after, data):
    way, refused = refuse(data, record)
    note(way)
    with pytest.raises(TypeError):
        refused.to_line()
    assert after.to_line() == oracle_to_line(after)


DISPATCH = {"action": "freeze", "origin": "drm", "token_id": 1}
FEATURES = {
    "sender": "0x1",
    "recipient": "0x2",
    "price": "1.0",
    "floor": None,
    "price_ratio": None,
    "turnover_count": 0,
    "sender_credit": "0.5",
    "recipient_credit": "0.5",
    "sender_flagged": False,
    "recipient_flagged": False,
    "token_state": "OK",
    "prior_abnormal": False,
    "model_score": "0.0",
}
VERDICT = {"request_id": 1, "status": "safe", "hits": [], "features": FEATURES}


REFUSED = [  # (kind, payload) the event table does not admit
    ("OracleDispatch", {**DISPATCH, "until": 2, "to": "0x"}),  # not one of its key sets
    ("OracleDispatch", {**DISPATCH, "token_id": True}),
    ("OracleDispatch", {**DISPATCH, "until": 2.0}),
    ("OracleDispatch", {**DISPATCH, "token_id": Count(1)}),  # an int subclass is refused
    ("OracleDispatch", {**DISPATCH, "action": None}),
    ("ApprovalForAll", {"owner": "0x1", "operator": "0x2", "approved": 1}),
    ("JuryEmpaneled", {"case_id": 1, "jury": "0x1"}),  # a string is no list
    ("JuryEmpaneled", {"case_id": 1, "jury": ("0x1",)}),
    ("RiskFulfilled", {**VERDICT, "features": {**FEATURES, "floor": 1.5}}),
    ("RiskFulfilled", {**VERDICT, "features": {**FEATURES, "extra": "x"}}),
    ("RiskFulfilled", {**VERDICT, "hits": [{"rule": "R1", "severity": "weak"}]}),
    ("Step", {"index": 0, "command": "ADVANCE 1", "note": ""}),
    ("Step", {"index": 0}),
    ("Bogus", {}),
]


def test_a_failed_encode_leaves_no_trace_for_the_next():
    admitted = [
        EventRecord(2, 3, "OracleDispatch", DISPATCH),
        EventRecord(4, 5, "OracleDispatch", {**DISPATCH, "until": 9}),
        EventRecord(6, 7, "RiskFulfilled", {**VERDICT, "hits": [{"rule": "R1", "severity": "weak", "detail": ""}]}),
        EventRecord(8, 9, "JuryEmpaneled", {"case_id": 1, "jury": ["0x1", "0x2"]}),
    ]
    for kind, payload in REFUSED:
        with pytest.raises(TypeError):
            EventRecord(1, 0, kind, payload).to_line()
        assert [record.to_line() for record in admitted] == [oracle_to_line(record) for record in admitted]


def test_importing_generates_no_renderer():
    # renderers are made on a kind's first render, so a fresh interpreter's set-up pays for none
    probe = "import guardsim.cli, guardsim.ledger as ledger; print(len(ledger._GENERATED))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert done.stdout == "0\n", done.stderr


def logged_sims() -> list[Simulation]:
    """The run of every `.tps` scenario and regression, then every sequence of both pinned fuzz corpora."""
    sims = [
        run_scenario(load_scenario(path))[0]
        for path in sorted([*ROOT.glob("scenarios/*.tps"), *ROOT.glob("tests/regressions/*.tps")])
    ]
    original = Simulation.__init__

    def recording_init(sim, *args, **kwargs):
        original(sim, *args, **kwargs)
        sims.append(sim)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulation, "__init__", recording_init)
        for seed in (1, 4242):
            Fuzzer(seed).run(8 * 400)
    return sims


def logged_events() -> list[EventRecord]:
    """Every event of every `.tps` scenario and regression and of both pinned fuzz corpora."""
    return [ev for sim in logged_sims() for ev in sim.ledger.events]


def test_every_logged_event_renders_like_json_dumps():
    records = logged_events()
    assert {record.kind for record in records} == set(EVENT_KINDS)
    assert {(record.kind, frozenset(record.payload)) for record in records} == {
        (kind, frozenset(fields)) for kind, fields in KEY_SETS
    }
    assert [record.to_line() for record in records] == [oracle_to_line(record) for record in records]


# -- payload check ---------------------------------------------------------------
#
# ``Ledger.append_event`` refuses a payload exactly when ``to_line`` does, names the field
# it breaks and appends nothing; what it admits is what a plain walk of the table admits.

any_leaves = valid_leaves | st.floats(allow_nan=False) | st.floats(allow_nan=False).map(Ratio) | st.binary(max_size=3)
any_payloads = st.recursive(
    any_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(any_text | st.integers(), children, max_size=4)
    | st.dictionaries(any_text, children, max_size=4).map(Record)
    | st.lists(children, max_size=4).map(Items)
    | st.frozensets(st.integers(), max_size=3).map(set),
    max_leaves=20,
)


def admits(leaf: str, value) -> bool:
    """Whether the table admits ``value`` for a field of ``leaf`` kind."""
    if leaf == "int":
        return type(value) is int
    if leaf == "bool":
        return type(value) is bool
    if leaf[-1] == "?":
        return value is None or admits(leaf[:-1], value)
    if leaf[0] == "[":
        return type(value) is list and all(admits(leaf[1:-1], item) for item in value)
    if leaf in SHAPES:
        fields = SHAPES[leaf]
        return type(value) is dict and value.keys() == fields.keys() and all(admits(fields[k], value[k]) for k in fields)
    return type(value) is str


def placed(data, record: EventRecord) -> tuple[EventRecord, str, bool]:
    """``record`` with an ``any_payloads`` value in one of its fields, that field's path, and whether
    the table admits the value there."""
    payload = copy.deepcopy(record.payload)
    fields = next(fields for kind, fields in KEY_SETS if kind == record.kind and set(fields) == set(payload))
    container, key, leaf, path = data.draw(st.sampled_from(list(slots(fields, payload))))
    container[key] = data.draw(any_payloads)
    return record._replace(payload=payload), path, admits(leaf, container[key])


@settings(max_examples=500, deadline=None)
@given(admitted_events, st.data())
def test_append_refuses_exactly_what_to_line_refuses_and_names_the_field(record, data):
    way = data.draw(st.sampled_from(["admitted", "refused", "placed"]))
    if way == "refused":
        way, record = refuse(data, record)
    elif way == "placed":
        record, path, admitted = placed(data, record)
    note(way)
    ledger = Ledger(seed=1)
    ledger.create_account(0)
    events, log = list(ledger.events), serialize_events(ledger.events)
    try:
        line = record.to_line()
    except TypeError:
        line = None
    if line is None:
        with pytest.raises(TypeError) as refused:
            ledger.append_event(record.kind, record.payload)
        assert ledger.events == events
        assert serialize_events(ledger.events) == log
    else:
        assert line == oracle_to_line(record)
        appended = ledger.append_event(record.kind, record.payload)
        assert serialize_events(ledger.events) == log + appended.to_line().encode() + b"\n"
    if way == "placed":
        assert (line is not None) == admitted
        if not admitted:  # the named field is the one written, or inside it, or the list holding it
            named = re.search(r"field '([^']*)'", str(refused.value)).group(1)
            assert named.startswith(path) or path.startswith(named + "["), (named, path)


# -- amounts -----------------------------------------------------------------------

SPELLINGS = ["1.", ".5", " 1", "1 ", "1_0", "+1", "-1", "1e3", "1E-18", "١", "1.٥", "²", "1.²", "", ".", "0x1"]


@pytest.mark.parametrize("text", SPELLINGS)
def test_to_units_odd_spellings_match_the_decimal_path(text):
    assert outcome(to_units, text) == outcome(oracle_to_units, text)


@settings(max_examples=400, deadline=None)
@given(
    zeros=st.integers(min_value=0, max_value=3),
    whole=st.integers(min_value=0, max_value=10**25),
    frac=st.text("0123456789", max_size=20),
    dot=st.booleans(),
)
def test_to_units_plain_digits_match_the_decimal_path(zeros, whole, frac, dot):
    text = "0" * zeros + str(whole) + ("." + frac if dot else "")
    assert outcome(to_units, text) == outcome(oracle_to_units, text)


# No exponent marker here: the Decimal path expands "1e999999999" to a billion-digit integer.
@settings(max_examples=300, deadline=None)
@given(st.text("0123456789.+-_ ١٥²", max_size=12))
def test_to_units_any_short_spelling_matches_the_decimal_path(text):
    assert outcome(to_units, text) == outcome(oracle_to_units, text)
