"""Differential tests: the log path's fast code against the straightforward code it replaced.

Each oracle below is the previous implementation, kept verbatim: ``json.dumps``
for the canonical line, the ``isinstance`` payload check, and the
``Decimal``/``Fraction`` amount parser. The payload check has gained one rule
since, in both: a ``NamedTuple`` record is rejected, not written as an array.
"""

import json
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guardsim.errors import RejectedInput
from guardsim.ledger import EventRecord, _check_payload
from guardsim.risk import RuleHit
from guardsim.units import DECIMALS, UNIT, to_units


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


def oracle_check_payload(value) -> None:
    if isinstance(value, float):
        raise TypeError("float in event payload; render it to a string first")
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError("event payload keys must be strings")
            oracle_check_payload(item)
    elif isinstance(value, (list, tuple)) and not hasattr(value, "_fields"):  # a NamedTuple record is no array
        for item in value:
            oracle_check_payload(item)
    elif not (value is None or isinstance(value, (str, int, bool))):
        raise TypeError(f"unsupported payload value: {value!r}")


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

any_text = st.text(st.characters(blacklist_categories=()), max_size=12)  # non-ASCII and lone surrogates too
valid_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.integers().map(Count)
    | any_text
)
valid_payloads = st.recursive(
    valid_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(any_text, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(
    payload=st.dictionaries(any_text, valid_payloads, max_size=6),
    kind=any_text,
    seq=st.integers(min_value=1, max_value=2**64),
    time=st.integers(min_value=0, max_value=2**64),
)
@example(payload={"name": "café € \U0001f600", "n": [1, (2, [3, None])], "ok": True}, kind="K", seq=1, time=0)
@example(payload={"big": 10**40, "neg": -(10**40), "sub": Count(7), "flag": False}, kind="K", seq=2, time=3)
def test_to_line_equals_json_dumps(payload, kind, seq, time):
    record = EventRecord(seq, time, kind, payload)
    assert record.to_line() == oracle_to_line(record)


def test_a_failed_encode_leaves_no_trace_for_the_next():
    payload = {"a": {"k": [1]}, "b": {1, 2}}
    with pytest.raises(TypeError):
        EventRecord(1, 0, "K", payload).to_line()
    payload["b"] = 3
    record = EventRecord(2, 0, "K", payload)
    assert record.to_line() == oracle_to_line(record)


# -- payload check ---------------------------------------------------------------

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


@settings(max_examples=400, deadline=None)
@given(any_payloads)
@example(1.5)
@example([1, Ratio(0.5)])
@example({1: "int key"})
@example({"k": b"bytes"})
@example({"k": {1, 2}})
@example({"k": [Count(3), ("a", None, True)]})
@example(Record(k=Items([1, Ratio(0.5)])))
@example(Record({2: "int key"}))
@example({"k": [RuleHit("R1", "weak", "x")]})
def test_check_payload_accepts_and_rejects_like_the_isinstance_check(value):
    assert outcome(_check_payload, value) == outcome(oracle_check_payload, value)


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
