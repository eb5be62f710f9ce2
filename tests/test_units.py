import pytest
from decimal import Decimal
from fractions import Fraction
from hypothesis import example, given, strategies as st

from guardsim.errors import RejectedInput
from guardsim.units import DECIMALS, MAX_DIGITS, UNIT, fmt_fraction, fmt_units, parse_fraction, to_units


def test_whole_numbers():
    assert to_units(0) == 0
    assert to_units(1) == UNIT
    assert to_units("10") == 10 * UNIT


def test_decimal_strings():
    assert to_units("0.5") == UNIT // 2
    assert to_units("0.001") == UNIT // 1000
    assert to_units("0.000000000000000001") == 1


def test_round_trip_formatting():
    for text in ("0", "1", "10", "0.5", "0.010000000000000001", "123.456"):
        units = to_units(text)
        assert to_units(fmt_units(units)) == units
    assert fmt_units(to_units("1.5")) == "1.500000000000000000"
    assert fmt_units(0) == "0.000000000000000000"
    assert fmt_units(-1) == "-0.000000000000000001"


def _fmt_units_reference(units):
    """Sign, then floor-divide and modulo the magnitude, with the digit count read from DECIMALS."""
    sign = "-" if units < 0 else ""
    mag = abs(units)
    return f"{sign}{mag // UNIT}.{mag % UNIT:0{DECIMALS}d}"


@given(st.integers(min_value=-(10**300) + 1, max_value=10**300 - 1))
@example(0)
@example(1)
@example(-1)
@example(UNIT - 1)
@example(UNIT)
@example(-UNIT)
@example(10**300 - 1)
@example(-(10**300) + 1)
def test_fmt_units_matches_the_reference_and_round_trips(units):
    assert fmt_units(units) == _fmt_units_reference(units)
    if units >= 0:
        assert to_units(fmt_units(units)) == units


def test_rejects_too_fine_and_garbage():
    with pytest.raises(RejectedInput):
        to_units("0.0000000000000000001")  # 19 digits
    with pytest.raises(RejectedInput):
        to_units("abc")
    with pytest.raises(RejectedInput):
        to_units(0.5)  # floats are banned from the money path


@pytest.mark.parametrize("value", [Decimal("1"), Fraction(1), True, False], ids=["Decimal", "Fraction", "True", "False"])
def test_rejects_any_type_but_int_and_str(value):
    """A bool is an int subclass, but no amount: ``to_units(True)`` is not one unit."""
    with pytest.raises(RejectedInput, match="^not a value amount: "):
        to_units(value)


@pytest.mark.parametrize(
    "text",
    [
        "1e99999999",
        "1e-99999999",
        "NaN",
        "NaN1",
        "sNaN",
        "Infinity",
        "-Infinity",
        "9" * 4400,
        pytest.param("9" * 5000 + ".5", id="5000-digits"),
        "1e400",
        "1" + "0" * MAX_DIGITS,
    ],
    ids=lambda text: text if len(text) < 20 else f"{len(text)}-chars",
)
def test_amounts_without_a_holdable_value_are_rejected(text):
    with pytest.raises(RejectedInput):
        to_units(text)


def test_zero_and_the_largest_whole_part_keep_their_values():
    assert to_units("0e99999999") == to_units("0e-99999999") == 0
    assert to_units("9" * MAX_DIGITS) == (10**MAX_DIGITS - 1) * UNIT


def test_fraction_parsing():
    assert parse_fraction("0.5") == Fraction(1, 2)
    assert parse_fraction("1/2") == Fraction(1, 2)
    assert parse_fraction(fmt_fraction(Fraction(3, 7))) == Fraction(3, 7)
    with pytest.raises(RejectedInput):
        parse_fraction("1/0")
    for text in ("Infinity", "NaN", "1e99999999", "1e-99999999", "1." + "0" * 5000 + "1"):
        with pytest.raises(RejectedInput):
            parse_fraction(text)
