"""Exact fixed-point value arithmetic.

All balances, prices, deposits and fees are integers counting 10^-18 of one
value unit (one ETH-equivalent), so every arithmetic identity the settlement
and conservation checks rely on holds bit-exactly. Floats never enter the
money path.
"""

from __future__ import annotations

import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .errors import RejectedInput

DECIMALS = 18
UNIT = 10**DECIMALS

# Most digits a decimal amount or ratio may have on either side of the point.
# Python renders an int of at most 4300 digits (its default int-to-str limit),
# and the credit score turns a portfolio into a float, which tops out near
# 1.8e308. Amounts below 1e300 keep every balance and portfolio sum a run can
# reach inside both limits, and 300 places keep a ratio's terms renderable.
MAX_DIGITS = 300


def to_units(value: int | str) -> int:
    """Convert a whole number or decimal string to integer sub-units.

    Rejects any other type, anything that does not land exactly on the 18-digit grid, NaN,
    the infinities and spellings with more than ``MAX_DIGITS`` digits on
    either side of the point. A plain ASCII ``digits[.digits]`` string with at most 18 digits on
    each side of the point is converted with integer arithmetic; every other
    spelling goes through ``Decimal`` and ``Fraction``.
    """
    if type(value) is str:
        whole, dot, frac = value.partition(".")
        if (
            value.isascii()
            and whole.isdigit()
            and len(whole) <= DECIMALS
            and (not dot or (frac.isdigit() and len(frac) <= DECIMALS))
        ):
            return int(whole + frac.ljust(DECIMALS, "0"))
    if isinstance(value, bool):
        raise RejectedInput(f"not a value amount: {value!r}")
    if isinstance(value, int):
        return value * UNIT
    if isinstance(value, float):
        raise RejectedInput("float amounts are not accepted; pass a string")
    if not isinstance(value, str):
        raise RejectedInput(f"not a value amount: {value!r}")
    scaled = _exact(value) * UNIT
    if scaled.denominator != 1:
        raise RejectedInput(f"amount finer than {DECIMALS} decimal digits: {value!r}")
    return scaled.numerator


def _exact(text: str) -> Fraction:
    """The exact value of the decimal string ``text``.

    NaN and the infinities have none, and ``Fraction`` builds an integer with
    as many digits as the exponent, so a nonzero value with more than
    ``MAX_DIGITS`` digits on either side of the point is rejected before the
    conversion.
    """
    try:
        number = Decimal(text)
    except InvalidOperation:
        raise RejectedInput(f"not a decimal amount: {text!r}") from None
    if not number.is_finite():
        raise RejectedInput(f"not a finite amount: {text!r}")
    if number and number.adjusted() >= MAX_DIGITS:
        raise RejectedInput(f"more than {MAX_DIGITS} whole digits: {text!r}")
    if number and number.as_tuple().exponent < -MAX_DIGITS:
        raise RejectedInput(f"more than {MAX_DIGITS} decimal places: {text!r}")
    return Fraction(number)


def fmt_units(units: int) -> str:
    """Render sub-units in the canonical fixed form with ``DECIMALS`` (18, as the format spells out) decimals."""
    if units < 0:
        return "-%d.%018d" % divmod(-units, UNIT)
    return "%d.%018d" % divmod(units, UNIT)


def parse_fraction(text: str) -> Fraction:
    """Parse a ratio given either as a decimal string or as 'p/q'."""
    try:
        if "/" in text:
            return Fraction(text)
        return _exact(text)
    except (RejectedInput, ValueError, ZeroDivisionError):
        raise RejectedInput(f"not a ratio: {text!r}") from None


def finite_float(text: str) -> float:
    """``float(text)`` if it is finite: NaN fails every comparison a rule makes, and an infinity
    leaves a threshold no value can cross."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def fmt_fraction(ratio: Fraction) -> str:
    return f"{ratio.numerator}/{ratio.denominator}"
