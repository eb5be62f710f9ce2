"""Exact fixed-point value arithmetic.

All balances, prices, deposits and fees are integers counting 10^-18 of one
value unit (one ETH-equivalent), so every arithmetic identity the settlement
and conservation checks rely on holds bit-exactly. Floats never enter the
money path.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .errors import RejectedInput

DECIMALS = 18
UNIT = 10**DECIMALS


def to_units(value: int | str | Decimal | Fraction) -> int:
    """Convert a whole number or decimal string to integer sub-units.

    Rejects anything that does not land exactly on the 18-digit grid. A plain
    ASCII ``digits[.digits]`` string with at most 18 digits on each side of
    the point is converted with integer arithmetic; every other spelling goes
    through ``Decimal`` and ``Fraction``.
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
    if isinstance(value, Decimal):
        frac = Fraction(value)
    elif isinstance(value, Fraction):
        frac = value
    elif isinstance(value, str):
        try:
            frac = Fraction(Decimal(value))
        except InvalidOperation:
            raise RejectedInput(f"not a decimal amount: {value!r}") from None
    else:
        raise RejectedInput(f"not a value amount: {value!r}")
    scaled = frac * UNIT
    if scaled.denominator != 1:
        raise RejectedInput(f"amount finer than {DECIMALS} decimal digits: {value!r}")
    return scaled.numerator


def fmt_units(units: int) -> str:
    """Render sub-units in the canonical fixed form with 18 fractional digits."""
    sign = "-" if units < 0 else ""
    mag = abs(units)
    return f"{sign}{mag // UNIT}.{mag % UNIT:0{DECIMALS}d}"


def parse_fraction(text: str) -> Fraction:
    """Parse a ratio given either as a decimal string or as 'p/q'."""
    try:
        if "/" in text:
            return Fraction(text)
        return Fraction(Decimal(text))
    except (InvalidOperation, ValueError, ZeroDivisionError):
        raise RejectedInput(f"not a ratio: {text!r}") from None


def fmt_fraction(ratio: Fraction) -> str:
    return f"{ratio.numerator}/{ratio.denominator}"
