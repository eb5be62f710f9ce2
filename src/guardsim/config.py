"""Run configuration: every threshold the protocol needs, with logged defaults.

The effective configuration is written into the genesis event of each run, so
any log is self-describing and replayable without the original config file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path

from .errors import RejectedInput
from .units import finite_float, fmt_fraction, fmt_units, parse_fraction, to_units

# Integer step arguments, int config values and logical time: non-negative 64-bit signed integers.
INTS = range(2**63)

# each field's metadata: the (parse, render) pair of its key's value in the Genesis event's config
_INT = {"codec": (int, str)}
_FLOAT = {"codec": (finite_float, repr)}
_FRAC = {"codec": (parse_fraction, fmt_fraction)}
_UNITS = {"codec": (to_units, fmt_units)}


@dataclass(frozen=True)
class SimConfig:
    """Every threshold a run uses, one field per key of the Genesis event's ``config``, in its order.

    The fields are the one list of those keys: ``_KEYS`` and the event table's ``config`` shape are
    built from them."""

    freeze_ticks: int = field(default=7200, metadata=_INT)
    beta_underprice: Fraction = field(default=Fraction(1, 2), metadata=_FRAC)  # R1: price < beta * floor
    turnover_threshold: int = field(default=3, metadata=_INT)  # R2: transfers in window >= T
    window_ticks: int = field(default=86400, metadata=_INT)  # recency window for R2 and R5
    credit_threshold: float = field(default=20.0, metadata=_FLOAT)  # R3: recipient credit below this
    p_hacked: float = field(default=0.9, metadata=_FLOAT)  # model score escalating to hacked
    p_suspect: float = field(default=0.6, metadata=_FLOAT)  # model score escalating to may_lost
    credit_w_portfolio: float = field(default=10.0, metadata=_FLOAT)
    credit_w_age: float = field(default=2.0, metadata=_FLOAT)
    credit_w_flag: float = field(default=1.0, metadata=_FLOAT)
    jury_f: int = field(default=1, metadata=_INT)  # PBFT fault bound f; jury size and quorum derive from it
    juror_reward: int = field(default=to_units("0.01"), metadata=_UNITS)
    gas_fee: int = field(default=to_units("0.001"), metadata=_UNITS)
    deposit_rate: Fraction = field(default=Fraction(1, 20), metadata=_FRAC)
    deposit_min: int = field(default=to_units("0.01"), metadata=_UNITS)

    @property
    def jury_size(self) -> int:
        return 3 * self.jury_f + 1

    @property
    def quorum(self) -> int:
        return 2 * self.jury_f + 1


# key -> (parse, render), in the order of the fields
_KEYS = {key.name: key.metadata["codec"] for key in fields(SimConfig)}


def apply_override(config: SimConfig, key: str, value: str) -> SimConfig:
    """Return a copy of ``config`` with one key replaced."""
    try:
        parse, _render = _KEYS[key]
    except KeyError:
        raise RejectedInput(f"unknown config key: {key!r}") from None
    try:
        parsed = parse(value)
    except (ValueError, RejectedInput) as exc:
        raise RejectedInput(f"bad value for {key}: {value!r} ({exc})") from None
    # Every key but the float weights and thresholds must be >= 0: the PBFT fault bound f (jury
    # n = 3f + 1), tick counts, the turnover threshold, value amounts and fractions; the audit's
    # economics checks assume it. The int keys lie in ``INTS``, as step arguments do.
    if parse is int and parsed not in INTS:
        raise RejectedInput(f"bad value for {key}: {value!r} (must be in [0, 2**63))")
    if parse is not finite_float and parsed < 0:
        raise RejectedInput(f"bad value for {key}: {value!r} (must be >= 0)")
    return replace(config, **{key: parsed})


def load_config(path: str | Path) -> SimConfig:
    """Load overrides of the defaults from a flat ``key = value`` file (# starts a comment)."""
    config = SimConfig()
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        else:
            key, _, value = line.partition(" ")
        config = apply_override(config, key.strip(), value.strip())
    return config


def config_payload(config: SimConfig) -> dict[str, str]:
    """Canonical string rendering of every effective key, for the genesis event."""
    return {key: render(getattr(config, key)) for key, (_parse, render) in _KEYS.items()}


def config_from_payload(payload: dict[str, str]) -> SimConfig:
    config = SimConfig()
    for key, value in payload.items():
        config = apply_override(config, key, value)
    return config
