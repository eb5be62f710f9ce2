"""Run configuration: every threshold the protocol needs, with logged defaults.

The effective configuration is written into the genesis event of each run, so
any log is self-describing and replayable without the original config file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from .errors import RejectedInput
from .ledger import INTS
from .units import fmt_fraction, fmt_units, parse_fraction, to_units


@dataclass(frozen=True)
class SimConfig:
    """Every threshold a run uses, one field per key of the Genesis event's ``config``."""

    freeze_ticks: int = 7200
    beta_underprice: Fraction = Fraction(1, 2)  # R1: price < beta * floor
    turnover_threshold: int = 3                 # R2: transfers in window >= T
    window_ticks: int = 86400                   # recency window for R2 and R5
    credit_threshold: float = 20.0              # R3: recipient credit below this
    p_hacked: float = 0.9                       # model score escalating to hacked
    p_suspect: float = 0.6                      # model score escalating to may_lost
    credit_w_portfolio: float = 10.0
    credit_w_age: float = 2.0
    credit_w_flag: float = 1.0
    jury_f: int = 1                             # PBFT fault bound f; jury size and quorum derive from it
    juror_reward: int = to_units("0.01")
    gas_fee: int = to_units("0.001")
    deposit_rate: Fraction = Fraction(1, 20)
    deposit_min: int = to_units("0.01")

    @property
    def jury_size(self) -> int:
        return 3 * self.jury_f + 1

    @property
    def quorum(self) -> int:
        return 2 * self.jury_f + 1


# key -> (parse, render), in the order of the dataclass fields
_INT = (int, str)
_FLOAT = (float, repr)
_FRAC = (parse_fraction, fmt_fraction)
_UNITS = (to_units, fmt_units)

_KEYS = {
    "freeze_ticks": _INT,
    "beta_underprice": _FRAC,
    "turnover_threshold": _INT,
    "window_ticks": _INT,
    "credit_threshold": _FLOAT,
    "p_hacked": _FLOAT,
    "p_suspect": _FLOAT,
    "credit_w_portfolio": _FLOAT,
    "credit_w_age": _FLOAT,
    "credit_w_flag": _FLOAT,
    "jury_f": _INT,
    "juror_reward": _UNITS,
    "gas_fee": _UNITS,
    "deposit_rate": _FRAC,
    "deposit_min": _UNITS,
}


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
    # economics checks assume it. The int keys lie in ``ledger.INTS``, as step arguments do.
    if parse is int and parsed not in INTS:
        raise RejectedInput(f"bad value for {key}: {value!r} (must be in [0, 2**63))")
    if parse is not float and parsed < 0:
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
