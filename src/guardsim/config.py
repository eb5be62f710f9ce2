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
class RiskConfig:
    """Thresholds for the rule filters and the verdict mapping."""

    beta_underprice: Fraction = Fraction(1, 2)  # R1: price < beta * floor
    turnover_threshold: int = 3                 # R2: transfers in window >= T
    window_ticks: int = 86400                   # recency window for R2 and R5
    credit_threshold: float = 20.0              # R3: recipient credit below this
    p_hacked: float = 0.9                       # model score escalating to hacked
    p_suspect: float = 0.6                      # model score escalating to may_lost
    credit_w_portfolio: float = 10.0
    credit_w_age: float = 2.0
    credit_w_flag: float = 1.0


@dataclass(frozen=True)
class JuryConfig:
    """Arbitration economics; jury size and quorum derive from ``tolerated_faulty``."""

    tolerated_faulty: int = 1
    juror_reward: int = to_units("0.01")
    gas_fee: int = to_units("0.001")
    deposit_rate: Fraction = Fraction(1, 20)
    deposit_min: int = to_units("0.01")

    @property
    def jury_size(self) -> int:
        return 3 * self.tolerated_faulty + 1

    @property
    def quorum(self) -> int:
        return 2 * self.tolerated_faulty + 1


@dataclass(frozen=True)
class SimConfig:
    freeze_ticks: int = 7200
    risk: RiskConfig = RiskConfig()
    jury: JuryConfig = JuryConfig()


# flat key -> (section, field, parse, render)
_INT = (int, str)
_FLOAT = (float, repr)
_FRAC = (parse_fraction, fmt_fraction)
_UNITS = (to_units, fmt_units)

_KEYS = {
    "freeze_ticks": (None, "freeze_ticks", *_INT),
    "beta_underprice": ("risk", "beta_underprice", *_FRAC),
    "turnover_threshold": ("risk", "turnover_threshold", *_INT),
    "window_ticks": ("risk", "window_ticks", *_INT),
    "credit_threshold": ("risk", "credit_threshold", *_FLOAT),
    "p_hacked": ("risk", "p_hacked", *_FLOAT),
    "p_suspect": ("risk", "p_suspect", *_FLOAT),
    "credit_w_portfolio": ("risk", "credit_w_portfolio", *_FLOAT),
    "credit_w_age": ("risk", "credit_w_age", *_FLOAT),
    "credit_w_flag": ("risk", "credit_w_flag", *_FLOAT),
    "jury_f": ("jury", "tolerated_faulty", *_INT),
    "juror_reward": ("jury", "juror_reward", *_UNITS),
    "gas_fee": ("jury", "gas_fee", *_UNITS),
    "deposit_rate": ("jury", "deposit_rate", *_FRAC),
    "deposit_min": ("jury", "deposit_min", *_UNITS),
}


def apply_override(config: SimConfig, key: str, value: str) -> SimConfig:
    """Return a copy of ``config`` with one flat key replaced."""
    try:
        section, field, parse, _render = _KEYS[key]
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
    if section is None:
        return replace(config, **{field: parsed})
    return replace(config, **{section: replace(getattr(config, section), **{field: parsed})})


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
    out: dict[str, str] = {}
    for key, (section, field, _parse, render) in _KEYS.items():
        holder = config if section is None else getattr(config, section)
        out[key] = render(getattr(holder, field))
    return out


def config_from_payload(payload: dict[str, str]) -> SimConfig:
    config = SimConfig()
    for key, value in payload.items():
        config = apply_override(config, key, value)
    return config
