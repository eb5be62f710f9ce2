"""Rule-based risk engine for proposed token transfers.

Every proposed transfer is reduced to a deterministic feature vector drawn
from the chain snapshot, run through five rule filters plus a table-driven
model score, and mapped to one of three verdicts: safe, may_lost, hacked.
The vector is an immutable ``FeatureVector`` built once, with the score that
the engine's (sender, recipient) table gives the transfer as its last field.

The whole pipeline is a pure function of (intent, snapshot, config), and the
feature vector is logged with each verdict so that any verdict in any log can
be recomputed offline, bit for bit, via `classify_payload`.

Rule table:
    R1_UNDERPRICED   weak    declared price below beta * collection floor
    R2_HIGH_TURNOVER weak    token changed hands too often inside the window
    R3_LOW_CREDIT    weak    recipient credit score under the threshold
    R4_FLAGGED_PARTY strong  sender or recipient carries an explorer flag
    R5_PRIOR_ABNORMAL weak   token drew an abnormal verdict inside the window

Verdict mapping: any strong hit or model score >= p_hacked -> hacked;
otherwise any weak hit or model score >= p_suspect -> may_lost; else safe.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .config import RiskConfig
from .ledger import Address
from .units import UNIT, fmt_fraction, fmt_units, parse_fraction

if TYPE_CHECKING:
    from .token import TokenContract

SAFE = "safe"
MAY_LOST = "may_lost"
HACKED = "hacked"

R1_UNDERPRICED = "R1_UNDERPRICED"
R2_HIGH_TURNOVER = "R2_HIGH_TURNOVER"
R3_LOW_CREDIT = "R3_LOW_CREDIT"
R4_FLAGGED_PARTY = "R4_FLAGGED_PARTY"
R5_PRIOR_ABNORMAL = "R5_PRIOR_ABNORMAL"

WEAK = "weak"
STRONG = "strong"

class TransferIntent(NamedTuple):
    """Immutable snapshot of one proposed transfer awaiting evaluation."""

    caller: Address
    from_addr: Address
    to_addr: Address
    token_id: int
    price: int  # sub-units; 0 means gift
    time: int


class RuleHit(NamedTuple):
    rule_id: str
    severity: str
    detail: str

    def to_payload(self) -> dict:
        return {"rule": self.rule_id, "severity": self.severity, "detail": self.detail}


class FeatureVector(NamedTuple):
    """Everything the verdict depends on, in offline-recomputable form; built once, with its model score."""

    sender: Address
    recipient: Address
    price: int
    floor: int | None
    price_ratio: Fraction | None  # None when price is 0 or no floor exists
    turnover_count: int
    sender_credit: float
    recipient_credit: float
    sender_flagged: bool
    recipient_flagged: bool
    token_state: str
    prior_abnormal: bool
    model_score: float

    def to_payload(self) -> dict:
        sender, recipient, price, floor, ratio, turnover, s_credit, r_credit, s_flag, r_flag, state, abnormal, model = self
        return {
            "sender": sender,
            "recipient": recipient,
            "price": fmt_units(price),
            "floor": None if floor is None else fmt_units(floor),
            "price_ratio": None if ratio is None else fmt_fraction(ratio),
            "turnover_count": turnover,
            "sender_credit": repr(s_credit),
            "recipient_credit": repr(r_credit),
            "sender_flagged": s_flag,
            "recipient_flagged": r_flag,
            "token_state": state,
            "prior_abnormal": abnormal,
            "model_score": repr(model),
        }


class RiskVerdict(NamedTuple):
    status: str
    hits: tuple[RuleHit, ...]
    features: FeatureVector


# -- feature extraction ------------------------------------------------------
#
# ``chain`` is the chain snapshot, read through the token contract: ``now``,
# ``token(id)``, ``account(address)``, ``collection_floor()`` and
# ``portfolio_value(address)``. The last two are indexes the contract keeps up
# to date, so no feature reads more than the token and the two accounts.


def collection_floor(chain: TokenContract) -> int | None:
    """Lowest nonzero last-sale price across the collection, or None if nothing sold."""
    return chain.collection_floor()


def credit_score(address: Address, chain: TokenContract, config: RiskConfig) -> float:
    """Wealth-and-age credit heuristic with a heavy penalty for flagged accounts.

    score = w_portfolio * log2(1 + portfolio value)
          + w_age * log2(1 + account age in ticks)
          - w_flag * 100 if explorer-flagged
    """
    account = chain.account(address)
    portfolio_units = chain.portfolio_value(address)
    age = chain.now - account.created_at
    score = config.credit_w_portfolio * math.log2(1 + portfolio_units / UNIT)
    score += config.credit_w_age * math.log2(1 + age)
    if account.explorer_flagged:
        score -= config.credit_w_flag * 100.0
    return score


def extract_features(
    intent: TransferIntent, chain: TokenContract, config: RiskConfig, model_score: float
) -> FeatureVector:
    horizon = chain.now - config.window_ticks  # a sale or an abnormal mark counts while its tick is after it
    token = chain.token(intent.token_id)
    floor = collection_floor(chain)
    price = intent.price
    turnover = 0
    for tick in reversed(token.provenance):
        if tick <= horizon:
            break
        turnover += 1
    abnormal = token.abnormal_times
    return FeatureVector(
        intent.from_addr,
        intent.to_addr,
        price,
        floor,
        Fraction(price, floor) if price > 0 and floor else None,
        turnover,
        credit_score(intent.from_addr, chain, config),
        credit_score(intent.to_addr, chain, config),
        chain.account(intent.from_addr).explorer_flagged,
        chain.account(intent.to_addr).explorer_flagged,
        token.state,
        bool(abnormal) and any(t > horizon for t in abnormal),
        model_score,
    )


# -- rules and verdict mapping -------------------------------------------------


def rule_hits(features: FeatureVector, config: RiskConfig) -> tuple[RuleHit, ...]:
    hits: list[RuleHit] = []
    ratio, beta = features.price_ratio, config.beta_underprice
    if ratio is not None and ratio.numerator * beta.denominator < beta.numerator * ratio.denominator:
        hits.append(RuleHit(R1_UNDERPRICED, WEAK, f"price ratio {fmt_fraction(ratio)}"))
    if features.turnover_count >= config.turnover_threshold:
        hits.append(RuleHit(R2_HIGH_TURNOVER, WEAK, f"{features.turnover_count} transfers in window"))
    if features.recipient_credit < config.credit_threshold:
        hits.append(RuleHit(R3_LOW_CREDIT, WEAK, f"recipient credit {features.recipient_credit:.2f}"))
    if features.sender_flagged or features.recipient_flagged:
        side = "sender" if features.sender_flagged else "recipient"
        hits.append(RuleHit(R4_FLAGGED_PARTY, STRONG, f"{side} explorer-flagged"))
    if features.prior_abnormal:
        hits.append(RuleHit(R5_PRIOR_ABNORMAL, WEAK, "abnormal verdict in window"))
    return tuple(hits)


def classify(hits: tuple[RuleHit, ...], model_score: float, config: RiskConfig) -> str:
    if model_score >= config.p_hacked or (hits and any(h.severity == STRONG for h in hits)):
        return HACKED
    if model_score >= config.p_suspect or hits:
        return MAY_LOST
    return SAFE


def classify_payload(features_payload: dict, config: RiskConfig) -> tuple[str, list[str]]:
    """Recompute (status, rule ids) from a logged feature payload; exact."""
    ratio_text = features_payload["price_ratio"]
    features = FeatureVector(
        sender=features_payload["sender"],
        recipient=features_payload["recipient"],
        price=0,
        floor=None,
        price_ratio=None if ratio_text is None else parse_fraction(ratio_text),
        turnover_count=features_payload["turnover_count"],
        sender_credit=float(features_payload["sender_credit"]),
        recipient_credit=float(features_payload["recipient_credit"]),
        sender_flagged=features_payload["sender_flagged"],
        recipient_flagged=features_payload["recipient_flagged"],
        token_state=features_payload["token_state"],
        prior_abnormal=features_payload["prior_abnormal"],
        model_score=float(features_payload["model_score"]),
    )
    hits = rule_hits(features, config)
    return classify(hits, features.model_score, config), [h.rule_id for h in hits]


# -- scoring model -------------------------------------------------------------


class RiskEngine:
    """Bundles config, the model's score table and the phishing-operator list.

    ``model`` maps (sender, recipient) to a score, with '*' as a wildcard on
    either side; ``phishing_operators`` is the set of listed operators.
    """

    def __init__(self, config: RiskConfig):
        self.config = config
        self.model: dict[tuple[str, str], float] = {}
        self.phishing_operators: set[Address] = set()

    def model_score(self, sender: Address, recipient: Address) -> float:
        """The table's score for the pair: exact, then sender, then recipient, then both wildcards; else 0."""
        model = self.model
        if not model:
            return 0.0
        for key in ((sender, recipient), (sender, "*"), ("*", recipient), ("*", "*")):
            if key in model:
                return model[key]
        return 0.0

    def evaluate(self, intent: TransferIntent, chain: TokenContract) -> RiskVerdict:
        features = extract_features(intent, chain, self.config, self.model_score(intent.from_addr, intent.to_addr))
        hits = rule_hits(features, self.config)
        return RiskVerdict(classify(hits, features.model_score, self.config), hits, features)
