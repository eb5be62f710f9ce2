"""Rule-based risk engine for proposed token transfers.

Every proposed transfer arrives as the ``RiskRequested`` payload the oracle
bridge logs for it, with its price in sub-units. It is reduced to a
deterministic feature payload read from that request and the chain snapshot,
run through five rule filters plus a table-driven model score, and mapped to
one of three verdicts: safe, may_lost, hacked. The feature payload takes the
sender, the recipient and the rendered price from the request, so the price
is rendered once, by the bridge. It is the exact dict that ``RiskFulfilled``
logs: amounts in the canonical decimal form, R1's price ratio as a reduced
``p/q``, and the two credits and the model score as ``repr`` of their floats,
which parse back to the same floats.

The rules read that payload and nothing else, so the live verdict and the
offline recompute of any logged verdict (`classify_payload`) run the same
two functions, `rule_hits` and `classify`, on the same values.

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
from typing import TYPE_CHECKING, NamedTuple

from .config import SimConfig
from .ledger import Address
from .units import UNIT, fmt_units

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

class RiskVerdict(NamedTuple):
    status: str
    hits: list[dict]  # the hits RiskFulfilled logs
    features: dict  # the payload RiskFulfilled logs


# -- feature extraction ------------------------------------------------------
#
# ``chain`` is the chain snapshot, read through the token contract: ``now``,
# ``token(id)``, ``account(address)``, ``collection_floor()`` and
# ``portfolio_value(address)``. The last two are indexes the contract keeps up
# to date, so no feature reads more than the token and the two accounts.


def collection_floor(chain: TokenContract) -> int | None:
    """Lowest nonzero last-sale price across the collection, or None if nothing sold."""
    return chain.collection_floor()


def credit_score(address: Address, chain: TokenContract, config: SimConfig) -> float:
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


def extract_features(request: dict, price: int, chain: TokenContract, config: SimConfig, model_score: float) -> dict:
    """The transfer's feature payload, as ``RiskFulfilled`` logs it. ``request`` is the transfer's
    ``RiskRequested`` payload and ``price`` its price in sub-units (0 for a gift)."""
    horizon = chain.now - config.window_ticks  # a sale or an abnormal mark counts while its tick is after it
    sender, recipient = request["from"], request["to"]
    token = chain.token(request["token_id"])
    floor = collection_floor(chain)
    g = math.gcd(price, floor or 0)  # R1's ratio is undefined for a gift or before the first sale
    turnover = 0
    for tick in reversed(token.provenance):
        if tick <= horizon:
            break
        turnover += 1
    abnormal = token.abnormal_times
    return {
        "sender": sender,
        "recipient": recipient,
        "price": request["price"],
        "floor": None if floor is None else fmt_units(floor),
        "price_ratio": f"{price // g}/{floor // g}" if price > 0 and floor else None,
        "turnover_count": turnover,
        "sender_credit": repr(credit_score(sender, chain, config)),
        "recipient_credit": repr(credit_score(recipient, chain, config)),
        "sender_flagged": chain.account(sender).explorer_flagged,
        "recipient_flagged": chain.account(recipient).explorer_flagged,
        "token_state": token.state,
        "prior_abnormal": bool(abnormal) and any(t > horizon for t in abnormal),
        "model_score": repr(model_score),
    }


# -- rules and verdict mapping -------------------------------------------------


def rule_hits(features: dict, config: SimConfig) -> list[dict]:
    """The rules' hits on a feature payload, as ``RiskFulfilled`` logs them: ``{"rule", "severity",
    "detail"}`` dicts. A ratio other than ASCII ``digits/digits`` over a nonzero denominator, or a
    credit that is not a float, raises ValueError."""
    hits: list[dict] = []
    ratio, beta = features["price_ratio"], config.beta_underprice
    if ratio is not None:
        p, slash, q = ratio.partition("/")
        if not (slash and p.isdigit() and q.isdigit() and ratio.isascii() and q.strip("0")):  # q > 0
            raise ValueError(f"not a ratio: {ratio!r}")
        if int(p) * beta.denominator < beta.numerator * int(q):
            hits.append({"rule": R1_UNDERPRICED, "severity": WEAK, "detail": f"price ratio {ratio}"})
    turnover = features["turnover_count"]
    if turnover >= config.turnover_threshold:
        hits.append({"rule": R2_HIGH_TURNOVER, "severity": WEAK, "detail": f"{turnover} transfers in window"})
    credit = float(features["recipient_credit"])
    if credit < config.credit_threshold:
        hits.append({"rule": R3_LOW_CREDIT, "severity": WEAK, "detail": f"recipient credit {credit:.2f}"})
    if features["sender_flagged"] or features["recipient_flagged"]:
        side = "sender" if features["sender_flagged"] else "recipient"
        hits.append({"rule": R4_FLAGGED_PARTY, "severity": STRONG, "detail": f"{side} explorer-flagged"})
    if features["prior_abnormal"]:
        hits.append({"rule": R5_PRIOR_ABNORMAL, "severity": WEAK, "detail": "abnormal verdict in window"})
    return hits


def classify(hits: list[dict], model_score: float, config: SimConfig) -> str:
    if model_score >= config.p_hacked or (hits and any(h["severity"] == STRONG for h in hits)):
        return HACKED
    if model_score >= config.p_suspect or hits:
        return MAY_LOST
    return SAFE


def classify_payload(features: dict, config: SimConfig) -> tuple[str, list[str]]:
    """Recompute (status, rule ids) from a logged feature payload; exact.

    A logged score that is not a float raises ValueError, the sender's credit too, though no rule reads it.
    """
    hits = rule_hits(features, config)
    float(features["sender_credit"])
    return classify(hits, float(features["model_score"]), config), [h["rule"] for h in hits]


# -- scoring model -------------------------------------------------------------


class RiskEngine:
    """Bundles config, the model's score table and the phishing-operator list.

    ``model`` maps (sender, recipient) to a score, with '*' as a wildcard on
    either side; ``phishing_operators`` is the set of listed operators.
    """

    def __init__(self, config: SimConfig):
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

    def evaluate(self, request: dict, price: int, chain: TokenContract) -> RiskVerdict:
        """The verdict on the transfer ``request`` (its ``RiskRequested`` payload) at ``price`` sub-units."""
        model_score = self.model_score(request["from"], request["to"])
        features = extract_features(request, price, chain, self.config, model_score)
        hits = rule_hits(features, self.config)
        return RiskVerdict(classify(hits, model_score, self.config), hits, features)
