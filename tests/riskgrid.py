"""Shared helpers: a full-scan stub chain view and the brute-force rule-text oracle.

The oracle transcribes the documented filter rules directly from raw grid
parameters, independent of the feature-extraction path it is checking.
"""

import math
from dataclasses import dataclass, field

from guardsim.ledger import Account
from guardsim.token import TokenRecord, TokenState
from guardsim.units import to_units

from conftest import risk_request


@dataclass
class StubView:
    """Chain reads over plain dicts, with the floor and portfolio as full scans.

    The scans are the reference the token contract's indexes are tested against.
    """

    now: int
    tokens_by_id: dict = field(default_factory=dict)
    accounts_by_addr: dict = field(default_factory=dict)

    def token(self, token_id):
        return self.tokens_by_id[token_id]

    def account(self, address):
        return self.accounts_by_addr[address]

    def collection_floor(self):
        """Lowest nonzero last sale price, or None: one pass over every token."""
        prices = [t.last_sale_price for t in self.tokens_by_id.values() if t.last_sale_price]
        return min(prices, default=None)

    def portfolio_value(self, address):
        """Sum of the last sale prices of the tokens ``address`` owns: one pass over every token."""
        return sum(t.last_sale_price or 0 for t in self.tokens_by_id.values() if t.owner == address)


GRID_NOW = 200_000
_AGED_TICKS = 1023  # credit 2 * log2(1024) = 20.0, exactly at the threshold


def grid_points():
    """All 2,080 transfer configurations of the equivalence grid."""
    for price in range(13):
        for floor in (None, 10):
            for turnover in range(5):
                for sender_flagged in (False, True):
                    for recipient_flagged in (False, True):
                        for aged_recipient in (False, True):
                            for prior_abnormal in (False, True):
                                yield (
                                    price,
                                    floor,
                                    turnover,
                                    sender_flagged,
                                    recipient_flagged,
                                    aged_recipient,
                                    prior_abnormal,
                                )


def build_grid_view(price, floor, turnover, sender_flagged, recipient_flagged, aged_recipient, prior_abnormal=False):
    """Realize one grid point as a transfer's risk request, its price and a stub snapshot."""
    sender, recipient, bystander = "0xS", "0xR", "0xF"
    created_recipient = GRID_NOW - (_AGED_TICKS if aged_recipient else 0)
    accounts = {
        sender: Account(sender, 0, explorer_flagged=sender_flagged, created_at=GRID_NOW),
        recipient: Account(recipient, 0, explorer_flagged=recipient_flagged, created_at=created_recipient),
    }
    # gifts (price 0) provide turnover without creating a floor
    provenance = [GRID_NOW - 1] * turnover
    abnormal = [GRID_NOW - 1] if prior_abnormal else []
    tokens = {1: TokenRecord(1, owner=sender, state=TokenState.OK, provenance=provenance, abnormal_times=abnormal)}
    if floor is not None:
        tokens[2] = TokenRecord(2, owner=bystander, last_sale_price=to_units(floor))
    view = StubView(GRID_NOW, tokens, accounts)
    return (*risk_request(sender, recipient, to_units(price), GRID_NOW), view)


def oracle_status(price, floor, turnover, sender_flagged, recipient_flagged, aged_recipient, prior_abnormal=False):
    """Direct transcription of the filter rules over raw grid parameters."""
    recipient_credit = 2.0 * math.log2(1 + (_AGED_TICKS if aged_recipient else 0))
    if recipient_flagged:
        recipient_credit -= 100.0
    rules = []
    if price > 0 and floor is not None and price < 0.5 * floor:
        rules.append("R1_UNDERPRICED")
    if turnover >= 3:
        rules.append("R2_HIGH_TURNOVER")
    if recipient_credit < 20.0:
        rules.append("R3_LOW_CREDIT")
    if sender_flagged or recipient_flagged:
        rules.append("R4_FLAGGED_PARTY")
    if prior_abnormal:
        rules.append("R5_PRIOR_ABNORMAL")
    if "R4_FLAGGED_PARTY" in rules:
        return "hacked", rules
    if rules:
        return "may_lost", rules
    return "safe", rules
