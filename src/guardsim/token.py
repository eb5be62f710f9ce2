"""Supervised token contract: ownership, approvals and the OK/LOCKED/RECLAIMED machine.

The states are the plain ``str`` constants of ``TokenState``, not an Enum, so
payloads and ``state_line`` hold a token's state as it is. State rules enforced here:
  - OK is the only state that can transfer or approve, and only when any
    freeze deadline has passed (expiry is inclusive: now >= frozen_until).
  - Every received transfer lands LOCKED; mint is not a receipt and lands OK.
  - LOCKED/RECLAIMED transitions happen only through the oracle bridge, which
    calls ``apply_dispatch``: the one entry that applies a dispatched action
    and logs the effect event ``EFFECT_KINDS`` names for it.
  - RECLAIMED tokens belong to the treasury and leave that state only through
    a verdict return.

The contract also serves the chain reads the risk engine and arbitration need
(time, tokens, accounts, the collection floor and per-owner portfolio values).
The floor and the portfolios are indexes kept exact at the only places that
change a token's owner or last sale price, so each read costs O(1) or
amortized O(log T) instead of a scan over all T tokens.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field

from .errors import Refused, RejectedInput
from .ledger import Account, Address, Ledger
from .risk import RiskVerdict, SAFE, TransferIntent
from .units import fmt_units


# dispatched action -> the effect event ``apply_dispatch`` logs for it
EFFECT_KINDS = {
    "lock": "Locked",
    "unlock": "Unlocked",
    "freeze": "Frozen",
    "unfreeze": "Unfrozen",
    "reclaim": "Reclaimed",
    "return": "Returned",
}


class TokenState:
    OK = "OK"
    LOCKED = "LOCKED"
    RECLAIMED = "RECLAIMED"


@dataclass
class TokenRecord:
    token_id: int
    owner: Address
    state: str = TokenState.OK
    approved: Address | None = None
    frozen_until: int | None = None
    provenance: list[int] = field(default_factory=list)  # the tick of each sale
    abnormal_times: list[int] = field(default_factory=list)
    last_sale_price: int | None = None
    pre_reclaim_owner: Address | None = None


class TokenContract:
    def __init__(self, ledger: Ledger, treasury: Address):
        self.ledger = ledger
        self.treasury = treasury
        self.tokens: dict[int, TokenRecord] = {}
        self.operator_approvals: dict[tuple[Address, Address], bool] = {}
        # indexes over every token's owner and last sale price; see _move
        self._portfolio: dict[Address, int] = {}  # owner -> sum of its tokens' last sale prices
        self._price_count: dict[int, int] = {}  # nonzero last sale price -> tokens at that price
        self._price_heap: list[int] = []  # min-heap over _price_count; stale entries dropped lazily
        self._bridge = lambda: None  # a weakref.ref once bound; see bind_bridge

    def bind_bridge(self, bridge) -> None:
        """Link to the oracle bridge without owning it: the bridge holds the contract, so a strong
        link back would be a reference cycle. Once the bridge is gone, bridge-only calls are refused with NotOracle."""
        self._bridge = weakref.ref(bridge)

    def _oracle(self):
        bridge = self._bridge()
        if bridge is None:
            raise Refused("NotOracle", "the oracle bridge is gone")
        return bridge

    # -- reads ---------------------------------------------------------------

    @property
    def now(self) -> int:
        return self.ledger.time

    def account(self, address: Address) -> Account:
        return self.ledger.account(address)

    def portfolio_value(self, address: Address) -> int:
        """Exact sum of the last sale prices of the tokens ``address`` owns."""
        return self._portfolio.get(address, 0)

    def collection_floor(self) -> int | None:
        """Lowest nonzero last sale price across the collection, or None if nothing sold."""
        heap, count = self._price_heap, self._price_count
        while heap and heap[0] not in count:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def token(self, token_id: int) -> TokenRecord:
        try:
            return self.tokens[token_id]
        except KeyError:
            raise Refused("UnknownToken", str(token_id)) from None

    def is_operator(self, owner: Address, operator: Address) -> bool:
        return self.operator_approvals.get((owner, operator), False)

    def transfer_guard(self, token_id: int, caller: Address) -> str | None:
        """Pure legality check: the refusal code, or None if ``caller`` may move the token."""
        token = self.token(token_id)
        if token.state is TokenState.LOCKED:
            return "Locked"
        if token.state is TokenState.RECLAIMED:
            return "Reclaimed"
        if token.frozen_until is not None and self.ledger.time < token.frozen_until:
            return "Frozen"
        authorized = (
            caller == token.owner
            or caller == token.approved
            or self.is_operator(token.owner, caller)
        )
        if not authorized:
            return "NotAuthorized"
        return None

    def state_line(self, token_id: int) -> str:
        token = self.token(token_id)
        frozen = "-" if token.frozen_until is None else str(token.frozen_until)
        return f"token={token.token_id} owner={token.owner} state={token.state} frozen_until={frozen}"

    # -- user entry points -----------------------------------------------------

    def mint(self, to_addr: Address, token_id: int) -> None:
        if token_id <= 0:
            raise RejectedInput("token id must be positive")
        if token_id in self.tokens:
            raise Refused("AlreadyMinted", str(token_id))
        self.ledger.account(to_addr)
        self.tokens[token_id] = TokenRecord(token_id=token_id, owner=to_addr)
        self.ledger.append_event("Minted", {"token_id": token_id, "to": to_addr})

    def approve(self, caller: Address, to_addr: Address, token_id: int) -> None:
        refusal = self.transfer_guard(token_id, caller)
        if refusal is not None:
            raise Refused(refusal)
        self.ledger.account(to_addr)
        token = self.token(token_id)
        # EIP-721: only the owner or an operator of the owner may approve, not an approved address
        if caller != token.owner and not self.is_operator(token.owner, caller):
            raise Refused("NotAuthorized")
        token.approved = to_addr
        self.ledger.append_event("Approval", {"token_id": token_id, "owner": token.owner, "approved": to_addr})

    def set_approval_for_all(self, caller: Address, operator: Address, approved: bool) -> None:
        self.ledger.account(caller)
        flagged = self.ledger.account(operator).explorer_flagged
        if approved and (flagged or operator in self._oracle().engine.phishing_operators):
            self.ledger.append_event(
                "SupervisionBlocked", {"owner": caller, "operator": operator, "reason": "PhishingOperatorBlocked"}
            )
            raise Refused("PhishingOperatorBlocked", operator)
        self.operator_approvals[(caller, operator)] = approved
        self.ledger.append_event("ApprovalForAll", {"owner": caller, "operator": operator, "approved": approved})

    def transfer_from(
        self, caller: Address, from_addr: Address, to_addr: Address, token_id: int, price: int, *, safe_variant: bool = False
    ) -> RiskVerdict:
        """Propose a transfer; the synchronous risk verdict decides what happens.

        safe -> ownership moves and the token arrives LOCKED; may_lost -> the
        token stays put and is frozen; hacked -> the token is reclaimed to the
        treasury and a theft case opens. ``safe_variant`` (the SAFE_TRANSFER verb)
        logs the move as SafeTransfer; no receiver hook is called.
        """
        if price < 0:
            raise RejectedInput("price must be >= 0")
        token = self.token(token_id)
        guard_state = token.state
        guard_frozen = token.frozen_until is not None and self.ledger.time < token.frozen_until
        refusal = self.transfer_guard(token_id, caller)
        if refusal is not None:
            raise Refused(refusal)
        if token.owner != from_addr:
            raise Refused("NotOwner", from_addr)
        self.ledger.account(to_addr)
        intent = TransferIntent(caller, from_addr, to_addr, token_id, price, self.ledger.time)
        request_id, verdict = self._oracle().request_risk_check(intent)
        if verdict.status == SAFE:
            self._move(token, to_addr, price)
            token.state = TokenState.LOCKED
            token.approved = None
            token.frozen_until = None
            token.provenance.append(self.ledger.time)
            self.ledger.append_event(
                "SafeTransfer" if safe_variant else "Transfer",
                {
                    "token_id": token_id,
                    "from": from_addr,
                    "to": to_addr,
                    "price": fmt_units(price),
                    "caller": caller,
                    "request_id": request_id,
                    "guard_state": guard_state,
                    "guard_frozen": guard_frozen,
                    "new_state": token.state,
                    "new_owner": token.owner,
                },
            )
        return verdict

    # -- bridge-only entry points ---------------------------------------------

    def _require_bridge(self, by) -> None:
        if by is None or by is not self._bridge():
            raise Refused("NotOracle", "token state transitions require the oracle bridge")

    def check_dispatch(self, action: str, token_id: int, to: Address | None = None) -> TokenRecord:
        """Raise what the bridge-only ``action`` on ``token_id`` would raise; mutates nothing.

        The bridge runs this before it logs a dispatch, so a dispatch that is
        logged always takes effect. ``apply_dispatch`` runs it again first.
        """
        token = self.token(token_id)
        state = token.state
        if action in ("lock", "unlock") and state is TokenState.RECLAIMED:
            raise Refused("ReclaimedImmutable", str(token_id))
        if action == "unlock" and state is not TokenState.LOCKED:
            raise Refused("NotLocked", str(token_id))
        if action == "freeze" and state is not TokenState.OK:
            raise Refused("InvalidTokenState", "freeze applies to OK tokens only")
        if action == "reclaim" and state is TokenState.RECLAIMED:
            raise Refused("AlreadyReclaimed", str(token_id))
        if action == "return":
            if state is not TokenState.RECLAIMED:
                raise Refused("NotInArbitration", str(token_id))
            self.ledger.account(to)
        return token

    def _move(self, token: TokenRecord, owner: Address, sale_price: int = 0) -> None:
        """Give ``token`` to ``owner`` and record a nonzero ``sale_price`` as its last
        sale, keeping the portfolio and floor indexes exact.

        Every change of owner or last sale price goes through here. Mint needs
        no call: a new token has no sale price, so it adds nothing to either index.
        """
        old = token.last_sale_price or 0
        new = sale_price or old
        portfolio = self._portfolio
        if old:
            portfolio[token.owner] -= old
        if new:
            portfolio[owner] = portfolio.get(owner, 0) + new
        if new != old:
            count = self._price_count
            if old:
                count[old] -= 1
                if not count[old]:
                    del count[old]
            if new not in count:
                count[new] = 0
                heapq.heappush(self._price_heap, new)
            count[new] += 1
            token.last_sale_price = new
        token.owner = owner

    def apply_dispatch(
        self, action: str, token_id: int, *, by=None, until: int | None = None, to: Address | None = None
    ) -> None:
        """Apply the effect of the dispatched ``action`` and log its effect event.

        The one bridge-only way to change a token's supervision state. The
        bridge logs the dispatch first; the precondition is checked again here,
        before anything changes.
        """
        self._require_bridge(by)
        kind = EFFECT_KINDS.get(action)
        if kind is None:
            raise Refused("NotOracle", f"no effect for action {action!r}")
        token = self.check_dispatch(action, token_id, to)
        payload = {"token_id": token_id}
        if action == "lock":
            payload["previous_state"] = token.state
            token.state = TokenState.LOCKED
            token.frozen_until = None
        elif action == "unlock":
            token.state = TokenState.OK
        elif action == "freeze":
            token.frozen_until = payload["until"] = until
        elif action == "unfreeze":
            token.frozen_until = None
        elif action == "reclaim":
            token.pre_reclaim_owner = payload["prior_owner"] = token.owner
            self._move(token, self.treasury)
            token.state = TokenState.RECLAIMED
        else:  # return
            self._move(token, to)
            token.state = TokenState.LOCKED
            payload["to"] = to
            payload["new_state"] = token.state
        if action in ("reclaim", "return"):  # a token that changes hands keeps no approval or freeze
            token.approved = None
            token.frozen_until = None
        self.ledger.append_event(kind, payload)

    def mark_abnormal(self, token_id: int, *, by=None) -> None:
        self._require_bridge(by)
        self.token(token_id).abnormal_times.append(self.ledger.time)
