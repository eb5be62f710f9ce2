"""Oracle bridge: the request/fulfill seam between the token contract and
everything off-contract, and the only component allowed to drive token state
transitions.

The bridge fulfills each request synchronously within the same ledger step,
but still logs the RiskRequested / RiskFulfilled pair so the on-chain message
trace survives in the event log. The bridge holds only pending requests.

Access control (``dac``), risk management (``drm``) and arbitration (``das``)
change a token's supervision state only through ``privileged_dispatch``: the
origin table below says which actions each may ask for, and an allowed action
is logged as an OracleDispatch and handed to the contract's one effect entry,
``TokenContract.apply_dispatch``.
"""

from __future__ import annotations

import weakref

from .errors import Refused
from .ledger import Ledger
from .risk import HACKED, MAY_LOST, RiskEngine, RiskVerdict, TransferIntent
from .units import fmt_units

_ALLOWED_DISPATCH = {
    "dac": {"lock", "unlock"},
    "drm": {"reclaim", "freeze"},
    "das": {"return", "reclaim", "freeze", "unfreeze"},
}


class OracleBridge:
    def __init__(self, ledger: Ledger, contract, engine: RiskEngine):
        self.ledger = ledger
        self.contract = contract
        self.engine = engine
        self._arbitration = lambda: None  # a weakref.ref once attached; see attach_arbitration
        self._pending: dict[int, TransferIntent] = {}
        self._next_request_id = 1

    def attach_arbitration(self, arbitration) -> None:
        """Link the bridge to arbitration without owning it: arbitration holds the bridge,
        so a strong link back would be a reference cycle."""
        self._arbitration = weakref.ref(arbitration)

    def request_risk_check(self, intent: TransferIntent) -> tuple[int, RiskVerdict]:
        request_id = self._next_request_id
        self._next_request_id += 1
        self._pending[request_id] = intent
        self.ledger.append_event(
            "RiskRequested",
            {
                "request_id": request_id,
                "caller": intent.caller,
                "from": intent.from_addr,
                "to": intent.to_addr,
                "token_id": intent.token_id,
                "price": fmt_units(intent.price),
                "time": intent.time,
            },
        )
        verdict = self.engine.evaluate(intent, self.contract)
        self.fulfill(request_id, verdict)
        return request_id, verdict

    def fulfill(self, request_id: int, verdict: RiskVerdict) -> None:
        intent = self._pending.pop(request_id, None)
        if intent is None:
            raise Refused("InvalidRequest", str(request_id))
        self.ledger.append_event(
            "RiskFulfilled",
            {
                "request_id": request_id,
                "status": verdict.status,
                "hits": verdict.hits,
                "features": verdict.features,
            },
        )
        if verdict.status == MAY_LOST:
            self.contract.mark_abnormal(intent.token_id, by=self)
            until = self.ledger.time + self.engine.config.freeze_ticks
            self.privileged_dispatch("freeze", origin="drm", token_id=intent.token_id, until=until)
        elif verdict.status == HACKED:
            self.contract.mark_abnormal(intent.token_id, by=self)
            self.privileged_dispatch("reclaim", origin="drm", token_id=intent.token_id)
            arbitration = self._arbitration()
            if arbitration is not None:
                arbitration.open_auto_case(intent.token_id, reporter=intent.from_addr)

    def privileged_dispatch(self, action: str, *, origin: str, token_id: int, **kwargs) -> None:
        """Route one protected contract call; any other origin is rejected.

        The call's precondition is checked before the dispatch is logged, so
        every logged dispatch is immediately followed by its effect event.
        """
        if origin not in _ALLOWED_DISPATCH or action not in _ALLOWED_DISPATCH[origin]:
            raise Refused("NotOracle", f"{origin!r} may not dispatch {action!r}")
        self.contract.check_dispatch(action, token_id, kwargs.get("to"))
        payload = {"action": action, "origin": origin, "token_id": token_id, **kwargs}
        self.ledger.append_event("OracleDispatch", payload)
        self.contract.apply_dispatch(action, token_id, by=self, **kwargs)
