"""Deposit-backed arbitration with quorum voting by a seeded jury.

A case binds one token: the reporter escrows a value-indexed deposit, both
parties attach evidence digests, and a jury drawn deterministically from the
referee pool votes. The first side to reach quorum (2f+1 of 3f+1) wins; if
every juror votes without a quorum the holder keeps the token (status quo).

Settlement keeps value conservation exact: deposits move through a dedicated
escrow account, forfeited deposits are split among verdict-aligned jurors by
largest remainder, and juror rewards are minted explicitly so the audit can
balance the books to the last sub-unit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .config import SimConfig
from .errors import Refused
from .ledger import Address, Ledger
from .token import TokenContract, TokenState
from .units import fmt_units

FOR_REPORTER = "FOR_REPORTER"
FOR_HOLDER = "FOR_HOLDER"

OPEN = "open"
VOTING = "voting"
CLOSED = "closed"


@dataclass
class QuorumTally:
    """Incremental vote machine: closes the moment either side reaches quorum."""

    quorum: int
    size: int
    votes: dict[Address, str] = field(default_factory=dict)

    def cast(self, juror: Address, vote: str) -> str | None:
        self.votes[juror] = vote
        if self.count(vote) >= self.quorum:
            return vote
        if len(self.votes) == self.size:
            return FOR_HOLDER  # hung jury: status quo
        return None

    def count(self, vote: str) -> int:
        return sum(1 for v in self.votes.values() if v == vote)


@dataclass
class ArbitrationCase:
    case_id: int
    token_id: int
    reporter: Address
    respondent: Address
    deposit: int
    auto_opened: bool
    status: str = OPEN
    evidence: list[tuple[Address, str, int]] = field(default_factory=list)
    jury: list[Address] = field(default_factory=list)
    tally: QuorumTally | None = None
    verdict: str | None = None


def select_jury(pool: list[Address], exclude: set[Address], size: int, seed: int, case_id: int) -> list[Address]:
    """Deterministic sample without replacement, stable across interpreter versions."""
    seen: dict[Address, None] = {}
    for addr in pool:
        if addr not in exclude:
            seen.setdefault(addr)
    eligible = list(seen)
    if len(eligible) < size:
        raise Refused("InsufficientJurors", f"{len(eligible)} eligible, need {size}")

    def key(addr: Address) -> bytes:
        return hashlib.sha256(f"jury|{seed}|{case_id}|{addr}".encode("ascii")).digest()

    return sorted(eligible, key=key)[:size]


class ArbitrationSystem:
    def __init__(
        self,
        ledger: Ledger,
        contract: TokenContract,
        bridge,
        config: SimConfig,
        escrow: Address,
        fee_sink: Address,
    ):
        self.ledger = ledger
        self.contract = contract
        self.bridge = bridge
        self.config = config
        self.escrow = escrow
        self.fee_sink = fee_sink
        self.cases: dict[int, ArbitrationCase] = {}
        self._open_case_by_token: dict[int, int] = {}

    # -- deposits ---------------------------------------------------------------

    def required_deposit(self, token_id: int) -> int:
        """max(deposit_min, rate * estimated value); the estimate is the larger
        of the token's last sale price and the collection floor."""
        token = self.contract.token(token_id)
        floor = self.contract.collection_floor() or 0
        estimate = max(token.last_sale_price or 0, floor)
        rate = self.config.deposit_rate
        return max(self.config.deposit_min, rate.numerator * estimate // rate.denominator)

    # -- case lifecycle -----------------------------------------------------------

    def case(self, case_id: int) -> ArbitrationCase:
        try:
            return self.cases[case_id]
        except KeyError:
            raise Refused("UnknownCase", str(case_id)) from None

    def file_report(self, reporter: Address, token_id: int) -> int:
        token = self.contract.token(token_id)
        if token_id in self._open_case_by_token:
            raise Refused("DuplicateCase", str(token_id))
        deposit = self.required_deposit(token_id)
        self.ledger.transfer_value(reporter, self.escrow, deposit)  # raises before any case state exists
        case_id = self._open_case(token_id, reporter, token.owner, deposit, auto=False)
        if token.state is TokenState.OK:
            until = self.ledger.time + self.config.freeze_ticks
            self.bridge.privileged_dispatch("freeze", origin="das", token_id=token_id, until=until)
        return case_id

    def open_auto_case(self, token_id: int, reporter: Address) -> int:
        """Zero-deposit case opened by the bridge when a transfer scores hacked."""
        if token_id in self._open_case_by_token:
            return self._open_case_by_token[token_id]
        holder = self.contract.token(token_id).owner
        return self._open_case(token_id, reporter, holder, deposit=0, auto=True)

    def _open_case(self, token_id: int, reporter: Address, respondent: Address, deposit: int, auto: bool) -> int:
        case_id = len(self.cases) + 1  # no case is ever dropped
        case = ArbitrationCase(case_id, token_id, reporter, respondent, deposit, auto)
        self.cases[case_id] = case
        self._open_case_by_token[token_id] = case_id
        self.ledger.append_event(
            "CaseOpened",
            {
                "case_id": case_id,
                "token_id": token_id,
                "reporter": reporter,
                "respondent": respondent,
                "deposit": fmt_units(deposit),
                "auto": auto,
                "reporter_balance": fmt_units(self.ledger.account(reporter).balance),
            },
        )
        return case_id

    def submit_evidence(self, case_id: int, party: Address, blob: bytes) -> None:
        case = self.case(case_id)
        if case.status == CLOSED:
            raise Refused("CaseClosed", str(case_id))
        if party not in (case.reporter, case.respondent):
            raise Refused("NotAParty", party)
        digest = hashlib.sha256(blob).hexdigest()
        case.evidence.append((party, digest, self.ledger.time))
        self.ledger.append_event("EvidenceSubmitted", {"case_id": case_id, "party": party, "digest": digest})

    def empanel_jury(self, case_id: int, pool: list[Address], seed: int) -> list[Address]:
        case = self.case(case_id)
        if case.status == CLOSED:
            raise Refused("CaseClosed", str(case_id))
        if case.status == VOTING:
            raise Refused("AlreadyEmpaneled", str(case_id))
        size = self.config.jury_size
        case.jury = select_jury(pool, {case.reporter, case.respondent}, size, seed, case_id)
        case.tally = QuorumTally(self.config.quorum, size)
        case.status = VOTING
        self.ledger.append_event("JuryEmpaneled", {"case_id": case_id, "jury": list(case.jury)})
        return list(case.jury)

    def cast_vote(self, case_id: int, juror: Address, vote: str) -> str | None:
        case = self.case(case_id)
        if case.status == CLOSED:
            raise Refused("CaseClosed", str(case_id))
        if case.status != VOTING or juror not in case.jury:
            raise Refused("NotJuror", juror)
        if juror in case.tally.votes:
            raise Refused("AlreadyVoted", juror)
        self.ledger.append_event("VoteCast", {"case_id": case_id, "juror": juror, "vote": vote})
        verdict = case.tally.cast(juror, vote)
        if verdict is not None:
            case.verdict = verdict
            self.close_case(case_id)
        return verdict

    # -- settlement ----------------------------------------------------------------

    def close_case(self, case_id: int) -> None:
        case = self.case(case_id)
        token = self.contract.token(case.token_id)
        cfg = self.config
        aligned = [j for j in case.tally.votes if case.tally.votes[j] == case.verdict]

        if case.verdict == FOR_REPORTER:
            if token.state is not TokenState.RECLAIMED:
                self.bridge.privileged_dispatch("reclaim", origin="das", token_id=case.token_id)
            self.bridge.privileged_dispatch("return", origin="das", token_id=case.token_id, to=case.reporter)
            refund = case.deposit
            if refund:
                self.ledger.transfer_value(self.escrow, case.reporter, refund)
            shares: dict[Address, int] = {j: 0 for j in aligned}
        else:
            if token.state is TokenState.RECLAIMED:
                self.bridge.privileged_dispatch(
                    "return", origin="das", token_id=case.token_id, to=token.pre_reclaim_owner
                )
            elif token.frozen_until is not None:
                self.bridge.privileged_dispatch("unfreeze", origin="das", token_id=case.token_id)
            refund = 0
            shares = self._split_forfeit(case.deposit, aligned)
            for juror, share in shares.items():
                if share:
                    self.ledger.transfer_value(self.escrow, juror, share)

        gas = min(cfg.gas_fee, self.ledger.account(case.reporter).balance)
        if gas:
            self.ledger.transfer_value(case.reporter, self.fee_sink, gas)

        for juror in aligned:
            self.ledger.mint_value(juror, cfg.juror_reward, reason="juror_reward")
            self.ledger.append_event(
                "HonorAwarded",
                {
                    "case_id": case_id,
                    "juror": juror,
                    "reward": fmt_units(cfg.juror_reward),
                    "share": fmt_units(shares.get(juror, 0)),
                },
            )

        case.status = CLOSED
        self._open_case_by_token.pop(case.token_id, None)
        self.ledger.append_event(
            "CaseClosed",
            {
                "case_id": case_id,
                "verdict": case.verdict,
                "tally_reporter": case.tally.count(FOR_REPORTER),
                "tally_holder": case.tally.count(FOR_HOLDER),
                "quorum": cfg.quorum,
                "deposit": fmt_units(case.deposit),
                "refund": fmt_units(refund),
                "gas_charged": fmt_units(gas),
                "auto": case.auto_opened,
                "reporter_balance": fmt_units(self.ledger.account(case.reporter).balance),
            },
        )

    @staticmethod
    def _split_forfeit(deposit: int, aligned: list[Address]) -> dict[Address, int]:
        """Equal split, remainder going one sub-unit each to the earliest voters."""
        base, remainder = divmod(deposit, len(aligned))
        return {j: base + (1 if i < remainder else 0) for i, j in enumerate(aligned)}
