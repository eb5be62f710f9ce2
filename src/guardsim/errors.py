"""Simulation rejection types.

Every error carries a stable short ``code`` that scenario runs record in
StepRejected events, so attack scripts can assert on exactly which guard
fired without string-matching prose.
"""

from __future__ import annotations


class SimError(Exception):
    code = "SimError"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class RejectedInput(SimError):
    code = "RejectedInput"


class UnknownAccount(SimError):
    code = "UnknownAccount"


class InsufficientFunds(SimError):
    code = "InsufficientFunds"


class UnknownToken(SimError):
    code = "UnknownToken"


class AlreadyMinted(SimError):
    code = "AlreadyMinted"


class NotOwner(SimError):
    code = "NotOwner"


class GuardRejected(SimError):
    """Transfer guard refusal; ``code`` is the guard reason itself."""

    def __init__(self, code: str):
        self.code = code
        super().__init__()


class PhishingOperatorBlocked(SimError):
    code = "PhishingOperatorBlocked"


class NotOracle(SimError):
    code = "NotOracle"


class ReclaimedImmutable(SimError):
    code = "ReclaimedImmutable"


class AlreadyReclaimed(SimError):
    code = "AlreadyReclaimed"


class NotInArbitration(SimError):
    code = "NotInArbitration"


class NotLocked(SimError):
    code = "NotLocked"


class InvalidTokenState(SimError):
    code = "InvalidTokenState"


class InvalidRequest(SimError):
    code = "InvalidRequest"


class SignatureInvalid(SimError):
    code = "SignatureInvalid"


class SelfLink(SimError):
    code = "SelfLink"


class NoAuxRegistered(SimError):
    code = "NoAuxRegistered"


class InsufficientJurors(SimError):
    code = "InsufficientJurors"


class AlreadyVoted(SimError):
    code = "AlreadyVoted"


class NotJuror(SimError):
    code = "NotJuror"


class DuplicateCase(SimError):
    code = "DuplicateCase"


class NotAParty(SimError):
    code = "NotAParty"


class CaseClosedError(SimError):
    code = "CaseClosed"


class AlreadyEmpaneled(SimError):
    code = "AlreadyEmpaneled"


class UnknownCase(SimError):
    code = "UnknownCase"


class UnknownName(SimError):
    code = "UnknownName"


class ParseError(SimError):
    code = "ParseError"

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class ReplayError(SimError):
    code = "ReplayError"
