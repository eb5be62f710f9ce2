"""Simulation rejection types.

Every error carries a stable short ``code`` that scenario runs record in
StepRejected events, so attack scripts can assert on exactly which guard
fired without string-matching prose. A refusal by the protocol (DAC, DRM,
the transfer guard, DAS, the ledger or a DSL name) is one ``Refused`` whose
``code`` is named where it is raised; the README lists every code. The other
classes are caught or raised by type.
"""

from __future__ import annotations


class SimError(Exception):
    code = "SimError"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class RejectedInput(SimError):
    code = "RejectedInput"


class Refused(SimError):
    """A refused action; ``code`` is what its StepRejected logs."""

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(message)


class ParseError(SimError):
    code = "ParseError"

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class ReplayError(SimError):
    code = "ReplayError"
