"""Deterministic desk-scale simulator of a guarded-token anti-theft protocol.

Four cooperating pieces sit on one in-process ledger: a supervised token
contract (OK/LOCKED/RECLAIMED), an oracle bridge carrying request/fulfill
messages, a rule-based risk engine scoring every transfer, and a
deposit-backed arbitration system with quorum voting. Scenario scripts drive
runs end to end, and every run serializes to a replayable event log.
"""

__version__ = "0.1.0"
