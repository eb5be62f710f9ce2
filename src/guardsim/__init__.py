"""Deterministic desk-scale simulator of a guarded-token anti-theft protocol.

Four cooperating pieces sit on one in-process ledger: a supervised token
contract (OK/LOCKED/RECLAIMED), an oracle bridge carrying request/fulfill
messages, a rule-based risk engine scoring every transfer, and a
deposit-backed arbitration system with quorum voting. Scenario scripts drive
runs end to end, and every run serializes to a replayable event log.
"""

from .access_control import AccessControl, UnlockAttestation
from .arbitration import (
    FOR_HOLDER,
    FOR_REPORTER,
    ArbitrationCase,
    ArbitrationSystem,
    QuorumTally,
)
from .config import SimConfig, apply_override, load_config
from .errors import SimError
from .ledger import Account, Address, EventRecord, Ledger, derive_address
from .oracle import OracleBridge
from .risk import (
    HACKED,
    MAY_LOST,
    SAFE,
    RiskEngine,
    RiskVerdict,
    TransferIntent,
    classify,
    classify_payload,
    collection_floor,
    credit_score,
    extract_features,
    rule_hits,
)
from .runner import RunReport, replay_log, report_from_log, run_scenario, write_log
from .scenario import Scenario, Step, format_scenario, load_scenario, parse_scenario
from .sim import Simulation
from .token import TokenContract, TokenRecord, TokenState

__version__ = "0.1.0"
