"""Simulation assembly: wires the ledger, token contract, oracle bridge, risk
engine, access control and arbitration into one deterministic instance.

A ``Simulation`` owns its components. The two links back up that ownership,
the contract's to its oracle bridge and the bridge's to arbitration, are weak,
so a simulation holds no reference cycle: dropping its last reference frees it
and its components at once, by reference counting.

Genesis creates three protocol accounts (treasury, fee sink, deposit escrow)
and logs the effective configuration, the seed and the scenario name, making
every log self-describing for replay.
"""

from __future__ import annotations

from .access_control import AccessControl
from .arbitration import ArbitrationSystem
from .config import SimConfig, config_payload
from .ledger import Address, Ledger
from .oracle import OracleBridge
from .risk import RiskEngine
from .token import TokenContract


class Simulation:
    def __init__(self, seed: int = 0, config: SimConfig | None = None, name: str = ""):
        self.seed = seed
        self.config = config or SimConfig()
        self.name = name
        self.ledger = Ledger(seed)
        self.treasury = self.ledger.create_account(0)
        self.fee_sink = self.ledger.create_account(0)
        self.escrow = self.ledger.create_account(0)

        self.engine = RiskEngine(self.config)
        self.contract = TokenContract(self.ledger, self.treasury)
        self.bridge = OracleBridge(self.ledger, self.contract, self.engine)
        self.contract.bind_bridge(self.bridge)
        self.access = AccessControl(self.ledger, self.contract, self.bridge)
        self.arbitration = ArbitrationSystem(
            self.ledger, self.contract, self.bridge, self.config, self.escrow, self.fee_sink
        )
        self.bridge.attach_arbitration(self.arbitration)

        self.ledger.append_event(
            "Genesis",
            {
                "name": name,
                "seed": seed,
                "config": config_payload(self.config),
                "treasury": self.treasury,
                "fee_sink": self.fee_sink,
                "escrow": self.escrow,
            },
        )

    def install_model_entry(self, sender: str, recipient: str, score: float) -> None:
        self.engine.model[(sender, recipient)] = score
        self.ledger.append_event(
            "ModelTableSet", {"sender": sender, "recipient": recipient, "score": repr(score)}
        )

    def blacklist_operator(self, operator: Address) -> None:
        self.engine.phishing_operators.add(operator)
        self.ledger.append_event("PhishingListed", {"operator": operator})
