"""Randomized scenario fuzzing.

Generates seeded random command sequences against fresh simulations, run step
by step on the scenario runner, and audits the whole event stream after every
sequence, with the live conservation check. Each step is built from the values
drawn for it, never parsed from text, and each sequence's simulation is freed
as soon as its audit ends. Sequences share nothing, so total
coverage is just the sum of many small runs. A failing sequence is greedily
minimized by dropping steps while its first violation stays the reported one,
apart from the seq it names; the surviving trace is a scenario script, with
the sequence's NAME and SEED, that reproduces that violation.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, replace

from .audit import audit_events
from .errors import RejectedInput
from .runner import RunContext, execute_scenario, run_step
from .scenario import Scenario, Step, format_scenario, make_step, parse_step
from .sim import Simulation

_PRICES = ("0", "1", "2", "3", "4", "6", "8", "10", "12")
_MODEL_SCORES = ("0.0", "0.3", "0.65", "0.95")
_USERS = [f"u{i}" for i in range(6)]
_MODEL_PARTIES = (*_USERS, "*")
_JURORS = [f"j{i}" for i in range(6)]
_MAX_TOKENS = 24
_SEQ_PREFIX = re.compile(r"\Aseq \d+: ")  # where an audit violation names its event

# every sequence opens with the same accounts, jury pool and aux-wallet links
_HEADER = [
    parse_step(line)
    for line in (
        *(f"ACCOUNT {u} 10" for u in _USERS),
        *(f"ACCOUNT x{u} 0" for u in _USERS),
        *(f"ACCOUNT {j} 5" for j in _JURORS),
        *(f"JUROR {j}" for j in _JURORS),
        *(f"REGISTER_AUX {u} x{u}" for u in _USERS),
        "ADVANCE 86400",
    )
]


def _sequence_seed(seed: int, index: int) -> int:
    material = f"fuzz|{seed}|{index}".encode("ascii")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def first_violation(sim: Simulation) -> str | None:
    """The first invariant violation the audit finds in ``sim``'s log, then a failed live conservation check."""
    problems = audit_events(sim.ledger.events)
    if not sim.ledger.conservation_holds():
        problems.append("live conservation check failed")
    return problems[0] if problems else None


@dataclass
class FuzzResult:
    ops: int
    sequences: int
    transfers_checked: int = 0
    violation: str | None = None
    trace: str | None = None

    @property
    def ok(self) -> bool:
        return self.violation is None


class Fuzzer:
    def __init__(self, seed: int = 0, ops_per_run: int = 400):
        if ops_per_run < 1:
            raise RejectedInput(f"ops per run must be >= 1, got {ops_per_run}")
        self.seed = seed
        self.ops_per_run = ops_per_run

    def run(self, total_ops: int) -> FuzzResult:
        done = 0
        sequences = 0
        transfers = 0
        while done < total_ops:
            ops = min(self.ops_per_run, total_ops - done)
            scenario, sim, completed = self._generate_sequence(_sequence_seed(self.seed, sequences), ops)
            done += ops
            sequences += 1
            transfers += completed
            violation = first_violation(sim)
            del sim  # free this sequence's simulation now, not when the next one replaces it
            if violation is not None:
                trace = format_scenario(replace(scenario, steps=self._minimize(scenario, violation)))
                return FuzzResult(done, sequences, transfers, violation, trace)
        return FuzzResult(done, sequences, transfers)

    # -- one generated sequence -------------------------------------------

    def _generate_sequence(self, seq_seed: int, ops: int) -> tuple[Scenario, Simulation, int]:
        """Run ``ops`` generated steps after the header; returns the scenario, its sim and its completed transfers."""
        rng = random.Random(seq_seed)
        tokens: list[int] = []  # minted ids, 1, 2, ...
        scenario = Scenario(name=f"fuzz-{seq_seed}", seed=seq_seed, steps=list(_HEADER))
        ctx = execute_scenario(scenario)
        rev = {addr: name for name, addr in ctx.names.items()}  # fixed now: no generated verb binds a name
        transfers = 0  # the header moves no token
        for _ in range(ops):
            step = self._next_step(rng, tokens, ctx, rev)
            for event in run_step(ctx, len(scenario.steps), step):
                transfers += event.kind in ("Transfer", "SafeTransfer")
            scenario.steps.append(step)
        return scenario, ctx.sim, transfers

    def _minimize(self, scenario: Scenario, violation: str) -> list[Step]:
        """Greedily drop steps while the first violation stays ``violation``, its ``seq N: `` aside."""
        target = _SEQ_PREFIX.sub("", violation)
        kept = scenario.steps
        changed = True
        while changed:
            changed = False
            index = len(_HEADER)
            while index < len(kept):
                candidate = kept[:index] + kept[index + 1 :]
                found = first_violation(execute_scenario(replace(scenario, steps=candidate)).sim)
                if found is not None and _SEQ_PREFIX.sub("", found) == target:
                    kept = candidate
                    changed = True
                else:
                    index += 1
        return kept

    # -- adaptive command generation ----------------------------------------

    def _next_step(self, rng: random.Random, tokens: list[int], ctx: RunContext, rev: dict[str, str]) -> Step:
        for _ in range(8):
            command = self._try_command(rng, tokens, ctx, rev)
            if command is not None:
                break
        else:
            command = ("ADVANCE", rng.randint(1, 600))
        values = command[1:]
        return make_step(command[0], tuple(map(str, values)), values)

    def _try_command(self, rng: random.Random, tokens: list[int], ctx: RunContext, rev: dict[str, str]):
        """A drawn command as ``(verb, *values)``, each value what ``parse_step`` makes of its word:
        an ``int`` for an INT argument, the word itself otherwise. None if the draw does not fit."""
        users = _USERS
        pick = rng.random()
        if pick < 0.08:
            return "ADVANCE", rng.choice((1, 7, 60, 600, 3600, 7201, 86401))
        if pick < 0.16:
            if len(tokens) >= _MAX_TOKENS:
                return None
            tokens.append(len(tokens) + 1)
            return "MINT", rng.choice(users), tokens[-1]
        if pick < 0.67:  # a verb on one minted token
            if not tokens:
                return None
            token_id = rng.choice(tokens)
            owner = rev.get(ctx.sim.contract.token(token_id).owner)  # None once reclaimed to the treasury
            if pick < 0.44:
                caller = owner if owner and rng.random() < 0.8 else rng.choice(users)
                source = owner if owner and rng.random() < 0.9 else rng.choice(users)
                verb = "SAFE_TRANSFER" if rng.random() < 0.2 else "TRANSFER"
                return verb, caller, source, rng.choice(users), token_id, rng.choice(_PRICES)
            if pick < 0.52:
                actor = owner if rng.random() < 0.8 else rng.choice(users)
                if actor is None:
                    return None
                return "LOCK", actor, token_id
            if pick < 0.62:
                actor = owner if rng.random() < 0.85 else rng.choice(users)
                if actor is None:
                    return None
                return "UNLOCK_BAD" if rng.random() < 0.15 else "UNLOCK", actor, token_id
            return "APPROVE", owner or rng.choice(users), rng.choice(users), token_id
        if pick < 0.71:
            onoff = "on" if rng.random() < 0.7 else "off"
            return "APPROVE_ALL", rng.choice(users), rng.choice(users), onoff
        if pick < 0.75:
            onoff = "on" if rng.random() < 0.6 else "off"
            return "FLAG", rng.choice(users), onoff
        if pick < 0.77:
            return "BLACKLIST", rng.choice(users)
        if pick < 0.79:
            return "MODEL", rng.choice(_MODEL_PARTIES), rng.choice(_MODEL_PARTIES), rng.choice(_MODEL_SCORES)
        if pick < 0.83:
            return "PAY", rng.choice(users), rng.choice(users), rng.choice(("0.1", "0.5", "1"))
        if pick < 0.88:
            if not tokens:
                return None
            return "REPORT", rng.choice(users), rng.choice(tokens)
        cases = ctx.sim.arbitration.cases.values()
        if pick < 0.93:
            open_cases = [c for c in cases if c.status == "open"]
            if not open_cases:
                return None
            case = rng.choice(open_cases)
            if pick >= 0.90:
                return "EMPANEL", case.case_id
            # every reporter is a user: REPORT draws one, and an auto case's reporter is its transfer's source
            return "EVIDENCE", rev[case.reporter], case.case_id, f"blob{rng.randint(0, 999)}"
        voting_cases = [c for c in cases if c.status == "voting"]
        if voting_cases:
            case = rng.choice(voting_cases)
            # every juror is a header JUROR, and a case closes as its last juror votes, so one is pending
            pending = [rev[j] for j in case.jury if j not in case.tally.votes]
            return "VOTE", rng.choice(pending), case.case_id, rng.choice("RH")
        return None
