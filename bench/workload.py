"""Deterministic generator of the benchmark's scenario workloads.

``generate(kind, seed, tokens, rounds, users, mix)`` returns the `.tps` text of
a workload together with the outcome it was built to produce: step count,
verdict counts and case outcomes. Each round kind gets exactly its share of
the rounds; the seed picks their order, the tokens, parties and prices. The
generator tracks token ownership and state itself, so every emitted step is
legal and no step is rejected.

Two kinds exist:

``market``
    Every round sells one token at a price in [P0, 2*P0), then the buyer
    unlocks it with the auxiliary wallet and time advances past the risk
    window. The collection floor therefore stays in [P0, 2*P0) and every
    verdict is ``safe``. Each transfer's risk evaluation scans all T token
    records, so the per-transfer cost grows with T.
``disputes``
    Rounds mix safe sales, underpriced sales (``may_lost``), sales to
    explorer-flagged wallets (``hacked``, the auto-opened case is driven to a
    FOR_REPORTER verdict) and user-filed reports driven through evidence,
    jury and votes to closure. The juror pool equals the jury size, so the
    jury is the whole pool and the generator knows it without hashing.

Run ``python3 bench/workload.py market --seed 1 --tokens 100`` to print one.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, field

ROUND_KINDS = ("safe", "may_lost", "hacked", "report")
# round-kind weights of each workload; GENUINE_REPORT_SHARE of the user-filed
# reports are genuine
MIXES = {
    "market": {"safe": 1},
    "disputes": {"safe": 50, "may_lost": 20, "hacked": 15, "report": 15},
}
GENUINE_REPORT_SHARE = 0.3

# R1 fires below beta * floor with beta = 1/2 (the default config). Sale
# prices stay in [P0, 2*P0), so the floor does too and a sale is never
# underpriced; dumps stay under P0 / 2 and always are.
P0_CENTS = 1000
DUMP_CENTS = (100, 450)

USER_BALANCE = 1000
JUROR_BALANCE = 5
JURY_SIZE = 4  # 3f + 1 with the default f = 1
QUORUM = 3  # 2f + 1
FLAGGED_WALLETS = 4
ROUND_TICKS = 90000  # longer than the 86400-tick risk window


@dataclass
class Expected:
    """The outcome a generated workload is built to produce."""

    steps: int = 0
    verdicts: dict[str, int] = field(default_factory=lambda: {"safe": 0, "may_lost": 0, "hacked": 0})
    cases_for_reporter: int = 0
    cases_for_holder: int = 0

    @property
    def cases_closed(self) -> int:
        return self.cases_for_reporter + self.cases_for_holder


@dataclass
class Workload:
    kind: str
    text: str
    expected: Expected


def _price(cents: int) -> str:
    return f"{cents // 100}.{cents % 100:02d}"


class _Builder:
    def __init__(self, kind: str, seed: int):
        self.rng = random.Random(f"guardsim-bench|{kind}|{seed}")
        self.lines = [f"NAME bench-{kind}", f"SEED {seed}"]
        self.expected = Expected()
        self.owner: dict[int, str] = {}
        self.next_case = 1

    def step(self, line: str) -> None:
        self.lines.append(line)
        self.expected.steps += 1

    def accounts(self, users: int) -> list[str]:
        names = [f"u{i}" for i in range(users)]
        for name in names:
            self.step(f"ACCOUNT {name} {USER_BALANCE}")
            self.step(f"ACCOUNT {name}x 0")
        for name in names:
            self.step(f"REGISTER_AUX {name} {name}x")
        return names

    def mint(self, names: list[str], tokens: int) -> None:
        for token in range(1, tokens + 1):
            owner = self.rng.choice(names)
            self.owner[token] = owner
            self.step(f"MINT {owner} {token}")

    def buyer(self, names: list[str], token: int) -> str:
        buyer = self.rng.choice(names)
        while buyer == self.owner[token]:
            buyer = self.rng.choice(names)
        return buyer

    def safe_sale(self, names: list[str]) -> None:
        token = self.rng.randrange(1, len(self.owner) + 1)
        seller, buyer = self.owner[token], self.buyer(names, token)
        price = _price(P0_CENTS + self.rng.randrange(P0_CENTS))
        self.step(f"TRANSFER {seller} {seller} {buyer} {token} {price}")
        self.step(f"UNLOCK {buyer} {token}")  # received tokens arrive LOCKED
        self.owner[token] = buyer
        self.expected.verdicts["safe"] += 1

    def dump(self, names: list[str]) -> None:
        token = self.rng.randrange(1, len(self.owner) + 1)
        seller, buyer = self.owner[token], self.buyer(names, token)
        price = _price(self.rng.randrange(*DUMP_CENTS))
        self.step(f"TRANSFER {seller} {seller} {buyer} {token} {price}")  # frozen, stays put
        self.expected.verdicts["may_lost"] += 1

    def settle(self, case: int, parties: list[str], jurors: list[str], vote: str) -> None:
        for party in parties:
            self.step(f"EVIDENCE {party} {case} statement-{case}-{party}")
        self.step(f"EMPANEL {case}")
        for juror in self.rng.sample(jurors, QUORUM):
            self.step(f"VOTE {juror} {case} {vote}")
        if vote == "R":
            self.expected.cases_for_reporter += 1
        else:
            self.expected.cases_for_holder += 1

    def theft(self, flagged: list[str], jurors: list[str]) -> None:
        token = self.rng.randrange(1, len(self.owner) + 1)
        victim = self.owner[token]
        price = _price(P0_CENTS + self.rng.randrange(P0_CENTS))
        self.step(f"TRANSFER {victim} {victim} {self.rng.choice(flagged)} {token} {price}")
        self.expected.verdicts["hacked"] += 1
        case, self.next_case = self.next_case, self.next_case + 1
        self.settle(case, [victim], jurors, "R")  # the token comes home LOCKED
        self.step(f"UNLOCK {victim} {token}")

    def report(self, names: list[str], jurors: list[str], genuine: bool) -> None:
        token = self.rng.randrange(1, len(self.owner) + 1)
        holder, reporter = self.owner[token], self.buyer(names, token)
        self.step(f"REPORT {reporter} {token}")
        case, self.next_case = self.next_case, self.next_case + 1
        self.settle(case, [reporter, holder], jurors, "R" if genuine else "H")
        if genuine:
            self.owner[token] = reporter
            self.step(f"UNLOCK {reporter} {token}")

    def round_kinds(self, mix: dict[str, int], rounds: int) -> list[str]:
        """Exactly each kind's share of ``rounds``, in a seeded order, so that every
        seed gives the same verdict counts and case outcomes."""
        total = sum(mix.values())
        counts = {name: rounds * weight // total for name, weight in mix.items()}
        counts["safe"] = counts.get("safe", 0) + rounds - sum(counts.values())
        reports = counts.pop("report", 0)
        counts["genuine_report"] = round(reports * GENUINE_REPORT_SHARE)
        counts["false_report"] = reports - counts["genuine_report"]
        picks = [name for name, count in counts.items() for _ in range(count)]
        self.rng.shuffle(picks)
        return picks

    def end_round(self) -> None:
        self.step(f"ADVANCE {ROUND_TICKS}")


def generate(kind: str, seed: int, tokens: int, rounds: int, users: int, mix: dict[str, int] | None = None) -> Workload:
    """Build one workload; the same arguments always give the same text.

    ``mix`` maps round kinds (`ROUND_KINDS`) to weights and defaults to the
    kind's entry in `MIXES`; the first round is always a safe sale.
    """
    mix = MIXES[kind] if mix is None else mix
    if set(mix) - set(ROUND_KINDS) or tokens < 1 or rounds < 1 or users < 2:
        raise ValueError(f"need a mix over {ROUND_KINDS}, tokens >= 1, rounds >= 1 and users >= 2")
    b = _Builder(kind, seed)
    names = b.accounts(users)
    disputed = mix.get("hacked", 0) or mix.get("report", 0)
    flagged = [f"f{i}" for i in range(FLAGGED_WALLETS)] if mix.get("hacked", 0) else []
    jurors = [f"j{i}" for i in range(JURY_SIZE)] if disputed else []
    for name in flagged:
        b.step(f"ACCOUNT {name} 0")
        b.step(f"FLAG {name} on")
    for name in jurors:
        b.step(f"ACCOUNT {name} {JUROR_BALANCE}")
        b.step(f"JUROR {name}")
    b.step("ADVANCE 86400")  # account age lifts every recipient's credit above R3
    b.mint(names, tokens)
    b.safe_sale(names)  # the first sale sets the collection floor
    b.end_round()
    for pick in b.round_kinds(mix, rounds - 1):
        if pick == "safe":
            b.safe_sale(names)
        elif pick == "may_lost":
            b.dump(names)
        elif pick == "hacked":
            b.theft(flagged, jurors)
        else:
            b.report(names, jurors, genuine=pick == "genuine_report")
        b.end_round()
    return Workload(kind, "\n".join(b.lines) + "\n", b.expected)


def check_report(workload: Workload, report) -> list[str]:
    """Compare a ``RunReport`` with what the workload was built to produce."""
    want = workload.expected
    problems = []
    if report.steps_total != want.steps:
        problems.append(f"{report.steps_total} steps, expected {want.steps}")
    if report.steps_rejected:
        problems.append(f"{report.steps_rejected} rejected steps, expected 0")
    got = {k: report.verdict_counts.get(k, 0) for k in want.verdicts}
    if got != want.verdicts or set(report.verdict_counts) - set(want.verdicts):
        problems.append(f"verdicts {report.verdict_counts}, expected {want.verdicts}")
    closed = [c["verdict"] for c in report.case_outcomes]
    outcomes = (closed.count("FOR_REPORTER"), closed.count("FOR_HOLDER"), len(closed))
    if outcomes != (want.cases_for_reporter, want.cases_for_holder, want.cases_closed):
        problems.append(
            f"cases (for_reporter, for_holder, total) {outcomes}, expected "
            f"{(want.cases_for_reporter, want.cases_for_holder, want.cases_closed)}"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=sorted(MIXES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tokens", type=int, default=100)
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--users", type=int, default=50)
    args = parser.parse_args(argv)
    sys.stdout.write(generate(args.kind, args.seed, args.tokens, args.rounds, args.users).text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
