"""Scenario execution, replay verification and reporting.

Every executed step is logged as a Step event before its effects, so a log
embeds its own command stream: replay re-executes that stream under the
genesis seed and config and demands byte-identical serialization. Step
failures are events, not aborts; attack scripts trip guards on purpose.
``execute_scenario`` and ``run_step`` are the one step loop: run, replay,
report, state, case and the fuzzer all execute steps through them.

Replay and report read a log in one forward pass, whether or not it matches.
They decode each line up to the first Genesis event, checking it against the
event table, and take the seed, name and config from that event. After it they
execute the command of each canonical Step line, in file order, as execution
reaches it (keys are sorted, so a canonical line starts with its kind); any
other line is only compared. After a step, once a chunk of events is held, it
is rendered and compared with the file's next unchecked bytes, report folds
its counts, audit and digest over it, and it is dropped. While chunks match,
the rest of the file is neither decoded nor checked: bytes equal to the
program's own render of events the append check admitted are canonical. From
the first chunk that differs, the comparison goes line by line, blank lines
ignored: each recorded line is decoded and checked against the event table
as it is read, which makes a line the table refuses a ReplayError naming its
seq and field, and report audits the recorded events from a copy of its fold
of the prefix that matched. A Step command that does not parse or is not in
normal form ends the run there; it is a ReplayError once the whole file has
been read. So neither command holds the event history or the recorded file,
and a replayed ledger has no log bytes. State and case read the sim that
replay re-executes.
"""

from __future__ import annotations

import hashlib
import io
import json
from copy import deepcopy
from dataclasses import dataclass, field
from json.decoder import scanstring
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple

from .audit import Audit
from .config import SimConfig, apply_override, config_from_payload
from .errors import ParseError, Refused, RejectedInput, ReplayError, SimError
from .ledger import _CHUNK, SEEDS, EventRecord, Ledger, check_event, serialize_events
from .scenario import VERBS, Scenario, Step, parse_step
from .sim import Simulation


@dataclass
class RunContext:
    sim: Simulation
    names: dict[str, str] = field(default_factory=dict)
    pool: list[str] = field(default_factory=list)

    def resolve(self, name: str) -> str:
        if name in self.names:
            return self.names[name]
        if name.startswith("0x") and len(name) == 42:
            return name
        raise Refused("UnknownName", name)


@dataclass
class RunReport:
    name: str
    steps_total: int
    steps_rejected: int
    final_tokens: list[str]
    verdict_counts: dict[str, int]
    case_outcomes: list[dict]
    conservation_ok: bool
    violations: list[str]
    digest: str
    names: dict[str, str]

    def to_text(self) -> str:
        lines = [f"scenario: {self.name or '(unnamed)'}"]
        lines.append(f"steps: {self.steps_total} executed, {self.steps_rejected} rejected")
        lines.append(
            "verdicts: "
            + " ".join(f"{k}={self.verdict_counts.get(k, 0)}" for k in ("safe", "may_lost", "hacked"))
        )
        if self.case_outcomes:
            for case in self.case_outcomes:
                lines.append(
                    f"case {case['case_id']}: {case['verdict'] or 'open'}"
                    + (" (auto)" if case["auto"] else "")
                )
        else:
            lines.append("cases: none")
        lines.append("tokens:")
        lines.extend(f"  {row}" for row in self.final_tokens)
        lines.append(f"conservation: {'ok' if self.conservation_ok else 'VIOLATED'}")
        for violation in self.violations:
            lines.append(f"violation: {violation}")
        lines.append(f"log digest: {self.digest}")
        return "\n".join(lines)

    @property
    def ok(self) -> bool:
        return self.conservation_ok and not self.violations


def execute_step(ctx: RunContext, step: Step) -> None:
    """Convert the step's run-time arguments in its verb's order, then call the verb's handler."""
    verb = VERBS[step.verb]
    values = list(step.values)
    for pos, convert in verb.runtime:
        values[pos] = convert(ctx, values[pos])
    verb.handler(ctx, *values)


def run_scenario(
    scenario: Scenario,
    seed: int | None = None,
    base_config: SimConfig | None = None,
    on_step=None,
) -> tuple[Simulation, RunReport]:
    ctx = execute_scenario(scenario, seed, base_config, on_step)
    return ctx.sim, build_report(ctx)


def execute_scenario(
    scenario: Scenario,
    seed: int | None = None,
    base_config: SimConfig | None = None,
    on_step=None,
) -> RunContext:
    """Execute every step of ``scenario`` in a new simulation; returns the run's context."""
    effective_seed = scenario.seed if seed is None else seed
    config = base_config or SimConfig()
    for key, value in scenario.config_overrides:
        config = apply_override(config, key, value)
    ctx = RunContext(Simulation(effective_seed, config, scenario.name))
    for index, step in enumerate(scenario.steps):
        events = run_step(ctx, index, step)
        if on_step is not None:
            on_step(ctx, step, events)
    return ctx


def run_step(ctx: RunContext, index: int, step: Step) -> list[EventRecord]:
    """Log ``step`` as a Step event and execute it; a failure is logged as StepRejected.

    Returns the events logged after the Step event.
    """
    ledger = ctx.sim.ledger
    ledger.append_event("Step", {"index": index, "command": step.raw})
    before = len(ledger.events)
    try:
        execute_step(ctx, step)
    except SimError as exc:
        ledger.append_event("StepRejected", {"index": index, "error": exc.code, "detail": str(exc)})
    return ledger.events[before:]


def build_report(ctx: RunContext, audit: Audit | None = None, digest: str | None = None) -> RunReport:
    """The report of a run. ``audit`` has folded the run's events and ``digest`` is its log's, for a
    ledger that dropped them as they were checked; by default both come from the ledger's events."""
    sim = ctx.sim
    audit = Audit(sim.ledger.events) if audit is None else audit
    outcomes = [
        {"case_id": case.case_id, "verdict": case.verdict, "auto": case.auto_opened}
        for case in sim.arbitration.cases.values()
    ]
    return RunReport(
        name=sim.name,
        steps_total=audit.steps,
        steps_rejected=audit.rejected,
        final_tokens=[sim.contract.state_line(tid) for tid in sorted(sim.contract.tokens)],
        verdict_counts=audit.verdicts,
        case_outcomes=outcomes,
        conservation_ok=sim.ledger.conservation_holds(),
        violations=audit.finish(),
        digest=digest or sim.ledger.log_digest().hex(),
        names=dict(ctx.names),
    )


# -- log files -----------------------------------------------------------------


def write_log(sim: Simulation, path: str | Path) -> None:
    with open(path, "wb") as file:
        sim.ledger.write(file)


def read_log(path: str | Path) -> list[EventRecord]:
    return parse_log(Path(path).read_bytes())


def parse_log(data: bytes) -> list[EventRecord]:
    return list(read_events(data.split(b"\n")))


def read_events(lines: Iterable[bytes]) -> Iterator[EventRecord]:
    """The record of each non-blank line of ``lines``, with or without its newline, each decoded as it is
    read; a line that is not JSON the event table admits is a ReplayError naming it."""
    for line_no, line in enumerate(lines, start=1):
        if line := line.rstrip(b"\n"):
            yield _decode(line, line_no)


_BODY_KEYS = {"kind", "payload", "seq", "time"}


def _decode(line: bytes, line_no: int) -> EventRecord:
    """The record of one non-blank log line without its newline; a ReplayError unless the event table admits it."""
    try:
        body = json.loads(line)
    except ValueError as exc:  # bad JSON and bad UTF-8
        raise ReplayError(f"line {line_no}: not a canonical event record ({exc})") from None
    envelope = type(body) is dict and body.keys() == _BODY_KEYS
    if not (envelope and type(body["seq"]) is int and type(body["time"]) is int):
        raise ReplayError(f"line {line_no}: not a canonical event record")
    problem = check_event(body["kind"], body["payload"])
    if problem is not None:
        raise ReplayError(f"seq {body['seq']}: {problem}")
    return EventRecord(body["seq"], body["time"], body["kind"], body["payload"])


def genesis_config(genesis: EventRecord) -> SimConfig:
    """The effective config a Genesis event records; a value out of its range is a ReplayError."""
    try:
        return config_from_payload(genesis.payload["config"])
    except RejectedInput as exc:
        raise ReplayError(f"seq {genesis.seq}: bad Genesis config ({exc})") from None


def scenario_from_events(events: Iterable[EventRecord]) -> tuple[Scenario, SimConfig]:
    """Reconstruct the command stream and the effective config embedded in a log's events.

    As replay does, it takes the seed, name and config from the first Genesis event and, as its steps, the
    Step events after that one, in log order; a Step command that does not parse or is not in normal form
    is a ReplayError naming its seq. One difference stays, as a decoded record cannot show it: replay only
    compares a Step line that is not canonical, where this takes its command.
    """
    events = iter(events)
    scenario, config = _genesis_scenario(next((ev for ev in events if ev.kind == "Genesis"), None))
    for ev in events:
        if ev.kind == "Step":
            step = _normal_step(ev.payload["command"])
            if type(step) is str:
                raise ReplayError(f"seq {ev.seq}: {step}")
            scenario.steps.append(step)
    return scenario, config


def _normal_step(command: str) -> Step | str:
    """The step of a Step event's command, else why it has none: it does not parse or is not in normal form."""
    try:
        step = parse_step(command)
    except ParseError as exc:
        return f"bad Step command {command!r} ({exc.reason})"
    return step if step.raw == command else f"Step command {command!r} is not in normal form {step.raw!r}"


def _genesis_scenario(genesis: EventRecord | None) -> tuple[Scenario, SimConfig]:
    """The stepless scenario and the config a log's Genesis event records."""
    if genesis is None:
        raise ReplayError("log has no genesis event")
    config = genesis_config(genesis)
    seed = genesis.payload["seed"]
    if seed not in SEEDS:
        raise ReplayError(f"seq {genesis.seq}: Genesis seed {seed} is outside [0, 2**64)")
    return Scenario(name=genesis.payload["name"], seed=seed), config


class ReplayOutcome(NamedTuple):
    passed: bool
    divergence_seq: int | None = None


_STEP = b'{"kind":"Step","payload":{"command":"'  # keys are sorted: a canonical line starts with its kind


def _log_scenario(file: BinaryIO, check: _Check) -> tuple[Scenario, SimConfig]:
    """The stepless scenario and the config of the log's first Genesis event, every line up to it
    decoded and checked, with ``_fast_steps`` of the lines after it as its steps."""
    scenario, config = _genesis_scenario(next((ev for ev in read_events(file) if ev.kind == "Genesis"), None))
    scenario.steps = _fast_steps(file, check)
    return scenario, config


def _fast_steps(lines: Iterable[bytes], check: _Check) -> Iterator[Step]:
    """The step of each of ``lines`` that is a canonical Step line, in order, each read as execution
    reaches it; another line is only compared. The stream ends before a command that is not JSON,
    which the check reports, or that does not parse or is not in normal form, which ``check``
    reports once it has read the whole file: a run logs no such line."""
    for line in lines:
        if not line.startswith(_STEP):
            continue
        try:
            command = scanstring(line.decode("ascii"), len(_STEP))[0]
        except UnicodeDecodeError:  # not canonical
            continue
        except ValueError:  # not JSON, which the check reports
            return
        step = _normal_step(command)
        if type(step) is str:
            check.stop = line, step
            return
        yield step


class _Check:
    """The re-executed events, checked against the recorded file as the run reads it.

    After a step, once ``_CHUNK`` events are held, ``check`` renders them and compares them with
    the file's next unchecked bytes, read without moving the step stream's place in the file,
    folds them into ``audit`` and ``digest`` (given ``fold``) and drops them from the ledger. While
    chunks match, a chunk is compared whole. From the first that differs, each rendered line is
    compared with the file's next non-blank line, which is decoded and checked against the event
    table and folded into ``recorded``, report's audit of the recorded log: it begins as a copy of
    ``audit``, as the prefix that matched holds the same events. ``finish`` reads the file to its
    end the same way.
    """

    def __init__(self, file: BinaryIO, fold: bool):
        self.file, self.audit, self.digest = file, Audit() if fold else None, hashlib.sha256()
        self.ok = True  # no chunk differed
        # the file's checked bytes, its checked non-blank lines, and its lines read by the line comparison
        self.bytes = self.lines = self.line_no = 0
        # report's audit of the recorded log, the seq of its first line that differs, and the Step line
        # the run's stream ended before and why
        self.recorded = self.divergence = self.stop = None

    def on_step(self, ctx: RunContext, _step: Step, _events) -> None:
        if len(ctx.sim.ledger.events) >= _CHUNK:
            self.check(ctx.sim.ledger)

    def check(self, ledger: Ledger) -> None:
        events, file = ledger.events, self.file
        chunk = serialize_events(events)
        resume = file.tell()
        file.seek(self.bytes)
        if self.ok and file.read(len(chunk)) == chunk:
            self.lines, self.bytes = self.lines + len(events), self.bytes + len(chunk)
        else:
            file.seek(self.bytes)
            for want in chunk.split(b"\n")[:-1]:
                self._compare(want)
        file.seek(resume)
        if self.audit is not None:
            for ev in events:
                self.audit.add(ev)
            self.digest.update(chunk)
        ledger.drop_checked(len(events))

    def _compare(self, want: bytes | None) -> None:
        """Compare ``want`` with the file's next non-blank line, if any, which is decoded, checked and
        folded into ``recorded``."""
        file = self.file
        if self.ok:  # the first line compared; the chunks that matched hold no blank line
            self.ok, self.recorded, self.line_no = False, deepcopy(self.audit), self.lines
        while line := file.readline():
            self.line_no += 1
            if line := line.rstrip(b"\n"):
                event = _decode(line, self.line_no)
                if self.recorded is not None:
                    self.recorded.add(event)
                break
        have, self.bytes, self.lines = line or None, file.tell(), self.lines + 1
        if have != want and self.divergence is None:
            self.divergence = self.lines

    def finish(self, ledger: Ledger) -> None:
        """Check the events the ledger still holds, then read the rest of the file, of which the run
        logged nothing; then raise the error of a Step command the stream ended before."""
        self.check(ledger)
        self.file.seek(self.bytes)
        while self.file.read(1):
            self.file.seek(self.bytes)
            self._compare(None)
        if self.stop is not None:
            raise ReplayError(f"seq {json.loads(self.stop[0])['seq']}: {self.stop[1]}")


def _reexecute(path: str | Path, fold: bool = False) -> tuple[RunContext, _Check]:
    """Execute the command stream a log embeds, under its genesis seed and config, and compare.

    Returns the run's context, whose ledger holds no events, and the check, whose ``divergence`` is
    the 1-based seq of the first recorded line that differs from the re-executed log (None if no
    line does, blank recorded lines ignored), and whose ``audit`` (given ``fold``) and ``digest``
    have folded the run's whole log. The run streams the file's Step lines while ``_Check``
    compares its events with the file; a pipe is read whole first.
    """
    with open(path, "rb") as file:
        if not file.seekable():  # a pipe: read it whole
            file = io.BytesIO(file.read())
        check = _Check(file, fold)
        scenario, config = _log_scenario(file, check)
        ctx = execute_scenario(scenario, base_config=config, on_step=check.on_step)
        check.finish(ctx.sim.ledger)
    return ctx, check


def replay_log(path: str | Path) -> tuple[ReplayOutcome, Simulation]:
    """Re-execute a log's command stream and compare the recorded bytes with the canonical log.

    Any surviving single-byte difference names its seq.
    """
    ctx, check = _reexecute(path)
    if check.divergence is not None:
        return ReplayOutcome(False, check.divergence), ctx.sim
    return ReplayOutcome(True), ctx.sim


def report_from_log(path: str | Path) -> RunReport:
    """Rebuild the report by re-executing the log.

    Recorded bytes equal to the re-run's canonical bytes are the same events, so
    the recorded events are audited on their own only when the two diverge.
    """
    ctx, check = _reexecute(path, fold=True)
    report = build_report(ctx, check.audit, check.digest.hexdigest())
    if check.divergence is not None:
        recorded = [v for v in check.recorded.finish() if v not in report.violations]
        report.violations.extend(recorded)
        report.violations.append(f"recorded log diverges from deterministic re-execution at seq {check.divergence}")
    return report
