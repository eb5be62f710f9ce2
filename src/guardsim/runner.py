"""Scenario execution, replay verification and reporting.

Every executed step is logged as a Step event before its effects, so a log
embeds its own command stream: replay re-executes that stream under the
genesis seed and config and demands byte-identical serialization. Step
failures are events, not aborts; attack scripts trip guards on purpose.
``execute_scenario`` and ``run_step`` are the one step loop: run, replay,
report, state, case and the fuzzer all execute steps through them.

Replay and report stream a log front to back. Of its lines they decode only
the first Genesis line, checked against the event table, and the command
string of each line after it that starts as a canonical Step line, each read
as execution reaches it (keys are sorted, so a canonical line starts with its
kind). After a step, once a chunk of events is held, they are rendered and
compared with the file's next unchecked bytes, report folds its counts, audit
and digest over them, and they are dropped. So neither command holds the
event history or the recorded file, and a replayed ledger has no log bytes.
That read checks no
Step event: a re-executed log equal to the recorded bytes is the program's own
render of events the append check admitted, so it shows every line was
canonical and in index order. Otherwise the whole file is read again, parsed
and compared line by line after the prefix that matched. Every parsed event
must pass the event table's check, which the readers after the parse then
trust; the first it refuses is a ReplayError naming its seq and field. State
and case read the sim that replay re-executes.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field
from itertools import zip_longest
from json.decoder import scanstring
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple

from .audit import Audit, audit_events
from .config import SimConfig, apply_override, config_from_payload
from .errors import ParseError, RejectedInput, ReplayError, SimError, UnknownName
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
        raise UnknownName(name)


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
    events: list[EventRecord] = []
    for line_no, line in enumerate(data.split(b"\n"), start=1):
        if not line:
            continue
        try:
            body = json.loads(line)
        except ValueError as exc:  # bad JSON and bad UTF-8
            raise ReplayError(f"line {line_no}: not a canonical event record ({exc})") from None
        events.append(_event(body, line_no))
    return events


_BODY_KEYS = {"kind", "payload", "seq", "time"}


def _event(body, line_no: int) -> EventRecord:
    """The record of one decoded log line; a ReplayError unless the event table admits it."""
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


def scenario_from_events(events: list[EventRecord]) -> tuple[Scenario, SimConfig]:
    """Reconstruct the command stream and effective config embedded in a log."""
    scenario, config = _genesis_scenario(next((ev for ev in events if ev.kind == "Genesis"), None))
    commands = sorted((ev.payload["index"], ev.payload["command"], ev.seq) for ev in events if ev.kind == "Step")
    for _index, command, seq in commands:
        try:
            step = parse_step(command)
        except ParseError as exc:
            raise ReplayError(f"seq {seq}: bad Step command {command!r} ({exc.reason})") from None
        if step.raw != command:
            raise ReplayError(f"seq {seq}: Step command {command!r} is not in normal form {step.raw!r}")
        scenario.steps.append(step)
    return scenario, config


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
    detail: str = ""


_GENESIS = b'{"kind":"Genesis",'
_STEP = b'{"kind":"Step","payload":{"command":"'  # keys are sorted: a canonical line starts with its kind


def _fast_scenario(lines: Iterator[bytes]) -> tuple[Scenario, SimConfig] | None:
    """The stepless scenario and the config of the first of ``lines`` that starts as a canonical
    Genesis line, read up to that line, with ``_fast_steps`` of the lines after it as its steps; None
    if that line is missing or does not make one. A Step line before it cannot match a run, which
    logs its Genesis event before any step."""
    genesis = next((line for line in lines if line.startswith(_GENESIS)), b"")
    try:  # on a failure the full parse decodes the log again and names the bad line
        scenario, config = _genesis_scenario(_event(json.loads(genesis), 0))
    except (ValueError, ReplayError):
        return None
    scenario.steps = _fast_steps(lines)
    return scenario, config


def _fast_steps(lines: Iterable[bytes]) -> Iterator[Step]:
    """The step of each of ``lines`` that starts as a canonical Step line, in order, each read as
    execution reaches it. The stream ends before a command that does not decode or parse or is not
    in normal form: a run of it logs no such line, so it cannot re-execute the log. Sound only once
    the re-executed bytes equal the log's."""
    for line in lines:
        if not line.startswith(_STEP):
            continue
        try:
            command = scanstring(line.decode("ascii"), len(_STEP))[0]
            step = parse_step(command)
        except (ValueError, ParseError):
            return
        if step.raw != command:
            return
        yield step


class _Check:
    """The re-executed events, checked against the recorded file as the run reads it.

    After a step, once ``_CHUNK`` events are held, ``check`` renders them and compares them with
    the file's next unchecked bytes, read without moving the step stream's place in the file. A
    chunk that matches is folded into ``audit`` and ``digest`` (given ``fold``) and dropped from
    the ledger; at the first that differs, checking stops and the ledger keeps every later event.
    """

    def __init__(self, file: BinaryIO | None, fold: bool):
        self.file, self.audit, self.digest = file, Audit() if fold else None, hashlib.sha256()
        self.ok = True  # no chunk differed
        self.lines = self.bytes = 0  # the recorded lines that matched, and their size

    def on_step(self, ctx: RunContext, _step: Step, _events) -> None:
        if self.ok and len(ctx.sim.ledger.events) >= _CHUNK:
            self.check(ctx.sim.ledger)

    def check(self, ledger: Ledger) -> None:
        events, file = ledger.events, self.file
        chunk = serialize_events(events)
        resume = file.tell()
        file.seek(self.bytes)
        self.ok = file.read(len(chunk)) == chunk
        file.seek(resume)
        if self.ok:
            self.fold(events, chunk)
            self.lines, self.bytes = self.lines + len(events), self.bytes + len(chunk)
            ledger.drop_checked(len(events))

    def fold(self, events: list[EventRecord], rendered: bytes) -> None:
        if self.audit is not None:
            for ev in events:
                self.audit.add(ev)
            self.digest.update(rendered)

    def matched(self, ledger: Ledger) -> bool:
        """Whether the file holds the events checked and those the ledger holds, and nothing more."""
        if self.ok:
            self.check(ledger)
        self.file.seek(self.bytes)
        return self.ok and not self.file.read(1)


def _reexecute(path: str | Path, fold: bool = False) -> tuple[RunContext, int | None, list[EventRecord] | None, _Check]:
    """Execute the command stream a log embeds, under its genesis seed and config, and compare.

    Returns the run's context, the 1-based seq of the first recorded line that differs from the
    re-executed log (None if no line does), the recorded events (None if the recorded bytes are the
    canonical log), and the check, whose ``audit`` (given ``fold``) and ``digest`` have folded the
    run's whole log. The run streams the file's Step lines while ``_Check`` compares its events
    with the file a chunk at a time; a pipe is read whole first. Only on a mismatch is the whole
    file read: the full parse, the fast run reused when the parse reads the same stream, and the
    line split after the prefix that matched, with blank recorded lines ignored.
    """
    with open(path, "rb") as file:
        if not file.seekable():  # a pipe: read it whole
            file = io.BytesIO(file.read())
        check = _Check(file, fold)
        fast = _fast_scenario(file)
        if fast is not None:
            ctx = execute_scenario(fast[0], base_config=fast[1], on_step=check.on_step)
            if check.matched(ctx.sim.ledger):
                return ctx, None, None, check
            file.seek(0)
            fast[0].steps = list(_fast_scenario(file)[0].steps)  # the stream the fast run executed
        file.seek(0)
        data = file.read()
    events = parse_log(data)
    parsed = scenario_from_events(events)
    if parsed != fast:
        ctx = execute_scenario(parsed[0], base_config=parsed[1])
        check = _Check(None, fold)  # nothing of this run was checked
    del fast, parsed  # free both command streams before the line split
    have = [line for line in data[check.bytes :].split(b"\n") if line]
    rest = serialize_events(ctx.sim.ledger.events)  # the events no chunk check dropped
    check.fold(ctx.sim.ledger.events, rest)
    want = rest.split(b"\n")[:-1]
    for seq, (have_line, want_line) in enumerate(zip_longest(have, want), start=check.lines + 1):
        if have_line != want_line:
            return ctx, seq, events, check
    return ctx, None, events, check


def replay_log(path: str | Path) -> tuple[ReplayOutcome, Simulation]:
    """Re-execute a log's command stream and compare the recorded bytes with the canonical log.

    Any surviving single-byte difference names its seq.
    """
    ctx, seq, _events, _check = _reexecute(path)
    if seq is not None:
        return ReplayOutcome(False, seq, "event diverges from deterministic re-execution"), ctx.sim
    return ReplayOutcome(True), ctx.sim


def report_from_log(path: str | Path) -> RunReport:
    """Rebuild the report by re-executing the log.

    Recorded bytes equal to the re-run's canonical bytes are the same events, so
    the recorded events are audited on their own only when the two diverge.
    """
    ctx, seq, events, check = _reexecute(path, fold=True)
    report = build_report(ctx, check.audit, check.digest.hexdigest())
    if seq is not None:
        recorded = [v for v in audit_events(events) if v not in report.violations]
        report.violations.extend(recorded)
        report.violations.append(f"recorded log diverges from deterministic re-execution at seq {seq}")
    return report
