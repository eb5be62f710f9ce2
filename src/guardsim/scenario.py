"""Line-oriented scenario DSL: one verb per line, ``#`` starts a comment.

Header directives (NAME, SEED, CONFIG) may appear anywhere but apply to the
whole run. Every other verb has one entry in ``VERBS``: its argument kinds and
a handler. ``parse_step`` reads a line against that entry, so a bad script
fails at load time, not mid-run: an unknown verb, a wrong argument count or an
integer argument outside [0, 2**63) is a ``ParseError`` naming the line. INT and
TEXT are plain markers; every other kind (names, amounts, on/off, R/H votes,
model scores) is a plain function ``(ctx, text) -> value``, called when the step
executes; its error, like a guard refusal, is a logged ``StepRejected``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .access_control import UnlockAttestation
from .arbitration import FOR_HOLDER, FOR_REPORTER
from .config import INTS
from .errors import ParseError, RejectedInput
from .ledger import SEEDS
from .units import finite_float, to_units


def _int(text: str) -> int:
    value = int(text)
    if value not in INTS:
        raise ValueError(text)
    return value


def _unbound(ctx, name: str) -> str:
    if name in ctx.names:
        raise RejectedInput(f"name already bound: {name}")
    return name


def _checked(convert: Callable[[str], Any], message: str) -> Callable[[Any, str], Any]:
    """A run-time kind: ``convert(text)``, whose KeyError or ValueError rejects the step with ``message``."""

    def run(_ctx, text: str):
        try:
            return convert(text)
        except (KeyError, ValueError):
            raise RejectedInput(message.format(text)) from None

    return run


_ONOFF = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}
_VOTES = {"r": FOR_REPORTER, "h": FOR_HOLDER}

NEW_NAME = _unbound
NAME = lambda ctx, name: ctx.resolve(name)
NAME_OR_ANY = lambda ctx, name: name if name == "*" else ctx.resolve(name)
INT = "int"  # parse-time marker: an integer in ``config.INTS``, converted and bounded when the line is parsed
AMOUNT = lambda _ctx, text: to_units(text)
ONOFF = _checked(lambda text: _ONOFF[text.lower()], "expected on/off, got {!r}")
VOTE = _checked(lambda text: _VOTES[text.lower()], "vote must be R or H, got {!r}")
SCORE = _checked(finite_float, "bad model score {!r}")
TEXT = "text"  # parse-time marker: every remaining word (maybe none), joined by single spaces


class Verb:
    """A verb's argument kinds and handler ``(ctx, *values)``. ``defaults`` fill missing trailing
    arguments, as a function's do; ``order`` is the order the run-time kinds are converted in (so
    which error wins when two arguments are bad), left to right by default."""

    def __init__(self, kinds: tuple, handler, defaults: tuple[str, ...] = (), order=None):
        self.kinds, self.handler, self.defaults = kinds, handler, defaults
        self.max_args = None if kinds[-1] is TEXT else len(kinds)
        self.min_args = len(kinds) - len(defaults) - (self.max_args is None)
        self.ints = tuple(i for i, kind in enumerate(kinds) if kind is INT)
        self.runtime = tuple((i, kinds[i]) for i in (order or range(len(kinds))) if callable(kinds[i]))


def _account(ctx, name, balance):
    ctx.names[name] = ctx.sim.ledger.create_account(balance)


def _juror(ctx, address):
    if address not in ctx.pool:
        ctx.pool.append(address)


def _register_aux(ctx, main, aux):
    access = ctx.sim.access
    access.register_aux(main, aux, access.registration_digest(main, aux))


def _unlock(ctx, main, token_id):
    access = ctx.sim.access
    access.unlock(main, token_id, access.make_attestation(main, token_id))


def _unlock_bad(ctx, main, token_id):
    aux, now = ctx.sim.access.links.get(main, main), ctx.sim.ledger.time
    ctx.sim.access.unlock(main, token_id, UnlockAttestation(main, aux, token_id, now, 0, b"\x00" * 32))


_TRANSFER = (NAME, NAME, NAME, INT, AMOUNT)

VERBS: dict[str, Verb] = {
    "ACCOUNT": Verb((NEW_NAME, AMOUNT), _account),
    "JUROR": Verb((NAME,), _juror),
    "ADVANCE": Verb((INT,), lambda ctx, ticks: ctx.sim.ledger.advance_time(ticks)),
    "FLAG": Verb((NAME, ONOFF), lambda ctx, *a: ctx.sim.ledger.set_explorer_flag(*a), defaults=("on",)),
    "BLACKLIST": Verb((NAME,), lambda ctx, operator: ctx.sim.blacklist_operator(operator)),
    "MODEL": Verb((NAME_OR_ANY, NAME_OR_ANY, SCORE), lambda ctx, *a: ctx.sim.install_model_entry(*a)),
    "PAY": Verb((NAME, NAME, AMOUNT), lambda ctx, *a: ctx.sim.ledger.transfer_value(*a)),
    "MINT": Verb((NAME, INT), lambda ctx, *a: ctx.sim.contract.mint(*a)),
    "TRANSFER": Verb(_TRANSFER, lambda ctx, *a: ctx.sim.contract.transfer_from(*a)),
    "SAFE_TRANSFER": Verb(_TRANSFER, lambda ctx, *a: ctx.sim.contract.transfer_from(*a, safe_variant=True)),
    "APPROVE": Verb((NAME, NAME, INT), lambda ctx, *a: ctx.sim.contract.approve(*a)),
    "APPROVE_ALL": Verb((NAME, NAME, ONOFF), lambda ctx, *a: ctx.sim.contract.set_approval_for_all(*a)),
    "REGISTER_AUX": Verb((NAME, NAME), _register_aux),
    "LOCK": Verb((NAME, INT), lambda ctx, *a: ctx.sim.access.lock(*a)),
    "UNLOCK": Verb((NAME, INT), _unlock),
    "UNLOCK_BAD": Verb((NAME, INT), _unlock_bad),
    "REPORT": Verb((NAME, INT), lambda ctx, *a: ctx.sim.arbitration.file_report(*a)),
    "EVIDENCE": Verb(
        (NAME, INT, TEXT),
        lambda ctx, party, case_id, text: ctx.sim.arbitration.submit_evidence(case_id, party, text.encode()),
    ),
    "EMPANEL": Verb((INT,), lambda ctx, case_id: ctx.sim.arbitration.empanel_jury(case_id, ctx.pool, ctx.sim.seed)),
    "VOTE": Verb(
        (NAME, INT, VOTE),
        lambda ctx, juror, case_id, vote: ctx.sim.arbitration.cast_vote(case_id, juror, vote),
        order=(2, 0, 1),  # the vote is checked before the juror is resolved
    ),
}

_DIRECTIVES = {"NAME", "SEED", "CONFIG"}
_VERB_NAMES = {verb: verb for verb in VERBS}


class Step(NamedTuple):
    line_no: int
    verb: str  # the key of its ``VERBS`` entry, shared by every step of the verb
    values: tuple  # one per kind: ints converted, trailing text joined, defaults filled in
    raw: str  # the verb and its args joined by single spaces: the step's normal form


@dataclass
class Scenario:
    name: str = ""
    seed: int = 0
    config_overrides: list[tuple[str, str]] = field(default_factory=list)
    steps: list[Step] = field(default_factory=list)


def parse_step(line: str, line_no: int = 0) -> Step:
    """Parse one step line against its verb's entry in ``VERBS``."""
    parts = line.split("#", 1)[0].split()
    if not parts:
        raise ParseError(line_no, "no step on this line")
    return _parse_words(parts, line_no)


def _parse_words(parts: list[str], line_no: int) -> Step:
    """The step a line's words (its comment dropped; at least one word) spell, read against ``VERBS``."""
    verb, args = parts[0].upper(), tuple(parts[1:])
    spec = VERBS.get(verb)
    if spec is None:
        reason = f"{verb} is a directive, not a step" if verb in _DIRECTIVES else f"unknown verb {parts[0]!r}"
        raise ParseError(line_no, reason)
    if len(args) < spec.min_args or (spec.max_args is not None and len(args) > spec.max_args):
        most = "+" if spec.max_args is None else f"..{spec.max_args}"
        raise ParseError(line_no, f"{verb} takes {spec.min_args}{most} args")
    values = list(args)
    if spec.max_args is None:
        values[len(spec.kinds) - 1 :] = [" ".join(args[len(spec.kinds) - 1 :])]
    values.extend(spec.defaults[len(values) - spec.min_args :])
    for pos in spec.ints:
        try:
            values[pos] = _int(values[pos])
        except ValueError:
            raise ParseError(line_no, f"{verb} arg {pos + 1} must be an integer in [0, 2**63)") from None
    return make_step(verb, args, tuple(values), line_no)


def make_step(verb: str, args: tuple[str, ...], values: tuple, line_no: int = 0) -> Step:
    """The step of ``verb`` with argument words ``args`` and their ``values``; its normal form
    joins the verb and the words by single spaces. ``values`` must be what ``parse_step`` makes
    of the words, which the fuzzer's steps are tested against."""
    return Step(line_no, _VERB_NAMES[verb], values, " ".join((verb, *args)))


def parse_scenario(text: str, default_name: str = "") -> Scenario:
    scenario = Scenario(name=default_name)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        verb, args = parts[0].upper(), parts[1:]
        if verb not in _DIRECTIVES:
            scenario.steps.append(_parse_words(parts, line_no))
        elif verb == "NAME":
            if not args:
                raise ParseError(line_no, "NAME needs a value")
            scenario.name = " ".join(args)
        elif verb == "SEED":
            try:
                (value,) = args
                scenario.seed = int(value)
            except ValueError:
                raise ParseError(line_no, "SEED needs one integer") from None
            if scenario.seed not in SEEDS:
                raise ParseError(line_no, f"SEED must be in [0, 2**64), got {value}")
        else:
            if len(args) != 2:
                raise ParseError(line_no, "CONFIG needs a key and a value")
            scenario.config_overrides.append((args[0], args[1]))
    return scenario


def format_scenario(scenario: Scenario) -> str:
    """Normalized text form; parsing it reproduces the same scenario."""
    lines = []
    if scenario.name:
        lines.append(f"NAME {scenario.name}")
    lines.append(f"SEED {scenario.seed}")
    for key, value in scenario.config_overrides:
        lines.append(f"CONFIG {key} {value}")
    lines.extend(step.raw for step in scenario.steps)
    return "\n".join(lines) + "\n"


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return parse_scenario(path.read_text(), default_name=path.stem)
