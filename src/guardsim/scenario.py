"""Line-oriented scenario DSL: one verb per line, ``#`` starts a comment.

Header directives (NAME, SEED, CONFIG) may appear anywhere but apply to the
whole run. Parsing validates verbs and arity up front so a bad script fails
at load time, not mid-run; runtime failures (unknown names, guard rejections)
are deliberately left to execution, where they become logged events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError
from .ledger import SEEDS

# verb -> (min args, max args or None for open-ended, indices that must be ints)
VERBS: dict[str, tuple[int, int | None, tuple[int, ...]]] = {
    "ACCOUNT": (2, 2, ()),
    "JUROR": (1, 1, ()),
    "ADVANCE": (1, 1, (0,)),
    "FLAG": (1, 2, ()),
    "BLACKLIST": (1, 1, ()),
    "MODEL": (3, 3, ()),
    "PAY": (3, 3, ()),
    "MINT": (2, 2, (1,)),
    "TRANSFER": (5, 5, (3,)),
    "SAFE_TRANSFER": (5, 5, (3,)),
    "APPROVE": (3, 3, (2,)),
    "APPROVE_ALL": (3, 3, ()),
    "REGISTER_AUX": (2, 2, ()),
    "LOCK": (2, 2, (1,)),
    "UNLOCK": (2, 2, (1,)),
    "UNLOCK_BAD": (2, 2, (1,)),
    "REPORT": (2, 2, (1,)),
    "EVIDENCE": (2, None, (1,)),
    "EMPANEL": (1, 1, (0,)),
    "VOTE": (3, 3, (1,)),
}

_DIRECTIVES = {"NAME", "SEED", "CONFIG"}


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class Step:
    line_no: int
    verb: str
    args: tuple[str, ...]

    @property
    def raw(self) -> str:
        return " ".join((self.verb, *self.args))


@dataclass
class Scenario:
    name: str = ""
    seed: int = 0
    config_overrides: list[tuple[str, str]] = field(default_factory=list)
    steps: list[Step] = field(default_factory=list)


def parse_scenario(text: str, default_name: str = "") -> Scenario:
    scenario = Scenario(name=default_name)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        verb = parts[0].upper()
        args = parts[1:]
        if verb in _DIRECTIVES:
            if verb == "NAME":
                if not args:
                    raise ParseError(line_no, "NAME needs a value")
                scenario.name = " ".join(args)
            elif verb == "SEED":
                if len(args) != 1 or not _is_int(args[0]):
                    raise ParseError(line_no, "SEED needs one integer")
                scenario.seed = int(args[0])
                if scenario.seed not in SEEDS:
                    raise ParseError(line_no, f"SEED must be in [0, 2**64), got {args[0]}")
            else:
                if len(args) != 2:
                    raise ParseError(line_no, "CONFIG needs a key and a value")
                scenario.config_overrides.append((args[0], args[1]))
            continue
        signature = VERBS.get(verb)
        if signature is None:
            raise ParseError(line_no, f"unknown verb {parts[0]!r}")
        min_args, max_args, int_positions = signature
        if len(args) < min_args or (max_args is not None and len(args) > max_args):
            raise ParseError(line_no, f"{verb} takes {min_args}{'+' if max_args is None else f'..{max_args}'} args")
        for pos in int_positions:
            if not _is_int(args[pos]):
                raise ParseError(line_no, f"{verb} arg {pos + 1} must be an integer")
        scenario.steps.append(Step(line_no, verb, tuple(args)))
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


def normalize(text: str, default_name: str = "") -> str:
    return format_scenario(parse_scenario(text, default_name))


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return parse_scenario(path.read_text(), default_name=path.stem)
