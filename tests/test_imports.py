"""The package's own lint: no unused top-level import, no unused definition and
no event kind outside the event table.

No linter ships with the package, so this walks each module's syntax tree.
A name bound by a module-level ``import`` or ``from ... import`` must appear as
a name somewhere in the module; ``from __future__ import annotations`` binds
nothing, so it is skipped. ``__init__.py`` imports nothing at all: it holds the
package docstring and ``__version__``, and each name is imported from the
module that defines it, so no re-export can keep a name alive.

Every module-level function or class and every method of such a class must be
referenced by name (a name, an attribute or an imported name) somewhere in
``src/`` or ``bench/`` outside its own body. Tests and strings do not count;
dunder methods are called implicitly.

The kinds ``append_event`` is called with in ``src/`` must be exactly the kinds
of ``ledger.EVENT_KINDS``, which renders no other. The log readers trust the
table's keys, so every constant key the audit, ``explain``, the risk rules
(``risk.rule_hits``, which judge the payload they log, and ``risk.classify``,
which reads the hits they return) and ``risk.classify_payload`` subscript must be a field of the table: a misspelt
one would be an uncaught ``KeyError``.

Every ``runner.<name>`` that ``bench/run.py`` or ``bench/fresh_setup.py``
names must exist: the benchmark runs on the committed sources, so deleting
one of its entry points would fail the benchmark, not a test. Every function
``bench/run.py`` traces (its ``SPANS`` and the keys of its ``COUNTERS``) must
resolve under ``guardsim``, save the one listed in ``UNRESOLVED_TRACE_TARGETS``:
a renamed one is not an error there, its layer just reads 0.

``errors.py`` defines exactly the error classes of ``ERROR_CLASSES`` and no
other module subclasses one: a refusal is ``Refused(code, ...)``, never a class
per code. Each ``Refused`` call in ``src/`` names its code as a string literal,
except the guard's ``Refused(refusal)``, whose ``refusal`` is what
``transfer_guard`` returns, one of its string constants. Those codes are the
rows of the README's refusal-code table.
"""

from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import guardsim
from guardsim import runner
from guardsim.errors import SimError
from guardsim.fuzz import Fuzzer
from guardsim.ledger import EVENT_KINDS, SHAPES

PACKAGE = Path(guardsim.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == ["line 2: os", "line 3: dumps"]


def imports(source: str) -> list[str]:
    """Every ``import`` and ``from ... import`` statement of ``source``, at any depth."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_the_package_module_imports_nothing():
    assert imports((PACKAGE / "__init__.py").read_text()) == []


def test_the_check_sees_a_re_export():
    source = '"""Doc."""\n\nfrom .sim import Simulation\n\nif True:\n    import os\n__version__ = "0"\n'
    assert imports(source) == ["from .sim import Simulation", "import os"]


def references(tree: ast.AST) -> Counter:
    """How often each name is read, as a name, an attribute or an imported name, in ``tree``."""
    counts: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.asname or node.name] += 1
    return counts


def definitions(tree: ast.Module) -> list[ast.FunctionDef | ast.ClassDef]:
    """The module-level functions and classes of ``tree`` and the methods of those classes, dunders excepted."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node)
            if isinstance(node, ast.ClassDef):
                found += [item for item in node.body if isinstance(item, ast.FunctionDef)]
    return [node for node in found if not (node.name.startswith("__") and node.name.endswith("__"))]


def unused_definitions(modules: dict[str, str], corpus: Counter) -> list[str]:
    """``module:name`` of each definition in ``modules`` that ``corpus`` never references outside its own body."""
    unused = []
    for module, source in modules.items():
        for node in definitions(ast.parse(source)):
            if corpus[node.name] - references(node)[node.name] <= 0:
                unused.append(f"{module}:{node.name}")
    return unused


def test_every_definition_is_referenced():
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    corpus = sum((references(ast.parse(p.read_text())) for p in sources), Counter())
    assert unused_definitions({p.name: p.read_text() for p in MODULES}, corpus) == []


def test_the_check_sees_an_unused_definition():
    source = (
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "class Box:\n    def __init__(self):\n        self.size = used()\n\n"
        "    def unused_method(self):\n        return self.size\n\n"
        "def planted():\n    return Box()\n"
    )
    corpus = references(ast.parse(source)) + references(ast.parse("from m import used\n"))
    assert unused_definitions({"m.py": source}, corpus) == ["m.py:recursive", "m.py:unused_method", "m.py:planted"]


def resolve_kind(node: ast.expr, assigned: dict, tables: dict) -> set[str]:
    """The strings an event-kind argument can be: a literal, both arms of a conditional, a local
    name through its assignment, or every value of a module-level dict literal read by ``.get``.
    Anything else is ``?`` and its source, which no table lists."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return resolve_kind(node.body, assigned, tables) | resolve_kind(node.orelse, assigned, tables)
    if isinstance(node, ast.Name) and node.id in assigned:
        return resolve_kind(assigned[node.id], assigned, tables)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in tables
    ):
        return set().union(*(resolve_kind(value, assigned, tables) for value in tables[node.func.value.id].values))
    return {"?" + ast.unparse(node)}


def logged_kinds(source: str) -> set[str]:
    """Every kind passed to an ``append_event`` call in ``source``."""
    tree = ast.parse(source)
    tables = {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    kinds: set[str] = set()
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        assigned = {
            target.id: node.value
            for node in ast.walk(function)
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for call in ast.walk(function):
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "append_event":
                kinds |= resolve_kind(call.args[0], assigned, tables)
    return kinds


def test_every_logged_kind_is_in_the_event_table():
    kinds = set().union(*(logged_kinds(path.read_text()) for path in MODULES))
    assert kinds == set(EVENT_KINDS)


def test_the_check_sees_a_planted_unknown_kind():
    source = (
        'EFFECTS = {"a": "Locked", "b": "Planted"}\n'
        "def log(ledger, flag, action):\n"
        '    ledger.append_event("Step" if flag else "Transfer", {})\n'
        "    kind = EFFECTS.get(action)\n"
        "    ledger.append_event(kind, {})\n"
        "    ledger.append_event(action.title(), {})\n"
    )
    planted = logged_kinds(source)
    assert planted == {"Step", "Transfer", "Locked", "Planted", "?action.title()"}
    assert planted - set(EVENT_KINDS) == {"Planted", "?action.title()"}


# (module, function) whose constant subscripts read event payloads; None reads the whole module.
PAYLOAD_READERS = [
    ("audit.py", None),
    ("cli.py", "cmd_explain"),
    ("cli.py", "_explanation"),
    ("risk.py", "extract_features"),
    ("risk.py", "rule_hits"),
    ("risk.py", "classify"),
    ("risk.py", "classify_payload"),
]
TABLE_FIELDS = {
    field for spec in EVENT_KINDS.values() for fields in (spec if isinstance(spec, tuple) else (spec,)) for field in fields
} | {field for fields in SHAPES.values() for field in fields}


def subscripted_keys(source: str, function: str | None = None) -> set[str]:
    """Every string constant subscripted in ``source``, or only in its module-level ``function``."""
    tree = ast.parse(source)
    if function is not None:
        tree = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function)
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str)
    }


def test_every_payload_key_a_reader_subscripts_is_in_the_event_table():
    for module, function in PAYLOAD_READERS:
        keys = subscripted_keys((PACKAGE / module).read_text(), function)
        assert keys and keys <= TABLE_FIELDS, (module, function, keys - TABLE_FIELDS)


def test_the_check_sees_a_misspelt_payload_key():
    source = (
        "def read(p, hits):\n"
        "    return p['token_id'], p['tokn_id'], f\"{hits[0]['rul']}\", p[0]\n\n"
        "def other(p):\n    return p['elsewhere']\n"
    )
    assert subscripted_keys(source, "read") == {"token_id", "tokn_id", "rul"}
    assert subscripted_keys(source, "read") - TABLE_FIELDS == {"tokn_id", "rul"}
    assert subscripted_keys(source) - TABLE_FIELDS == {"tokn_id", "rul", "elsewhere"}


def runner_names(source: str) -> set[str]:
    """Each name ``source`` reads from the runner module: ``runner.<name>`` or ``<x>.runner.<name>`` in
    code, and each ``"runner.<name>"`` entry of a ``SPANS`` list."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "runner") or (
                isinstance(owner, ast.Attribute) and owner.attr == "runner"
            ):
                names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            names |= {item.value.split(".", 1)[1] for item in node.value.elts if item.value.startswith("runner.")}
    return names


def test_every_runner_function_the_benchmark_names_exists():
    names = set().union(*(runner_names((ROOT / "bench" / name).read_text()) for name in ("run.py", "fresh_setup.py")))
    assert {"read_log", "scenario_from_events", "replay_log", "report_from_log", "write_log"} <= names
    assert sorted(name for name in names if not hasattr(runner, name)) == []
    # the attributes the benchmark reads from what those functions return
    assert {"passed", "divergence_seq"} <= set(runner.ReplayOutcome._fields)
    assert Fuzzer(0).ops_per_run > 0


def test_the_check_sees_a_missing_runner_function():
    source = (
        'SPANS = ["risk.classify", "runner.gone_span"]\n'
        "def go(self, runner):\n    return runner.replay_log, self.runner.gone_call, other.report\n"
    )
    assert runner_names(source) == {"gone_span", "replay_log", "gone_call"}


# deleted from the ledger before the benchmark could drop its span (ROADMAP item 1)
UNRESOLVED_TRACE_TARGETS = ["ledger.digest_events"]


def trace_targets(source: str) -> list[str]:
    """Each entry of the module-level ``SPANS`` list and each key of the ``COUNTERS`` dict of ``source``."""
    targets = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) in ("SPANS", "COUNTERS"):
            items = node.value.keys if isinstance(node.value, ast.Dict) else node.value.elts
            targets += [item.value for item in items]
    return targets


def resolves(target: str) -> bool:
    """Whether ``<module>.<qualname>`` names an attribute of a ``guardsim`` module."""
    module, _, qualname = target.partition(".")
    owner = importlib.import_module(f"guardsim.{module}")
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    return owner is not None


def test_every_function_the_benchmark_traces_exists():
    targets = trace_targets((ROOT / "bench" / "run.py").read_text())
    assert len(targets) == 37 and {"risk.extract_features", "token.TokenContract.__init__"} <= set(targets)
    assert [target for target in targets if not resolves(target)] == UNRESOLVED_TRACE_TARGETS


def test_the_check_sees_a_renamed_trace_target():
    source = (
        'SPANS = ["risk.classify", "risk.TransferIntent"]\n'
        'COUNTERS = {"oracle.OracleBridge.fulfill": count, "oracle.OracleBridge.gone": count}\n'
        'OTHER = ["risk.planted"]\n'
    )
    targets = trace_targets(source)
    assert targets[:2] == ["risk.classify", "risk.TransferIntent"]
    assert targets[2:] == ["oracle.OracleBridge.fulfill", "oracle.OracleBridge.gone"]
    assert [target for target in targets if not resolves(target)] == ["risk.TransferIntent", "oracle.OracleBridge.gone"]


ERROR_CLASSES = ["SimError", "RejectedInput", "Refused", "ParseError", "ReplayError"]


def error_classes(source: str) -> dict[str, list[str]]:
    """Each class ``source`` defines that subclasses one of ``ERROR_CLASSES`` (or is one), with its bases."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            bases = [ast.unparse(base).rsplit(".", 1)[-1] for base in node.bases]
            if node.name in ERROR_CLASSES or set(bases) & set(ERROR_CLASSES):
                found[node.name] = bases
    return found


def test_errors_defines_the_five_classes_and_no_module_adds_one():
    assert list(error_classes((PACKAGE / "errors.py").read_text())) == ERROR_CLASSES
    assert sorted(cls.__name__ for cls in SimError.__subclasses__()) == sorted(ERROR_CLASSES[1:])
    for path in MODULES:
        if path.name != "errors.py":
            assert error_classes(path.read_text()) == {}, path.name


def test_the_check_sees_a_class_per_code():
    source = "class SimError(Exception):\n    pass\n\nclass NotOwner(errors.SimError):\n    code = 'NotOwner'\n"
    assert error_classes(source) == {"SimError": ["Exception"], "NotOwner": ["SimError"]}


def refusals(source: str) -> list[str]:
    """The code of each ``Refused(...)`` call in ``source``: its literal, or ``?`` and its source."""
    codes = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Refused":
            code = node.args[0] if node.args else None
            literal = isinstance(code, ast.Constant) and isinstance(code.value, str)
            codes.append(code.value if literal else "?" + (ast.unparse(code) if code else ""))
    return codes


def guard_codes(source: str) -> set[str]:
    """The string constants ``transfer_guard`` in ``source`` returns."""
    tree = ast.parse(source)
    guard = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "transfer_guard")
    return {
        node.value.value
        for node in ast.walk(guard)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    }


def refusal_codes() -> set[str]:
    """Every code a ``Refused`` in ``src/`` can carry; fails if one is neither a literal nor the guard's."""
    codes = set()
    for path in MODULES:
        source = path.read_text()
        found = refusals(source)
        others = {code for code in found if code.startswith("?")}
        if path.name == "token.py":
            assert others == {"?refusal"}
            tree = ast.parse(source)
            assigned = {
                ast.unparse(node.value)
                for node in ast.walk(tree)
                if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "refusal" for t in node.targets)
            }
            assert assigned == {"self.transfer_guard(token_id, caller)"}
            codes |= guard_codes(source)
        else:
            assert others == set(), (path.name, others)
        codes |= set(found) - others
    return codes


def test_every_refusal_names_its_code():
    codes = refusal_codes()
    assert {"Locked", "Reclaimed", "Frozen", "NotAuthorized", "CaseClosed", "UnknownName"} <= codes


def test_the_check_sees_a_code_that_is_not_a_literal():
    source = (
        "def transfer_guard(token):\n    if token.locked:\n        return 'Locked'\n    return None\n\n"
        "def go(code):\n    raise Refused('NotOwner', 'x')\n    raise Refused(code)\n    raise Refused()\n"
    )
    assert refusals(source) == ["NotOwner", "?code", "?"]
    assert guard_codes(source) == {"Locked"}


def readme_codes() -> list[str]:
    """The code of each row of the README's refusal-code table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### Refusal codes", 1)[1].split("\n#", 1)[0]
    return [line.split("`")[1] for line in section.splitlines() if line.startswith("| `")]


def test_the_readme_lists_every_refusal_code_once():
    listed = readme_codes()
    assert len(listed) == len(set(listed))
    assert set(listed) == refusal_codes()
