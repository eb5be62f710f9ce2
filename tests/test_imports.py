"""Every top-level import in a ``guardsim`` module is used by that module.

No linter ships with the package, so this walks each module's syntax tree:
a name bound by a module-level ``import`` or ``from ... import`` must appear as
a name somewhere in the module. ``__init__.py`` only re-exports, and
``from __future__ import annotations`` binds nothing, so both are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import guardsim

MODULES = sorted(p for p in Path(guardsim.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
