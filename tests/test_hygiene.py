"""Source checks that need no linter: every name a library module imports is
used in that module.  ``__init__.py`` is exempt, since its imports are the
package's exports.  A name read only inside a quoted annotation counts as
unused; the modules use ``from __future__ import annotations`` instead."""
import ast
from pathlib import Path

import pytest

import linhyper

MODULES = sorted(
    p for p in Path(linhyper.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_check_sees_both_import_forms():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nfrom math import ceil, floor\n"
        "def f(x: floor) -> int:\n    return ceil(x)\n"
    )
    assert unused_imports(source) == ["js (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], path.name
