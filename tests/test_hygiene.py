"""Source checks that need no linter: every name a library module imports is
used in that module (``__init__.py`` is exempt), and every private top-level
name a library module defines is read somewhere in the library.  A name read
only inside a quoted annotation counts as unused; the modules use ``from
__future__ import annotations`` instead.  Every private name the library's
text or README.md quotes in double backticks is still defined.  No library
module but the CLI's argv parser truncates a value with ``int(name)``.  In
``exact_oracle`` only ``_invariant_totals`` reads the invariant prefixes,
the pool and the |B| check, and the margin-class DP behind that check
reads no other library function.  Also the lazy package: what a fresh
interpreter loads, and that every export resolves."""
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import linhyper

SOURCES = sorted(Path(linhyper.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
README = Path(linhyper.__file__).parents[2] / "README.md"


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


def _reads(tree: ast.AST) -> Counter:
    """Names loaded in ``tree``, as bare names or as attributes."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def _private_defs(tree: ast.Module):
    """(name, node) for each top-level function, class or constant whose
    name starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level names of ``sources`` (file name to text) that no
    source reads outside the name's own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{file}: {name} (line {node.lineno})"
        for file, tree in trees.items()
        for name, node in _private_defs(tree)
        if reads[name] - _reads(node)[name] <= 0
    )


def test_dead_private_check_sees_defs_and_reads():
    sources = {
        "a.py": (
            "_CAP = 3\n_UNUSED: int = 4\n"
            "def _walk(n):\n    return _walk(n - 1) if n else _CAP\n"
            "class _Box: pass\ndef public(): pass\n"
        ),
        "b.py": "from .a import _Box\nimport a\nx = a._Box() or a.public\n",
    }
    assert dead_private_names(sources) == [
        "a.py: _UNUSED (line 2)", "a.py: _walk (line 3)",
    ]


def test_no_dead_private_names():
    sources = {p.name: p.read_text() for p in SOURCES}
    assert dead_private_names(sources) == []


def _defined_names(sources: dict[str, str]) -> set[str]:
    """Every function, class, assignment target (a bare name or an
    attribute) and argument that ``sources`` define, at any depth."""
    names = set()
    for text in sources.values():
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(n.name)
            elif isinstance(n, ast.arg):
                names.add(n.arg)
            elif isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Store):
                names.add(n.id if isinstance(n, ast.Name) else n.attr)
    return names


def stale_private_names(texts: dict[str, str], sources: dict[str, str]) -> list[str]:
    """Private names quoted in double backticks in ``texts`` (file name to
    text) that ``sources`` do not define; a dotted name such as
    ``module._name`` is checked by its last part."""
    defined = _defined_names(sources)
    return sorted(
        f"{file}: {quoted}"
        for file, text in texts.items()
        for quoted in set(re.findall(r"``([A-Za-z_][\w.]*)``", text))
        if quoted.rsplit(".", 1)[-1].startswith("_")
        and quoted.rsplit(".", 1)[-1] not in defined
    )


def test_stale_private_check_sees_every_kind_of_definition():
    sources = {"a.py": (
        "_CAP = 2\nclass _Box: pass\n"
        "def _walk(_depth):\n    self._seen = _CAP\n    for _i in range(3): pass\n"
    )}
    texts = {
        "a.py": "``_CAP`` ``_Box`` ``_walk`` ``_depth`` ``mod._seen`` ``_i`` ``public`` "
                "``_walk(n)`` ``_gone`` ``pkg._old`` ``_old.public``",
        "README.md": "``_missing``, twice: ``_missing``",
    }
    assert stale_private_names(texts, sources) == [
        "README.md: _missing", "a.py: _gone", "a.py: pkg._old",
    ]


def test_no_stale_private_names():
    sources = {p.name: p.read_text() for p in SOURCES}
    assert stale_private_names({**sources, "README.md": README.read_text()}, sources) == []


def truncating_ints(source: str) -> list[int]:
    """Lines of ``source`` that call the builtin ``int`` on a bare name:
    ``int(x)`` truncates a float and reads a bool or a numeric string as a
    number, where ``degree_model._as_int`` rejects them."""
    return sorted(
        n.lineno for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "int"
        and len(n.args) == 1 and isinstance(n.args[0], ast.Name)
    )


def test_truncating_int_check_sees_only_bare_names():
    source = (
        "def f(x, rng, s):\n"
        "    a = [int(v) for v in x]\n"
        "    b = int(rng.integers(3)) + int(s[0]) + int('7') + int(s, 2)\n"
        "    return math.int(x), int(\n        x)\n"
    )
    assert truncating_ints(source) == [2, 4]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_no_truncating_ints(path):
    assert truncating_ints(path.read_text()) == [], path.name


def readers(source: str, names) -> dict[str, set[str]]:
    """For each of ``names``, the top-level functions of ``source`` that
    read it as a bare name, a call included (``<module>`` for a read
    outside every function)."""
    found = {name: set() for name in names}
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
        for n in ast.walk(top):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in found:
                found[n.id].add(owner)
    return found


def test_readers_check_sees_nested_and_module_level_reads():
    source = (
        "from ._pool import map_tasks\n"
        "def _driver(fn):\n    def inner():\n        return map_tasks(fn, [], 1)\n"
        "    return inner\n"
        "def other():\n    return _driver\n"
        "RUN = map_tasks\n"
    )
    assert readers(source, ["map_tasks", "_driver", "_absent"]) == {
        "map_tasks": {"_driver", "<module>"}, "_driver": {"other"}, "_absent": set(),
    }


def test_one_invariant_driver():
    # the prefixes, the pool and the |B| check of the invariant counts
    # belong to ``_invariant_totals`` alone, so a second driver cannot grow
    source = (Path(linhyper.__file__).parent / "exact_oracle.py").read_text()
    names = ("_invariant_prefixes", "map_tasks", "_check_count_b")
    assert readers(source, names) == {name: {"_invariant_totals"} for name in names}


def test_margin_dp_reads_no_other_library_function():
    # the |B| check stays a route independent of the sweep: the margin-class
    # DP reads no function ``exact_oracle`` defines or imports from the
    # library (cached ones included), but ``count_b_dp`` its own counter
    from linhyper import exact_oracle

    source = Path(exact_oracle.__file__).read_text()
    names = [name for name, obj in vars(exact_oracle).items()
             if callable(obj) and not isinstance(obj, type)
             and getattr(obj, "__module__", "").startswith("linhyper.")]
    assert {"_degree_masks", "_sweep", "_subset_masks", "_bits", "map_tasks"} <= set(names)
    dp = {"count_matrices_by_classes", "count_b_dp"}
    read = {name: owners & dp for name, owners in readers(source, names).items()}
    assert {name: owners for name, owners in read.items() if owners} == {
        "count_matrices_by_classes": {"count_b_dp"}}


def test_fresh_imports_load_no_submodule_numpy_or_pool():
    # ``import linhyper`` imports no submodule, and the CLI loads numpy and
    # the process pool only in the commands that use them
    script = (
        "import json, sys\n"
        "import linhyper\n"
        "first = sorted(m for m in sys.modules if m.startswith('linhyper.'))\n"
        "import linhyper.cli\n"
        "heavy = ('numpy', 'concurrent.futures', 'multiprocessing')\n"
        "print(json.dumps([first, [m for m in heavy if m in sys.modules]]))\n"
    )
    src = str(Path(linhyper.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    assert json.loads(proc.stdout) == [[], []]


def test_every_export_resolves_to_its_defining_module():
    for name, module in linhyper._SUBMODULE.items():
        defining = importlib.import_module(f"linhyper.{module}")
        namespace = {}
        exec(f"from linhyper import {name}", namespace)
        assert namespace[name] is (defining if name == module else getattr(defining, name))
    assert set(linhyper._SUBMODULE) <= set(dir(linhyper))
    namespace = {}
    exec("from linhyper import *", namespace)
    assert set(linhyper._SUBMODULE) <= set(namespace)
    with pytest.raises(AttributeError):
        linhyper.no_such_name
    from linhyper import _pool  # not an export: the submodule itself

    assert _pool is sys.modules["linhyper._pool"]
