"""Every name a module under src/ imports is used.

A module may import a name that it only hands on: the package's `__init__`
re-exports the names of `aoi_sched.__all__`, and `perfbench/tracer.py`
wraps the functions named in its SPAN_SITES and LEAF_SITES where a module
looks them up.  Any other imported name must be read in the module that
imports it.  The lint parses the files with `ast` and imports none of them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aoi_sched"
TRACER = ROOT / "perfbench" / "tracer.py"


def unused_imports(source: str, kept=frozenset()) -> list[str]:
    """The names source imports and never reads, less those in kept, in
    import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read and name not in kept]


def tracer_sites() -> dict[str, set[str]]:
    """module -> the names the tracer looks up in it, from the literal
    SPAN_SITES and LEAF_SITES tuples of perfbench/tracer.py."""
    sites: dict[str, set[str]] = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SPAN_SITES", "LEAF_SITES")
                for t in node.targets):
            for module, attr, _ in ast.literal_eval(node.value):
                sites.setdefault(module, set()).add(attr.split(".")[0])
    return sites


def public_names() -> set[str]:
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("aoi_sched/__init__.py assigns no __all__")


def test_src_modules_use_every_name_they_import():
    sites = tracer_sites()
    assert sites, "perfbench/tracer.py lists no lookup site"
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = "aoi_sched" if path.stem == "__init__" else f"aoi_sched.{path.stem}"
        kept = sites.get(module, set()) | (public_names() if path.stem == "__init__" else set())
        if names := unused_imports(path.read_text(), kept):
            unused[path.name] = names
    assert unused == {}


def test_lint_reports_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport os.path\n"
              "from .model import EMPTY, Action, enumerate_transitions\n"
              "def f(x):\n    import hashlib\n    return np.sum(x) + EMPTY\n")
    assert unused_imports(source) == ["os", "Action", "enumerate_transitions", "hashlib"]
    assert unused_imports(source, {"enumerate_transitions"}) == ["os", "Action", "hashlib"]
