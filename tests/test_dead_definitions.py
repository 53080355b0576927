"""Every top-level definition under src/ is used.

A function, class or assigned name at the top level of a module in
src/aoi_sched/ must be read somewhere in src/, be a public name of
`aoi_sched.__all__`, be a name that `perfbench/tracer.py` looks up (its
SPAN_SITES and LEAF_SITES), or be a dunder.  Like the unused-import lint,
this one parses the files with `ast` and imports none of them.
"""

import ast

from .test_unused_imports import PACKAGE, public_names, tracer_sites


def definitions(tree: ast.Module) -> list[str]:
    """The names a module defines at its top level, in source order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return names


def dead_definitions(sources: dict[str, str], kept=frozenset()) -> dict[str, list[str]]:
    """file -> the names it defines at top level that no source reads, less
    dunders and those in kept."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    dead = {}
    for name, tree in trees.items():
        unread = [d for d in definitions(tree) if d not in read and d not in kept
                  and not (d.startswith("__") and d.endswith("__"))]
        if unread:
            dead[name] = unread
    return dead


def test_src_modules_read_every_name_they_define():
    kept = public_names() | {name for names in tracer_sites().values() for name in names}
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_definitions(sources, kept) == {}


def test_lint_reports_a_dead_definition():
    sources = {
        "a.py": ("import numpy as np\n__all__ = ['f']\n_TABLE = np.arange(3)\n"
                 "UNUSED, (PAIR, _) = 1, (2, 3)\n"
                 "def f():\n    return helper(_TABLE)\n"
                 "def helper(x):\n    return x\n"
                 "class Old:\n    pass\n"),
        "b.py": "from .a import f\nSITE = 0\nf()\n",
    }
    assert dead_definitions(sources) == {"a.py": ["UNUSED", "PAIR", "_", "Old"],
                                         "b.py": ["SITE"]}
    assert dead_definitions(sources, {"SITE", "_"}) == {"a.py": ["UNUSED", "PAIR", "Old"]}
