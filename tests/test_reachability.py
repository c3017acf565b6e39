"""Every top-level name in the package is reached from a command or the acceptance suite.

The walk is static and conservative.  Its roots are the whole of `cli.py`,
the whole of `tests/test_acceptance.py` and every module-level statement of
the package (the code that runs on import, decorators and default values
included).  A name is used where it is read as a variable or named as an
attribute, whatever the object; an import binds a name but uses none.  The
body of a reached function or class is walked in turn, until nothing new is
reached.  Names are matched by spelling alone, across modules, so a name
reached anywhere counts as reached everywhere.

`__version__` is package metadata, read by people rather than code, and
`__all__` is read by the import system, so neither needs a use.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "srknots"
ROOTS = (PACKAGE / "cli.py", Path(__file__).resolve().parent / "test_acceptance.py")
EXEMPT = {"__version__", "__all__"}


def used_names(nodes):
    """Names read as variables or named as attributes anywhere under `nodes`."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def import_time_parts(stmt):
    """The parts of a top-level statement that run when its module is imported."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = stmt.args
        return [*stmt.decorator_list, *args.defaults, *filter(None, args.kw_defaults)]
    if isinstance(stmt, ast.ClassDef):
        return [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
    return [stmt]


def defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unreached_names():
    """'module.name' for each top-level name of the package that no root reaches."""
    definitions = {}  # name -> [(module, statement)]
    roots = [ast.parse(path.read_text()) for path in ROOTS]
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            roots += import_time_parts(stmt)
            for name in defined_names(stmt):
                definitions.setdefault(name, []).append((path.stem, stmt))
    reached = set()
    frontier = used_names(roots)
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        bodies = [stmt for _, stmt in definitions.get(name, ())
                  if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        frontier |= used_names(bodies) - reached
    return sorted(
        f"{module}.{name}"
        for name, where in definitions.items()
        if name not in reached and name not in EXEMPT
        for module, _ in where
    )


def test_every_top_level_name_is_reached():
    assert unreached_names() == []


def test_walk_sees_definitions_and_uses():
    # The walk's own parts, on a module of three kinds of top-level name.
    tree = ast.parse(
        "import math\n"
        "LIMIT = 10\n"
        "TABLE = math.prod(range(LIMIT))\n"
        "@cache\n"
        "def used(x=DEFAULT):\n"
        "    return helper(x).attr\n"
        "class Unused(Base):\n"
        "    pass\n"
    )
    assert [n for stmt in tree.body for n in defined_names(stmt)] == [
        "LIMIT", "TABLE", "used", "Unused"]
    parts = [p for stmt in tree.body for p in import_time_parts(stmt)]
    assert used_names(parts) == {"math", "prod", "range", "LIMIT", "cache", "DEFAULT", "Base"}
    assert used_names([tree.body[3]]) >= {"helper", "attr", "x"}
