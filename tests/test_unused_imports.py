"""Every name a package module imports is used in that module, and every
package definition is read by the program.

A refactor that deletes the last use of an import leaves the import behind;
the first guard reads each module's syntax tree and names what is imported and
never read.  The package __init__ imports names only to re-export them, so it
is not checked.

The second guard names each function, class, method and module constant of
the package that the program never reads: not a package module, not a script
in scripts/, and not a binding that perfbench/tracer.py wraps.  Reference
forms that only the tests read live in tests/reference.py instead.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "thermostrobe"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    assert unused_imports("from copy import copy\nimport numpy as np\nnp.eye(2)\n") == ["line 1: copy"]


def reads(*nodes: ast.AST) -> set[str]:
    """The names the nodes read: loaded names and attribute names."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
    return out


def unread_definitions(modules: dict[str, str], readers: list[str], targets) -> list[str]:
    """Qualified names of the definitions in modules (name -> source) that nothing live reads.

    A definition is a top-level function, class or constant, or a method.  It is
    live when its name is read by a top-level statement that defines nothing,
    by one of the readers' sources, by a (module, "name" or "Class.method")
    target, or by the body of a live definition; a method also needs its class
    live, and a dunder method is live with its class.  Names are matched without
    scopes, so the guard may miss an unread definition but names no read one.
    """
    defs = {}  # qualified name -> (name, owning class, names its body reads)
    live_names = set().union(*(reads(ast.parse(src)) for src in readers))
    live_names |= {part for _, attr in targets for part in attr.split(".")}
    for mod, source in modules.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.FunctionDef):
                defs[f"{mod}.{stmt.name}"] = (stmt.name, None, reads(stmt))
            elif isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body if isinstance(s, ast.FunctionDef)]
                rest = [s for s in stmt.body if not isinstance(s, ast.FunctionDef)]
                defs[f"{mod}.{stmt.name}"] = (stmt.name, None, reads(*stmt.decorator_list, *stmt.bases, *rest))
                for m in methods:
                    defs[f"{mod}.{stmt.name}.{m.name}"] = (m.name, f"{mod}.{stmt.name}", reads(m))
            elif isinstance(stmt, ast.Assign) and all(isinstance(t, ast.Name) for t in stmt.targets):
                for t in stmt.targets:
                    defs[f"{mod}.{t.id}"] = (t.id, None, reads(stmt.value))
            else:
                live_names |= reads(stmt)
    live = set()
    grown = True
    while grown:
        grown = False
        for qual, (name, owner, body) in defs.items():
            dunder = name.startswith("__") and name.endswith("__")
            if qual not in live and (owner is None or owner in live) and (name in live_names or dunder):
                live.add(qual)
                live_names |= body
                grown = True
    return sorted(set(defs) - live)


def tracer_targets() -> list[tuple[str, str]]:
    """The (module, attribute) bindings perfbench/tracer.py wraps, read from its TARGETS."""
    for stmt in ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["TARGETS"]:
            return [(mod, attr) for mod, attr, _ in ast.literal_eval(stmt.value)]
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_package_definition_is_read_by_the_program():
    modules = {Path(m).stem: (PACKAGE / m).read_text(encoding="utf-8") for m in MODULES}
    scripts = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "scripts").glob("*.py"))]
    assert unread_definitions(modules, scripts, tracer_targets()) == []


def test_guard_sees_unread_definitions():
    source = ("LIMIT = 1\n\n"
              "def outer():\n    return inner()\n\n"
              "def inner():\n    return LIMIT\n\n"
              "class Box:\n    def __init__(self):\n        pass\n\n"
              "    def used(self):\n        pass\n\n"
              "    def unused(self):\n        pass\n\n"
              "Box().used()\n")
    # outer is read by nothing, inner only by outer and LIMIT only by inner
    assert unread_definitions({"m": source}, [], []) == ["m.Box.unused", "m.LIMIT", "m.inner", "m.outer"]
    assert unread_definitions({"m": source}, ["import m\nm.outer()\n"], [("m", "Box.unused")]) == []
