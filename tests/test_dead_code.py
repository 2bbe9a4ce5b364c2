"""Every public function and class of the package has a shipped caller.

Code whose only caller is its own test is deleted, unless it is an
independent oracle, and then it lives in the test file.  A reference counts
when it comes from another top-level statement of ``src/ablab`` or from
``benchmarks/``; references from ``tests/`` do not.  Click commands are
exempt: the command line calls them.  An import alone is not a use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ablab"
SHIPPED = [*PACKAGE.glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]


def _names_used(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _is_click_command(node) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) \
                and target.attr in ("command", "group"):
            return True
    return False


def _is_public_definition(stmt) -> bool:
    return isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
        and not stmt.name.startswith("_") and not _is_click_command(stmt)


def test_every_public_definition_has_a_shipped_caller():
    statements = [(path, stmt, _names_used(stmt)) for path in SHIPPED
                  for stmt in ast.parse(path.read_text()).body]
    dead = []
    while True:
        # a name that only dead code uses is dead too
        live = [(stmt, names) for _, stmt, names in statements
                if stmt not in dead]
        newly = [stmt for path, stmt, _ in statements
                 if path.parent == PACKAGE and stmt not in dead
                 and _is_public_definition(stmt)
                 and not any(stmt.name in names for other, names in live
                             if other is not stmt)]
        if not newly:
            break
        dead += newly
    assert not dead, "only tests (or nothing) use: " + ", ".join(
        f"{stmt.name} (line {stmt.lineno})" for stmt in dead)
