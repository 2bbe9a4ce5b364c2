"""Every public function, class, method and property of the package has a
shipped caller.

Code whose only caller is its own test is deleted, unless it is an
independent oracle, and then it lives in the test file.  A reference counts
when it comes from another top-level statement or class member of
``src/ablab``, or from ``benchmarks/``; references from ``tests/`` do not.
A class's own members do not keep the class alive.  Click commands are
exempt: the command line calls them.  An import alone is not a use.
Methods are matched by name, so a name that any shipped code reads as an
attribute keeps every method of that name alive.

The definitions that only ``benchmarks/`` keeps alive are listed in
``HARNESS_ONLY``, so none joins them unnoticed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ablab"
SHIPPED = [*PACKAGE.glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]
# Public definitions whose only shipped caller is the benchmark harness: the
# Euler scheme on the limit's square and the fixed-width crossing scan, which
# the layer timings still time.
HARNESS_ONLY = {"limit_sq_em", "scan_crossings"}


def _names_used(nodes) -> set[str]:
    names = set()
    for node in nodes:
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


def _units(tree):
    """(definition, owner, names it uses) for each top-level statement and
    each member of a top-level class.  A class unit covers its header and
    its non-definition members (fields); each method is a unit of its own,
    owned by the class."""
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            yield stmt, None, _names_used([stmt])
            continue
        members = [m for m in stmt.body
                   if isinstance(m, (ast.FunctionDef, ast.ClassDef))]
        header = [*stmt.decorator_list, *stmt.bases, *stmt.keywords,
                  *(m for m in stmt.body if m not in members)]
        yield stmt, None, _names_used(header)
        for member in members:
            yield member, stmt, _names_used([member])


def _dead_definitions(shipped=SHIPPED):
    units = [(path, node, owner, names) for path in shipped
             for node, owner, names in _units(ast.parse(path.read_text()))]
    dead = []
    while True:
        # a name that only dead code uses is dead too
        live = [(node, owner, names) for _, node, owner, names in units
                if node not in dead and owner not in dead]
        newly = [node for path, node, owner, _ in units
                 if path.parent == PACKAGE and node not in dead
                 and owner not in dead and _is_public_definition(node)
                 and not any(node.name in names for other, other_owner,
                             names in live
                             if other is not node and other_owner is not node)]
        if not newly:
            return dead
        dead += newly


def test_every_public_definition_has_a_shipped_caller():
    dead = _dead_definitions()
    assert not dead, "only tests (or nothing) use: " + ", ".join(
        f"{node.name} (line {node.lineno})" for node in dead)


def test_only_the_listed_definitions_live_by_the_benchmarks_alone():
    dead = {node.name for node in _dead_definitions()}
    package_only = {node.name
                    for node in _dead_definitions([*PACKAGE.glob("*.py")])}
    assert package_only - dead == HARNESS_ONLY
