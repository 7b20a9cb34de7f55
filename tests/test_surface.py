"""Every top-level function and class of the package has a use in the
program: another part of `src/ttkit` or the benchmark (`perfbench/`) refers
to it, or the package exports it. Code only the tests call belongs in the
tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ttkit"


def _names_used(node: ast.AST) -> set[str]:
    """Identifiers `node` refers to: names, attributes, imported names, and
    the parts of plain name strings such as perfbench's traced targets."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and re.fullmatch(r"[\w.]+", sub.value):
            used.update(sub.value.split("."))
    return used


def test_every_definition_in_src_has_a_program_use():
    uses = {}  # (file, top-level name or None) -> identifiers used there
    definitions = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            name = node.name if defines else None
            uses.setdefault((path, name), set()).update(_names_used(node))
            if defines and path.parent == PACKAGE and path.name != "__init__.py":
                definitions.append((path, name))
    unused = [f"{path.stem}.{name}" for path, name in definitions
              if not any(name in used for where, used in uses.items() if where != (path, name))]
    assert unused == []
