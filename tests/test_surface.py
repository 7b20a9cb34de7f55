"""Every top-level function and class of the package has a use in the
program: another part of `src/ttkit` or the benchmark (`perfbench/`) refers
to it, or the package exports it. So does every public method and property
of a class the package does not export. Code only the tests call belongs in
the tests."""

import ast
import re
from pathlib import Path

import code_lines

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


def _program():
    """(uses, definitions): the identifiers used in each part of the program,
    keyed by (file, top-level name or None, method name or None), each method
    of a top-level class its own part; and the (file, name, method or None) of
    each top-level definition of the package and each public method of one."""
    uses, definitions = {}, []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            name = node.name if defines else None
            ours = defines and path.parent == PACKAGE and path.name != "__init__.py"
            if ours:
                definitions.append((path, name, None))
            body = node.body if isinstance(node, ast.ClassDef) else []
            methods = [m for m in body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for method in methods:
                uses[(path, name, method.name)] = _names_used(method)
                if ours and not method.name.startswith("_"):
                    definitions.append((path, name, method.name))
            rest = uses.setdefault((path, name, None), set())
            for child in ast.iter_child_nodes(node):
                if child not in methods:
                    rest |= _names_used(child)
    return uses, definitions


def test_every_definition_in_src_has_a_program_use():
    uses, definitions = _program()
    exported = {alias.name for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for path, name, method in definitions:
        if method is None:
            used = any(name in ids for where, ids in uses.items() if where[:2] != (path, name))
        else:
            used = name in exported or any(method in ids for where, ids in uses.items()
                                           if where != (path, name, method))
        if not used:
            unused.append(f"{path.stem}.{name}" + (f".{method}" if method else ""))
    assert unused == []


CODE_LINES_SAMPLE = '''"""A module docstring
over two lines."""

import os  # a comment


class A:
    """A class docstring."""

    def f(self, x):
        """A function docstring."""
        # a comment line
        y = (x +
             1)
        s = """a string that is no docstring"""
        return y, s
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    """`code_lines` counts import, class, def, the two lines of one
    statement, the string assignment and the return."""
    assert code_lines.code_lines(CODE_LINES_SAMPLE) == 7
