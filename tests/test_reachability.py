"""Every function, class and method in helson_lab is reached from the CLI,
from module-level code, or from the library API in ALLOWLIST.

The closure starts at cli.main and at every module's top-level statements
and follows each name and attribute that a reached body mentions.  A
reached class contributes its bases, decorators, class-level statements and
dunder methods; its other methods must be reached by name.  Names match by
their short name only, so the check over-approximates: a local variable or
an unrelated attribute that shares a method's name (``scale``, ``degree``)
counts as a use.  It finds code that nothing mentions, not every unused
method.
"""

import ast
from pathlib import Path

import helson_lab

# the paper's two ingredients, kept as documented library API
ALLOWLIST = {"independence_check", "lp_norm_growth"}
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _mentions(node: ast.AST) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _reached_parts(node: ast.AST) -> list:
    if not isinstance(node, ast.ClassDef):
        return [node]
    body = [n for n in node.body if not (isinstance(n, _FUNCS) and not _dunder(n.name))]
    return body + node.bases + node.decorator_list


def test_every_definition_is_reached():
    defs = []  # (qualified name, short name, node)
    roots = {"main"} | ALLOWLIST
    for path in sorted(Path(helson_lab.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, _FUNCS + (ast.ClassDef,)):
                roots |= _mentions(stmt)
                continue
            defs.append((f"{path.stem}.{stmt.name}", stmt.name, stmt))
            if isinstance(stmt, ast.ClassDef):
                defs += [(f"{path.stem}.{stmt.name}.{m.name}", m.name, m)
                         for m in stmt.body if isinstance(m, _FUNCS)]
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for _, short, node in defs:
                if short == name:
                    todo += [m for part in _reached_parts(node) for m in _mentions(part)]
    unreached = sorted(q for q, short, _ in defs if short not in seen and not _dunder(short))
    assert not unreached, f"unreached from the CLI or the library API: {unreached}"
