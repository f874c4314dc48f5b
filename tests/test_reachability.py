"""Every function, class and method in helson_lab is reached from the CLI,
from module-level code, or from the library API in ALLOWLIST, and every
defaulted parameter is set by some call in helson_lab.

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


def _defaulted(fn: ast.FunctionDef, method: bool) -> list:
    """(name, position or None) of fn's defaulted parameters; position skips self."""
    pos = fn.args.posonlyargs + fn.args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    skip = 1 if method and not static else 0
    out = [(a.arg, i - skip) for i, a in enumerate(pos) if i >= len(pos) - len(fn.args.defaults)]
    return out + [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]


def _binds_loop_variables(fn: ast.FunctionDef) -> bool:
    """A closure whose every default is its own name (``j=j``) freezes a loop variable."""
    pos = fn.args.posonlyargs + fn.args.args
    named = pos[len(pos) - len(fn.args.defaults):]
    return all(isinstance(d, ast.Name) and d.id == a.arg for a, d in zip(named, fn.args.defaults))


def test_every_default_is_set_by_a_call():
    """A parameter whose default no call in helson_lab overrides is a constant.

    Only direct calls count, matched by short name like the closure above:
    a call sets a parameter by keyword, or by position when it passes that
    many positional arguments, or through *args / **kwargs.
    """
    params = []  # (qualified name, short name, parameter, position)
    calls = []  # (short name, positional count, keywords)
    for path in sorted(Path(helson_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(m) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for m in c.body if isinstance(m, _FUNCS)}
        nested = {id(f) for g in ast.walk(tree) if isinstance(g, _FUNCS)
                  for f in ast.walk(g) if f is not g and isinstance(f, _FUNCS)}
        for node in ast.walk(tree):
            if isinstance(node, _FUNCS):
                exempt = (_dunder(node.name) or node.name in ALLOWLIST
                          or (path.stem, node.name) == ("cli", "main")
                          or (id(node) in nested and _binds_loop_variables(node)))
                if not exempt:
                    params += [(f"{path.stem}.{node.name}", node.name, arg, at)
                               for arg, at in _defaulted(node, id(node) in methods)]
            elif isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                spread = any(isinstance(a, ast.Starred) for a in node.args)
                kws = {k.arg for k in node.keywords}
                calls.append((name, float("inf") if spread else len(node.args), kws))
    unset = sorted(
        f"{qual}({arg})" for qual, short, arg, at in params
        if not any(name == short and (arg in kws or None in kws or (at is not None and n > at))
                   for name, n, kws in calls)
    )
    assert not unset, f"defaulted parameters that no call in helson_lab sets: {unset}"
