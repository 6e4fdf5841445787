"""Every top-level definition and method in the library is reached from
the CLI, and every defaulted parameter is passed by some call.

The public contract is the command line: its subcommands and the selftest
criteria.  The name walk goes through the syntax tree, starting from every
definition in `cli.py` and `acceptance.py`, and fails on any top-level
definition of `src/hypolib` that the walk does not reach and that
ALLOWED does not name.  A reached class reaches its body but not its
methods: a method is reached when its name is read as an attribute in
reached code, or when Python calls it itself (a dunder, which covers the
dataclass hook __post_init__).  Tests and the export table in
`__init__.py` do not count as callers.

The parameter walk fails on any defaulted parameter of a function in
`src/hypolib` that no call in `src`, `tests` or `perfbench` passes, by
keyword or by position, unless UNPASSED names it: a default nobody
overrides is a constant.  Calls are matched to functions by name alone,
so a call of another function of the same name counts too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypolib"
ROOTS = ("cli", "acceptance")
CALLERS = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")

# (module, name) -> why it stays although no subcommand or criterion reaches it
ALLOWED = {
    ("numerics", "integrate_circle"): "perfbench/spans.py traces it",
    ("numerics", "gauss_2f1"): "perfbench/spans.py traces it; a one-lane gauss_2f1_many",
    ("numerics", "integrate_panels"): "perfbench/spans.py traces it; the panel doubling on fixed edges",
    ("numerics", "integrate_halfline_peak"): "perfbench/spans.py traces it; the peaked half-line quadrature",
    ("numerics", "circle_fft"): "perfbench/spans.py traces it; the tests' coefficient oracle",
    ("spherical", "closed_form"): "perfbench/spans.py traces it; the radial workload calls it",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level functions, classes and assigned names, minus dunders."""
    out = {}
    for node in tree.body:
        if isinstance(node, _DEFS):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                out[name] = node
    return out


def _aliases(tree: ast.Module, modules) -> dict[str, tuple]:
    """Local name -> (module,) for a library module, (module, name) for a
    name imported from one; relative imports anywhere in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None and alias.name in modules:
                    out[local] = (alias.name,)
                elif node.module in modules:
                    out[local] = (node.module, alias.name)
    return out


def _references(node: ast.AST, module: str, defs, aliases) -> set[tuple[str, str]]:
    """The library definitions node names, and the attributes it reads as
    ("", attribute)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            target = aliases[module].get(sub.id)
            if target is None and sub.id in defs[module]:
                target = (module, sub.id)
            if target is not None and len(target) == 2:
                out.add(target)
        elif isinstance(sub, ast.Attribute):
            out.add(("", sub.attr))
            if isinstance(sub.value, ast.Name):
                target = aliases[module].get(sub.value.id)
                if target is not None and len(target) == 1:
                    out.add((target[0], sub.attr))
    return out


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached(allowed) -> list[tuple[str, str]]:
    """Top-level definitions, and methods of reached classes as
    "Class.method", that neither the roots nor `allowed` reach."""
    trees = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in PACKAGE.glob("*.py")
        if path.stem != "__init__"
    }
    defs = {module: _definitions(tree) for module, tree in trees.items()}
    aliases = {module: _aliases(tree, trees) for module, tree in trees.items()}
    # (module, "Class.method") -> ((module, "Class"), method name, its node)
    methods = {
        (module, f"{node.name}.{fn.name}"): ((module, node.name), fn.name, fn)
        for module in defs
        for node in defs[module].values()
        if isinstance(node, ast.ClassDef)
        for fn in node.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    nodes = {(m, name): node for m in defs for name, node in defs[m].items()}
    nodes.update((key, fn) for key, (_, _, fn) in methods.items())
    seen: set[tuple[str, str]] = set()
    classes: set[tuple[str, str]] = set()
    attrs: set[str] = set()
    todo = [(m, name) for m in ROOTS for name in defs[m]] + list(allowed)
    # module-level statements that run on import reach what they name
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (*_DEFS, ast.Assign, ast.AnnAssign, ast.Import, ast.ImportFrom)):
                todo.extend(_references(node, module, defs, aliases))
    while todo:
        module, name = todo.pop()
        if not module:
            attrs.add(name)
        elif (module, name) not in seen:
            seen.add((module, name))
            node = nodes.get((module, name))
            parts = [node] if node is not None else []
            if isinstance(node, ast.ClassDef):
                # its decorators, bases and fields; its methods only once called
                classes.add((module, name))
                parts = [*node.decorator_list, *node.bases, *node.keywords]
                parts += [sub for sub in node.body if (module, f"{name}.{getattr(sub, 'name', '')}") not in methods]
            for part in parts:
                todo.extend(_references(part, module, defs, aliases))
        if not todo:
            todo.extend(
                key for key, (owner, method, _) in methods.items()
                if key not in seen and owner in classes and (_dunder(method) or method in attrs)
            )
    return sorted(
        key for key in nodes
        if key not in seen and (key not in methods or methods[key][0] in classes)
    )


def test_every_definition_is_reached_from_the_cli():
    assert unreached(ALLOWED) == []


def test_the_allow_list_holds_only_unreached_definitions():
    assert set(ALLOWED) <= set(unreached(()))


# (module, function, parameter) -> why it keeps a default that no call passes
UNPASSED: dict[tuple[str, str, str], str] = {}


def _defaulted(fn: ast.AST) -> list[tuple[str, int | None]]:
    """(name, position or None if keyword-only) of each defaulted parameter
    of fn; the position counts from the first parameter after self or cls."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passes(call: ast.Call, name: str, position) -> bool:
    """Whether the call passes the parameter: by keyword, by position, or
    through *args / **kwargs, which may carry it."""
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and position < len(call.args)


def unpassed(allowed) -> list[tuple[str, str, str]]:
    """(module, function, parameter) of every defaulted parameter of a
    src/hypolib function that no call passes and `allowed` does not name."""
    calls: dict[str, list[ast.Call]] = {}
    for top in CALLERS:
        for path in sorted(top.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                    if name is not None:
                        calls.setdefault(name, []).append(node)
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for name, position in _defaulted(fn):
                key = (path.stem, fn.name, name)
                if key in allowed:
                    continue
                if not any(_passes(c, name, position) for c in calls.get(fn.name, ())):
                    out.append(key)
    return sorted(out)


def test_every_defaulted_parameter_is_passed_by_some_call():
    assert unpassed(UNPASSED) == []


def test_the_parameter_allow_list_holds_only_unpassed_parameters():
    assert set(UNPASSED) <= set(unpassed({}))
