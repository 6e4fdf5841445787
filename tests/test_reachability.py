"""Every top-level definition in the library is reached from the CLI.

The public contract is the command line: its subcommands and the selftest
criteria.  This walks names through the syntax tree, starting from every
definition in `cli.py` and `acceptance.py`, and fails on any top-level
definition of `src/hypolib` that the walk does not reach and that
ALLOWED does not name.  Tests and the export table in `__init__.py` do not
count as callers.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypolib"
ROOTS = ("cli", "acceptance")

# (module, name) -> why it stays although no subcommand or criterion reaches it
ALLOWED = {
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
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            target = aliases[module].get(sub.id)
            if target is None and sub.id in defs[module]:
                target = (module, sub.id)
            if target is not None and len(target) == 2:
                out.add(target)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            target = aliases[module].get(sub.value.id)
            if target is not None and len(target) == 1:
                out.add((target[0], sub.attr))
    return out


def unreached(allowed) -> list[tuple[str, str]]:
    """Top-level definitions that neither the roots nor `allowed` reach."""
    trees = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in PACKAGE.glob("*.py")
        if path.stem != "__init__"
    }
    defs = {module: _definitions(tree) for module, tree in trees.items()}
    aliases = {module: _aliases(tree, trees) for module, tree in trees.items()}
    # module-level statements that run on import reach what they name
    seen = {(m, name) for m in ROOTS for name in defs[m]} | set(allowed)
    todo = list(seen)
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (*_DEFS, ast.Assign, ast.AnnAssign, ast.Import, ast.ImportFrom)):
                todo.extend(_references(node, module, defs, aliases))
    while todo:
        module, name = todo.pop()
        seen.add((module, name))
        node = defs.get(module, {}).get(name)
        if node is None:
            continue
        todo.extend(ref for ref in _references(node, module, defs, aliases) if ref not in seen)
    return sorted((m, name) for m in defs for name in defs[m] if (m, name) not in seen)


def test_every_definition_is_reached_from_the_cli():
    assert unreached(ALLOWED) == []


def test_the_allow_list_holds_only_unreached_definitions():
    assert set(ALLOWED) <= set(unreached(()))
