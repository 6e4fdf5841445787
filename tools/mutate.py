"""Seeded AST mutation census of the test suite.

Draws mutants of chosen source files (optionally only inside chosen
functions), applies each in turn to a copy of the working tree, runs a
pytest selection there and reports whether the set of failing tests moved.
The mutations:

* swap + and -, * and /;
* swap < and <=, > and >=, == and !=;
* scale a nonzero float literal by 1.5.

Each mutation is a textual edit at the operator or literal the AST locates,
so the rest of the file keeps its layout.  A mutant is killed when the
selection's failing tests differ from those of the unmutated copy, or when
the run times out.  Not part of the tier-1 suite: a run costs one pytest
selection per mutant.

    python tools/mutate.py --workdir /tmp/mutants --seed 27 --count 24 \\
        --target src/hypolib/spherical.py:_row_primitive,_row_primitives \\
        --target src/hypolib/numerics.py:_legendre_map,_legendre_integrals \\
        -- tests/test_spherical.py tests/test_numerics.py tests/test_regions.py

The working directory must lie outside the repository; it is filled with a
copy of every tracked or unignored file.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
}
# seconds a selection may run before its mutant counts as killed: a mutant
# that stalls the quadrature never finishes, and a run takes well under this
TIMEOUT = 300.0


def _offsets(source: bytes) -> list[int]:
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _spans(tree: ast.AST, names: set[str]) -> list[tuple[int, int]]:
    """Line ranges of the named functions (every function when names is empty)."""
    if not names:
        return [(1, 10**9)]
    return [
        (node.lineno, node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names
    ]


def candidates(path: Path, names: set[str]) -> list[tuple[int, int, bytes, str]]:
    """(start, end, replacement, label) byte edits of the file, one per mutant."""
    source = path.read_bytes()
    tree = ast.parse(source)
    starts = _offsets(source)
    spans = _spans(tree, names)

    def at(line, col):
        return starts[line - 1] + col

    def gap_edit(left, right, op):
        old, new = SWAPS[type(op)]
        a, b = at(left.end_lineno, left.end_col_offset), at(right.lineno, right.col_offset)
        hit = re.search(rb"(?<![=<>!*/])" + re.escape(old.encode()) + rb"(?![=*/])", source[a:b])
        if hit:
            return a + hit.start(), a + hit.end(), new.encode(), f"{old} -> {new}"
        return None

    out = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", None)
        if line is None or not any(lo <= line <= hi for lo, hi in spans):
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            edits = [gap_edit(node.left, node.right, node.op)]
        elif isinstance(node, ast.Compare):
            pairs = zip([node.left, *node.comparators], node.ops, node.comparators)
            edits = [gap_edit(left, right, op) for left, op, right in pairs if type(op) in SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value != 0.0:
            a, b = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
            edits = [(a, b, repr(node.value * 1.5).encode(), f"{node.value!r} * 1.5")]
        else:
            edits = []
        out += [(a, b, new, f"{path.relative_to(ROOT)}:{line}: {label}") for a, b, new, label in filter(None, edits)]
    return sorted(out)


def failing(workdir: Path, tests: list[str]) -> set[str] | None:
    """The failing test ids of the selection in workdir, or None on a timeout.

    The selection runs in a session of its own, and a run cut short (by the
    timeout, or by this script being stopped) kills its whole process group,
    so no subprocess a test starts outlives it."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(
        cmd, cwd=workdir, env={**os.environ, "PYTHONPATH": "src"},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return {line.split()[1] for line in stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--target", action="append", required=True,
                        help="FILE or FILE:func1,func2 (repeatable)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("tests", nargs="+", help="the pytest selection")
    args = parser.parse_args()
    # a stopped census unwinds through failing(), which kills the selection
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = args.workdir.resolve()
    if workdir == ROOT or ROOT in workdir.parents:
        parser.error("the working directory must lie outside the repository")
    marker = workdir / ".mutate-workdir"
    if workdir.exists() and any(workdir.iterdir()) and not marker.exists():
        parser.error(f"{workdir} is not empty and was not made by this script")

    pool = []
    for target in args.target:
        file, _, funcs = target.partition(":")
        pool += candidates(ROOT / file, {f for f in funcs.split(",") if f})
    mutants = random.Random(args.seed).sample(pool, min(args.count, len(pool)))

    files = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.split()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    marker.touch()
    for name in files:
        if (ROOT / name).is_file():
            (workdir / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, workdir / name)
    base = failing(workdir, args.tests)
    if base is None:
        parser.error("the unmutated selection timed out")
    print(f"{len(pool)} candidate mutants, {len(mutants)} drawn; unmutated failures: {sorted(base)}")

    killed = 0
    for a, b, new, label in mutants:
        path = workdir / label.split(":")[0]
        original = path.read_bytes()
        path.write_bytes(original[:a] + new + original[b:])
        try:
            got = failing(workdir, args.tests)
        finally:
            path.write_bytes(original)
        verdict = "killed (timeout)" if got is None else "killed" if got != base else "survived"
        killed += verdict != "survived"
        print(f"{verdict:16s} {label}", flush=True)
    print(f"killed {killed} of {len(mutants)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
