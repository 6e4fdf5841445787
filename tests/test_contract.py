"""The command-line contract: every subcommand's CSV, pinned.

Each case runs `hypolib.cli.main` in process on a fixed argv and compares
its stdout with the committed CSV under `tests/contract/`: the header, the
row count, the exit code and every cell that is not a number exactly;
numbers within 1e-12 relative (1e-300 absolute).  `exits.csv` holds every
case's exit code; a case that exits nonzero prints nothing and has no CSV.

A change that moves a cell past the tolerance regenerates the snapshot in
the same commit, and says which cells moved and why.  Before it rewrites
the snapshot, this prints each cell that moves past the tolerance (case,
row, column: old -> new) and each exit code that changes:

    PYTHONPATH=src python tests/test_contract.py
"""

import contextlib
import csv
import io
from pathlib import Path

import pytest

from hypolib import cli

SNAPSHOT = Path(__file__).resolve().parent / "contract"
REL, ABS = 1e-12, 1e-300

# label -> (re, im); "0" is each subcommand's default regime
LAMBDAS = {"0": ("0", "0"), "2": ("2", "0"), "quarter": ("-0.25", "0"), "i": ("0", "1")}
WITH_LAMBDA = {
    "kernel": [],
    "spherical": [],
    "asymptotics": [],
    "dirichlet": [],
    "riquier": [],
    **{f"convergence-{mode}": ["--preset", "cos", "--mode", mode]
       for mode in ("uniform", "pointwise-ae", "Lp", "weak-star")},
    "maximal": [],
    "fatou": [],
}
# the jump densities, whose transforms read the kernel row's primitive
JUMPS = {
    f"{command}-{preset.split(':')[0]}": [command.split("-")[0], "--preset", preset, *mode]
    for command, preset, mode in (
        ("convergence-uniform", "sawtooth", ["--mode", "uniform"]),
        ("convergence-weak-star", "sawtooth", ["--mode", "weak-star"]),
        ("convergence-pointwise-ae", "indicator:0.3:0.7", ["--mode", "pointwise-ae"]),
        ("convergence-weak-star", "indicator:0.3:0.7", ["--mode", "weak-star"]),
        ("dirichlet", "sawtooth", []),
    )
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name, extra in WITH_LAMBDA.items():
        for label, lam in LAMBDAS.items():
            cases[f"{name}-{label}"] = [name.split("-")[0], "--lambda", *lam, *extra]
    for name, (command, *extra) in JUMPS.items():
        for label in ("0", "i"):
            cases[f"{name}-{label}"] = [command, "--lambda", *LAMBDAS[label], *extra]
    for label, lam in {"-1": ("-1", "0"), **LAMBDAS}.items():
        cases[f"zeros-{label}"] = ["zeros", "--lambda", *lam]
    for what in ("d", "growth", "associate"):
        cases[f"examples-{what}"] = ["examples", "--what", what]
    cases["lacunary"] = ["lacunary"]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _float(cell: str) -> float | None:
    """The value of a float cell; None for text and integers."""
    try:
        int(cell)
        return None
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def _same(got: str, want: str) -> bool:
    a, b = _float(got), _float(want)
    if a is None or b is None:
        return got == want
    return a == b or abs(a - b) <= max(ABS, REL * max(abs(a), abs(b)))


def _exits() -> dict[str, int]:
    with open(SNAPSHOT / "exits.csv", newline="") as fh:
        return {name: int(code) for name, code in csv.reader(fh)}


def test_the_snapshot_covers_every_case():
    assert set(_exits()) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_subcommand_output_matches_the_snapshot(name):
    code, out = _run(CASES[name])
    assert code == _exits()[name]
    if code:
        assert out == ""
        return
    path = SNAPSHOT / f"{name}.csv"
    got = list(csv.reader(io.StringIO(out)))
    want = list(csv.reader(io.StringIO(path.read_text())))
    assert got[0] == want[0]
    assert len(got) == len(want)
    for i, (row, ref) in enumerate(zip(got[1:], want[1:]), 1):
        assert len(row) == len(ref), i
        for j, (cell, cell_ref) in enumerate(zip(row, ref)):
            assert _same(cell, cell_ref), (i, want[0][j], cell, cell_ref)


def _moved(name: str, out: str) -> list[str]:
    """The cells of case `name` that `out` moves past the tolerance against
    its committed CSV, as "case, row, column: old -> new"."""
    path = SNAPSHOT / f"{name}.csv"
    if not path.exists():
        return [f"{name}: new CSV"]
    got = list(csv.reader(io.StringIO(out)))
    want = list(csv.reader(io.StringIO(path.read_text())))
    if got[:1] != want[:1] or len(got) != len(want):
        return [f"{name}: header or row count changed ({len(want)} -> {len(got)} lines)"]
    return [
        f"{name}, row {i}, {column}: {cell_ref} -> {cell}"
        for i, (row, ref) in enumerate(zip(got[1:], want[1:]), 1)
        for column, cell, cell_ref in zip(want[0], row, ref)
        if not _same(cell, cell_ref)
    ]


def _regenerate() -> None:
    """Rewrite the snapshot, after printing what moves: each exit code that
    changes and each cell past the tolerance."""
    old = _exits() if (SNAPSHOT / "exits.csv").exists() else {}
    runs = {name: _run(argv) for name, argv in sorted(CASES.items())}
    for name, (code, out) in runs.items():
        if old.get(name, code) != code:
            print(f"{name}: exit {old[name]} -> {code}")
        elif code == 0:
            for line in _moved(name, out):
                print(line)
    SNAPSHOT.mkdir(exist_ok=True)
    for stale in SNAPSHOT.glob("*.csv"):
        stale.unlink()
    exits = []
    for name, (code, out) in runs.items():
        if code == 0:
            (SNAPSHOT / f"{name}.csv").write_text(out)
        exits.append(f"{name},{code}\n")
    (SNAPSHOT / "exits.csv").write_text("".join(exits))


if __name__ == "__main__":
    _regenerate()
