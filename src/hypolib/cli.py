"""Command-line front end: experiment presets with CSV/JSON emission.

Exit codes: 0 all checks passed, 1 a check failed or a computation
refused (domain errors from the library), 2 usage errors.

Each subcommand imports the library modules it calls, so one process
loads only what its subcommand runs.  `main` builds the spectral value
from --lambda (args.sp) before the subcommand reads any other flag value,
so an invalid lam is the error reported; each subcommand returns its CSV
header and rows (selftest also its exit status), and `main` writes them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import sys

# One BLAS thread per process, set before numpy loads: a subcommand makes
# few small BLAS calls, and starting OpenBLAS's thread pool costs each
# invocation more than the pool saves.  A value the user set wins, and a
# bare `import hypolib` sets nothing.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .errors import HypolibError


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _emit(path: str | None, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as sink:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _finite(text: str) -> float:
    """Value of a float flag; NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


# Largest values the count flags accept.  Each unit is a full computation (a
# grid radius, a zero-scan radius, a sweep angle) or, for --grid-size, one
# circle node per term; past these caps a call would run for many seconds
# before any output.
_GRID_CAP = 100_000
_SCAN_CAP = 20_000
_ANGLE_CAP = 2_000
_CIRCLE_GRID_CAP = 1 << 22
# Most values an integer list (--criteria, lacunary --N) may name; a range
# is checked against it before it is expanded.
_LIST_CAP = 1_000


def _bounded(low: int, cap: int, what: str):
    """Parser of an integer flag that must lie in [low, cap]."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if not low <= value <= cap:
            raise argparse.ArgumentTypeError(f"{what} must lie in [{low}, {cap}], got {value}")
        return value

    return parse


def _grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}")
    count = _bounded(1, _GRID_CAP, "grid count")(parts[2])
    return np.linspace(_finite(parts[0]), _finite(parts[1]), count)


def _floats(text: str) -> list[float]:
    return [_finite(tok) for tok in text.split(",") if tok]


def _ints(what: str, low: float = -math.inf):
    """Parser of an integer list like 1-12 or 1,4,13 of at most _LIST_CAP
    values, each at least low."""
    value = _bounded(low, math.inf, what)

    def parse(text: str) -> list[int]:
        out: set[int] = set()
        for tok in text.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if "-" in tok[1:]:
                lo, hi = (value(part) for part in tok.split("-", 1))
                if hi < lo:
                    raise argparse.ArgumentTypeError(f"{what} range {tok} runs backwards")
                if hi - lo >= _LIST_CAP:
                    raise argparse.ArgumentTypeError(
                        f"{what} range {tok} is longer than {_LIST_CAP}")
                out.update(range(lo, hi + 1))
            else:
                out.add(value(tok))
            if len(out) > _LIST_CAP:
                raise argparse.ArgumentTypeError(f"more than {_LIST_CAP} {what} values")
        return sorted(out)

    return parse


def _datum(args):
    from .transforms import Atoms, Mixture, density_preset

    density = density_preset(args.preset) if getattr(args, "preset", None) else None
    atoms = None
    if getattr(args, "atoms", None):
        pts = []
        for tok in args.atoms.split(";"):
            ang, wre, wim = (float(x) for x in tok.split(":"))
            pts.append((ang, complex(wre, wim)))
        atoms = Atoms(tuple(pts))
    if atoms is not None and density is not None:
        return Mixture(density=density, atoms=atoms)
    if atoms is not None:
        return atoms
    if density is not None:
        return density
    raise ValueError("no boundary datum given: pass --preset and/or --atoms")


def _cmd_kernel(args):
    from .kernels import polyharmonic_kernel

    z = args.z_r * complex(math.cos(args.z_angle), math.sin(args.z_angle))
    rows = []
    for ang in args.xi:
        val = complex(polyharmonic_kernel(args.n, z, ang, args.sp))
        rows.append([ang, val.real, val.imag])
    return ["xi_angle", "value_re", "value_im"], rows


def _cmd_spherical(args):
    from .spherical import _MAX_ORDER, closed_form_many, spherical_function

    rs = [float(r) for r in args.r_grid]
    closed = closed_form_many(rs, args.sp, args.n) if 0 <= args.n <= _MAX_ORDER else None
    rows = []
    for i, r in enumerate(rs):
        v = spherical_function(args.n, r, args.sp)
        closed_re = closed_im = diff = ""
        if closed is not None:
            cf = complex(closed[i])
            closed_re, closed_im, diff = cf.real, cf.imag, abs(cf - v)
        rows.append([r, v.real, v.imag, closed_re, closed_im, diff])
    return ["r", "phi_re", "phi_im", "closed_form_re", "closed_form_im", "diff"], rows


def _cmd_asymptotics(args):
    from .spherical import asymptotic_law, spherical_function

    law = asymptotic_law(args.n, args.sp)
    rows = []
    for R in args.R:
        r = math.tanh(R / 2.0)
        phi = spherical_function(args.n, r, args.sp)
        lv = complex(law.evaluate(R))
        ratio = phi / lv
        rows.append([R, phi.real, phi.imag, lv.real, lv.imag, ratio.real, ratio.imag])
    return ["R", "phi_re", "phi_im", "law_re", "law_im", "ratio_re", "ratio_im"], rows


def _cmd_zeros(args):
    from .spherical import radial_zeros

    zs = radial_zeros(args.sp, r_max=args.r_max, count=args.count)
    rows = []
    prev = None
    for i, z in enumerate(zs):
        rows.append([i, z, "" if prev is None else z - prev])
        prev = z
    return ["index", "r", "gap_from_previous"], rows


# columns of a boundary sweep row (transforms.SweepRow)
_SWEEP = ["xi_angle", "r", "value_re", "value_im", "target_re", "target_im", "error"]


def _sweep_row(row) -> list:
    return [row.xi_angle, row.r, row.value.real, row.value.imag, row.target.real, row.target.imag, row.error]


def _cmd_dirichlet(args):
    from .transforms import density_preset, dirichlet_solve

    sol = dirichlet_solve(args.sp, density_preset(args.preset))
    angles = np.linspace(-math.pi, math.pi, args.angles, endpoint=False)
    return _SWEEP, [_sweep_row(row) for row in sol.verify(angles, args.radii)]


def _cmd_riquier(args):
    from .transforms import density_preset, riquier_solve

    sol = riquier_solve(args.sp, [density_preset(p) for p in args.presets.split(",")])
    angles = np.linspace(-math.pi, math.pi, args.angles, endpoint=False)
    report = sol.verify(angles, [args.r])
    rows = [[part, *_sweep_row(row)] for part in ("own", "cross") for row in report[part]]
    return ["part", *_SWEEP], rows


def _cmd_convergence(args):
    from .transforms import convergence_probe

    report = convergence_probe(args.n, args.sp, _datum(args), args.mode, radii=args.radii)
    if args.mode in ("uniform", "pointwise-ae"):
        return ["r", "sup_error"], [[row["r"], row["sup_error"]] for row in report["rows"]]
    if args.mode == "Lp":
        return ["r", "lp_error"], [[row["r"], row["lp_error"]] for row in report["rows"]]
    rows = []
    for row in report["rows"]:
        for k in sorted(row["pairings"]):
            v = row["pairings"][k]
            rows.append([row["r"], k, v.real, v.imag])
    return ["r", "mode", "pairing_re", "pairing_im"], rows


def _cmd_maximal(args):
    from .regions import maximal_inequality_probe

    rep = maximal_inequality_probe(args.n, args.sp, width=args.width, kind=args.kind)
    rows = [[tid, ratio] for tid, ratio in rep.ratios]
    rows.append(["overall", rep.fitted_C])
    rows.append(["overall_refined", rep.refined_C])
    return ["test_id", "fitted_C"], rows


def _cmd_fatou(args):
    from .regions import fatou_probe

    rows = [
        [row.zeta_angle, row.r, row.alpha_offset, row.value.real, row.value.imag,
         row.normalized.real, row.normalized.imag]
        for row in fatou_probe(args.n, args.sp, _datum(args), args.width, args.zeta, kind=args.kind)
    ]
    header = ["zeta_angle", "r", "alpha_offset", "value_re", "value_im", "normalized_re", "normalized_im"]
    return header, rows


def _cmd_examples(args):
    from .classical import (
        demo_lacunary_spec,
        lacunary_associate_probe,
        lacunary_growth_probe,
        radial_log_weight,
    )

    if args.what == "d":
        rows = [
            [n, float(r), radial_log_weight(n, float(r))]
            for n in range(args.n_max + 1)
            for r in args.r_grid
        ]
        return ["n", "r", "value"], rows
    spec = demo_lacunary_spec()
    if args.what == "growth":
        rep = lacunary_growth_probe(spec, args.radii)
        rows = [[row["r"], row["angle"], row["ratio"], row["envelope"]] for row in rep["rows"]]
        return ["r", "angle", "ratio", "envelope"], rows
    rep = lacunary_associate_probe(spec, args.radii)
    rows = [
        [row["r"], row["angle"], row["scaled"], row["deviation"], row["deviation_bound"]]
        for row in rep["rows"]
    ]
    return ["r", "angle", "scaled_field", "deviation", "bound"], rows


def _cmd_lacunary(args):
    from .classical import _circle_exponent, demo_lacunary_spec, lacunary_circle_sup

    for N in args.N:  # refuse a bad N before the first sup is computed
        _circle_exponent(N)
    spec = demo_lacunary_spec()
    rows = []
    for N in args.N:
        sup = lacunary_circle_sup(N, spec, grid_size=args.grid_size)
        rows.append([N, sup.radius, sup.value])
    return ["N", "circle_radius", "sup_value"], rows


def _cmd_selftest(args):
    from . import acceptance

    seed = acceptance.DEFAULT_SEED if args.seed is None else args.seed
    results = acceptance.run_all(args.criteria, seed=seed)
    for res in results:
        sys.stderr.write(
            f"[{res.index:2d}] {'pass' if res.passed else 'FAIL'}  "
            f"{res.name} ({res.elapsed:.1f}s)\n"
        )
    rows = [[res.index, res.name, "pass" if res.passed else "fail", res.details] for res in results]
    return ["criterion", "name", "status", "details"], rows, 0 if all(res.passed for res in results) else 1


# A negative number, or a comma list that starts with one, is a flag value
# and not an option; argparse on its own reads only -1 and -1.5 that way,
# so -2.5e-1 would be taken for an unknown option.
_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NEGATIVE_NUMBER = re.compile(rf"^-{_NUMBER}(?:,-?{_NUMBER})*$")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser (and, through add_subparsers, its subparsers) that
    reads every _NEGATIVE_NUMBER as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypolib",
        description="Numerical experiments for graded kernels on the hyperbolic disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, lam=True):
        if lam:
            p.add_argument("--lambda", dest="lam", nargs=2, type=float, required=True,
                           metavar=("RE", "IM"), help="spectral value, two reals")
        p.add_argument("--out", default=None, help="CSV output path (default stdout)")
        p.add_argument("--config", default=None, help=argparse.SUPPRESS)

    p = sub.add_parser("kernel", help="graded kernel values at a point")
    common(p)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--z-r", type=_finite, default=0.5)
    p.add_argument("--z-angle", type=_finite, default=0.0)
    p.add_argument("--xi", type=_floats, default=[0.0, 1.0, 2.0])
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("spherical", help="radial circle means, with the closed form")
    common(p)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--r-grid", type=_grid, default=_grid("0.1:0.99:50"))
    p.set_defaults(fn=_cmd_spherical)

    p = sub.add_parser("asymptotics", help="circle means against the boundary law")
    common(p)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--R", type=_floats, default=[10.0, 15.0, 20.0, 25.0])
    p.set_defaults(fn=_cmd_asymptotics)

    p = sub.add_parser("zeros", help="radial zeros on the forbidden ray")
    common(p)
    p.add_argument("--r-max", type=_finite, default=0.9999)
    p.add_argument("--count", type=_bounded(2, _SCAN_CAP, "count"), default=2000)
    p.set_defaults(fn=_cmd_zeros)

    p = sub.add_parser("dirichlet", help="boundary recovery sweep")
    common(p)
    p.add_argument("--preset", default="cos")
    p.add_argument("--radii", type=_floats, default=[0.9, 0.99, 0.999, 0.9999])
    p.add_argument("--angles", type=_bounded(1, _ANGLE_CAP, "angle count"), default=12)
    p.set_defaults(fn=_cmd_dirichlet)

    p = sub.add_parser("riquier", help="two-layer boundary recovery")
    common(p)
    p.add_argument("--presets", default="cos,one")
    p.add_argument("--r", type=_finite, default=0.9999)
    p.add_argument("--angles", type=_bounded(1, _ANGLE_CAP, "angle count"), default=8)
    p.set_defaults(fn=_cmd_riquier)

    p = sub.add_parser("convergence", help="boundary-convergence probe")
    common(p)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--preset", default=None)
    p.add_argument("--atoms", default=None, help="angle:w_re:w_im JSON-free list, ; separated")
    p.add_argument("--mode", choices=["uniform", "pointwise-ae", "Lp", "weak-star"],
                   default="uniform")
    p.add_argument("--radii", type=_floats, default=[0.9, 0.99, 0.999])
    p.set_defaults(fn=_cmd_convergence)

    p = sub.add_parser("maximal", help="maximal-operator comparison suite")
    common(p)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--width", type=_finite, default=1.0)
    p.add_argument("--kind", choices=["tube", "enlarged"], default="tube")
    p.set_defaults(fn=_cmd_maximal)

    p = sub.add_parser("fatou", help="admissible-limit sweep rows")
    common(p)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--width", type=_finite, default=1.0)
    p.add_argument("--kind", choices=["tube", "enlarged"], default="tube")
    p.add_argument("--preset", default="cos")
    p.add_argument("--atoms", default=None)
    p.add_argument("--zeta", type=_floats, default=[math.pi, 0.5 * math.pi])
    p.set_defaults(fn=_cmd_fatou)

    p = sub.add_parser("examples", help="flat-case calculus tables")
    common(p, lam=False)
    p.add_argument("--what", choices=["d", "growth", "associate"], default="d")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--r-grid", type=_grid, default=_grid("0.1:0.9:9"))
    p.add_argument("--radii", type=_floats, default=[0.9, 0.99, 0.999, 0.9999, 0.99999])
    p.set_defaults(fn=_cmd_examples)

    p = sub.add_parser("lacunary", help="gap-series circle sup report")
    common(p, lam=False)
    p.add_argument("--N", type=_ints("N"), default=[2, 3])
    p.add_argument("--grid-size", type=_bounded(1, _CIRCLE_GRID_CAP, "grid size"),
                   default=1 << 20)
    p.set_defaults(fn=_cmd_lacunary)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    common(p, lam=False)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--criteria", type=_ints("criterion", 1), default=None,
                   help="subset like 1-12 or 1,4,13 (default all)")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Splice JSON config entries in as flags right after the subcommand."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        return argv
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    with open(path) as fh:
        cfg = json.load(fh)
    extra: list[str] = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            extra.append(flag)
            extra.extend(str(v) for v in value)
        else:
            extra.extend([flag, str(value)])
    if not rest:
        return extra
    return rest[:1] + extra + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_config(argv)
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "lam"):
            from .kernels import make_spectral

            # before any other flag value is read, so a bad lam is the error reported
            args.sp = make_spectral(complex(*args.lam))
        header, rows, *status = args.fn(args)
        _emit(args.out, header, rows)
        return status[0] if status else 0
    except HypolibError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
