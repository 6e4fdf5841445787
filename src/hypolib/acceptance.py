"""Acceptance suite: thirteen end-to-end checks at fixed tolerances.

Each criterion is one check, registered with its index and name by the
`_criterion` decorator; a check takes the seed (which only the random
criteria read) and returns (passed, details).  `run_criterion` runs it
under `_guard`, so a criterion never raises: a failed check lands in
`passed=False` with the measured numbers in `details`, and an unexpected
exception is reported the same way, so one broken criterion cannot take
down the suite.
"""

from __future__ import annotations

import cmath
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Library modules are bound as modules: this one is imported on first use,
# which may fall after some of their functions were rebound (a tracer, a
# mock), and a "from" import would keep whatever was bound at that moment.
from . import classical, kernels, regions, spherical, transforms
from .errors import FitFailed

DEFAULT_SEED = 1301

# quadrature noise floor for trend checks: once |ratio - 1| sits below
# this, the asymptotic has converged and residual jitter carries no trend
_TREND_FLOOR = 1e-6


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: str
    elapsed: float


def _guard(index: int, name: str, body) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        passed, details = body()
    except Exception as exc:  # whatever breaks a criterion fails its row
        passed, details = False, f"aborted by {type(exc).__name__}: {exc}"
    return CriterionResult(index, name, passed, details, time.perf_counter() - t0)


# index -> (name, check) of each criterion; a check takes the seed and
# returns (passed, details)
_CHECKS: dict[int, tuple[str, Callable[[int], tuple[bool, str]]]] = {}


def _criterion(index: int, name: str):
    """Register the decorated check as criterion `index`, called `name`."""

    def register(check):
        _CHECKS[index] = (name, check)
        return check

    return register


@_criterion(1, "eigen-equation order")
def _eigen_equation_order(seed: int) -> tuple[bool, str]:
    """Discrete eigen-equation residual shrinks at second order in the step."""
    rng = np.random.default_rng(seed)
    pts = [
        (0.1 + 0.5 * rng.random()) * cmath.exp(2j * math.pi * rng.random())
        for _ in range(20)
    ]
    xis = [2.0 * math.pi * rng.random() for _ in pts]
    # steps sit above the 5-point roundoff floor (~eps/h^2) so the
    # truncation term, not noise, sets the fitted order
    hs = np.array([4e-3, 2e-3, 1e-3])
    log_h = np.log(hs)
    worst = math.inf
    worst_tag = ""
    for lam in (2.0, -0.25, 1j, 1 + 1j):
        sp = kernels.make_spectral(lam)
        for z, xi in zip(pts, xis):
            res = np.array([kernels.fd_verify_kernel(0, z, xi, sp, h) for h in hs])
            slope = float(np.polyfit(log_h, np.log(res), 1)[0])
            if slope < worst:
                worst, worst_tag = slope, f"lam={lam} z={z:.3f}"
    ok = worst >= 1.9
    return ok, f"min fitted order {worst:.3f} at {worst_tag} (need >= 1.9)"


@_criterion(2, "reduction chain")
def _reduction_chain(seed: int) -> tuple[bool, str]:
    """Reduction chain closes exactly for n <= 6 over five spectral values."""
    worst = 0.0
    for lam in (2.0, 0.5, 1j, 1 + 1j, -0.25):
        sp = kernels.make_spectral(lam)
        for n in range(7):
            rep = kernels.verify_reduce_chain(n, sp, tol=1e-12)
            worst = max(worst, rep.final_residual, *(rep.step_residuals or (0.0,)))
    return True, f"max chain residual {worst:.3e} (need <= 1e-12)"


@_criterion(3, "closed form vs quadrature")
def _closed_form_vs_quadrature(seed: int) -> tuple[bool, str]:
    """Hypergeometric closed form matches circle quadrature off the ray."""
    rng = np.random.default_rng(seed + 2)
    radii = np.arange(0.10, 0.951, 0.05)
    worst = 0.0
    for _ in range(20):
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if lam.real <= -0.25 and abs(lam.imag) < 0.05:
            lam = complex(lam.real, 0.5)
        sp = kernels.make_spectral(lam)
        closed = spherical.closed_form_many(radii, sp)
        for r, cf in zip(radii, map(complex, closed)):
            qd = spherical.spherical_function(0, float(r), sp)
            worst = max(worst, abs(cf - qd) / max(1.0, abs(cf)))
    ok = worst <= 1e-8
    return ok, f"max scaled |closed - quadrature| {worst:.3e} (need <= 1e-8)"


@_criterion(4, "boundary asymptotics")
def _boundary_asymptotics(seed: int) -> tuple[bool, str]:
    """Boundary laws: ratio near 1 at R=25 with a decreasing-error trend."""
    lines = []
    ok = True
    for lam, tol in ((2.0, 0.15), (1j, 0.15), (-0.25, 0.20)):
        sp = kernels.make_spectral(lam)
        for n in (0, 1, 2):
            law = spherical.asymptotic_law(n, sp)
            errs = []
            for R in (10.0, 15.0, 20.0, 25.0):
                r = math.tanh(R / 2.0)
                ratio = spherical.spherical_function(n, r, sp) / law.evaluate(R)
                errs.append(abs(ratio - 1.0))
            trend = all(
                b <= a or b <= _TREND_FLOOR for a, b in zip(errs, errs[1:])
            )
            good = errs[-1] <= tol and trend
            ok = ok and good
            if not good:
                lines.append(
                    f"lam={lam} n={n}: |ratio-1|@R=25 is {errs[-1]:.4f}"
                    f" (tol {tol:.2f}), trend={'ok' if trend else 'broken'}"
                )
    for lam, want in ((0.0, 1.0), (2.0, 0.5)):
        err = abs(spherical.boundary_constant(kernels.make_spectral(lam)) - want)
        if err > 1e-10:
            ok = False
            lines.append(f"c(lam={lam}) off by {err:.2e}")
    if ok:
        lines.append("all nine (lam, n) ratios within tolerance, trends decreasing; c-values exact")
    return ok, "; ".join(lines)


@_criterion(5, "zero structure")
def _zero_structure(seed: int) -> tuple[bool, str]:
    """Zeros accumulate on the ray; none appear off it."""
    zs = spherical.radial_zeros(kernels.make_spectral(-1.0))
    gaps = [b - a for a, b in zip(zs, zs[1:])]
    gaps_ok = all(b < a for a, b in zip(gaps, gaps[1:])) if len(gaps) > 1 else True
    ray_ok = len(zs) >= 3 and gaps_ok
    zs_txt = ", ".join(f"{z:.6f}" for z in zs)

    rng = np.random.default_rng(seed + 5)
    rs = 1.0 - np.geomspace(0.95, 1e-3, 2000)
    min_dip = math.inf
    for _ in range(20):
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if lam.real <= -0.25 and abs(lam.imag) < 0.05:
            lam = complex(lam.real, 0.5)
        vals = np.abs(spherical.closed_form_many(rs, kernels.make_spectral(lam)))
        min_dip = min(min_dip, float(np.min(vals / np.median(vals))))
    off_ok = min_dip > 1e-4
    ok = ray_ok and off_ok
    return ok, (
        f"ray lam=-1: {len(zs)} zeros in (0, 0.9999): [{zs_txt}] (need >= 3); "
        f"off-ray min relative |Phi| {min_dip:.3e} over 20 draws (zero-free needs > 1e-4)"
    )


@_criterion(6, "small-radius laws")
def _small_radius_laws(seed: int) -> tuple[bool, str]:
    """Leading small-radius terms are reproduced at r = 1e-3."""
    worst = 0.0
    for lam in (2.0, -0.25):
        sp = kernels.make_spectral(lam)
        for n in (1, 2, 3):
            law = spherical.small_radius_law(n, 1e-3, sp)
            ratio = spherical.spherical_function(n, 1e-3, sp) / law
            worst = max(worst, abs(ratio - 1.0))
    ok = worst <= 0.02
    return ok, f"max |ratio - 1| {worst:.2e} (need <= 0.02)"


def _trapezoid_kernel_mean(sp, r: float, size: int) -> complex:
    """Independent trapezoid check of the order-0 circle mean."""
    phi = 2.0 * math.pi * np.arange(size) / size
    den = (1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * phi) ** 2
    logp = np.log1p(-r * r) - np.log(den)
    return complex(np.mean(np.exp(sp.exponent * logp)))


@_criterion(7, "normalization and boundary recovery")
def _normalization_and_recovery(seed: int) -> tuple[bool, str]:
    """Normalized kernel has unit mean; boundary data is recovered."""
    lines = []
    worst = 0.0
    for lam in (-0.25, 0.0, 2.0):
        sp = kernels.make_spectral(lam)
        for r in (0.5, 0.9, 0.99):
            mean = _trapezoid_kernel_mean(sp, r, 1 << 15)
            phi0 = spherical.spherical_function(0, r, sp)
            worst = max(worst, abs(mean / phi0 - 1.0))
    norm_ok = worst <= 1e-10
    lines.append(f"max |kernel mean/Phi - 1| {worst:.2e} (need <= 1e-10)")

    ladder = [1.0 - 10.0 ** (-k) for k in (1, 2, 3, 4)]
    angles = np.linspace(-math.pi, math.pi, 12, endpoint=False)
    diri_ok = True
    for lam in (0.0, 1j):
        datum = transforms.density_preset("cos")
        sol = transforms.dirichlet_solve(kernels.make_spectral(lam), datum)
        sups = []
        for r in ladder:
            rows = sol.verify(angles, [r])
            sups.append(max(row.error for row in rows))
        good = sups[-1] <= 0.05 and all(b < a for a, b in zip(sups, sups[1:]))
        diri_ok = diri_ok and good
        lines.append(
            f"dirichlet lam={lam}: sup err @1-1e-4 {sups[-1]:.2e}"
            f" ({'decreasing' if good else 'NOT decreasing'})"
        )
    return norm_ok and diri_ok, "; ".join(lines)


@_criterion(8, "two-layer recovery at the boundary")
def _two_layer_recovery(seed: int) -> tuple[bool, str]:
    """Two-layer boundary data: top layer recovered, lower layer vanishes."""
    sp = kernels.make_spectral(0.0)
    layers = (transforms.density_preset("cos"), transforms.density_preset("one"))
    sol = transforms.riquier_solve(sp, layers)
    r = 1.0 - 1e-4
    phi1 = spherical.spherical_function(1, r, sp)
    own = 0.0
    cross = 0.0
    for ang in np.linspace(-math.pi, math.pi, 8, endpoint=False):
        z = r * cmath.exp(1j * ang)
        own = max(own, abs(sol.layer(1, z) / phi1 - 1.0))
        cross = max(cross, abs(sol.layer(0, z) / phi1))
    ok = own <= 0.05 and cross <= 0.05
    return ok, (
        f"|f1/Phi_1 - 1| max {own:.4f} (need <= 0.05); "
        f"|f0/Phi_1| max {cross:.4f} (need <= 0.05)"
    )


@_criterion(9, "maximal inequality probe")
def _maximal_probe(seed: int) -> tuple[bool, str]:
    """Maximal-operator constant is stable under sample-net doubling."""
    lines = []
    ok = True
    for lam, kind in ((0.0, "tube"), (-0.25, "enlarged")):
        sp = kernels.make_spectral(lam)
        for n in (0, 1):
            rep = regions.maximal_inequality_probe(n, sp, width=1.0, kind=kind)
            good = rep.drift < 0.10
            ok = ok and good
            lines.append(
                f"lam={lam} {kind} n={n}: C={rep.fitted_C:.4f}"
                f" drift={rep.drift:.2%}"
            )
    return ok, "; ".join(lines) + " (need drift < 10%)"


@_criterion(10, "admissible-limit probe")
def _admissible_limits(seed: int) -> tuple[bool, str]:
    """Region limits hit the density value; the far atom stays invisible."""
    datum = transforms.Mixture(
        density=transforms.density_preset("cos"), atoms=transforms.Atoms(((0.0, 1.0),))
    )
    zetas = (math.pi, 0.5 * math.pi, -0.5 * math.pi)
    worst_err = 0.0
    worst_atom = 0.0
    for lam in (0.0, 1j):
        sp = kernels.make_spectral(lam)
        for n in (0, 1):
            rows = regions.fatou_probe(n, sp, datum, width=1.0, zeta_angles=zetas)
            deep = [row for row in rows if abs(row.r - (1.0 - 1e-4)) < 1e-12]
            for row in deep:
                worst_err = max(worst_err, abs(row.normalized - row.target))
                worst_atom = max(worst_atom, row.atom_part)
    ok = worst_err <= 0.05 and worst_atom <= 1e-3
    return ok, (
        f"max |normalized - cos(zeta)| {worst_err:.2e} (need <= 0.05); "
        f"max atom contribution {worst_atom:.2e} (need <= 1e-3)"
    )


@_criterion(11, "flat-case mode calculus")
def _flat_case_calculus(seed: int) -> tuple[bool, str]:
    """Flat-case Fourier calculus: transform identity, growth bounds."""
    lines = []
    # (a) mode weights against an FFT of the kernel-log product
    size = 4096
    phi = 2.0 * math.pi * np.arange(size) / size
    fft_err = 0.0
    for r in (0.3, 0.5, 0.7):
        den = (1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * phi) ** 2
        p = (1.0 - r * r) / den
        coeffs = np.fft.fft(p * np.log(p)) / size
        for m in range(0, 41):
            want = classical.radial_log_weight(m, r) * r**m
            fft_err = max(fft_err, abs(coeffs[m].real - want), abs(coeffs[m].imag))
    a_ok = fft_err <= 1e-10
    lines.append(f"fft identity err {fft_err:.2e} (need <= 1e-10)")

    # (b) two-sided envelope of the mode weights
    b_ok = True
    b_worst = ("", 0.0)
    for n in range(0, 31):
        for r in np.linspace(0.05, 0.95, 19):
            low = -math.log1p(-r * r)
            up = (1.0 + n * (1.0 - r * r)) * low
            d = classical.radial_log_weight(n, float(r))
            if not (low <= d * (1 + 1e-12) and d <= up * (1 + 1e-12)):
                b_ok = False
                excess = d / up if up > 0 else math.inf
                if excess > b_worst[1]:
                    b_worst = (f"n={n} r={r:.2f}: d={d:.4f} vs upper {up:.4f}", excess)
    lines.append(
        "envelope holds on n <= 30 grid" if b_ok
        else f"envelope broken, worst {b_worst[0]} (x{b_worst[1]:.1f})"
    )

    # (c) deviation bound on a random 10-mode series
    rng = np.random.default_rng(seed + 11)
    coeffs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    series = classical.AnalyticSeries.from_dense(coeffs)
    c_ok = True
    c_worst = 0.0
    for r in (0.5, 0.9, 0.99):
        bound = classical.associate_deviation_bound(series, r)
        d0 = -math.log1p(-r * r)
        for ang in np.linspace(-math.pi, math.pi, 16, endpoint=False):
            z = r * cmath.exp(1j * ang)
            dev = abs(classical.associated_biharmonic(series, z) - d0 * series.evaluate(z))
            if dev > bound * (1 + 1e-9):
                c_ok = False
                c_worst = max(c_worst, dev / bound)
    lines.append(
        "deviation bound holds" if c_ok
        else f"deviation exceeds mode-weighted bound by x{c_worst:.2f}"
    )
    return a_ok and b_ok and c_ok, "; ".join(lines)


@_criterion(12, "gap-series construction")
def _gap_series(seed: int) -> tuple[bool, str]:
    """Gap-series construction: spiral fit, growth, circle sups, witnesses."""
    lines = []
    try:
        spec = classical.runge_spiral_fit(degree_budget=24)
        a_ok = True
        lines.append("spiral fit met the band")
    except FitFailed as exc:
        spec = None
        a_ok = False
        lines.append(f"spiral fit: {exc}")
    demo = spec if spec is not None else classical.demo_lacunary_spec()
    tag = "" if spec is not None else " [demo polynomial]"

    radii = [1.0 - 10.0 ** (-k) for k in (1, 2, 3, 4, 5)]
    growth = classical.lacunary_growth_probe(demo, radii)
    b_ok = math.isfinite(growth["max_ratio"]) and growth["max_ratio"] <= growth[
        "fitted_constant"
    ] * (1 + 1e-12)
    lines.append(
        f"growth ratio {growth['max_ratio']:.3f} <= envelope "
        f"{growth['fitted_constant']:.3f}{tag}"
    )

    sups = {N: classical.lacunary_circle_sup(N, demo) for N in (2, 3)}
    c_ok = sups[3].value < sups[2].value
    lines.append(
        f"circle sups N=2: {sups[2].value:.4f}, N=3: {sups[3].value:.4f} "
        f"(need N=3 < N=2){tag}"
    )

    wits = {N: classical.lacunary_witness(N, demo) for N in (2, 3)}
    d_ok = all(w.ratio > 0.8 for w in wits.values())
    lines.append(
        f"witness ratios N=2: {wits[2].ratio:.3f}, N=3: {wits[3].ratio:.3f} "
        f"(need > 0.8){tag}"
    )
    return a_ok and b_ok and c_ok and d_ok, "; ".join(lines)


@_criterion(13, "selftest determinism")
def _selftest_determinism(seed: int) -> tuple[bool, str]:
    """Repeated selftest runs emit byte-identical reports."""
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for i in (1, 2):
            path = os.path.join(tmp, f"run{i}.csv")
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "hypolib.cli",
                    "selftest",
                    "--seed",
                    str(seed),
                    "--criteria",
                    "1-12",
                    "--out",
                    path,
                ],
                capture_output=True,
                text=True,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            if proc.returncode not in (0, 1):
                return False, (
                    f"selftest run {i} exited {proc.returncode}: "
                    f"{proc.stderr.strip()[:300]}"
                )
            with open(path, "rb") as fh:
                outs.append(fh.read())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    return ok, (
        f"two runs, {len(outs[0])} bytes each, "
        f"{'identical' if ok else 'DIFFER'}"
    )


# (index, name) of every criterion, in index order
CRITERIA = tuple((index, name) for index, (name, _) in sorted(_CHECKS.items()))


def run_criterion(index: int, seed: int = DEFAULT_SEED) -> CriterionResult:
    name, check = _CHECKS[index]
    return _guard(index, name, lambda: check(seed))


def run_all(indices=None, seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    """Run the chosen criteria (all when none are given); an index with no
    criterion is refused before any runs."""
    unknown = sorted(set(indices or ()) - _CHECKS.keys())
    if unknown:
        raise ValueError(
            f"no criterion {', '.join(map(str, unknown))}; criteria run from 1 to {max(_CHECKS)}"
        )
    chosen = sorted(indices) if indices else sorted(_CHECKS)
    return [run_criterion(i, seed) for i in chosen]
