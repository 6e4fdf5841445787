"""Reference checks and output fingerprints; this module never imports hypolib.

Circle means are checked against ``mpmath.hyp2f1`` at 30 digits, taken at
the same double radius the library received.  The order-n mean is the n-th
derivative in s of F(s, 1-s; 1; -r^2/(1-r^2)) at s = mu + 1/2, over
n! (2 mu)^n; in the critical regime it is the 2n-th derivative at s = 1/2
over (2n)!.  Transforms and regions are checked at lambda = 0, where the
normalized transform is the harmonic extension and exact values are known.
Where no independent value exists the library's own criterion is used.

Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

import mpmath
import numpy as np

import workloads

DIGITS = 30
# Samples of each long radial output checked against mpmath per run; the
# seed picks them, so runs at other seeds cover other radii.
SAMPLES = 40
SPHERICAL_SAMPLES = 4
# Relative or absolute error allowed.  Each sits well above the largest
# error measured on the reference grids (closed form 2.3e-13, quadrature
# 5e-15, boundary law 5e-16, exact identities 3e-13), so a wrong value
# fails and a change in the last digits does not; QUADRATURE_TOL is the
# library's own rel_tol.
CLOSED_FORM_TOL = 1e-11
QUADRATURE_TOL = 1e-11
LAW_TOL = 1e-10
EXACT_TOL = 1e-10
MAX_DRIFT = 0.10


def canonical(value) -> str:
    """Text of a JSON-like value with floats at 17 significant digits."""
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k!r}:{canonical(value[k])}" for k in sorted(value)) + "}"
    raise TypeError(f"cannot fingerprint {type(value).__name__}")


def fingerprint(value) -> str:
    data = value if isinstance(value, bytes) else canonical(value).encode()
    return hashlib.sha256(data).hexdigest()


def _close(got, want, atol: float, rtol: float) -> bool:
    return abs(complex(got) - complex(want)) <= atol + rtol * abs(complex(want))


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


# ---- circle means -------------------------------------------------------


def circle_mean(n: int, lam: complex, r: float) -> complex:
    """Order-n circle mean at the double radius r, from mpmath.hyp2f1."""
    with mpmath.workdps(DIGITS):
        rr = mpmath.mpf(r)
        x = -rr * rr / (1 - rr * rr)

        def f(s):
            return mpmath.hyp2f1(s, 1 - s, 1, x)

        w = mpmath.mpc(lam) + mpmath.mpf(1) / 4
        if w == 0:
            val = mpmath.diff(f, mpmath.mpf(1) / 2, 2 * n) / mpmath.factorial(2 * n)
        else:
            mu = mpmath.sqrt(w)
            val = f(mu + mpmath.mpf(1) / 2) if n == 0 else (
                mpmath.diff(f, mu + mpmath.mpf(1) / 2, n) / (mpmath.factorial(n) * (2 * mu) ** n)
            )
        return complex(val)


def boundary_constant(lam: complex) -> complex:
    """c(lam) = Gamma(mu) / (sqrt(pi) Gamma(mu + 1/2)) in the generic regime."""
    with mpmath.workdps(DIGITS):
        mu = mpmath.sqrt(mpmath.mpc(lam) + mpmath.mpf(1) / 4)
        return complex(mpmath.gamma(mu) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(mu + 0.5)))


def _sample(rng, count: int, size: int = SAMPLES) -> list[int]:
    """Seeded sample of indices, always with the last (the hardest radius)."""
    picks = rng.choice(count - 1, size=min(size, count - 1), replace=False)
    return sorted(int(i) for i in picks) + [count - 1]


def _radial(inputs: dict, outputs: dict, rng) -> dict:
    problems: dict = {}
    for i, lam in enumerate(inputs["cfm_lambdas"]):
        name = f"closed_form_many.{i}"
        if name in outputs:
            vals, radii = outputs[name], workloads.CFM_RADII
            if len(vals) != len(radii):
                problems[name] = [f"{len(vals)} values for {len(radii)} radii"]
                continue
            bad = []
            for j in _sample(rng, len(radii)):
                want = circle_mean(0, lam, float(radii[j]))
                if not _close(_c(vals[j]), want, 0.0, CLOSED_FORM_TOL):
                    bad.append(f"r={radii[j]!r}: {_c(vals[j])} vs {want}")
            problems[name] = bad
    for regime, lam in workloads.spherical_regimes(inputs).items():
        name = f"spherical_function.{regime}"
        if name in outputs:
            bad = []
            for k, n in enumerate(workloads.SPHERICAL_ORDERS):
                for j in _sample(rng, len(workloads.R_GRID), SPHERICAL_SAMPLES):
                    r = math.tanh(workloads.R_GRID[j] / 2.0)
                    got, want = _c(outputs[name][k][j]), circle_mean(n, lam, r)
                    if not _close(got, want, 0.0, QUADRATURE_TOL):
                        bad.append(f"n={n} r={r!r}: {got} vs {want}")
            problems[name] = bad
    for regime in ("generic", "complex"):
        name = f"asymptotic_law.{regime}"
        if name in outputs:
            lam = workloads.spherical_regimes(inputs)[regime]
            mu = complex(mpmath.sqrt(mpmath.mpc(lam) + 0.25))
            bad = []
            laws = iter(outputs[name])
            for absolute in (False, True):
                c = boundary_constant(mu.real**2 - 0.25) if absolute else boundary_constant(lam)
                for n in workloads.SPHERICAL_ORDERS:
                    pref, power, rate = next(laws)
                    scale = abs(2.0 * mu) ** n if absolute else (2.0 * mu) ** n
                    want = (c / (math.factorial(n) * scale), n, mu.real - 0.5 if absolute else mu - 0.5)
                    if not (_close(_c(pref), want[0], 0.0, LAW_TOL) and power == n
                            and _close(_c(rate), want[2], 1e-15, 1e-14)):
                        bad.append(f"n={n} absolute={absolute}: {pref, power, rate} vs {want}")
            problems[name] = bad
    if "closed_form.grid" in outputs:
        vals = outputs["closed_form.grid"]
        grid = [(lam, float(r)) for lam in inputs["c3_lambdas"] for r in workloads.C3_RADII]
        bad = []
        for j in _sample(rng, len(grid)):
            lam, r = grid[j]
            want = circle_mean(0, lam, r)
            cf, qd = _c(vals[j][0]), _c(vals[j][1])
            if not (_close(cf, want, 0.0, CLOSED_FORM_TOL) and _close(qd, want, 0.0, QUADRATURE_TOL)):
                bad.append(f"lam={lam} r={r!r}: closed {cf}, quadrature {qd} vs {want}")
        problems["closed_form.grid"] = bad
    return problems


# ---- boundary transforms at lambda = 0 ------------------------------------


def poisson(z: complex, xi: float) -> float:
    """Poisson kernel P(z, e^{i xi})."""
    return (1.0 - abs(z) ** 2) / abs(complex(math.cos(xi), math.sin(xi)) - z) ** 2


def _sawtooth(phi):
    return np.remainder(phi + math.pi, 2.0 * math.pi) / math.pi - 1.0


def _sawtooth_ext(z: complex) -> float:
    # harmonic extension of phi/pi on (-pi, pi): (2/pi) arg(1 + z)
    return 2.0 / math.pi * math.atan2(z.imag, 1.0 + z.real)


def _indicator(c: float, w: float):
    def g(phi):
        d = np.abs(np.remainder(phi - c + math.pi, 2.0 * math.pi) - math.pi)
        return (d <= w).astype(float)

    def ext(z: complex) -> float:
        # w/pi + (1/pi) sum over a = w + t, w - t of arg(1/(1 - r e^{ia}))
        r, t = abs(z), math.atan2(z.imag, z.real) - c
        return w / math.pi + sum(
            math.atan2(r * math.sin(a), 1.0 - r * math.cos(a)) for a in (w + t, w - t)
        ) / math.pi

    return g, ext, (c - w, c + w)


def _probe_errors(g, ext, breaks, mode: str) -> list:
    """Reference rows of convergence_probe for the density g."""
    if mode == "Lp":
        angles = np.linspace(-math.pi, math.pi, 64, endpoint=False)
    else:
        angles = np.linspace(-math.pi, math.pi, 24, endpoint=False)
    if mode == "pointwise-ae":
        angles = [a for a in angles
                  if all(abs(math.remainder(a - b, 2 * math.pi)) > 0.2 for b in breaks)]
    rows = []
    for r in workloads.PROBE_RADII:
        errs = [abs(ext(r * complex(math.cos(a), math.sin(a))) - float(g(np.array([a]))[0]))
                for a in angles]
        rows.append(max(errs) if mode != "Lp" else float(np.mean(np.square(errs))) ** 0.5)
    return rows


def _boundary(inputs: dict, outputs: dict) -> dict:
    problems: dict = {}
    for name in ("maximal_inequality_probe.tube.n0", "maximal_inequality_probe.enlarged.n1"):
        if name in outputs:
            rep = outputs[name]
            ok = (math.isfinite(rep["fitted_C"]) and rep["fitted_C"] > 0
                  and rep["drift"] < MAX_DRIFT)
            problems[name] = [] if ok else [f"C={rep['fitted_C']!r} drift={rep['drift']!r}"]
    xi = inputs["atom_angle"]
    pairings = {
        "atom": lambda r, k: r ** abs(k) * complex(math.cos(k * xi), -math.sin(k * xi)),
        "cos": lambda r, k: r / 2.0 if abs(k) == 1 else 0.0,
    }
    for label, want in pairings.items():
        name = f"convergence_probe.weak-star.{label}"
        if name in outputs:
            problems[name] = [
                f"r={r!r} k={k}: {_c(v)} vs {want(r, k)}"
                for r, pairs in outputs[name] for k, v in pairs
                if not _close(_c(v), want(r, k), EXACT_TOL, 0.0)
            ]
    c, w = inputs["indicator"]
    g_ind, ext_ind, breaks_ind = _indicator(c, w)
    for label, (g, ext, breaks) in {
        "sawtooth": (_sawtooth, _sawtooth_ext, (math.pi,)),
        "indicator": (g_ind, ext_ind, breaks_ind),
    }.items():
        for mode in ("uniform", "pointwise-ae", "Lp"):
            name = f"convergence_probe.{mode}.{label}"
            if name in outputs:
                want = _probe_errors(g, ext, breaks, mode)
                problems[name] = [
                    f"r={r!r}: {got!r} vs {ref!r}"
                    for (r, got), ref in zip(outputs[name], want)
                    if not _close(got, ref, EXACT_TOL, 0.0)
                ] + ([] if len(outputs[name]) == len(want) else ["row count"])
    if "poisson_transform.fourier" in outputs:
        coeffs = inputs["fourier_coeffs"]
        bad = []
        for z, (value, normalized) in zip(inputs["fourier_points"], outputs["poisson_transform.fourier"]):
            r, t = abs(z), math.atan2(z.imag, z.real)
            want = sum(r ** abs(m) * complex(math.cos(m * t), -math.sin(m * t)) * v.conjugate()
                       for m, v in coeffs.items())
            if not (_close(_c(value), want, EXACT_TOL, EXACT_TOL)
                    and _close(_c(normalized), want, EXACT_TOL, EXACT_TOL)):
                bad.append(f"z={z}: {_c(value)} vs {want}")
        problems["poisson_transform.fourier"] = bad
    if "DirichletSolution.verify" in outputs:
        problems["DirichletSolution.verify"] = [
            f"xi={a!r} r={r!r}: {_c(v)}"
            for a, r, v, _, _ in outputs["DirichletSolution.verify"]
            if not _close(_c(v), r * math.cos(a), EXACT_TOL, 0.0)
        ]
    if "RiquierSolution.verify" in outputs:
        rep = outputs["RiquierSolution.verify"]
        k = len(inputs["riquier_angles"])
        phi1 = circle_mean(1, 0.0, workloads.RIQUIER_RADIUS)
        wants = ([r * math.cos(a) for a, r, *_ in rep["own"][:k]] + [1.0] * k
                 + [r * math.cos(a) / phi1 for a, r, *_ in rep["cross"]])
        rows = rep["own"] + rep["cross"]
        problems["RiquierSolution.verify"] = [
            f"xi={row[0]!r}: {_c(row[2])} vs {want}"
            for row, want in zip(rows, wants)
            if not _close(_c(row[2]), want, EXACT_TOL, EXACT_TOL)
        ] + ([] if len(rows) == 3 * k else [f"{len(rows)} rows"])
    if "fatou_probe.mixture" in outputs:
        bad = []
        for zeta, r, alpha, value, normalized, atom_part in outputs["fatou_probe.mixture"]:
            z = r * complex(math.cos(zeta + alpha), math.sin(zeta + alpha))
            p = poisson(z, xi)
            want = z.real + p
            if not (_close(_c(value), want, EXACT_TOL, EXACT_TOL)
                    and _close(_c(normalized), want, EXACT_TOL, EXACT_TOL)
                    and _close(atom_part, p, EXACT_TOL, EXACT_TOL)):
                bad.append(f"z={z}: {_c(value)} vs {want}")
        problems["fatou_probe.mixture"] = bad
    return problems


def check(workload: str, seed: int, outputs: dict) -> dict:
    """Problems per operation of an in-process workload's outputs."""
    inputs = workloads.make_inputs(workload, seed)
    if workload == "radial":
        return _radial(inputs, outputs, np.random.default_rng([seed, 7]))
    return _boundary(inputs, outputs)


# ---- CLI -------------------------------------------------------------------


def check_cli(call: tuple, returncode: int, stdout: bytes) -> list[str]:
    """Exit code, CSV header and row count of one CLI invocation."""
    name, _, want_code, header, count = call
    problems = []
    if returncode != want_code:
        problems.append(f"exit code {returncode}, expected {want_code}")
    rows = list(csv.reader(io.StringIO(stdout.decode(errors="replace"))))
    if not rows or rows[0] != header:
        problems.append(f"header {rows[:1]}, expected {header}")
        return problems
    if len(rows) - 1 != count:
        problems.append(f"{len(rows) - 1} rows, expected {count}")
    if name == "selftest":
        status = {int(row[0]): row[2] for row in rows[1:]}
        want = {i: "fail" if i in workloads.SELFTEST_RED else "pass"
                for i in workloads.SELFTEST_INDICES}
        if status != want:
            problems.append(f"criterion status {status}, expected {want}")
    return problems
