"""Seeded inputs and the operations of each benchmark workload.

Inputs are drawn from the workload seed with numpy's default generator;
the library receives only these generated values.  Operations call the
library through module attributes (``spherical.closed_form_many``), never
through names imported here, so the tracer's rebinding reaches them.

Workloads:

* ``radial``: circle means.  Most of its time is in
  ``numerics.gauss_2f1_many`` (the closed form on criterion 5's grid), the
  rest in circle-mean quadrature.  Every radius is new, so the circle-mean
  cache almost never hits, and no FFT or boundary transform runs.
* ``boundary``: boundary transforms and approach-region probes.  Its time
  is in the ``regions`` FFT convolutions, ``parallel_map`` and per-point
  transforms; circle means are asked for on a few repeated radii, so their
  cache mostly hits, and ``gauss_2f1_many`` never runs.
* ``cli``: one fresh ``hypolib`` process per subcommand at its defaults,
  so import and cold caches are paid on every invocation.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("radial", "boundary", "cli")

# Criterion 5's grid: geometric in 1 - r, up to r = 0.999.
CFM_RADII = 1.0 - np.geomspace(0.95, 1e-3, 2000)
# Criterion 3's grid.
C3_RADII = np.arange(0.10, 0.951, 0.05)
# Hyperbolic radii R = log((1+r)/(1-r)); tau = 20 falls near R = 3.0.
R_GRID = np.linspace(1.0, 30.0, 59)
SPHERICAL_ORDERS = (0, 1, 2)
PROBE_RADII = (0.9, 0.99, 0.999)
DIRICHLET_RADII = (0.9, 0.99, 0.999, 0.9999)
RIQUIER_RADIUS = 0.9999
FOURIER_MODES = tuple(range(-4, 5))
FATOU_DEPTHS = (1, 2, 3, 4)


# One centre per quadrant of criterion 5's square [-3, 3]^2.  The series
# length of gauss_2f1_many grows with Re mu (from 14k terms at mu = 0.1 to
# 22k at mu = 2 + 2i), so drawing lambda over the whole square moves a
# pass by +-12% from seed to seed; a +-0.25 jitter around fixed centres
# keeps every seed's series cost within about 1%.
CFM_CENTRES = (1.5 + 1.5j, -1.5 + 1.5j, -1.5 - 1.5j, 1.5 - 1.5j)
CFM_JITTER = 0.25


def _off_ray(rng) -> list[complex]:
    return [
        c + complex(*rng.uniform(-CFM_JITTER, CFM_JITTER, 2)) for c in CFM_CENTRES
    ]


def _criterion3_lambdas(rng, count: int) -> list[complex]:
    out = []
    for _ in range(count):
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if lam.real <= -0.25 and abs(lam.imag) < 0.05:
            lam = complex(lam.real, 0.5)
        out.append(lam)
    return out


def make_inputs(workload: str, seed: int) -> dict:
    """All generated inputs of one workload; equal seeds give equal inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "radial":
        return {
            "cfm_lambdas": _off_ray(rng),
            "generic_lambda": complex(rng.uniform(0.5, 3.0), 0.0),
            "complex_lambda": complex(
                rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            ),
            "c3_lambdas": _criterion3_lambdas(rng, 20),
        }
    if workload == "boundary":
        return {
            "atom_angle": float(rng.uniform(-math.pi, math.pi)),
            "indicator": (float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(0.3, 1.0))),
            "fourier_coeffs": {
                m: complex(rng.standard_normal(), rng.standard_normal()) for m in FOURIER_MODES
            },
            "fourier_points": [
                complex(r * math.cos(t), r * math.sin(t))
                for r, t in zip(rng.uniform(0.3, 0.99, 32), rng.uniform(-math.pi, math.pi, 32))
            ],
            "dirichlet_angles": sorted(rng.uniform(-math.pi, math.pi, 12).tolist()),
            "riquier_angles": sorted(rng.uniform(-math.pi, math.pi, 8).tolist()),
            "fatou_zetas": [float(a) for a in rng.uniform(-math.pi, math.pi, 3)],
        }
    if workload == "cli":
        return {"lambda": complex(rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0))}
    raise ValueError(f"unknown workload {workload!r}")


def pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def spherical_regimes(inputs: dict) -> dict:
    """Spectral value of each circle-mean regime the radial workload sweeps."""
    return {
        "generic": inputs["generic_lambda"],
        "critical": complex(-0.25),
        "complex": inputs["complex_lambda"],
    }


def indicator_name(inputs: dict) -> str:
    c, w = inputs["indicator"]
    return f"indicator:{c!r}:{w!r}"


def operations(workload: str, inputs: dict) -> list:
    """(name, call, encode) per operation of an in-process workload.

    ``call`` takes no arguments and runs the library; only it is timed.
    ``encode`` turns its result into JSON values, complex numbers as
    [re, im] pairs.
    """
    if workload == "radial":
        return _radial_ops(inputs)
    if workload == "boundary":
        return _boundary_ops(inputs)
    raise ValueError(f"workload {workload!r} runs no in-process operations")


def _radial_ops(inputs: dict) -> list:
    from hypolib import kernels, spherical

    ops = []
    for i, lam in enumerate(inputs["cfm_lambdas"]):
        ops.append((
            f"closed_form_many.{i}",
            lambda lam=lam: spherical.closed_form_many(CFM_RADII, kernels.make_spectral(lam)),
            lambda v: [pair(x) for x in v],
        ))
    for regime, lam in spherical_regimes(inputs).items():

        def sweep(lam=lam):
            sp = kernels.make_spectral(lam)
            return [
                [spherical.spherical_function(n, math.tanh(R / 2.0), sp) for R in R_GRID]
                for n in SPHERICAL_ORDERS
            ]

        ops.append((
            f"spherical_function.{regime}",
            sweep,
            lambda v: [[pair(x) for x in row] for row in v],
        ))
    for regime in ("generic", "complex"):
        lam = spherical_regimes(inputs)[regime]

        def laws(lam=lam):
            sp = kernels.make_spectral(lam)
            return [
                spherical.asymptotic_law(n, sp, absolute=absolute)
                for absolute in (False, True)
                for n in SPHERICAL_ORDERS
            ]

        ops.append((
            f"asymptotic_law.{regime}",
            laws,
            lambda v: [[pair(a.prefactor), a.R_power, pair(a.exp_rate)] for a in v],
        ))

    def closed_vs_quadrature():
        out = []
        for lam in inputs["c3_lambdas"]:
            sp = kernels.make_spectral(lam)
            for r in C3_RADII:
                out.append((
                    spherical.closed_form(float(r), sp),
                    spherical.spherical_function(0, float(r), sp),
                ))
        return out

    ops.append((
        "closed_form.grid",
        closed_vs_quadrature,
        lambda v: [[pair(a), pair(b)] for a, b in v],
    ))
    return ops


def _boundary_ops(inputs: dict) -> list:
    from hypolib import kernels, regions, transforms

    sp0 = kernels.make_spectral(0.0)
    atom = transforms.Atoms(((inputs["atom_angle"], 1.0),))
    ops = []

    def maximal_op(lam, kind, n):
        def call():
            return regions.maximal_inequality_probe(
                n, kernels.make_spectral(lam), width=1.0, kind=kind
            )

        return (
            f"maximal_inequality_probe.{kind}.n{n}",
            call,
            lambda rep: {
                "ratios": [[t, v] for t, v in rep.ratios],
                "refined_ratios": [[t, v] for t, v in rep.refined_ratios],
                "fitted_C": rep.fitted_C,
                "refined_C": rep.refined_C,
                "drift": rep.drift,
            },
        )

    ops.append(maximal_op(0.0, "tube", 0))
    ops.append(maximal_op(-0.25, "enlarged", 1))

    def probe_op(name, datum_fn, mode):
        def call():
            return transforms.convergence_probe(0, sp0, datum_fn(), mode, radii=PROBE_RADII)

        def encode(rep):
            rows = []
            for row in rep["rows"]:
                if "pairings" in row:
                    rows.append([row["r"], [[k, pair(v)] for k, v in sorted(row["pairings"].items())]])
                else:
                    rows.append([row["r"], row.get("sup_error", row.get("lp_error"))])
            return rows

        return (f"convergence_probe.{mode}.{name}", call, encode)

    ops.append(probe_op("atom", lambda: atom, "weak-star"))
    ops.append(probe_op("cos", lambda: transforms.density_preset("cos"), "weak-star"))
    for preset in ("sawtooth", indicator_name(inputs)):
        label = preset.split(":")[0]
        for mode in ("uniform", "pointwise-ae", "Lp"):
            ops.append(probe_op(label, lambda p=preset: transforms.density_preset(p), mode))

    def fourier():
        seq = transforms.FourierSeq(dict(inputs["fourier_coeffs"]))
        return [transforms.poisson_transform(0, sp0, seq, z) for z in inputs["fourier_points"]]

    ops.append((
        "poisson_transform.fourier",
        fourier,
        lambda v: [[pair(t.value), pair(t.normalized)] for t in v],
    ))

    def rows(v):
        return [[row.xi_angle, row.r, pair(row.value), pair(row.target), row.error] for row in v]

    ops.append((
        "DirichletSolution.verify",
        lambda: transforms.dirichlet_solve(sp0, transforms.density_preset("cos")).verify(
            inputs["dirichlet_angles"], DIRICHLET_RADII
        ),
        rows,
    ))
    ops.append((
        "RiquierSolution.verify",
        lambda: transforms.riquier_solve(
            sp0, (transforms.density_preset("cos"), transforms.density_preset("one"))
        ).verify(inputs["riquier_angles"], [RIQUIER_RADIUS]),
        lambda v: {"own": rows(v["own"]), "cross": rows(v["cross"])},
    ))
    ops.append((
        "fatou_probe.mixture",
        lambda: regions.fatou_probe(
            0,
            sp0,
            transforms.Mixture(transforms.density_preset("cos"), atom),
            1.0,
            inputs["fatou_zetas"],
            depths=FATOU_DEPTHS,
        ),
        lambda v: [
            [row.zeta_angle, row.r, row.alpha_offset, pair(row.value), pair(row.normalized),
             row.atom_part]
            for row in v
        ],
    ))
    return ops


# name, argv after "hypolib", expected exit code, CSV header, data rows.
# Transform and region subcommands run at lambda = 0, whose exact values
# the boundary workload checks; zeros runs at -1, where the README
# documents two zeros below 0.9999.
def cli_calls(inputs: dict) -> list[tuple]:
    lam = inputs["lambda"]
    seeded = ["--lambda", repr(lam.real), repr(lam.imag)]
    zero = ["--lambda", "0", "0"]
    return [
        ("kernel", ["kernel", *seeded], 0, ["xi_angle", "value_re", "value_im"], 3),
        ("spherical", ["spherical", *seeded], 0,
         ["r", "phi_re", "phi_im", "closed_form_re", "closed_form_im", "diff"], 50),
        ("asymptotics", ["asymptotics", *seeded], 0,
         ["R", "phi_re", "phi_im", "law_re", "law_im", "ratio_re", "ratio_im"], 4),
        ("zeros", ["zeros", "--lambda", "-1", "0"], 0, ["index", "r", "gap_from_previous"], 2),
        ("dirichlet", ["dirichlet", *zero], 0,
         ["xi_angle", "r", "value_re", "value_im", "target_re", "target_im", "error"], 48),
        ("riquier", ["riquier", *zero], 0,
         ["part", "xi_angle", "r", "value_re", "value_im", "target_re", "target_im", "error"], 24),
        ("convergence", ["convergence", *zero, "--preset", "cos"], 0, ["r", "sup_error"], 3),
        ("maximal", ["maximal", *zero], 0, ["test_id", "fitted_C"], 7),
        ("fatou", ["fatou", *zero], 0,
         ["zeta_angle", "r", "alpha_offset", "value_re", "value_im", "normalized_re",
          "normalized_im"], 16),
        ("examples-d", ["examples", "--what", "d"], 0, ["n", "r", "value"], 81),
        ("examples-growth", ["examples", "--what", "growth"], 0,
         ["r", "angle", "ratio", "envelope"], 15),
        ("examples-associate", ["examples", "--what", "associate"], 0,
         ["r", "angle", "scaled_field", "deviation", "bound"], 10),
        ("lacunary", ["lacunary"], 0, ["N", "circle_radius", "sup_value"], 2),
        ("selftest", ["selftest", "--criteria", SELFTEST_CRITERIA], 1,
         ["criterion", "name", "status", "details"], 10),
    ]


# Criteria 5 and 9 are covered by the radial and boundary workloads;
# criterion 13 is two full selftests.
SELFTEST_CRITERIA = "1-4,6-8,10-12"
SELFTEST_INDICES = (1, 2, 3, 4, 6, 7, 8, 10, 11, 12)
SELFTEST_RED = (4, 8, 11, 12)
CLI_NAMES = tuple(call[0] for call in cli_calls({"lambda": 1j}))
