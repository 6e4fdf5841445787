"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hypolib.cli  # noqa: E402,F401  -- every hypolib module, as traced runs see them
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every hypolib module, and of the traced classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "hypolib" or name.startswith("hypolib.")):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for target in spans.TARGETS:
        owner, leaf, obj = spans._resolve(target.module, target.attr)
        if isinstance(owner, type):
            out[(owner.__qualname__, leaf)] = obj
    return out


def test_traced_run_restores_every_rebound_name():
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        rebound = {(getattr(o, "__name__", o), k) for o, k, _ in tracer.rebound}
        # a name imported with "from .numerics import ..." is rebound too
        assert ("hypolib.transforms", "integrate_circle") in rebound
        assert ("hypolib.numerics", "integrate_circle") in rebound
        from hypolib import kernels, spherical

        spherical.spherical_function(1, 0.99, kernels.make_spectral(0.5))
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    names = tracer.summary()["spans"]
    assert names["spherical.spherical_function.far"]["calls"] == 1
    assert names["numerics.integrate_panels"]["work"] > 0


def test_self_time_subtracts_the_union_of_children():
    assert spans._union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.5, 5.5) == 3.0
    assert spans._union_length([], 0.0, 1.0) == 0.0


def _child(*args: str) -> dict:
    subprocess.run([sys.executable, str(HERE / "child.py"), *args], check=True,
                   env=run.Runner(HERE, math.inf).env, cwd=ROOT, timeout=170)
    return json.loads(Path(args[3]).read_text())


def test_tracing_leaves_the_outputs_unchanged(tmp_path):
    plain = _child("pass", "boundary", "5", str(tmp_path / "plain.json"))
    traced = _child("pass", "boundary", "5", str(tmp_path / "traced.json"), "--trace")
    assert plain["errors"] == traced["errors"] == {}
    fp = {op: reference.fingerprint(v) for op, v in plain["outputs"].items()}
    assert fp == {op: reference.fingerprint(v) for op, v in traced["outputs"].items()}
    assert plain["trace"] is None
    assert traced["trace"]["spans"]["numerics.parallel_map"]["work"] > 0


def _fourier_pass(seed: int) -> dict:
    inputs = workloads.make_inputs("boundary", seed)
    rows = []
    for z in inputs["fourier_points"]:
        r, t = abs(z), math.atan2(z.imag, z.real)
        v = sum(r ** abs(m) * complex(math.cos(m * t), -math.sin(m * t)) * c.conjugate()
                for m, c in inputs["fourier_coeffs"].items())
        rows.append([workloads.pair(v), workloads.pair(v)])
    return {"ops": ["poisson_transform.fourier"], "errors": {},
            "outputs": {"poisson_transform.fourier": rows}}


def test_wrong_value_counts_as_a_failed_operation():
    good = _fourier_pass(3)
    assert run.judge("boundary", 3, None, [good])[:2] == (1, 0)
    bad = json.loads(json.dumps(good))
    bad["outputs"]["poisson_transform.fourier"][5][0][0] += 1e-6
    attempted, failed, problems, _ = run.judge("boundary", 3, None, [bad])
    assert (attempted, failed) == (1, 1)
    assert list(problems) == ["poisson_transform.fourier"]
    # a later pass that drifts from the checked one fails as well
    assert run.judge("boundary", 3, None, [good, bad])[:2] == (2, 1)


def test_unexpected_exit_code_counts_as_a_failed_operation():
    calls = workloads.cli_calls(workloads.make_inputs("cli", 1))
    zeros = next(c for c in calls if c[0] == "zeros")
    csv = b"index,r,gap_from_previous\n0,0.5,\n1,0.9,0.4\n"
    assert reference.check_cli(zeros, 0, csv) == []
    assert reference.check_cli(zeros, 1, csv)
    assert reference.check_cli(zeros, 0, csv.replace(b"index", b"idx"))


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(run.LAYER_METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}


def test_inputs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        assert repr(workloads.make_inputs(w, 11)) == repr(workloads.make_inputs(w, 11))
        assert repr(workloads.make_inputs(w, 11)) != repr(workloads.make_inputs(w, 12))


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "radial"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
