"""hypolib benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload {radial,boundary,cli} [--seed N]
                             [--seconds S] [--trace {0,1}]

Run from the root of a source checkout; the library is imported from its
``src`` directory.  Every pass of a workload is a fresh Python process that
runs the workload's operations one at a time (a closed loop with one
client); the library's thread pool keeps its default size.

``--trace 0`` starts passes until ``--seconds`` have elapsed (at least two)
and reports

    setup_s      fresh interpreter to ``import hypolib.cli`` done (median of 5)
    wall_s       wall time of the timed operations (CLI: of the invocations)
    cpu_s        user + system CPU of the timed operations (CLI: of the processes)
    peak_rss_mb  peak resident set of the pass process (CLI: largest invocation)

``wall_s`` and ``cpu_s`` sum, over the operations of a pass, each
operation's median over the passes, so a stall that hits one operation in
one pass does not move them; ``peak_rss_mb`` is the median over passes
(CLI: the largest per-invocation median).

``--trace 1`` runs one untraced pass, one traced pass and, on ``boundary``,
one traced pass with ``HYPOLIB_THREADS=1``, and reports per-layer metrics
(see spans.py) plus the tracing overhead.

After timing, every output is checked against an independent reference
(reference.py).  An operation fails when it raises, exits with an
unexpected code or misses its check; ``failed`` / ``attempted`` is the
failed fraction.  The last line of stdout is the JSON result; the line
before it, starting with ``meta``, holds output fingerprints and versions.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tomllib
from pathlib import Path

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1301
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
# Each operation's median needs more than one pass, even when one pass
# outlasts --seconds.
MIN_PASSES = 2
# Whole-run budget; a run must end well inside three minutes.
DEADLINE_S = 165.0
CHECK_RESERVE_S = 15.0


class BenchError(Exception):
    """The benchmark could not measure (no source tree, a pass crashed)."""


class Runner:
    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self._count = 0
        self.env = dict(os.environ)
        self.env.pop("HYPOLIB_THREADS", None)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")

    def _path(self, stem: str) -> Path:
        self._count += 1
        return self.tmp / f"{self._count:04d}-{stem}"

    def spawn(self, argv: list[str], env: dict | None = None) -> dict:
        """Run argv to completion; wall time, and CPU and peak RSS from its own rusage."""
        out, err = self._path("stdout"), self._path("stderr")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run out of time before all passes finished")
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env or self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: take the child down with us
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "t0": t0,
            "returncode": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            "stdout": out.read_bytes(),
            "stderr": err.read_bytes().decode(errors="replace"),
        }

    # -- set-up -----------------------------------------------------------

    def setup_samples(self) -> list[float]:
        """Seconds from process start to ``import hypolib.cli`` done."""
        code = "import time, hypolib.cli as c; print(time.monotonic(), c.__file__)"
        samples = []
        for i in range(SETUP_SAMPLES + 1):
            res = self.spawn([sys.executable, "-c", code])
            if res["returncode"] != 0:
                raise BenchError(f"import hypolib.cli failed: {res['stderr'][-400:]}")
            done, path = res["stdout"].decode().split(maxsplit=1)
            if not Path(path.strip()).resolve().is_relative_to(SRC):
                raise BenchError(f"hypolib imported from {path.strip()}, not from {SRC}")
            if i:  # the first start warms the file cache and writes bytecode
                samples.append(float(done) - res["t0"])
        return samples

    def import_times(self) -> dict:
        """Median import seconds per package, from ``python -X importtime``."""
        runs = []
        for _ in range(IMPORTTIME_SAMPLES):
            res = self.spawn([sys.executable, "-X", "importtime", "-c", "import hypolib.cli"])
            runs.append(import_seconds(res["stderr"]))
        return {f"setup.{k}_s": statistics.median(r[k] for r in runs) for k in runs[0]}

    # -- passes -----------------------------------------------------------

    def pass_inprocess(self, workload: str, seed: int, traced: bool, serial: bool = False) -> dict:
        out = self._path("pass.json")
        argv = [sys.executable, str(HERE / "child.py"), "pass", workload, str(seed), str(out)]
        env = dict(self.env, HYPOLIB_THREADS="1") if serial else None
        res = self.spawn(argv + (["--trace"] if traced else []), env)
        if res["returncode"] != 0 or not out.exists():
            raise BenchError(f"{workload} pass exited {res['returncode']}: {res['stderr'][-800:]}")
        result = json.loads(out.read_text())
        result.update(rss_mb=res["rss_mb"], elapsed_s=res["wall_s"])
        return result

    def pass_cli(self, calls: list, traced: bool) -> dict:
        results, summaries = [], []
        for name, argv, *_ in calls:
            if traced:
                out = self._path("trace.json")
                res = self.spawn([sys.executable, str(HERE / "child.py"), "cli", str(out), "--", *argv])
                if out.exists():
                    summaries.append(json.loads(out.read_text()))
            else:
                res = self.spawn([sys.executable, "-m", "hypolib.cli", *argv])
            results.append(dict(res, name=name))
        return {
            "calls": results,
            "timings": {r["name"]: [r["wall_s"], r["cpu_s"], r["rss_mb"]] for r in results},
            "wall_s": sum(r["wall_s"] for r in results),
            "cpu_s": sum(r["cpu_s"] for r in results),
            "rss_mb": max(r["rss_mb"] for r in results),
            "elapsed_s": sum(r["wall_s"] for r in results),
            "trace": spans.merge(summaries) if traced else None,
        }

    def run_pass(self, workload: str, seed: int, calls, traced: bool = False, serial: bool = False):
        if workload == "cli":
            return self.pass_cli(calls, traced)
        return self.pass_inprocess(workload, seed, traced, serial)


def import_seconds(report: str) -> dict:
    """Per package: for scipy, numpy and mpmath the cumulative time of their
    imports that none of these three packages caused, so each import is
    charged to the package that pulled it in; for hypolib the self time of
    its own modules."""
    entries = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        if self_us.strip().isdigit():
            depth = len(name) - len(name.lstrip())
            entries.append((depth, name.strip().split(".")[0], int(self_us), int(cum_us)))
    totals = dict.fromkeys(("scipy", "numpy", "mpmath", "hypolib"), 0)
    ancestors: list = []
    # importtime prints a module after the imports it caused; reversed, each
    # entry follows its ancestors
    for depth, top, self_us, cum_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if top == "hypolib":
            totals[top] += self_us
        elif top in totals and not any(t in totals and t != "hypolib" for _, t in ancestors):
            totals[top] += cum_us
        ancestors.append((depth, top))
    return {k: v * 1e-6 for k, v in totals.items()}


# -- checks ----------------------------------------------------------------


def _note(problems: dict, op: str, bad: list) -> None:
    seen = problems.setdefault(op, [])
    seen.extend(b for b in bad if b not in seen)


def judge(workload: str, seed: int, calls, passes: list) -> tuple[int, int, dict, dict]:
    """(attempted, failed, problems per failed operation, fingerprints).

    The first pass is checked against the references; every later pass
    must reproduce its output fingerprints exactly.
    """
    problems: dict = {}
    failed = 0
    if workload == "cli":
        prints = {}
        for p in passes:
            for call, res in zip(calls, p["calls"]):
                bad = reference.check_cli(call, res["returncode"], res["stdout"])
                fp = reference.fingerprint(res["stdout"])
                if prints.setdefault(call[0], fp) != fp:
                    bad.append("CSV differs from the first pass")
                if bad:
                    failed += 1
                    _note(problems, call[0], bad)
        return len(calls) * len(passes), failed, problems, prints

    first = passes[0]
    checked = reference.check(workload, seed, first["outputs"])
    prints = {op: reference.fingerprint(v) for op, v in first["outputs"].items()}
    for i, p in enumerate(passes):
        for op in p["ops"]:
            if op in p["errors"]:
                bad = [p["errors"][op]]
            elif i == 0:
                bad = checked.get(op, ["no reference check"])
            elif reference.fingerprint(p["outputs"][op]) != prints.get(op):
                bad = [f"output differs from the first pass (pass {i})"]
            else:
                bad = checked.get(op, [])
            if bad:
                failed += 1
                _note(problems, op, bad)
    return sum(len(p["ops"]) for p in passes), failed, problems, prints


# -- metadata --------------------------------------------------------------


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata(workload: str, seed: int, prints: dict) -> dict:
    files = sorted((SRC / "hypolib").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    pyproject = ROOT / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"] if pyproject.is_file() else None
    return {
        "workload": workload,
        "seed": seed,
        "fingerprint": reference.fingerprint(sorted(prints.items())),
        "fingerprints": prints,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **{pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "dependencies": deps,
    }


# -- runs ------------------------------------------------------------------


def timed_run(runner: Runner, workload: str, seed: int, seconds: float, calls) -> dict:
    setup = runner.setup_samples()
    passes = []
    start = time.monotonic()
    while True:
        passes.append(runner.run_pass(workload, seed, calls))
        longest = max(p["elapsed_s"] for p in passes)
        left = runner.deadline - CHECK_RESERVE_S - time.monotonic()
        if longest > left:
            break
        if len(passes) >= MIN_PASSES and time.monotonic() - start >= seconds:
            break
    attempted, failed, problems, prints = judge(workload, seed, calls, passes)
    medians = {
        op: [statistics.median(p["timings"][op][k] for p in passes) for k in range(len(t))]
        for op, t in passes[0]["timings"].items()
    }
    if workload == "cli":
        rss = max(m[2] for m in medians.values())
    else:
        rss = statistics.median(p["rss_mb"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(m[0] for m in medians.values()), "s"),
        "cpu_s": (sum(m[1] for m in medians.values()), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {"passes": len(passes), "pass_wall_s": [p["wall_s"] for p in passes],
             "setup_samples_s": setup}
    return dict(attempted=attempted, failed=failed, problems=problems, prints=prints,
                metrics=metrics, extra=extra)


def traced_run(runner: Runner, workload: str, seed: int, calls) -> dict:
    setup = runner.setup_samples()
    values = {name: 0 for name, _ in LAYER_METRICS}
    values.update(runner.import_times())
    plain = runner.run_pass(workload, seed, calls)
    traced = runner.run_pass(workload, seed, calls, traced=True)
    passes = [plain, traced]
    serial = None
    if workload == "boundary":
        serial = runner.run_pass(workload, seed, calls, traced=True, serial=True)
        passes.append(serial)
    attempted, failed, problems, prints = judge(workload, seed, calls, passes)
    values.update(spans.span_metrics(traced["trace"], serial and serial["trace"]))
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    if workload == "cli":
        for res in plain["calls"]:
            values[f"cli.{res['name']}.s"] = res["wall_s"]
            values[f"cli.{res['name']}.rss_mb"] = res["rss_mb"]
    units = dict(LAYER_METRICS)
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise BenchError(f"unlisted per-layer metrics: {unknown}")
    metrics = {name: (values[name], units[name]) for name in units}
    extra = {"passes": len(passes), "untraced_wall_s": plain["wall_s"],
             "traced_wall_s": traced["wall_s"], "setup_samples_s": setup}
    return dict(attempted=attempted, failed=failed, problems=problems, prints=prints,
                metrics=metrics, extra=extra)


LAYER_METRICS = spans.layer_metric_names(workloads.SELFTEST_INDICES, workloads.CLI_NAMES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "hypolib" / "cli.py").is_file():
        sys.stderr.write(f"no hypolib source tree at {SRC}; run from a source checkout\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    calls = workloads.cli_calls(workloads.make_inputs("cli", args.seed)) if args.workload == "cli" else None
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            runner = Runner(Path(tmp), deadline)
            if args.trace:
                res = traced_run(runner, args.workload, args.seed, calls)
            else:
                res = timed_run(runner, args.workload, args.seed, args.seconds, calls)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'timed'}: "
          f"{res['extra']['passes']} passes, {res['attempted']} operations, {res['failed']} failed")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':44s} {res['failed'] / res['attempted']:14.6g} ratio")
    for op, bad in sorted(res["problems"].items()):
        print(f"  FAILED {op}: {'; '.join(bad)[:300]}")
    meta = metadata(args.workload, args.seed, res["prints"])
    meta.update(res["extra"])
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
