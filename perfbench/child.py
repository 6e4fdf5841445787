"""Worker process of the benchmark; each call is a fresh interpreter.

    python child.py pass WORKLOAD SEED OUT [--trace]
        Run every operation of an in-process workload once, one at a time,
        and write outputs, errors, wall and CPU time of the pass and of each
        operation (and with --trace the span summary) to OUT as JSON.

    python child.py cli OUT -- ARGS...
        Run ``hypolib ARGS...`` under the tracer, write the span summary to
        OUT and exit with the CLI's exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    import hypolib.cli  # noqa: F401  -- load the library as the CLI does
    import spans
    import workloads

    ops = workloads.operations(workload, workloads.make_inputs(workload, seed))
    tracer = spans.Tracer() if traced else None
    raw, errors, timings = {}, {}, {}
    if tracer:
        tracer.install()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        for name, call, _ in ops:
            op_cpu, op_t = _cpu_s(), time.perf_counter()
            try:
                raw[name] = call()
            except Exception as exc:  # an operation that raises is a failed operation
                errors[name] = f"{type(exc).__name__}: {exc}"
            timings[name] = [time.perf_counter() - op_t, _cpu_s() - op_cpu]
    finally:
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        if tracer:
            tracer.uninstall()
    outputs = {}
    for name, _, encode in ops:
        if name in raw:
            outputs[name] = encode(raw[name])
    return {
        "ops": [name for name, _, _ in ops],
        "outputs": outputs,
        "errors": errors,
        "wall_s": wall,
        "cpu_s": cpu,
        "timings": timings,
        "trace": tracer.summary() if tracer else None,
    }


def run_cli(out: str, argv: list[str]) -> int:
    import hypolib.cli
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        return hypolib.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump(tracer.summary(), fh)


def main(argv: list[str]) -> int:
    if len(argv) >= 4 and argv[0] == "pass":
        result = run_pass(argv[1], int(argv[2]), "--trace" in argv[4:])
        with open(argv[3], "w") as fh:
            json.dump(result, fh)
        return 0
    if len(argv) >= 3 and argv[0] == "cli" and argv[2] == "--":
        return run_cli(argv[1], argv[3:])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
