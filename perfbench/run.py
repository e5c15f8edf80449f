"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload adapt --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the output holds the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a run that alternates untraced and traced rounds.
Reports, records, boards and the trace are written under
``.perfbench/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

# One BLAS thread: a second one gives nothing at these matrix sizes and adds
# scheduling noise. Must be set before NumPy is imported.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("adapt", "train", "report"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seconds: float, trace: bool) -> dict:
    from workloads import TraceSum, end_to_end_metrics, per_layer_metrics, traced_round

    setup_times = []
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    untraced, traced, problems = [], [], []
    trace_sum = TraceSum()
    start = time.perf_counter()
    while True:
        if trace and len(untraced) > len(traced):
            rnd, result, tracer, wall = traced_round(workload)
            trace_sum.add(tracer, wall)
            traced.append(rnd)
        else:
            rnd, result = workload.round()
            untraced.append(rnd)
        problems += workload.inspect(result)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (traced if trace else len(untraced) >= MIN_ROUNDS):
            break
    problems += workload.final_checks()

    rounds = untraced + traced
    if trace:
        metrics = per_layer_metrics(workload, trace_sum, untraced, traced)
        if abs(metrics["trace.self_sum_ratio"][0] - 1.0) > 0.1:
            problems.append(f"per-layer self times add up to {metrics['trace.self_sum_ratio'][0]:.3f} of the traced wall")
    else:
        metrics = end_to_end_metrics(setup_times, untraced)
    return {
        "problems": problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "rounds": len(rounds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "prototta" / "__init__.py").is_file():
        print(f"error: no prototta package under {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(src))

    import numpy as np

    import workloads

    out = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out)
    run = measure(workload, args.seconds, bool(args.trace))

    for problem in run["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run["metrics"].items()},
    }
    settings = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": run["rounds"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": workloads.usable_cpus(),
        "PTTA_THREADS": os.environ.get("PTTA_THREADS", "unset"),
        **BLAS_THREADS,
    }
    (out / ("trace.json" if args.trace else "result.json")).write_text(
        json.dumps({"settings": settings, "problems": run["problems"], **result}, indent=2) + "\n", encoding="utf-8"
    )
    print("# " + " ".join(f"{k}={v}" for k, v in settings.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
