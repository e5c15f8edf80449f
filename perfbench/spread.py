"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads adapt train report --seeds 1 2 3 4 5 6 7 8 9 10

For every workload and metric it prints the median and the quartile spread
(Q3 - Q1) / median over the runs, the measure the bounds in BENCHMARK.json
are checked against. The reference figures in perfbench/README.md come
from this script; ``--trace 1`` summarises the per-layer metrics instead.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["adapt", "train", "report"])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=None, help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write every run's result to this JSON file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    everything = {}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, seconds, args.trace)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} elapsed={result['elapsed_s']:.1f}s", flush=True)
        everything[workload] = results
        print(f"\n{workload}: {len(results)} runs of {seconds} s")
        print(f"  {'metric':34s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, rel = spread(values)
            bound = bounds.get(name)
            flag = "" if bound is None or rel < bound / 3 else "  <-- over a third of the bound"
            bound_text = f"{bound:6.2f}" if bound is not None else ""
            print(f"  {name:34s} {med:12.5g} {100 * rel:7.2f}% {bound_text:>6s}{flag}")
        print(flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(everything, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
