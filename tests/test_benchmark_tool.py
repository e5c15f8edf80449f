"""The benchmark script runs against the package and passes its own checks.

perfbench replaces and wraps package functions by name (``model_forward``,
``adapt_batch``, ``run_stream``, ...). A change that breaks one of those
hooks fails here, in a few seconds, instead of only in a full benchmark run.
Both modes run: the untraced one prints the end-to-end metrics that
``BENCHMARK.json`` bounds, the traced one the per-layer metrics. Each run
writes its outputs under ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"


@pytest.mark.parametrize("trace", [0, 1], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", ["adapt", "train", "report"])
def test_one_run_is_correct(workload, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    if not trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
        bounded = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
        assert printed.items() >= bounded.items(), f"printed {printed}, BENCHMARK.json bounds {bounded}"
