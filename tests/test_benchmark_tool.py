"""The benchmark script runs against the package and passes its own checks.

perfbench replaces and wraps package functions by name (``model_forward``,
``adapt_batch``, ``run_stream``, ...). A change that breaks one of those
hooks fails here, in a few seconds, instead of only in a full benchmark run.
Each run writes its outputs under ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["adapt", "train", "report"])
def test_one_traced_run_is_correct(workload):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=RUN.parent.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
