"""The benchmark's verify workload runs clean: one pass of every case, with
its flatness and quadrature checks, so a sampler change that breaks them
fails here and not first in a benchmark run."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_verify_regimes_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-regimes",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0
