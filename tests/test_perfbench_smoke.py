"""The benchmark's three workloads run clean: one pass of every case, with
its flatness, quadrature and cost checks, so a sampler, Gram or factor
change that breaks them fails here and not first in a benchmark run."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_workload(workload):
    """One pass of a perfbench workload at seed 1; its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0
    return result


def test_perfbench_verify_regimes_passes_its_checks():
    run_workload("verify-regimes")


def test_perfbench_synthesize_wide_passes_its_checks():
    run_workload("synthesize-wide")


def test_perfbench_synthesize_ladder_passes_its_checks():
    run_workload("synthesize-ladder")


# names the span recorders look up that beamctl no longer has, so their
# metrics read 0 on purpose: spectrum.boundary_trace_coefficients went with
# the one-spectrum-per-config change, kernels.gram_entry is a test reference,
# and modal_dynamics.forcing_resolution_steps sized the RK4 oracle that the
# spectral oracle replaced
ABSENT = {("spectrum", "boundary_trace_coefficients"), ("kernels", "gram_entry"),
          ("modal_dynamics", "forcing_resolution_steps")}


def test_every_traced_name_resolves():
    """Every function perfbench/spans.py wraps exists in beamctl, so a rename
    fails here instead of silently zeroing its layer."""
    import importlib
    import importlib.util
    import inspect

    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wanted = {(module, name) for module, name, _ in spans.SPANS}
    wanted |= {("cli", name) for name in spans.EMITTERS}
    wanted |= {("kernels", "gram_entry"), ("kernels", "ControlSignal")}
    found = {(module, name) for module, name in wanted
             if hasattr(importlib.import_module(f"beamctl.{module}"), name)}
    assert wanted - found == ABSENT
    signal = importlib.import_module("beamctl.kernels").ControlSignal
    assert hasattr(signal, "sample") and hasattr(signal, "_sample_extended")
    # spans.py reads the sample point counts off the times positionally
    assert list(inspect.signature(signal.sample).parameters)[:2] == ["self", "times"]
    assert list(inspect.signature(signal._sample_extended).parameters)[:2] == ["self", "t"]
