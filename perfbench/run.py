#!/usr/bin/env python3
"""Benchmark of beamctl, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-regimes --seed 1 --seconds 25 --trace 0

It imports beamctl from ./src, builds the workload's cases from the seed,
then runs whole passes over the cases until --seconds of measured time have
passed.  Outputs of the first pass are checked against computations made
apart from beamctl (see checks.py); later passes must reproduce them
exactly.  With --trace 0 it reports the end-to-end metrics, with --trace 1
the per-layer metrics of a run whose beamctl functions are wrapped in span
recorders (see spans.py).  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  --workload all runs every
workload, each in its own process.
"""
import time

T_START = time.perf_counter()   # setup_s counts from here: before numpy, mpmath, beamctl

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import cases
import checks
import spans

END_TO_END = {"setup_s": "s", "wall_s": "s", "max_case_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*cases.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class VerifyWorkload:
    """`beamctl verify` through beamctl.cli.main, one temporary --out per case."""

    def __init__(self, seed, workdir):
        from beamctl import cli

        self.cli = cli
        self.cases = cases.verify_argv(seed)
        self.workdir = workdir
        self.first = {}             # label -> verification.json bytes of pass 0

    def run(self, label, argv):
        """(seconds, --out directory, error message or None)"""
        out = self.workdir / label
        shutil.rmtree(out, ignore_errors=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            rc = self.cli.main(argv + ["--out", str(out)])
            elapsed = time.perf_counter() - t0
        if rc != 0:
            return elapsed, out, f"exit code {rc}: {sink.getvalue().strip()}"
        return elapsed, out, None

    @staticmethod
    def bytes_written(out):
        return sum(f.stat().st_size for f in out.iterdir())

    def record(self, label, out, first_pass):
        """Failures of this case's outputs: checked on pass 0, compared after."""
        raw = (out / "verification.json").read_bytes()
        if not first_pass:
            return [] if raw == self.first[label] else ["verification.json differs from pass 0"]
        self.first[label] = raw
        doc = json.loads(raw)
        failures = []
        if doc["verdict"] != "controlled":
            failures.append(f"verdict {doc['verdict']}")
        floor = float(doc["tolerance"]) * float(doc["initial_norm"])
        for route in ("final_norm", "oracle_final_norm"):
            if not float(doc[route]) <= floor:
                failures.append(f"{route} {doc[route]} above tolerance x initial {floor!r}")
        failures += checks.flatness_failures(out / "control.csv")
        failures += checks.quadrature_check(doc["synthesis"])["failures"]
        return failures

    def report_doc(self, label):
        return json.loads(self.first[label])["synthesis"]


class SynthesisWorkload:
    """beamctl.assemble then beamctl.solve_min_norm, in process."""

    def __init__(self, case_table, seed):
        import beamctl

        self.api = beamctl          # looked up per call, so traced wrappers are seen
        self.cases = [(label, (config, state))
                      for label, config, state in cases.synthesis_inputs(case_table, seed)]
        self.first = {}             # label -> SynthesisReport of pass 0

    def run(self, label, inputs):
        """(seconds, SynthesisReport, None)"""
        t0 = time.perf_counter()
        report = self.api.solve_min_norm(self.api.assemble(*inputs))
        return time.perf_counter() - t0, report, None

    @staticmethod
    def bytes_written(report):
        return 0

    def record(self, label, report, first_pass):
        if not first_pass:
            same = report.coefficients == self.first[label].coefficients
            return [] if same else ["coefficients differ from pass 0"]
        self.first[label] = report
        return checks.quadrature_check(self.report_doc(label))["failures"]

    def report_doc(self, label):
        """The report as the checks read it, at its full working precision."""
        report = self.first[label]
        bits = report.precision_bits_used
        rows = []
        for lab, kernel, target, coeff in zip(report.system.labels, report.system.kernels,
                                              report.system.targets, report.coefficients):
            desc = kernel.descriptor(bits)
            desc.update({k: getattr(kernel, k, v) for k, v in desc.items() if k != "kind"})
            rows.append({"label": lab, "kernel": desc, "target": target,
                         "coefficient": coeff})
        return {"config": {"horizon": str(report.system.config.horizon)},
                "precision_bits_used": bits, "cost": repr(report.cost), "rows": rows}


def self_test(workload) -> list:
    """Move one coefficient of a solved control; every quadrature check must
    then reject it, which shows the checks can fail."""
    label = min(workload.first, key=lambda k: len(workload.report_doc(k)["rows"]))
    bad = checks.quadrature_check(checks.perturbed(workload.report_doc(label)))
    failures = []
    if not bad["worst_moment_rel"] > checks.MOMENT_RTOL:
        failures.append(f"self-test: moment check accepted a perturbed control ({label})")
    if not bad["cost_rel"] > checks.COST_RTOL:
        failures.append(f"self-test: cost check accepted a perturbed control ({label})")
    return failures


def run_workload(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import beamctl  # noqa: F401  (numpy and mpmath come with it)

    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    if args.workload == "verify-regimes":
        workload = VerifyWorkload(args.seed, workdir)
    elif args.workload == "synthesize-wide":
        workload = SynthesisWorkload(cases.WIDE_CASES, args.seed)
    else:
        workload = SynthesisWorkload(cases.LADDER_CASES, args.seed)
    setup_s = time.perf_counter() - T_START

    recorder = None
    if args.trace:
        recorder = spans.install()
    passes, failures = [], []
    attempted = failed = 0
    first_spans = None
    try:
        measured = 0.0
        while not passes or measured < args.seconds:
            first_pass = not passes
            case_s, bytes_written = {}, 0
            for label, inputs in workload.cases:
                if recorder is not None:
                    recorder.case = label
                attempted += 1
                t0 = time.perf_counter()
                try:
                    elapsed, output, error = workload.run(label, inputs)
                except Exception as exc:    # a failed case must not end the run
                    elapsed, error = time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
                case_s[label] = elapsed
                if error is not None:
                    failed += 1
                    print(f"  case {label} failed: {error}", file=sys.stderr)
                    continue
                bytes_written += workload.bytes_written(output)
                failures += [f"{label}: {msg}"
                             for msg in workload.record(label, output, first_pass)]
            wall = sum(case_s.values())
            measured += wall
            entry = {"wall_s": wall, "max_case_s": max(case_s.values()), "case_s": case_s}
            if recorder is not None:
                entry["layers"] = recorder.metrics(bytes_written)
                if first_pass:
                    first_spans = recorder.spans
                recorder.reset()
            passes.append(entry)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if workload.first:
            failures += self_test(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if recorder is not None:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "spans": first_spans}, indent=1))
        metrics = {name: {"value": statistics.median(p["layers"][name] for p in passes),
                          "unit": unit}
                   for name, unit in spans.PER_LAYER.items()}
    else:
        values = {"setup_s": setup_s,
                  "wall_s": statistics.median(p["wall_s"] for p in passes),
                  "max_case_s": statistics.median(p["max_case_s"] for p in passes),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {attempted} cases attempted, {failed} failed")
    for label in passes[0]["case_s"]:
        times = [p["case_s"][label] for p in passes]
        print(f"  case {label:<24} median {statistics.median(times):.4f} s")
    print(f"  pass wall_s median {statistics.median(p['wall_s'] for p in passes):.4f} s")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    for msg in failures:
        print(f"  FAILED CHECK {msg}")
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, so each pays its own cold set-up."""
    results = {}
    for name in cases.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "beamctl" / "__init__.py").is_file():
        print(f"beamctl sources not found under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
