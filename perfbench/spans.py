"""Span recorders wrapped around beamctl's module functions.

Nothing inside beamctl is traced: each function is replaced, in every
beamctl module that holds it, by a wrapper that records a span (name,
case, start, end, parent, error) or bumps a counter, so calls that other
modules make through names they imported are seen too.  A function that a
later version of beamctl no longer has is simply not wrapped, and its
metrics read 0.

A layer's time is the self time of its spans: duration minus the part its
nested spans cover, so the layer times of a case add up to its traced wall
time less the benchmark's own overhead.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

# (module, function, layer) for every span; layer names the metric prefix
SPANS = [
    *[("spectrum", name, "spectrum") for name in (
        "classify_damping", "mode_eigenvalues", "branch_ratio", "branch_ratio_exact",
        "detect_collisions", "boundary_trace_coefficients", "gap_statistics")],
    ("moment_problem", "assemble", "moment_problem.assemble"),
    ("synthesis", "gram_matrix", "synthesis.gram"),
    ("synthesis", "cholesky_factor", "synthesis.cholesky"),
    ("synthesis", "solve_min_norm", "synthesis.solve"),
    ("modal_dynamics", "forcing_resolution_steps", "modal_dynamics.oracle_sizing"),
    ("modal_dynamics", "simulate_oracle", "modal_dynamics.rk4"),
    ("verification", "closed_form_final_state", "modal_dynamics.closed_form"),
    ("verification", "null_control_experiment", "verification"),
    ("cli", "main", "cli"),
]
# report writers, wrapped only where the CLI looks them up
EMITTERS = ("_write_json", "write_control_csv", "write_trajectory_csv")

PER_LAYER = {  # metric -> unit, in BENCHMARK.json order
    "spectrum.s": "s",
    "moment_problem.assemble_s": "s",
    "moment_problem.assemble_calls": "count",
    "kernels.gram_entry_calls": "count",
    "kernels.sample_s": "s",
    "kernels.sample_points": "count",
    "kernels.sample_extended_points": "count",
    "synthesis.gram_s": "s",
    "synthesis.cholesky_s": "s",
    "synthesis.solve_s": "s",
    "synthesis.rungs": "count",
    "synthesis.wasted_rungs": "count",
    "synthesis.wasted_s": "s",
    "synthesis.bits_used": "bits",
    "modal_dynamics.rk4_s": "s",
    "modal_dynamics.steps_used": "count",
    "modal_dynamics.steps_requested": "count",
    "modal_dynamics.closed_form_s": "s",
    "modal_dynamics.oracle_sizing_s": "s",
    "verification.self_s": "s",
    "cli.self_s": "s",
    "cli.emit_s": "s",
    "cli.bytes_written": "bytes",
}

UNREACHABLE_CAP = 10 ** 9


class Recorder:
    """Spans and counters of one pass, kept in memory."""

    def __init__(self):
        self.case = None
        self.paused = False
        self.reset()

    def reset(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.bits_used = []
        self.sizing_calls = []      # (orig, args, kwargs) to re-ask without the cap

    def span(self, name, layer, fn, on_call=None, on_return=None):
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            rec = {"id": len(self.spans) + len(self.stack), "name": name,
                   "layer": layer, "case": self.case,
                   "parent": self.stack[-1]["id"] if self.stack else None,
                   "child_s": 0.0, "error": None}
            self.stack.append(rec)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec["error"] = type(exc).__name__
                raise
            finally:
                rec["end"] = time.perf_counter()
                self.stack.pop()
                if self.stack:
                    self.stack[-1]["child_s"] += rec["end"] - rec["start"]
                self.spans.append(rec)
            if on_return is not None:
                on_return(result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key, fn, amount=lambda args: 1):
        def wrapper(*args, **kwargs):
            if not self.paused:
                self.counts[key] += amount(args)
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def steps_requested(self) -> int:
        """Re-ask the oracle sizing of this pass with a cap it cannot reach.

        Runs outside every timed region, with recording paused.
        """
        self.paused = True
        try:
            return sum(orig(*args, **dict(kwargs, cap=UNREACHABLE_CAP))
                       for orig, args, kwargs in self.sizing_calls)
        finally:
            self.paused = False

    def metrics(self, bytes_written: int) -> dict:
        def self_s(layer):
            return sum(s["end"] - s["start"] - s["child_s"]
                       for s in self.spans if s["layer"] == layer)

        def count(name, error=None):
            return sum(1 for s in self.spans if s["name"] == name
                       and (error is None or s["error"] == error))

        wasted_s = 0.0
        for s in self.spans:
            if s["name"] == "cholesky_factor" and s["error"] == "NumericalRankDeficiency":
                # the rung's Gram matrix is the sibling span just before it
                gram = [g for g in self.spans if g["name"] == "gram_matrix"
                        and g["parent"] == s["parent"] and g["end"] <= s["start"]]
                wasted_s += s["end"] - s["start"]
                if gram:
                    g = max(gram, key=lambda g: g["end"])
                    wasted_s += g["end"] - g["start"]
        return {
            "spectrum.s": self_s("spectrum"),
            "moment_problem.assemble_s": self_s("moment_problem.assemble"),
            "moment_problem.assemble_calls": count("assemble"),
            "kernels.gram_entry_calls": self.counts["gram_entry"],
            "kernels.sample_s": self_s("kernels.sample"),
            "kernels.sample_points": self.counts["sample_points"],
            "kernels.sample_extended_points": self.counts["sample_extended_points"],
            "synthesis.gram_s": self_s("synthesis.gram"),
            "synthesis.cholesky_s": self_s("synthesis.cholesky"),
            "synthesis.solve_s": self_s("synthesis.solve"),
            "synthesis.rungs": count("cholesky_factor"),
            "synthesis.wasted_rungs": count("cholesky_factor", "NumericalRankDeficiency"),
            "synthesis.wasted_s": wasted_s,
            "synthesis.bits_used": (sum(self.bits_used) / len(self.bits_used)
                                    if self.bits_used else 0.0),
            "modal_dynamics.rk4_s": self_s("modal_dynamics.rk4"),
            "modal_dynamics.steps_used": self.counts["steps_used"],
            "modal_dynamics.steps_requested": self.steps_requested(),
            "modal_dynamics.closed_form_s": self_s("modal_dynamics.closed_form"),
            "modal_dynamics.oracle_sizing_s": self_s("modal_dynamics.oracle_sizing"),
            "verification.self_s": self_s("verification"),
            "cli.self_s": self_s("cli"),
            "cli.emit_s": self_s("cli.emit"),
            "cli.bytes_written": bytes_written,
        }


def _replace_everywhere(orig, wrapper):
    """Point every beamctl module-level name bound to `orig` at `wrapper`."""
    for modname, mod in list(sys.modules.items()):
        if modname == "beamctl" or modname.startswith("beamctl."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)


def install() -> Recorder:
    """Wrap beamctl's functions with a fresh recorder and return it."""
    rec = Recorder()
    mods = {}
    for name in ("spectrum", "kernels", "moment_problem", "synthesis",
                 "modal_dynamics", "verification", "cli"):
        try:
            mods[name] = importlib.import_module(f"beamctl.{name}")
        except ImportError:
            pass

    def bind(fn, args, kwargs):
        try:
            return inspect.signature(fn).bind(*args, **kwargs).arguments
        except TypeError:
            return {}

    for modname, fname, layer in SPANS:
        orig = getattr(mods.get(modname), fname, None)
        if orig is None:
            continue
        on_call = on_return = None
        if fname == "simulate_oracle":
            def on_call(args, kwargs, orig=orig):
                steps = bind(orig, args, kwargs).get("steps")
                rec.counts["steps_used"] += steps or 0
        elif fname == "forcing_resolution_steps" and \
                "cap" in inspect.signature(orig).parameters:
            def on_call(args, kwargs, orig=orig):
                rec.sizing_calls.append((orig, args, kwargs))
        elif fname == "solve_min_norm":
            def on_return(result):
                rec.bits_used.append(result.precision_bits_used)
        _replace_everywhere(orig, rec.span(fname, layer, orig, on_call, on_return))

    kernels = mods.get("kernels")
    if kernels is not None:
        orig = getattr(kernels, "gram_entry", None)
        if orig is not None:
            _replace_everywhere(orig, rec.counter("gram_entry", orig))
        signal = getattr(kernels, "ControlSignal", None)
        if signal is not None and hasattr(signal, "sample"):
            signal.sample = rec.span("sample", "kernels.sample", signal.sample,
                                     on_call=lambda args, kwargs: rec.counts.update(
                                         sample_points=len(args[1])))
        if signal is not None and hasattr(signal, "_sample_extended"):
            signal._sample_extended = rec.counter(
                "sample_extended_points", signal._sample_extended,
                amount=lambda args: len(args[1]))

    cli = mods.get("cli")
    for fname in EMITTERS:
        orig = getattr(cli, fname, None)
        if orig is not None:
            setattr(cli, fname, rec.span(fname, "cli.emit", orig))
    return rec
