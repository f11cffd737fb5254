"""End-to-end verification of synthesized controls.

A synthesis is only trusted after two independent evaluations agree that the
state actually reaches rest.  The closed-form route (closed_form) evaluates
the state at the horizon from the control's moments K(p, lam), summed on
integers at extended precision; the oracle route integrates the same modal
system spectrally in float64 (modal_dynamics.simulate_oracle), forced by one
Chebyshev series of the control's curvature f'' (ControlSignal.proxy),
summed term by term at its nodes and sharing no moment calculus with the
closed form.
Both final states are measured in the pair norm natural to the boundary
condition: displacement at scale 3 with velocity at scale 1 for Dirichlet
control, scales 4 and 2 for Neumann.

The cost sweep quantifies the price of haste: shrinking the horizon can only
grow the minimum curvature norm (a control on [0, T1] extends by zero to any
[0, T2] with T2 > T1, its moments against the longer kernels being exactly
the shorter ones), and near T = 0 the growth is violent.  The sweep checks
the monotonicity numerically and fits log cost against 1/T to expose the
blow-up rate.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence, Tuple

from ._numutil import as_fraction
from .closed_form import closed_form_state
from .kernels import ControlSignal
from .modal_dynamics import (ModalState, Trajectory, _exact_norm, simulate_oracle,
                             state_pair_norm)
from .moment_problem import assemble
from .spectrum import BeamConfig, Boundary
from .synthesis import SynthesisReport, solve_min_norm

__all__ = [
    "Verdict",
    "VerificationReport",
    "CostSweep",
    "pair_norm_scale",
    "closed_form_final_state",
    "null_control_experiment",
    "cost_sweep",
]


class Verdict(str, Enum):
    CONTROLLED = "controlled"
    RESIDUAL_TOO_LARGE = "residual-too-large"


def pair_norm_scale(boundary) -> int:
    """Displacement scale of the verification norm: 3 Dirichlet, 4 Neumann."""
    return 3 if Boundary(boundary) is Boundary.DIRICHLET else 4


def closed_form_final_state(config: BeamConfig, state0: ModalState,
                            control: ControlSignal) -> ModalState:
    """Physical state at the horizon: free flow plus forced response."""
    # not inlined: perfbench/spans.py times the closed-form layer by wrapping
    # this name, so calling closed_form_state directly would read
    # modal_dynamics.closed_form_s as 0 (tests/test_perfbench_smoke.py pins it)
    return closed_form_state(config, state0, control)


def _max_componentwise_gap(a: ModalState, b: ModalState) -> float:
    gap = 0.0
    for x, y in zip(a.values, b.values):
        gap = max(gap, abs(float(x) - float(y)))
    for x, y in zip(a.velocities, b.velocities):
        gap = max(gap, abs(float(x) - float(y)))
    return gap


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one null-control experiment, both evaluation routes."""

    config: BeamConfig
    state0: ModalState
    synthesis: SynthesisReport
    tolerance: float
    norm_scale: int
    initial_norm: float
    final_norm: float                   # closed-form route
    oracle_final_norm: float            # independent spectral oracle route
    oracle_deviation: float             # max componentwise gap between routes
    oracle_degree: int                  # Chebyshev degree of the oracle's modal series
    verdict: Verdict
    trajectory: Trajectory

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "tolerance": repr(self.tolerance),
            "norm_scale": self.norm_scale,
            "initial_norm": repr(self.initial_norm),
            "final_norm": repr(self.final_norm),
            "oracle_final_norm": repr(self.oracle_final_norm),
            "oracle_deviation": repr(self.oracle_deviation),
            "oracle_degree": self.oracle_degree,
            "synthesis": self.synthesis.to_json_dict(),
        }


def null_control_experiment(config: BeamConfig, state0: ModalState,
                            tolerance: float = 1e-6) -> VerificationReport:
    """Synthesize a null control and verify it along both evaluation routes.

    The verdict is CONTROLLED only if both the closed-form and the oracle
    final states are small: pair norm at most `tolerance` times the initial
    pair norm, each compared as the mpf it was rounded from, with no clamp
    and no float64 underflow, so that the verdict is relative at any data
    size.  The oracle does not depend on `tolerance`: it sizes its degree
    from the control's own series.
    Data the control cannot act on raises before any synthesis happens (see
    the moment assembly), so a returned report always carries an actual
    control.
    """
    if not 0 < tolerance < float("inf"):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    system = assemble(config, state0)
    report = solve_min_norm(system)
    solved_config = report.system.config
    control = report.control

    final = closed_form_final_state(solved_config, state0, control)
    p = pair_norm_scale(config.boundary)
    initial_norm = state_pair_norm(state0, p)
    trajectory = simulate_oracle(solved_config, state0, control)
    oracle_final = trajectory.final_state()

    final_norm = state_pair_norm(final, p)
    oracle_final_norm = state_pair_norm(oracle_final, p)
    deviation = _max_componentwise_gap(final, oracle_final)

    floor = tolerance * _exact_norm(initial_norm)
    verdict = (Verdict.CONTROLLED
               if _exact_norm(final_norm) <= floor and _exact_norm(oracle_final_norm) <= floor
               else Verdict.RESIDUAL_TOO_LARGE)
    return VerificationReport(
        config=solved_config,
        state0=state0,
        synthesis=report,
        tolerance=tolerance,
        norm_scale=p,
        initial_norm=initial_norm,
        final_norm=final_norm,
        oracle_final_norm=oracle_final_norm,
        oracle_deviation=deviation,
        oracle_degree=trajectory.degree,
        verdict=verdict,
        trajectory=trajectory,
    )


@dataclass(frozen=True)
class CostSweep:
    """Minimum control cost across horizons, shortest first."""

    horizons: Tuple          # Fractions, ascending
    costs: Tuple[float, ...]
    monotone_nonincreasing: bool
    fit_slope: Optional[float]          # log cost ~ slope / T + intercept
    fit_intercept: Optional[float]
    fit_r_squared: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "horizons": [str(T) for T in self.horizons],
            "costs": [repr(c) for c in self.costs],
            "monotone_nonincreasing": self.monotone_nonincreasing,
            "fit_slope": None if self.fit_slope is None else repr(self.fit_slope),
            "fit_intercept": None if self.fit_intercept is None else repr(self.fit_intercept),
            "fit_r_squared": None if self.fit_r_squared is None else repr(self.fit_r_squared),
        }


def cost_sweep(config: BeamConfig, state0: ModalState, horizons: Sequence) -> CostSweep:
    """Solve the same data across several horizons and track the cost.

    Horizons are deduplicated and sorted ascending.  Monotonicity is checked
    with a relative slack of 1e-9 (independent solves at different horizons
    agree on the shared structure only to roundoff).  With three or more
    horizons the sweep also fits log cost against 1/T and reports the least
    squares exponent and its r^2.
    """
    uniq = sorted({as_fraction(h, "horizon") for h in horizons})
    if not uniq:
        raise ValueError("at least one horizon is required")
    costs = []
    for T in uniq:
        cfg = replace(config, horizon=T)
        report = solve_min_norm(assemble(cfg, state0))
        costs.append(report.cost)
    monotone = all(costs[i] >= costs[i + 1] * (1 - 1e-9)
                   for i in range(len(costs) - 1))
    slope = intercept = r2 = None
    positive = [(float(T), c) for T, c in zip(uniq, costs) if c > 0]
    if len(positive) >= 3:
        import numpy as np
        x = np.array([1.0 / T for T, _ in positive])
        y = np.log(np.array([c for _, c in positive]))
        coeffs = np.polyfit(x, y, 1)
        pred = np.polyval(coeffs, x)
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        slope = float(coeffs[0])
        intercept = float(coeffs[1])
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return CostSweep(tuple(uniq), tuple(costs), monotone, slope, intercept, r2)

