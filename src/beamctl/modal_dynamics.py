"""Modal evolution of the damped beam: free flow, forced response, and an
independent explicit integrator.

States live in the eigenbasis of the Laplacian on (0, pi): sine modes for
Dirichlet boundary control, cosine modes (plus the constant mode) for
Neumann.  Subtracting the boundary lifting U (profile times f(t)) from the
physical state u leaves v = u - U whose modal coefficients obey

    a_n'' + rho n^2 a_n' + n^4 a_n = -f''(t) x_n,      a_n(0) = a_n'(0) = 0

on top of the free flow of the initial data; x_n is the boundary trace
coefficient of the lifting profile.  The physical state is recovered as
u_n(t) = v_n(t) + x_n f(t).

Slot i of a state holds mode Boundary.first_mode + i (ModalState.modes), so
the Neumann constant mode sits in slot 0.  Uncontrolled, mode n >= 1 evolves
as c1 e^(l+ t) + c2 e^(l- t), or (d1 + d2 t) e^(-n^2 t) at critical damping
(coefficients in free_state_at); the zero mode drifts affinely, u0 + u1 t.

Two response paths are deliberately kept independent: closed-form evaluation
through the exponential-part calculus (extended precision), and a classical
fixed-step 4th-order explicit integrator in float64 that knows nothing about
the closed forms.  Agreement of the two is a verification gate, not an
implementation convenience.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from math import ceil
from typing import Optional, Sequence, Tuple

import mpmath as mp
import numpy as np

from ._numutil import GUARD_BITS, strip_imag, to_mpf
from .errors import StepSizeError
from .kernels import ControlSignal
from .spectrum import (
    BeamConfig,
    Boundary,
    DampingRegime,
    ModeEigenvalues,
    boundary_trace_coefficients,
    mode_eigenvalues,
)

__all__ = [
    "ModalState",
    "Trajectory",
    "free_state_at",
    "duhamel_response",
    "forced_state_at",
    "state_pair_norm",
    "default_steps",
    "ORACLE_STEP_CAP",
    "simulate_oracle",
    "write_trajectory_csv",
]

ORACLE_STEP_CAP = 200000    # largest RK4 step count a verification sizes itself


@dataclass(frozen=True)
class ModalState:
    """Displacement/velocity pair in modal coordinates.

    values[i] and velocities[i] belong to mode modes[i]: sine mode i+1 under
    Dirichlet; under Neumann the constant mode 0 and then cosine mode i.
    """

    boundary: Boundary
    values: Tuple
    velocities: Tuple

    def __post_init__(self):
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "velocities", tuple(self.velocities))
        if len(self.values) != len(self.velocities):
            raise ValueError("values and velocities must have equal length")
        if not self.values:
            raise ValueError("state must carry at least one mode")

    @property
    def modes(self) -> range:
        """Mode number of each slot, from the boundary's first mode on."""
        first = self.boundary.first_mode
        return range(first, first + len(self.values))

    @property
    def n_modes(self) -> int:
        """Number of oscillatory modes (the Neumann zero mode not counted)."""
        return self.modes[-1]

    def mode_index(self, n: int) -> int:
        if n not in self.modes:
            raise ValueError(f"mode {n} outside state range")
        return self.modes.index(n)

    def amplitude(self, n: int) -> float:
        i = self.mode_index(n)
        return max(abs(float(self.values[i])), abs(float(self.velocities[i])))

    @staticmethod
    def dirichlet(values, velocities) -> "ModalState":
        return ModalState(Boundary.DIRICHLET, tuple(values), tuple(velocities))

    @staticmethod
    def neumann(values, velocities) -> "ModalState":
        return ModalState(Boundary.NEUMANN, tuple(values), tuple(velocities))


def free_state_at(state0: ModalState, eigs: Sequence[ModeEigenvalues], t,
                  precision_bits: int = 256) -> ModalState:
    """Uncontrolled state at time t from initial data state0, in closed form.

    eigs[k] are the roots of mode k+1.  Mode n >= 1 with data (u0, u1)
    evolves as c1 e^(l+ t) + c2 e^(l- t) with c2 = (l+ u0 - u1)/(l+ - l-)
    and c1 = u0 - c2 (a conjugate pair in the underdamped regime), or at
    critical damping as (d1 + d2 t) e^(-n^2 t) with d1 = u0 and
    d2 = u1 + n^2 u0.  The Neumann zero mode drifts affinely: u0 + u1 t.
    """
    eigs = tuple(eigs)
    if len(eigs) != state0.n_modes:
        raise ValueError(f"{state0.n_modes} modes in state but {len(eigs)} eigenvalue sets")
    with mp.workprec(precision_bits + GUARD_BITS):
        t = mp.mpf(t)
        vals, vels = [], []
        for n, u0, u1 in zip(state0.modes, state0.values, state0.velocities):
            u0, u1 = to_mpf(u0), to_mpf(u1)
            if n == 0:
                vals.append(u0 + u1 * t)
                vels.append(u1)
                continue
            e = eigs[n - 1]
            if e.regime is DampingRegime.CRITICAL:
                n2 = mp.mpf(e.n) ** 2
                d2 = u1 + n2 * u0       # d1 = u0
                decay = mp.e ** (-n2 * t)
                vals.append((u0 + d2 * t) * decay)
                vels.append((d2 - n2 * (u0 + d2 * t)) * decay)
            else:
                c2 = (e.lambda_plus * u0 - u1) / (e.lambda_plus - e.lambda_minus)
                c1 = u0 - c2
                e1 = mp.e ** (e.lambda_plus * t)
                e2 = mp.e ** (e.lambda_minus * t)
                v = c1 * e1 + c2 * e2
                w = c1 * e.lambda_plus * e1 + c2 * e.lambda_minus * e2
                vals.append(strip_imag(v, precision_bits))
                vels.append(strip_imag(w, precision_bits, scale=max(mp.mpf(1), abs(w))))
        return ModalState(state0.boundary, tuple(vals), tuple(vels))


def duhamel_response(eig: ModeEigenvalues, trace_coeff, control: ControlSignal, t):
    """Forced response (a_n(t), a_n'(t)) of one mode to the control, closed form.

    Variation of parameters on a'' + rho n^2 a' + n^4 a = -f''(t) x_n with
    zero initial data.  Non-critical regimes:

        a_n(t) = -x_n (J(l+) - J(l-)) / (l+ - l-),
        J(l)   = int_0^t f''(s) e^(l (t-s)) ds,

    and the velocity replaces J(l) by l J(l).  The critical regime uses the
    confluent pair, a_n(t) = -x_n int f''(s) (t-s) e^(-n^2 (t-s)) ds.
    """
    bits = control.precision_bits
    with mp.workprec(bits + GUARD_BITS):
        x = to_mpf(trace_coeff)
        t = mp.mpf(t)
        if eig.regime is DampingRegime.CRITICAL:
            lam = eig.lambda_plus
            n2 = mp.mpf(eig.n) ** 2
            poly = control.convolve(1, lam, t)
            zero = control.convolve(0, lam, t)
            val = -x * poly
            vel = -x * (zero - n2 * poly)
        else:
            jp = control.convolve(0, eig.lambda_plus, t)
            jm = control.convolve(0, eig.lambda_minus, t)
            den = eig.lambda_plus - eig.lambda_minus
            val = -x * (jp - jm) / den
            vel = -x * (eig.lambda_plus * jp - eig.lambda_minus * jm) / den
        scale = max(mp.mpf(1), abs(val), abs(vel))
        return (strip_imag(val, bits, scale=scale), strip_imag(vel, bits, scale=scale))


def forced_state_at(config: BeamConfig, control: ControlSignal, t) -> ModalState:
    """Physical-state contribution of the control alone (zero initial data).

    Adds the lifting back: u_n = a_n + x_n f(t).  The Neumann zero mode obeys
    a_0'' = -g'' x_0, so a_0 = -x_0 g and the lifting cancels it exactly;
    the physical zero mode is untouched by any admissible control.
    """
    bits = config.precision_bits
    traces = boundary_trace_coefficients(config.boundary, config.n_modes, bits)
    with mp.workprec(bits + GUARD_BITS):
        f_val = control.value(t)
        f_slope = control.slope(t)
        vals, vels = [], []
        if config.boundary is Boundary.NEUMANN:
            vals.append(mp.mpf(0))
            vels.append(mp.mpf(0))
        for n in range(1, config.n_modes + 1):
            e = mode_eigenvalues(config.rho, n, bits)
            x = traces.coefficient(n)
            a, ap = duhamel_response(e, x, control, t)
            vals.append(a + x * f_val)
            vels.append(ap + x * f_slope)
        return ModalState(config.boundary, tuple(vals), tuple(vels))


def state_pair_norm(state: ModalState, p) -> float:
    """Energy-style pair norm: displacement at scale p, velocity at scale p-2.

    sqrt(sum n^(2p) |u_n|^2 + n^(2p-4) |u_n'|^2); the Neumann zero mode
    carries unit weight in both parts.
    """
    total = mp.mpf(0)
    for n, u, du in zip(state.modes, state.values, state.velocities):
        w = mp.mpf(max(n, 1))
        total += w ** (2 * p) * to_mpf(u) ** 2
        total += w ** (2 * (p - 2)) * to_mpf(du) ** 2
    return float(mp.sqrt(total))


@dataclass(frozen=True)
class Trajectory:
    """Sampled physical-state history from the explicit integrator."""

    boundary: Boundary
    times: Tuple[float, ...]
    values: Tuple[Tuple[float, ...], ...]      # one tuple per sample time
    velocities: Tuple[Tuple[float, ...], ...]

    def state_at(self, i: int) -> ModalState:
        return ModalState(self.boundary, self.values[i], self.velocities[i])

    def final_state(self) -> ModalState:
        return self.state_at(len(self.times) - 1)


def _stiffest_rate(config: BeamConfig) -> float:
    """Largest |Re lambda| across modes: r N^2 overdamped, N^2 otherwise."""
    n2 = config.n_modes ** 2
    if config.regime is DampingRegime.OVERDAMPED:
        from .spectrum import branch_ratio
        return float(branch_ratio(config.rho, 64)) * n2
    return float(n2)


def default_steps(config: BeamConfig) -> int:
    """Baseline step count from the stiffest eigenvalue alone.

    Adequate for free flow and for forcing of moderate size; verification
    against synthesized controls, whose curvature can reach 1e8, should
    raise this through forcing_resolution_steps.
    """
    lam_max = _stiffest_rate(config)
    T = float(to_mpf(config.horizon))
    return max(4000, ceil(60 * lam_max * T), ceil(20 * config.n_modes ** 2 * T))


def forcing_resolution_steps(config: BeamConfig, control: ControlSignal,
                             target_abs: float,
                             cap: Optional[int] = ORACLE_STEP_CAP) -> int:
    """Step count sized so RK4 truncation stays under target_abs, at most cap.

    The dominant local error of the forced system scales like
    h^4 |lambda|_max^2 sup|f''|; the constant 30 is calibrated against
    measured final-state deviations near the critical damping ratio and
    overshoots milder regimes, which only adds margin.  sup|f''| comes
    from a coarse sample of the control.  cap=None returns the uncapped
    count.
    """
    T = float(to_mpf(config.horizon))
    coarse = control.sample(np.linspace(0.0, T, 257))
    f_inf = max(1.0, float(np.max(np.abs(coarse["f_second"]))))
    lam_max = _stiffest_rate(config)
    target = max(float(target_abs), 1e-300)
    need = T * (30.0 * lam_max ** 2 * f_inf / target) ** 0.25
    steps = max(default_steps(config), ceil(need))
    return steps if cap is None else min(cap, steps)


def simulate_oracle(config: BeamConfig, state0: ModalState,
                    control: Optional[ControlSignal], steps: Optional[int] = None,
                    samples: int = 201) -> Trajectory:
    """Classical fixed-step RK4 on the modal system, in float64.

    Integrates v = u - U from the initial data with forcing -f''(t) x_n,
    then reports the physical state u = v + (lifting).  Passing control=None
    integrates the free flow.  Raises StepSizeError when the trajectory norm
    grows by 1e6 over its reference scale (explicit-scheme instability).
    """
    if state0.boundary is not config.boundary:
        raise ValueError("state boundary does not match config")
    if state0.n_modes != config.n_modes:
        raise ValueError(f"state has {state0.n_modes} modes, config wants {config.n_modes}")
    if steps is None:
        steps = default_steps(config)
    if steps < 1:
        raise ValueError("steps must be positive")

    T = float(to_mpf(config.horizon))
    h = T / steps
    traces = boundary_trace_coefficients(config.boundary, config.n_modes, 64)
    ns_arr = np.asarray(state0.modes, dtype=np.float64)
    x_arr = np.asarray([float(traces.coefficient(n)) for n in state0.modes], dtype=np.float64)
    rho = float(to_mpf(config.rho))
    damp = rho * ns_arr ** 2
    stiff = ns_arr ** 4

    a = np.asarray([float(v) for v in state0.values], dtype=np.float64)
    v = np.asarray([float(v) for v in state0.velocities], dtype=np.float64)

    # forcing and lifting samples on the half grid t_j = j h/2
    half_times = np.linspace(0.0, T, 2 * steps + 1)
    if control is not None:
        sampled = control.sample(half_times)
        F = sampled["f_second"]
        lift_f = sampled["f"]
        lift_fp = sampled["f_prime"]
    else:
        F = np.zeros_like(half_times)
        lift_f = np.zeros_like(half_times)
        lift_fp = np.zeros_like(half_times)

    ref = max(float(np.hypot(np.linalg.norm(a), np.linalg.norm(v))),
              float(np.max(np.abs(F)) * max(np.max(np.abs(x_arr)), 1.0) * max(T, 1.0) ** 2),
              1e-30)

    sample_every = max(1, steps // max(1, samples - 1))
    times_out, vals_out, vels_out = [], [], []

    def record(k, a_now, v_now):
        j = 2 * k
        u = a_now + x_arr * lift_f[j]
        du = v_now + x_arr * lift_fp[j]
        times_out.append(float(half_times[j]))
        vals_out.append(tuple(float(z) for z in u))
        vels_out.append(tuple(float(z) for z in du))

    record(0, a, v)
    for k in range(steps):
        f0, f1, f2 = F[2 * k], F[2 * k + 1], F[2 * k + 2]

        def deriv(ai, vi, fj):
            return vi, -damp * vi - stiff * ai - fj * x_arr

        k1a, k1v = deriv(a, v, f0)
        k2a, k2v = deriv(a + 0.5 * h * k1a, v + 0.5 * h * k1v, f1)
        k3a, k3v = deriv(a + 0.5 * h * k2a, v + 0.5 * h * k2v, f1)
        k4a, k4v = deriv(a + h * k3a, v + h * k3v, f2)
        a = a + (h / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)

        growth = float(np.hypot(np.linalg.norm(a), np.linalg.norm(v))) / ref
        if not np.isfinite(growth) or growth > 1e6:
            raise StepSizeError(steps, growth)
        if (k + 1) % sample_every == 0 or k == steps - 1:
            record(k + 1, a, v)

    return Trajectory(config.boundary, tuple(times_out), tuple(vals_out), tuple(vels_out))


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Long-format CSV: t, n, value, velocity (header row, '.' decimal, LF)."""
    modes = trajectory.state_at(0).modes
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "n", "value", "velocity"])
        for i, t in enumerate(trajectory.times):
            for n, val, vel in zip(modes, trajectory.values[i], trajectory.velocities[i]):
                w.writerow([repr(t), n, repr(val), repr(vel)])
