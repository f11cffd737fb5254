"""Modal evolution of the damped beam: free flow, forced response, and an
independent explicit integrator.

States live in the eigenbasis of the Laplacian on (0, pi): sine modes for
Dirichlet boundary control, cosine modes (plus the constant mode) for
Neumann.  Subtracting the boundary lifting U (profile times f(t)) from the
physical state u leaves v = u - U whose modal coefficients obey

    a_n'' + rho n^2 a_n' + n^4 a_n = -f''(t) x_n,      a_n(0) = a_n'(0) = 0

on top of the free flow of the initial data; x_n is the boundary trace
coefficient of the lifting profile (BeamConfig.spectrum holds every x_n and
every mode's roots).  The physical state is recovered as
u_n(t) = v_n(t) + x_n f(t).

Slot i of a state holds mode Boundary.first_mode + i (ModalState.modes), so
the Neumann constant mode sits in slot 0.  closed_form_state evolves each
mode to the horizon T through the two fundamental solutions of its roots;
the zero mode's double root 0 makes it drift, u0 + u1 T.

Two response paths are deliberately kept independent: closed-form evaluation
at T from the control's moments (ControlSignal.moments, summed on integers
at extended precision), and a classical fixed-step 4th-order explicit
integrator in float64 that knows nothing about the closed forms.  Agreement of the two is a verification gate, not an
implementation convenience.

On a linear system one RK4 step is an affine map of the state and the three
forcing samples it reads.  The integrator takes that map's coefficients from
the RK4 stage formulas themselves, then runs the recurrence in blocks of
about sqrt(steps) steps, all blocks at once: zero-start responses first,
block starts chained with the B-step map, then every block again from its
true start (Blelloch, Prefix sums and their applications, CMU-CS-90-190).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from sys import float_info
from typing import Optional, Tuple

import mpmath as mp

from ._numutil import GUARD_BITS, strip_imag, to_mpf
from .errors import StepSizeError
from .kernels import ControlSignal
from .spectrum import BeamConfig, Boundary

__all__ = [
    "ModalState",
    "Trajectory",
    "closed_form_state",
    "state_pair_norm",
    "default_steps",
    "ORACLE_STEP_CAP",
    "simulate_oracle",
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

    def check_fits(self, config: BeamConfig) -> None:
        """Raise ValueError unless the state has config's boundary and mode count."""
        if self.boundary is not config.boundary or self.n_modes != config.n_modes:
            raise ValueError(f"{self.boundary.value} state with n_modes={self.n_modes} does not "
                             f"fit a {config.boundary.value} config with n_modes={config.n_modes}")

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


def _fundamental_parts(lp, lm):
    """(g, h) for roots l+, l- as (coefficient, power, rate) parts c t^p e^(rate t).

    h answers a unit velocity, g a unit displacement.  Distinct roots give
    h = (e^(l+ t) - e^(l- t)) / (l+ - l-), g = (l+ e^(l- t) - l- e^(l+ t)) / (l+ - l-);
    a double root l gives h = t e^(l t), g = (1 - l t) e^(l t).  That one
    confluent case covers critical damping (l = -n^2) and the Neumann zero
    mode (no damping, no stiffness, l = 0: h = t, g = 1).
    """
    if lp == lm:
        return ((1, 0, lp), (-lp, 1, lp)), ((1, 1, lp),)
    den = lp - lm
    return ((-lm / den, 0, lp), (lp / den, 0, lm)), ((1 / den, 0, lp), (-1 / den, 0, lm))


def _derivative(parts):
    """Parts of d/dt, by (c t^p e^(r t))' = c p t^(p-1) e^(r t) + c r t^p e^(r t)."""
    return [(c * p, p - 1, r) for c, p, r in parts if p] + [(c * r, p, r) for c, p, r in parts]


def closed_form_state(config: BeamConfig, state0: ModalState,
                      control: Optional[ControlSignal] = None) -> ModalState:
    """Physical state at the horizon T from initial data state0 under the control.

    With fundamental solutions g, h (_fundamental_parts) of mode n's roots
    in config.spectrum, mode n from (u0, u1) is

        u_n  = u0 g(T)  + u1 h(T)  + x_n (f(T)  - J_h),
        u_n' = u0 g'(T) + u1 h'(T) + x_n (f'(T) - J_h'),

    J_p = int_0^T f''(s) p(T-s) ds being the Duhamel response of v = u - U
    and x_n f the lifting.  Every J is a sum of the control's moments K(p, lam)
    (ControlSignal.moments), all asked for in one call, and f(T), f'(T) are
    K(1, 0), K(0, 0): on the Neumann zero mode (h = t) the lifting cancels
    J_h, leaving u0 + u1 T exactly.  control=None is the free flow.
    """
    state0.check_fits(config)
    bits = config.precision_bits
    with mp.workprec(bits + GUARD_BITS):
        T = to_mpf(config.horizon)
        solutions = []     # g, h, g', h' per mode
        for n in state0.modes:
            g, h = _fundamental_parts(*config.spectrum.roots(n))
            solutions.append((g, h, _derivative(g), _derivative(h)))
        if control is not None:
            K = control.moments({(1, 0), (0, 0)} | {(p, lam) for _, h, _, dh in solutions
                                                    for _, p, lam in (*h, *dh)})
            f, f_slope = (strip_imag(K[p, 0], control.precision_bits) for p in (1, 0))
        vals, vels = [], []
        for (g, h, dg, dh), u0, u1, x in zip(solutions, state0.values, state0.velocities,
                                             config.spectrum.traces):
            ex = {lam: mp.exp(lam * T) for _, _, lam in g}

            def at(parts):
                return sum(c * T ** p * ex[lam] for c, p, lam in parts)

            v = to_mpf(u0) * at(g) + to_mpf(u1) * at(h)
            w = to_mpf(u0) * at(dg) + to_mpf(u1) * at(dh)
            if control is not None:
                v += x * (f - sum(c * K[p, lam] for c, p, lam in h))
                w += x * (f_slope - sum(c * K[p, lam] for c, p, lam in dh))
            scale = max(mp.mpf(1), abs(v), abs(w))
            vals.append(strip_imag(v, bits, scale=scale))
            vels.append(strip_imag(w, bits, scale=scale))
        return ModalState(config.boundary, tuple(vals), tuple(vels))


class _TinyNorm(float):
    """A norm below float64's normal range, where the float keeps only a few
    bits (or none): it computes as that float, and its repr gives 17
    significant digits of the mpf it was rounded from."""

    def __new__(cls, exact):
        self = super().__new__(cls, float(exact))
        self.exact = exact
        return self

    def __repr__(self):
        return mp.nstr(self.exact, 17, strip_zeros=False)


def state_pair_norm(state: ModalState, p) -> float:
    """Energy-style pair norm: displacement at scale p, velocity at scale p-2.

    sqrt(sum n^(2p) |u_n|^2 + n^(2p-4) |u_n'|^2); the Neumann zero mode
    carries unit weight in both parts.  A norm below float64's normal range
    is a _TinyNorm, so that its repr keeps the digits the float lost.
    """
    total = mp.mpf(0)
    for n, u, du in zip(state.modes, state.values, state.velocities):
        w = mp.mpf(max(n, 1))
        total += w ** (2 * p) * to_mpf(u) ** 2
        total += w ** (2 * (p - 2)) * to_mpf(du) ** 2
    norm = mp.sqrt(total)
    return _TinyNorm(norm) if 0 < norm < float_info.min else float(norm)


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
    """Largest root modulus in config.spectrum: |lambda-| of the last mode,
    r N^2 overdamped and N^2 otherwise (|Re lambda_N| is only rho N^2 / 2)."""
    return float(abs(config.spectrum.eigenvalues[-1].lambda_minus))


def default_steps(config: BeamConfig) -> int:
    """Baseline step count from the stiffest eigenvalue alone.

    Adequate for free flow and for forcing of moderate size; verification
    against synthesized controls, whose curvature can reach 1e8, should
    raise this through forcing_resolution_steps.
    """
    return max(4000, ceil(60 * _stiffest_rate(config) * float(to_mpf(config.horizon))))


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
    import numpy as np
    T = float(to_mpf(config.horizon))
    coarse = control.sample(np.linspace(0.0, T, 257), ("f_second",))
    f_inf = max(1.0, float(np.max(np.abs(coarse["f_second"]))))
    lam_max = _stiffest_rate(config)
    target = max(float(target_abs), 1e-300)
    need = T * (30.0 * lam_max ** 2 * f_inf / target) ** 0.25
    steps = max(default_steps(config), ceil(need))
    return steps if cap is None else min(cap, steps)


def _rk4_stages(a, v, f0, f1, f2, h, damp, stiff, x):
    """One classical RK4 step of a'' + damp a' + stiff a = -f x, stage by stage.

    f0, f1, f2 are the forcing at the step's start, midpoint and end.
    """
    def deriv(ai, vi, fj):
        return vi, -damp * vi - stiff * ai - fj * x

    k1a, k1v = deriv(a, v, f0)
    k2a, k2v = deriv(a + 0.5 * h * k1a, v + 0.5 * h * k1v, f1)
    k3a, k3v = deriv(a + 0.5 * h * k2a, v + 0.5 * h * k2v, f1)
    k4a, k4v = deriv(a + h * k3a, v + h * k3v, f2)
    return (a + (h / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a),
            v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v))


def _rk4_step_map(h, damp, stiff, x):
    """(P, G) such that one RK4 step maps the row y = [a, v] to y P + [f0, f1, f2] G.

    The stage formulas are linear in (a, v, f0, f1, f2), so applying them
    once to each of the five unit inputs gives every coefficient; P is
    block-diagonal, one 2x2 block per mode.
    """
    import numpy as np
    unit = np.eye(5)[:, :, None]
    an, vn = _rk4_stages(*unit, h, damp, stiff, x)      # (5, modes) each
    m = len(x)
    diag = np.arange(m)
    P = np.zeros((2 * m, 2 * m))
    P[diag, diag] = an[0]
    P[diag, m + diag] = vn[0]
    P[m + diag, diag] = an[1]
    P[m + diag, m + diag] = vn[1]
    return P, np.hstack([an[2:], vn[2:]])


def simulate_oracle(config: BeamConfig, state0: ModalState,
                    control: Optional[ControlSignal], steps: Optional[int] = None,
                    samples: int = 201) -> Trajectory:
    """Classical fixed-step RK4 on the modal system, in float64.

    Integrates v = u - U from the initial data with forcing -f''(t) x_n,
    then reports the physical state u = v + (lifting) at steps
    round(r steps / (samples - 1)), r = 0..samples-1, halves rounded up:
    min(samples, steps + 1) distinct rows, the last at t = T.  Passing
    control=None integrates the free flow.

    RK4 on this linear system is one affine map per step,
    y_{k+1} = y_k P + f_2k g0 + f_2k+1 g1 + f_2k+2 g2 with f_j = f''(j h/2),
    whose coefficients come from the stage formulas (_rk4_step_map).  The
    steps are cut into blocks of B = ceil(sqrt(steps)): a first pass runs
    every block's zero-start response at once, the block starts are chained
    with P^B, and a second pass reruns every block from its start, again all
    at once, recording rows.  So the Python loop runs about 3 sqrt(steps)
    times.  One step scales the state's part along each root lambda by
    R(h lambda) = 1 + z + z^2/2 + z^3/6 + z^4/24 (Hairer & Wanner II, IV.2),
    so a count with |R| > 1 at a root of config.spectrum raises StepSizeError
    before any sampling; a non-finite recorded row raises it too.
    """
    import numpy as np
    state0.check_fits(config)
    if steps is None:
        steps = default_steps(config)
    if steps < 1:
        raise ValueError("steps must be positive")
    if samples < 2:
        raise ValueError("samples must be at least 2")

    T = float(to_mpf(config.horizon))
    h = T / steps
    ns_arr = np.asarray(state0.modes, dtype=np.float64)
    x_arr = np.asarray([float(x) for x in config.spectrum.traces], dtype=np.float64)
    rho = float(to_mpf(config.rho))
    P, G = _rk4_step_map(h, rho * ns_arr ** 2, ns_arr ** 4, x_arr)
    m = len(x_arr)

    with np.errstate(over="ignore", invalid="ignore"):
        z = h * np.array([complex(lam) for n in state0.modes for lam in config.spectrum.roots(n)])
        worst = np.max(np.abs(1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24))
        if not worst <= 1:
            raise StepSizeError(steps, float(worst ** steps))

    a = np.asarray([float(v) for v in state0.values], dtype=np.float64)
    v = np.asarray([float(v) for v in state0.velocities], dtype=np.float64)

    # recorded steps; the last is steps itself
    n = samples - 1
    ks = np.unique((2 * np.arange(samples) * steps + n) // (2 * n))

    # forcing on the half grid t_j = j h/2, lifting only at the recorded steps
    half_times = np.linspace(0.0, T, 2 * steps + 1)
    row_times = half_times[2 * ks]
    if control is not None:
        F = control.sample(half_times, ("f_second",))["f_second"]
        lift = control.sample(row_times, ("f", "f_prime"))
        lift_f, lift_fp = lift["f"], lift["f_prime"]
    else:
        F = np.zeros_like(half_times)
        lift_f = lift_fp = np.zeros_like(row_times)

    # step k = b B + j is offset j of block b; the last block runs `last` steps
    B = ceil(steps ** 0.5)
    blocks = -(-steps // B)
    last = steps - (blocks - 1) * B
    padded = np.pad(F, (0, 2 * (blocks * B - steps)))
    forcing = np.stack([padded[0:-1:2], padded[1::2], padded[2::2]],
                       axis=-1).reshape(blocks, B, 3)

    rows = np.empty((len(ks), 2 * m))
    owner, offset = np.divmod(ks[:-1], B)      # block and offset of every row but the last

    with np.errstate(over="ignore", invalid="ignore"):
        zero_start = np.zeros((blocks - 1, 2 * m))
        for j in range(B):
            zero_start = zero_start @ P + forcing[:-1, j] @ G
        y = np.empty((blocks, 2 * m))
        y[0, :m], y[0, m:] = a, v
        PB = np.linalg.matrix_power(P, B)
        for b in range(blocks - 1):
            y[b + 1] = y[b] @ PB + zero_start[b]

        for j in range(B):
            at = offset == j
            rows[:-1][at] = y[owner[at]]
            act = blocks if j < last else blocks - 1
            y[:act] = y[:act] @ P + forcing[:act, j] @ G
        rows[-1] = y[-1]
    if not np.isfinite(rows).all():
        raise StepSizeError(steps, float("inf"))

    u = rows[:, :m] + x_arr * lift_f[:, None]
    du = rows[:, m:] + x_arr * lift_fp[:, None]
    return Trajectory(config.boundary, tuple(row_times.tolist()),
                      tuple(map(tuple, u.tolist())), tuple(map(tuple, du.tolist())))
