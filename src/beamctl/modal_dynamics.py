"""Modal states of the damped beam, their pair norm, and the spectral oracle.

States live in the eigenbasis of the Laplacian on (0, pi): sine modes for
Dirichlet boundary control, cosine modes (plus the constant mode) for
Neumann.  Subtracting the boundary lifting U (profile times f(t)) from the
physical state u leaves v = u - U whose modal coefficients obey

    a_n'' + rho n^2 a_n' + n^4 a_n = -f''(t) x_n,      a_n(0) = a_n'(0) = 0

on top of the free flow of the initial data; x_n is the boundary trace
coefficient of the lifting profile (BeamConfig.spectrum holds every x_n and
every mode's roots).  The physical state is recovered as
u_n(t) = v_n(t) + x_n f(t).  Slot i of a state holds mode
Boundary.first_mode + i (ModalState.modes), so the Neumann constant mode
sits in slot 0.

This module holds the oracle route: simulate_oracle, a float64 spectral
integration of each modal equation on Chebyshev coefficients that reads no
root and no moment: only rho n^2, n^4, the trace x_n and the control's f''
series (ControlSignal.proxy).  It adds x_n f'' to each v_n'' and integrates
u_n itself, so it never evaluates f or f'.  It has no step size, so no
truncation error to size.  The closed-form route (closed_form) evaluates
the state at T from the control's moments; agreement of the two is a
verification gate, not an implementation convenience.
"""
from __future__ import annotations

from dataclasses import dataclass
from sys import float_info
from typing import Tuple

import mpmath as mp

from ._numutil import to_mpf
from .errors import SamplingError
from .kernels import (_EPS, _MAX_NODES, _TINY, ControlSignal, _clenshaw, _integration_matrix,
                      _standard_chop)
from .spectrum import BeamConfig, Boundary

__all__ = [
    "ModalState",
    "Trajectory",
    "state_pair_norm",
    "simulate_oracle",
]


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
        return max(abs(float(to_mpf(self.values[i]))), abs(float(to_mpf(self.velocities[i]))))

    @staticmethod
    def dirichlet(values, velocities) -> "ModalState":
        return ModalState(Boundary.DIRICHLET, tuple(values), tuple(velocities))

    @staticmethod
    def neumann(values, velocities) -> "ModalState":
        return ModalState(Boundary.NEUMANN, tuple(values), tuple(velocities))


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
    """Physical-state history from the spectral oracle at uniform times on [0, T]."""

    boundary: Boundary
    times: Tuple[float, ...]
    values: Tuple[Tuple[float, ...], ...]      # one tuple per sample time
    velocities: Tuple[Tuple[float, ...], ...]
    degree: int                                # Chebyshev degree of every modal series

    def state_at(self, i: int) -> ModalState:
        return ModalState(self.boundary, self.values[i], self.velocities[i])

    def final_state(self) -> ModalState:
        return self.state_at(len(self.times) - 1)


def simulate_oracle(config: BeamConfig, state0: ModalState,
                    control: ControlSignal, samples: int = 201) -> Trajectory:
    """Spectral integration of the modal system in float64 (Greengard, SIAM
    J. Numer. Anal. 28, 1991).

    Mode n of v = u - U, with d = rho n^2, k = n^4 and trace x_n, takes
    w = v'' as a Chebyshev series on [0, T].  With J the integration operator
    from t = 0 (kernels._integration_matrix), v' = v0' + J w and v = v0 + J v',
    so the modal equation is one dense solve per mode:

        (I + d J + k J^2) w = -x_n f'' - d v0' - k (v0 + v0' t),

    f'' being the series of the control's proxy, the only signal the oracle
    reads.  The degree starts at max(ceil(1.25 len(f'')) + 16, 64), a quarter
    past the f'' series, and doubles until the standard chop finds every
    mode's w tail flat; a series still unresolved at _MAX_NODES raises
    SamplingError.  The oracle reads no root of the spectrum and no moment.
    The physical state has u'' = w + x_n f'' and the same initial data, since
    f(0) = f'(0) = 0, so u' and u are that series integrated from t = 0.  It
    reports them at `samples` uniform times, the last at T.  A control with
    zero coefficients gives the free flow.
    """
    import numpy as np
    state0.check_fits(config)
    if samples < 2:
        raise ValueError("samples must be at least 2")

    T = float(to_mpf(config.horizon))
    ns = np.asarray(state0.modes, dtype=np.float64)
    damp, stiff = float(to_mpf(config.rho)) * ns ** 2, ns ** 4
    x = np.asarray([float(v) for v in config.spectrum.traces])
    v0 = np.asarray([float(to_mpf(v)) for v in state0.values])
    dv0 = np.asarray([float(to_mpf(v)) for v in state0.velocities])
    proxy = control.proxy
    f2 = proxy.coefficients[:proxy.degree + 1, 2]

    m = min(max((5 * len(f2) + 3) // 4 + 16, 64), _MAX_NODES)
    while True:
        J = _integration_matrix(m, T)
        J2 = J @ J
        rhs = np.zeros((m + 1, len(x)))
        rhs[:len(f2)] = -np.outer(f2, x)
        rhs[0] -= damp * dv0 + stiff * (v0 + dv0 * T / 2)     # t = T/2 (T_0 + T_1)
        rhs[1] -= stiff * dv0 * T / 2
        w = np.column_stack([np.linalg.solve(np.eye(m + 1) + d * J + k * J2, r)
                             for d, k, r in zip(damp, stiff, rhs.T)])
        if all(_standard_chop(col) <= m for col in w.T):
            break
        if m == _MAX_NODES:
            tail = np.abs(w[-(m // 8):]).max(axis=0)
            top = np.maximum(np.abs(w).max(axis=0), _TINY)
            raise SamplingError(m, float((tail / top).max()), _EPS,
                                "oracle modal series coefficient tail")
        m = min(2 * m, _MAX_NODES)

    w[:len(f2)] += np.outer(f2, x)     # u'' = v'' + x_n f''
    du = J @ w
    du[0] += dv0
    u = J @ du
    u[0] += v0
    times = np.linspace(0.0, T, samples)
    values, velocities = np.split(_clenshaw(2.0 * times / T - 1.0, np.hstack([u, du])), 2)
    return Trajectory(config.boundary, tuple(times.tolist()), tuple(map(tuple, values.T.tolist())),
                      tuple(map(tuple, velocities.T.tolist())), m)
