"""Assembly of the trigonometric moment system that a null control must solve.

Driving every mode of the initial data to rest at time T is equivalent to a
finite family of L2(0, T) constraints on the curvature f'' of the boundary
signal: two flatness rows (so f and f' vanish at both endpoints once f is
rebuilt by double integration) plus, per controllable mode, one row for each
characteristic root.  A mode's pair of complex rows is realified in the
underdamped regime and replaced by the confluent exp/polyexp pair at the
critical damping value.

Each row's target is the free evolution of the data at T projected on that
row's root.  A mode with roots l+, l-, trace coefficient x_n and data
(u0, u1) evolves freely as A e^(l+ t) + B e^(l- t), and
u' - l- u = (u1 - l- u0) e^(l+ t) holds along the flow, so

    <f'', e^(l+- (T-s))> = (u1 - l-+ u0) e^(l+- T) / x_n,

read straight from the data: no free flow is evaluated, and a fast root's
target keeps its relative precision however far e^(l- T) lies below the
slow root's.  At the confluent limit l+- -> -n^2 the pair becomes the exp
target (u1 + n^2 u0) e^(-n^2 T)/x_n and the polyexp target
(u0 + (u1 + n^2 u0) T) e^(-n^2 T)/x_n, the free value at T over x_n.

Overdamped beams with a rational branch ratio r = p/q collide: the slow root
of mode pk equals the fast root of mode qk for every k.  Colliding rows are
detected by exact rational arithmetic on the decay rates and merged when
their targets agree to within 1e-9 of the data's l2 size; disagreement means
the data pair is outside the reachable set and raises ResonanceDefect.

Neumann data additionally must be mean free in both components, since the
zero mode's physical evolution is an affine drift no admissible control can
touch, and even cosine modes carry a vanishing trace coefficient: such modes
are uncontrollable unless their data is negligibly small.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Tuple

import mpmath as mp

from ._numutil import GUARD_BITS, decimal_str, to_mpf
from .errors import ResonanceDefect, UncontrollableMode
from .kernels import Kernel
from .modal_dynamics import ModalState
from .spectrum import BeamConfig, Boundary, DampingRegime, ModeEigenvalues

__all__ = [
    "MomentSystem",
    "data_l2_norm",
    "neumann_admissibility",
    "moment_rhs",
    "assemble",
]

# relative thresholds, all against the l2 size of the data
MEAN_FREE_RTOL = mp.mpf("1e-12")        # Neumann zero-mode admissibility
INVISIBLE_RTOL = mp.mpf("1e-14")        # even cosine modes, against max amplitude
COLLISION_RTOL = mp.mpf("1e-9")         # target agreement on merged rows


def data_l2_norm(state: ModalState) -> mp.mpf:
    """Plain l2 size of the data: all modal values and velocities together,
    an mpf, whose exponent does not underflow where a float64 would."""
    total = mp.mpf(0)
    for v in state.values:
        total += to_mpf(v) ** 2
    for v in state.velocities:
        total += to_mpf(v) ** 2
    return mp.sqrt(total)


def neumann_admissibility(state0: ModalState, precision_bits: int = 256) -> Tuple[float, float]:
    """Mean of the initial displacement and velocity, as integrals over (0, pi).

    The constant eigenfunction is 1/sqrt(pi), so a zero-mode coefficient c
    corresponds to the integral sqrt(pi) c.  Both must vanish for the data
    to be reachable from rest; the pair is returned for reporting.
    """
    if state0.boundary is not Boundary.NEUMANN:
        raise ValueError("admissibility residuals only apply to Neumann data")
    with mp.workprec(precision_bits + GUARD_BITS):
        root_pi = mp.sqrt(mp.pi)
        return (float(root_pi * to_mpf(state0.values[0])),
                float(root_pi * to_mpf(state0.velocities[0])))


def moment_rhs(eig: ModeEigenvalues, trace_coeff, u0, u1, horizon):
    """Kernel/target pairs for one mode, realified and ready for assembly.

    Returns a tuple of (suffix, Kernel, target) triples; a root's target is
    (u1 - l-+ u0) e^(l+- T) / x_n (module docstring), as real mpf values at
    the current working precision.
    """
    x = to_mpf(trace_coeff)
    if x == 0:
        raise ValueError(f"mode {eig.n} has zero trace coefficient; no row exists")
    u0, u1, T = to_mpf(u0), to_mpf(u1), to_mpf(horizon)
    if eig.regime is DampingRegime.UNDERDAMPED:
        zeta_plus = (u1 - eig.lambda_minus * u0) * mp.exp(eig.lambda_plus * T) / x
        return (
            ("cos", Kernel("expcos", decay=eig.beta, freq=eig.alpha), zeta_plus.real),
            ("sin", Kernel("expsin", decay=eig.beta, freq=eig.alpha), zeta_plus.imag),
        )
    if eig.regime is DampingRegime.CRITICAL:
        n2 = mp.mpf(eig.n) ** 2
        slope, decay = u1 + n2 * u0, mp.exp(-n2 * T) / x
        return (
            ("decay", Kernel("exp", rate=-n2), slope * decay),
            ("drift", Kernel("polyexp", rate=-n2), (u0 + slope * T) * decay),
        )
    lp, lm = eig.lambda_plus, eig.lambda_minus
    return (
        ("slow", Kernel("exp", rate=lp), (u1 - lm * u0) * mp.exp(lp * T) / x),
        ("fast", Kernel("exp", rate=lm), (u1 - lp * u0) * mp.exp(lm * T) / x),
    )


@dataclass(frozen=True)
class MomentSystem:
    """A fully assembled moment problem: kernels, targets, and provenance.

    Rows 0 and 1 are always the flatness constraints with zero target.  Each
    remaining row belongs to the modes listed in row_modes (more than one
    after a collision merge).  The originating config and data ride along so
    the whole system can be rebuilt bit-for-bit at a different precision.
    """

    config: BeamConfig
    state0: ModalState
    kernels: Tuple[Kernel, ...]
    targets: Tuple
    labels: Tuple[str, ...]
    row_modes: Tuple[Tuple[int, ...], ...]
    dropped_modes: Tuple[int, ...] = ()
    collisions: Tuple = ()              # (rate, (m, n)) per merged pair

    @property
    def n_rows(self) -> int:
        return len(self.kernels)

    def with_precision(self, precision_bits: int) -> "MomentSystem":
        """The same moment problem reassembled at a different precision."""
        if precision_bits == self.config.precision_bits:
            return self
        return assemble(replace(self.config, precision_bits=precision_bits), self.state0)

    def to_json_dict(self) -> dict:
        bits = self.config.precision_bits
        cfg = self.config
        return {
            "config": {
                "boundary": cfg.boundary.value,
                "rho": str(cfg.rho),
                "n_modes": cfg.n_modes,
                "horizon": str(cfg.horizon),
                "precision_bits": cfg.precision_bits,
            },
            "state0": {
                "values": [decimal_str(v, bits) for v in self.state0.values],
                "velocities": [decimal_str(v, bits) for v in self.state0.velocities],
            },
            "rows": [
                {
                    "label": lab,
                    "kernel": ker.descriptor(bits),
                    "target": decimal_str(tgt, bits),
                    "modes": list(modes),
                }
                for lab, ker, tgt, modes in zip(self.labels, self.kernels,
                                                self.targets, self.row_modes)
            ],
            "dropped_modes": list(self.dropped_modes),
            "collisions": [
                {"rate": decimal_str(rate, bits), "modes": list(pair)}
                for rate, pair in self.collisions
            ],
        }


def assemble(config: BeamConfig, state0: ModalState) -> MomentSystem:
    """Build the moment system for the given beam and initial data.

    Raises UncontrollableMode for data with energy on a mode the control
    cannot see (the Neumann zero mode and even cosine modes), and
    ResonanceDefect when an overdamped collision carries incompatible
    targets.  Dirichlet data never triggers either: every sine mode has a
    nonzero trace coefficient and collisions only merge compatible rows or
    fail, which is decided here and nowhere downstream.
    """
    state0.check_fits(config)

    spectrum = config.spectrum
    norm = data_l2_norm(state0)
    with mp.workprec(config.precision_bits + GUARD_BITS):
        if config.boundary is Boundary.NEUMANN:
            zero_amp = max(abs(to_mpf(state0.values[0])), abs(to_mpf(state0.velocities[0])))
            if zero_amp > MEAN_FREE_RTOL * norm:
                raise UncontrollableMode(0, float(zero_amp), float(MEAN_FREE_RTOL * norm))

        max_amp = max(state0.amplitude(n) for n in state0.modes)

        dropped = []
        active = []                     # (slot, mode, trace coefficient)
        for i, (n, x) in enumerate(zip(state0.modes, spectrum.traces)):
            if n == 0:
                continue
            if x == 0:
                amp = state0.amplitude(n)
                if max_amp > 0 and amp > INVISIBLE_RTOL * max_amp:
                    raise UncontrollableMode(n, float(amp), float(INVISIBLE_RTOL * max_amp))
                dropped.append(n)
            else:
                active.append((i, n, x))

        r_exact = spectrum.ratio_exact

        kernels = [Kernel("const"), Kernel("linear")]
        targets = [mp.mpf(0), mp.mpf(0)]
        labels = ["flat-slope", "flat-value"]
        row_modes = [(), ()]

        merged = {}                     # exact rate -> row index, rational r only
        collisions = []

        for i, n, x in active:
            rows = moment_rhs(spectrum.eigenvalues[n - 1], x, state0.values[i],
                              state0.velocities[i], config.horizon)

            rate_keys = (None, None)
            if r_exact is not None:
                rate_keys = (Fraction(-n * n) / r_exact, -r_exact * n * n)
                # rebuild the kernels from the exact rates so colliding rows
                # share one bit-identical kernel regardless of which mode
                # inserted it first
                rows = tuple((suffix, Kernel("exp", rate=to_mpf(key)), target)
                             for (suffix, _, target), key in zip(rows, rate_keys))

            for (suffix, kernel, target), key in zip(rows, rate_keys):
                if key in merged:
                    j = merged[key]
                    gap = abs(target - targets[j])
                    pair = (row_modes[j][0], n)
                    if gap > COLLISION_RTOL * norm:
                        raise ResonanceDefect(float(to_mpf(kernel.rate)), float(gap),
                                              float(norm), pair=pair)
                    targets[j] = (targets[j] + target) / 2
                    labels[j] = f"{labels[j]}+mode{n}-{suffix}"
                    row_modes[j] = row_modes[j] + (n,)
                    collisions.append((to_mpf(kernel.rate), pair))
                else:
                    if key is not None:
                        merged[key] = len(kernels)
                    kernels.append(kernel)
                    targets.append(target)
                    labels.append(f"mode{n}-{suffix}")
                    row_modes.append((n,))

        return MomentSystem(
            config=config,
            state0=state0,
            kernels=tuple(kernels),
            targets=tuple(targets),
            labels=tuple(labels),
            row_modes=tuple(row_modes),
            dropped_modes=tuple(dropped),
            collisions=tuple(collisions),
        )
