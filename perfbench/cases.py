"""The benchmark's workloads: fixed case shapes, data amplitudes from the seed.

The seed only moves data amplitudes, never the damping, boundary, mode count
or precision, so every seed runs the same kernels, Gram sizes and ladder
rungs.  Amplitudes are written as short decimal strings, which beamctl reads
exactly.
"""
from __future__ import annotations

import random
from fractions import Fraction

# name -> why; the same lines as BENCHMARK.json
WORKLOADS = {
    "verify-regimes": "beamctl verify in every damping regime and under Neumann; "
                      "control sampling and the RK4 oracle dominate",
    "synthesize-wide": "assemble and solve_min_norm at tens of modes on a first "
                       "ladder rung that holds; Gram entries and Cholesky dominate",
    "synthesize-ladder": "assemble and solve_min_norm on cases whose first rung "
                         "fails; each extra rung reassembles and refactors",
}

# (label, boundary, rho, modes, [(mode, "value" | "velocity", base amplitude)])
_ACCEPTANCE = [(1, "value", 1.0), (2, "velocity", 0.2), (3, "value", 0.3)]
VERIFY_CASES = [
    ("dirichlet-rho1-3modes", "dirichlet", "1", 3, _ACCEPTANCE),
    ("dirichlet-rho2-3modes", "dirichlet", "2", 3, _ACCEPTANCE),
    ("dirichlet-rho3-3modes", "dirichlet", "3", 3, _ACCEPTANCE),
    ("neumann-rho1-5modes", "neumann", "1", 5,
     [(1, "value", 1.0), (3, "value", 0.3), (5, "velocity", 0.2)]),
]

# (label, rho, modes, precision bits); Dirichlet, horizon 1
WIDE_CASES = [
    ("rho1-40modes-192bits", "1", 40, 192),
    ("rho3-24modes-256bits", "3", 24, 256),
    ("rho2-16modes-256bits", "2", 16, 256),
]
LADDER_CASES = [
    ("rho1-28modes-96bits", "1", 28, 96),
    ("rho2-32modes-256bits", "2", 32, 256),
    ("rho3-40modes-256bits", "3", 40, 256),
]


def _jitter(rng: random.Random, base: float) -> str:
    """base times a factor in [0.99, 1.01], as a 6-decimal string.

    The oracle's step count grows with the control's size, so a wider
    jitter would move the verify workload's work from seed to seed.
    """
    return f"{base * (0.99 + 0.02 * rng.random()):.6f}"


def verify_argv(seed: int) -> list:
    """(label, argv for `beamctl verify` without --out) per case."""
    rng = random.Random(seed)
    out = []
    for label, boundary, rho, modes, data in VERIFY_CASES:
        triples = []
        for mode, part, base in data:
            amp = _jitter(rng, base)
            triples.append(f"{mode}:{amp}:0" if part == "value" else f"{mode}:0:{amp}")
        out.append((label, ["verify", "--boundary", boundary, "--rho", rho,
                            "--modes", str(modes), "--data", ",".join(triples)]))
    return out


def synthesis_inputs(cases, seed: int) -> list:
    """(label, BeamConfig, ModalState) per case: Gaussian data with 1/n^2
    decay on every mode, like the CLI's 'random' fixture."""
    from beamctl import BeamConfig, Boundary, ModalState

    rng = random.Random(seed)
    out = []
    for label, rho, modes, bits in cases:
        config = BeamConfig(Boundary.DIRICHLET, Fraction(rho), modes, Fraction(1), bits)
        values = [f"{rng.gauss(0.0, 1.0) / n ** 2:.6e}" for n in range(1, modes + 1)]
        velocities = [f"{rng.gauss(0.0, 1.0) / n ** 2:.6e}" for n in range(1, modes + 1)]
        out.append((label, config, ModalState.dirichlet(values, velocities)))
    return out
