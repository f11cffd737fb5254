"""Property test of the spectral oracle against the closed form, in every
damping regime and on both boundaries."""
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from beamctl.cli import build_initial_state
from beamctl.closed_form import closed_form_state
from beamctl.kernels import ControlSignal
from beamctl.modal_dynamics import simulate_oracle
from beamctl.moment_problem import assemble
from beamctl.spectrum import BeamConfig, Boundary

EPS = Fraction(1, 10 ** 9)
# underdamped, critical and 2 -+ 1e-9 around it, then overdamped: irrational
# r (rho = 3), and r = 2 + 1e-6, 3 - 1e-6 (rho = r + 1/r), branch ratios
# next to the rational ones where modes collide
RHOS = [Fraction(1, 10), Fraction(1), 2 - EPS, Fraction(2), 2 + EPS, Fraction(3),
        *(r + 1 / r for r in (2 + Fraction(1, 10 ** 6), 3 - Fraction(1, 10 ** 6)))]


@st.composite
def oracle_cases(draw):
    config = BeamConfig(draw(st.sampled_from(list(Boundary))), draw(st.sampled_from(RHOS)),
                        draw(st.integers(1, 6)),
                        draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)])), 128)
    return config, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(oracle_cases())
def test_oracle_agrees_with_the_closed_form(case):
    """Random data under random coefficients on the data's own kernel family:
    the oracle's final state is the closed form's to 1e-12 of the state's
    size, and a rerun on a fresh control is bit-identical."""
    config, seed = case
    state0 = build_initial_state("random", config, seed)
    kernels = assemble(config, state0).kernels
    rng = np.random.default_rng(seed)
    coefficients = tuple(mp.mpf(float(c)) for c in rng.standard_normal(len(kernels)))

    def control():
        return ControlSignal(kernels, coefficients, config.horizon, config.precision_bits)

    got = simulate_oracle(config, state0, control())
    expect = closed_form_state(config, state0, control())
    want = [float(x) for x in expect.values + expect.velocities]
    final = got.final_state()
    scale = max(1.0, *map(abs, want))
    for a, b in zip(final.values + final.velocities, want):
        assert abs(a - b) <= 1e-12 * scale
    assert simulate_oracle(config, state0, control()) == got
