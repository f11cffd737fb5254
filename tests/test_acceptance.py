"""Acceptance battery: the end-to-end guarantees this package stands on.

Each test pins one externally visible contract of the pipeline at its
stated tolerance: null control across every damping regime with two
independent evaluation routes, refusal behavior on resonant or invisible
data, the cost blow-up law for short horizons, biorthogonal duality and
growth, the Diophantine condensation grades, and closed forms checked
against quadrature and an independent integrator.
"""
import time
from fractions import Fraction
from math import inf, log

import mpmath as mp
import numpy as np
import pytest

from beamctl.condensation import (
    condensation_estimate,
    ratio_from_quotients,
    ratio_from_sqrt,
    weierstrass_E,
)
from beamctl.errors import RationalResonance, ResonanceDefect, UncontrollableMode
from beamctl.closed_form import closed_form_state
from beamctl.kernels import ControlSignal
from beamctl.modal_dynamics import ModalState, simulate_oracle
from beamctl.moment_problem import assemble, neumann_admissibility
from beamctl.spectrum import BeamConfig, Boundary
from beamctl.synthesis import gram_matrix
from beamctl.verification import Verdict, cost_sweep, null_control_experiment
from reference_calculus import biorthogonal_family, entries, gram_entry, kernel_value

WALL_LIMIT_S = 60.0


def standard_data():
    """Unit mode 1 plus 0.3 on mode 3, velocity 0.2 on mode 2."""
    return ModalState.dirichlet(values=(1, 0, "0.3", 0, 0, 0),
                                velocities=(0, "0.2", 0, 0, 0, 0))


def dirichlet_config(rho, bits=256, n_modes=6, horizon=Fraction(1)):
    return BeamConfig(Boundary.DIRICHLET, Fraction(rho), n_modes, horizon, bits)


@pytest.mark.parametrize("rho", ["0.5", "1", "1.9", "2"])
def test_null_control_under_and_critically_damped(rho):
    t0 = time.monotonic()
    report = null_control_experiment(dirichlet_config(rho), standard_data(),
                                     tolerance=1e-6)
    elapsed = time.monotonic() - t0
    rel = report.final_norm / report.initial_norm
    rel_oracle = report.oracle_final_norm / report.initial_norm
    print(f"rho={rho}: closed {rel:.2e}, oracle {rel_oracle:.2e}, {elapsed:.1f}s")
    assert report.verdict is Verdict.CONTROLLED
    assert rel <= 1e-6
    assert rel_oracle <= 1e-6
    assert elapsed <= WALL_LIMIT_S


def test_null_control_overdamped_irrational_ratio():
    # rho = 3 puts the branch ratio at (3 + sqrt 5)/2, which is irrational,
    # so the two real rate families never collide
    t0 = time.monotonic()
    report = null_control_experiment(dirichlet_config(3), standard_data(),
                                     tolerance=1e-6)
    elapsed = time.monotonic() - t0
    assert report.verdict is Verdict.CONTROLLED
    assert report.final_norm <= 1e-6 * report.initial_norm
    assert report.oracle_final_norm <= 1e-6 * report.initial_norm
    assert elapsed <= WALL_LIMIT_S


def test_rational_ratio_rejects_generic_colliding_data():
    # rho = 5/2 gives branch ratio 2: mode 2's slow rate equals mode 1's
    # fast rate, and generic data on both modes demands incompatible
    # moments from the shared kernel
    config = dirichlet_config(Fraction(5, 2), bits=192, n_modes=2)
    failures = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        state = ModalState.dirichlet(
            values=tuple(float(x) for x in rng.standard_normal(2)),
            velocities=tuple(float(x) for x in rng.standard_normal(2)))
        with pytest.raises(ResonanceDefect) as info:
            assemble(config, state)
        err = info.value
        assert err.pair == (1, 2)
        assert err.defect > 1e-3 * err.data_norm
        failures += 1
    assert failures == 20


def test_cost_blows_up_as_horizon_shrinks():
    config = dirichlet_config(1)
    state = ModalState.dirichlet(values=(1, 0, 0, 0, 0, 0),
                                 velocities=(0,) * 6)
    sweep = cost_sweep(config, state, ["0.25", "0.5", "1", "2"])
    print(f"cost fit: slope {sweep.fit_slope:.3f}, r2 {sweep.fit_r_squared:.4f}")
    assert sweep.monotone_nonincreasing
    assert sweep.fit_slope > 0
    assert sweep.fit_r_squared >= 0.9


def test_biorthogonal_duality_and_norm_growth():
    system = assemble(dirichlet_config(1), standard_data())
    controls, norms = biorthogonal_family(system)
    G = entries(gram_matrix(system))
    m = system.n_rows
    worst = 0.0
    with mp.workprec(320):
        for i in range(m):
            ci = controls[i].coefficients
            for k in range(m):
                ip = mp.fsum(G[k, j] * ci[j] for j in range(m))
                worst = max(worst, abs(float(ip - (1 if i == k else 0))))
    print(f"duality defect {worst:.2e}")
    assert worst <= 1e-6

    # one growth number per mode: the costlier of its two constraint rows;
    # a straight line in the mode index tracks them within a factor of 10,
    # which is the square-root growth law read through log of exp(c m)
    by_mode = {}
    for row_idx, modes in enumerate(system.row_modes):
        if not modes:
            continue
        n = max(modes)
        by_mode[n] = max(by_mode.get(n, -inf), log(norms[row_idx]))
    assert sorted(by_mode) == [1, 2, 3, 4, 5, 6]
    xs = np.array(sorted(by_mode), dtype=float)
    ys = np.array([by_mode[int(n)] for n in xs])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    spread = float(resid.max() - resid.min())
    print(f"envelope spread {spread:.3f} vs {log(10.0):.3f}")
    assert spread <= log(10.0)


def test_condensation_grades():
    base = condensation_estimate(ratio_from_sqrt(2), 200, tail_start=10)
    assert base.estimate < 0.1
    liouville = ratio_from_quotients((1, 2, 2, 2, 10 ** 29))
    spike = condensation_estimate(liouville, 200, tail_start=10)
    print(f"condensation: sqrt2 {base.estimate:.4f}, liouville {spike.estimate:.4f}")
    assert spike.estimate >= 10 * base.estimate
    with pytest.raises(RationalResonance):
        condensation_estimate(Fraction(3, 2), 200)


def test_product_form_matches_closed_form():
    r = ratio_from_sqrt(2)
    points = (0.31, -0.9, 2.63, -4.7, 5.9, -8.3, 9.7,
              complex(3, 4), complex(0, 10), complex(-6, 2.5),
              complex(7.1, -5.2))
    with mp.workprec(360):
        r_mp = mp.sqrt(mp.mpf(2))
        for z in points:
            z_mp = mp.mpc(z) if isinstance(z, complex) else mp.mpf(z)
            prod = mp.mpf(1)
            for n in range(1, 2501):
                n4 = mp.mpf(n) ** 4
                prod *= (1 - r_mp ** 2 * z_mp ** 2 / n4)
                prod *= (1 - z_mp ** 2 / (r_mp ** 2 * n4))
            val = weierstrass_E(z, r)
            assert abs(val - prod) <= 1e-6 * abs(prod)


def test_gram_entries_match_quadrature():
    kernels = []
    fixtures = (
        (Fraction(1), (1, 0, "0.3", 0), (0, "0.2", 0, "0.1")),
        (Fraction(2), (1, 0, "0.2", 0), (0, "0.1", 0, 0)),
        (Fraction(5, 2), (0, 0, 1, 0), (0, 0, "0.1", 0)),
    )
    for rho, values, velocities in fixtures:
        cfg = dirichlet_config(rho, bits=192, n_modes=4)
        st = ModalState.dirichlet(values=values, velocities=velocities)
        kernels.extend(assemble(cfg, st).kernels)
    rng = np.random.default_rng(1234)
    worst = 0.0
    with mp.workprec(192):
        T = mp.mpf(1)
        for _ in range(100):
            i, j = (int(k) for k in rng.integers(0, len(kernels), 2))
            ki, kj = kernels[i], kernels[j]
            exact = gram_entry(ki, kj, T, 192)
            quad = mp.quad(lambda s: kernel_value(ki, s, T) * kernel_value(kj, s, T),
                           [0, T])
            scale = float(max(abs(exact), abs(quad), mp.mpf(1e-30)))
            worst = max(worst, abs(float(exact - quad)) / scale)
    print(f"gram vs quadrature, worst relative {worst:.2e}")
    assert worst <= 1e-8


def test_forced_response_routes_agree_on_random_controls():
    cfg = dirichlet_config(1, bits=192, n_modes=3)
    st0 = ModalState.dirichlet(values=(1, 0, "0.3"), velocities=(0, "0.2", 0))
    system = assemble(cfg, st0)         # borrow its kernel family
    zero = ModalState.dirichlet(values=(0, 0, 0), velocities=(0, 0, 0))
    rng = np.random.default_rng(77)
    worst = 0.0
    with mp.workprec(256):
        T = mp.mpf(1)
        for _ in range(50):
            coeffs = tuple(mp.mpf(float(c))
                           for c in rng.standard_normal(system.n_rows))
            control = ControlSignal(kernels=system.kernels, coefficients=coeffs,
                                    horizon=T, precision_bits=192)
            closed = closed_form_state(cfg, zero, control)
            oracle = simulate_oracle(cfg, zero, control).final_state()
            for a, b in zip(closed.values + closed.velocities,
                            oracle.values + oracle.velocities):
                worst = max(worst, abs(float(a) - float(b)))
    print(f"route deviation over random controls {worst:.2e}")
    assert worst <= 1e-6


@pytest.mark.parametrize("boundary,rho,pair", [
    ("neumann", Fraction(5, 2), None),
    ("dirichlet", Fraction(5, 2), (1, 2)),
    ("neumann", Fraction(10, 3), (1, 3)),
])
def test_resonance_follows_neumann_parity(boundary, rho, pair):
    # odd-mode data 1:1:0, 3:0.3:0, 5:0:0.2 on 6 modes.  r = 2 (rho = 5/2)
    # collides mode 2k with mode k: under Neumann every such pair holds an
    # invisible even mode, so the data is controlled, while Dirichlet sees
    # mode 2 and refuses.  r = 3 (rho = 10/3) collides the odd modes 1 and 3.
    first = Boundary(boundary).first_mode
    values, velocities = [0] * (7 - first), [0] * (7 - first)
    values[1 - first], values[3 - first], velocities[5 - first] = 1, "0.3", "0.2"
    config = BeamConfig(Boundary(boundary), rho, 6, Fraction(1), 256)
    state0 = ModalState(Boundary(boundary), values, velocities)
    t0 = time.monotonic()
    if pair is None:
        report = null_control_experiment(config, state0, tolerance=1e-6)
        assert report.verdict is Verdict.CONTROLLED
        assert report.oracle_final_norm <= 1e-6 * report.initial_norm
    else:
        with pytest.raises(ResonanceDefect) as info:
            null_control_experiment(config, state0, tolerance=1e-6)
        assert info.value.pair == pair
    assert time.monotonic() - t0 <= WALL_LIMIT_S


def test_neumann_screening_and_odd_mode_control():
    cfg = BeamConfig(Boundary.NEUMANN, Fraction(1), 4, Fraction(1), 192)

    # an even cosine mode has zero slope trace at both ends: invisible
    even = ModalState.neumann(values=(0, 0, 1, 0, 0), velocities=(0,) * 5)
    with pytest.raises(UncontrollableMode) as info:
        assemble(cfg, even)
    assert info.value.mode == 2

    # nonzero spatial mean drifts freely; residuals are the actual means
    lopsided = ModalState.neumann(values=("0.7", 1, 0, 0, 0),
                                  velocities=("0.2", 0, 0, 0, 0))
    res_val, res_vel = neumann_admissibility(lopsided, 192)
    with mp.workprec(256):
        root_pi = mp.sqrt(mp.pi)
        assert abs(res_val - float(root_pi * mp.mpf("0.7"))) < 1e-12
        assert abs(res_vel - float(root_pi * mp.mpf("0.2"))) < 1e-12
    with pytest.raises(UncontrollableMode) as info:
        assemble(cfg, lopsided)
    assert info.value.mode == 0

    # odd-mode data is fully reachable, measured at displacement scale 4
    cfg5 = BeamConfig(Boundary.NEUMANN, Fraction(1), 5, Fraction(1), 256)
    odd = ModalState.neumann(values=(0, 1, 0, "0.3", 0, 0),
                             velocities=(0, 0, 0, 0, 0, "0.2"))
    report = null_control_experiment(cfg5, odd, tolerance=1e-6)
    assert report.verdict is Verdict.CONTROLLED
    assert report.norm_scale == 4
    assert report.final_norm <= 1e-6 * report.initial_norm
    assert report.oracle_final_norm <= 1e-6 * report.initial_norm
