"""Dual-route experiments, the cost sweep and the regime battery."""
from fractions import Fraction

import mpmath as mp
import pytest

from beamctl.kernels import ControlSignal
from beamctl.modal_dynamics import ModalState, free_state_at
from beamctl.spectrum import BeamConfig, Boundary, mode_eigenvalues
from beamctl import verification
from beamctl.verification import (
    Verdict,
    closed_form_final_state,
    cost_sweep,
    null_control_experiment,
    pair_norm_scale,
)


def small_config(**kw):
    base = dict(boundary=Boundary.DIRICHLET, rho=Fraction(1), n_modes=2,
                horizon=Fraction(1), precision_bits=128)
    base.update(kw)
    return BeamConfig(**base)


def test_pair_norm_scale():
    assert pair_norm_scale(Boundary.DIRICHLET) == 3
    assert pair_norm_scale(Boundary.NEUMANN) == 4
    assert pair_norm_scale("neumann") == 4


def test_zero_control_reduces_to_free_flow():
    config = small_config()
    state0 = ModalState.dirichlet(values=(1, 0), velocities=(0, "0.3"))
    zero = ControlSignal(kernels=(), coefficients=(), horizon=mp.mpf(1),
                         precision_bits=128)
    with mp.workprec(200):
        final = closed_form_final_state(config, state0, zero)
        eigs = tuple(mode_eigenvalues(config.rho, n, 128) for n in (1, 2))
        free = free_state_at(state0, eigs, mp.mpf(1), 128)
        for a, b in zip(final.values + final.velocities,
                        free.values + free.velocities):
            assert abs(a - b) < mp.mpf(2) ** -100


def test_experiment_controls_small_system():
    config = small_config()
    state0 = ModalState.dirichlet(values=(1, 0), velocities=(0, "0.3"))
    report = null_control_experiment(config, state0, tolerance=1e-6)
    assert report.verdict is Verdict.CONTROLLED
    assert report.norm_scale == 3
    assert report.initial_norm > 1
    floor = 1e-6 * report.initial_norm
    assert report.final_norm < floor
    assert report.oracle_final_norm < floor
    assert report.oracle_deviation < 1e-6
    assert len(report.trajectory.times) == 201
    assert report.trajectory.times[0] == 0.0
    assert report.trajectory.times[-1] == 1.0


def test_experiment_flags_unreachable_tolerance(monkeypatch):
    # float64 oracle cannot certify 1e-30, so the verdict must refuse; the
    # lowered cap keeps the oracle short, since 1e-30 sizes far past it
    monkeypatch.setattr(verification, "ORACLE_STEP_CAP", 6000)
    config = small_config()
    state0 = ModalState.dirichlet(values=(1, 0), velocities=(0, "0.3"))
    report = null_control_experiment(config, state0, tolerance=1e-30)
    assert report.verdict is Verdict.RESIDUAL_TOO_LARGE
    assert report.oracle_steps_used == 6000 < report.oracle_steps_requested
    assert report.to_json_dict()["verdict"] == "residual-too-large"


def test_experiment_rejects_bad_tolerance():
    config = small_config()
    state0 = ModalState.dirichlet(values=(1, 0), velocities=(0, 0))
    with pytest.raises(ValueError):
        null_control_experiment(config, state0, tolerance=0.0)


def test_cost_sweep_rejects_bool_horizons():
    config = small_config(n_modes=1)
    state0 = ModalState.dirichlet(values=(1,), velocities=(0,))
    with pytest.raises(TypeError):
        cost_sweep(config, state0, ["0.5", True])


def test_cost_sweep_monotone_and_fitted():
    config = small_config(n_modes=1)
    state0 = ModalState.dirichlet(values=(1,), velocities=(0,))
    sweep = cost_sweep(config, state0, ["0.25", Fraction(1, 4), "0.5", 1])
    assert sweep.horizons == (Fraction(1, 4), Fraction(1, 2), Fraction(1))
    assert len(sweep.costs) == 3
    assert all(c > 0 for c in sweep.costs)
    assert sweep.costs[0] > sweep.costs[1] > sweep.costs[2]
    assert sweep.monotone_nonincreasing
    assert sweep.fit_slope is not None and sweep.fit_slope > 0
    assert 0 < sweep.fit_r_squared <= 1


def test_cost_sweep_two_points_skips_fit():
    config = small_config(n_modes=1)
    state0 = ModalState.dirichlet(values=(1,), velocities=(0,))
    sweep = cost_sweep(config, state0, [1, "0.5"])
    assert sweep.fit_slope is None
    assert sweep.fit_r_squared is None
    assert sweep.monotone_nonincreasing


def test_cost_sweep_requires_horizons():
    config = small_config(n_modes=1)
    state0 = ModalState.dirichlet(values=(1,), velocities=(0,))
    with pytest.raises(ValueError):
        cost_sweep(config, state0, [])


@pytest.mark.parametrize("boundary,rho,n_modes,values,velocities", [
    (Boundary.DIRICHLET, Fraction(1), 4, (1, 0, "0.3", 0), (0, "0.2", 0, 0)),
    (Boundary.DIRICHLET, Fraction(2), 3, (1, 0, "0.2"), (0, "0.1", 0)),
    (Boundary.DIRICHLET, Fraction(5, 2), 4, (0, 0, 1, 0), (0, 0, "0.1", 0)),
    (Boundary.NEUMANN, Fraction(3, 2), 3, (0, 1, 0, "0.2"), (0, 0, 0, 0)),
], ids=["dirichlet-underdamped", "dirichlet-critical", "dirichlet-overdamped",
        "neumann-underdamped"])
def test_crosscheck_battery(boundary, rho, n_modes, values, velocities):
    config = BeamConfig(boundary=boundary, rho=rho, n_modes=n_modes,
                        horizon=Fraction(1), precision_bits=160)
    with mp.workprec(224):
        state0 = ModalState(boundary, tuple(mp.mpf(v) for v in values),
                            tuple(mp.mpf(v) for v in velocities))
    report = null_control_experiment(config, state0, tolerance=1e-6)
    assert report.verdict is Verdict.CONTROLLED
    assert report.final_norm / report.initial_norm < 1e-6
    assert report.oracle_final_norm / report.initial_norm < 1e-6
    assert report.oracle_deviation < 1e-6


def test_oracle_steps_report_the_cap():
    from beamctl.modal_dynamics import ORACLE_STEP_CAP, state_pair_norm
    from beamctl.moment_problem import assemble
    from beamctl.synthesis import solve_min_norm
    from beamctl.verification import oracle_steps

    config = BeamConfig(Boundary.DIRICHLET, Fraction(3), 8, Fraction(1), 256)
    state0 = ModalState.dirichlet(values=(1, 0, "0.3", 0, 0, 0, 0, 0),
                                  velocities=(0, "0.2", 0, 0, 0, 0, 0, 0))
    control = solve_min_norm(assemble(config, state0)).control
    requested, used = oracle_steps(config, control, 1e-6, state_pair_norm(state0, 3))
    assert requested == 344125
    assert used == ORACLE_STEP_CAP == 200000


def test_experiment_reports_oracle_steps():
    state0 = ModalState.dirichlet(values=(1, 0), velocities=(0, "0.3"))
    report = null_control_experiment(small_config(), state0, tolerance=1e-6)
    assert report.oracle_steps_requested == report.oracle_steps_used >= 4000
    doc = report.to_json_dict()
    assert doc["oracle_steps_requested"] == report.oracle_steps_requested
    assert doc["oracle_steps_used"] == report.oracle_steps_used
