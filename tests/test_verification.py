"""Dual-route experiments, the cost sweep and the regime battery."""
from fractions import Fraction

import mpmath as mp
import pytest

from beamctl.kernels import ControlSignal
from beamctl.modal_dynamics import ModalState
from beamctl.spectrum import BeamConfig, Boundary
from beamctl import verification
from beamctl.verification import (
    Verdict,
    closed_form_final_state,
    cost_sweep,
    null_control_experiment,
    pair_norm_scale,
)
from reference_calculus import closed_form_state as reference_state


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
        free = reference_state(config, state0, None, config.horizon)
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


def test_experiment_flags_unreachable_tolerance():
    # the closed form reaches 1e-30 of the initial norm at 128 bits, but the
    # float64 oracle floors near eps times the control's size, so the verdict
    # must refuse; the oracle itself does not depend on the tolerance
    config = small_config()
    state0 = ModalState.dirichlet(values=(1, 0), velocities=(0, "0.3"))
    report = null_control_experiment(config, state0, tolerance=1e-30)
    assert report.verdict is Verdict.RESIDUAL_TOO_LARGE
    floor = 1e-30 * report.initial_norm
    assert report.final_norm <= floor < report.oracle_final_norm
    assert report.to_json_dict()["verdict"] == "residual-too-large"
    loose = null_control_experiment(config, state0, tolerance=1e-6)
    assert loose.verdict is Verdict.CONTROLLED
    assert loose.trajectory == report.trajectory


def exact_pair_norm_squared(state, p):
    """The squared pair norm of a state, in exact rationals."""
    def exact(x):
        if isinstance(x, mp.mpf):
            man, exp = x.man_exp
            return Fraction(man) * Fraction(2) ** exp
        return Fraction(x)
    return sum(Fraction(n) ** (2 * p) * exact(u) ** 2 + Fraction(n) ** (2 * p - 4) * exact(du) ** 2
               for n, u, du in zip(state.modes, state.values, state.velocities))


@pytest.mark.parametrize("scale", ["1", "1e-200", "1e-320", "0"])
def test_controlled_verdict_holds_both_final_norms_to_the_tolerance(scale):
    """Whenever the verdict is controlled, both final pair norms are at most
    the tolerance times the initial one, compared exactly, at any data size.
    Data at 1e-320 is subnormal in float64, which the oracle holds to a few
    bits: its verdict is residual-too-large, never a pass by a clamp."""
    config, s = small_config(), Fraction(scale)
    state0 = ModalState.dirichlet(values=(s, 0), velocities=(0, 3 * s / 10))
    report = null_control_experiment(config, state0, tolerance=1e-6)
    p = report.norm_scale
    bound = Fraction(1e-6) ** 2 * exact_pair_norm_squared(state0, p)
    closed = closed_form_final_state(report.config, state0, report.synthesis.control)
    if report.verdict is Verdict.CONTROLLED:
        for final in (closed, report.trajectory.final_state()):
            assert exact_pair_norm_squared(final, p) <= bound
    else:
        assert scale == "1e-320"
        assert exact_pair_norm_squared(report.trajectory.final_state(), p) > bound


def test_experiment_rejects_bad_tolerance():
    config = small_config()
    state0 = ModalState.dirichlet(values=(1, 0), velocities=(0, 0))
    for tolerance in (0.0, -1e-6, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            null_control_experiment(config, state0, tolerance=tolerance)


def test_cost_sweep_rejects_infinite_horizon():
    config = small_config(n_modes=1)
    state0 = ModalState.dirichlet(values=(1,), velocities=(0,))
    with pytest.raises(ValueError, match="horizon must be finite"):
        cost_sweep(config, state0, ["0.5", float("inf")])


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
    (Boundary.DIRICHLET, Fraction(1), 2, ("1e-200", 0), (0, 0)),
    (Boundary.NEUMANN, Fraction(3, 2), 3, (0, "1e-200", 0, "2e-201"), (0, 0, 0, 0)),
], ids=["dirichlet-underdamped", "dirichlet-critical", "dirichlet-overdamped",
        "neumann-underdamped", "dirichlet-tiny-data", "neumann-tiny-data"])
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


def test_experiment_computes_the_spectrum_once(monkeypatch):
    # Dirichlet rho = 3, 10 modes, mode 1 value 1, mode 2 velocity 0.2,
    # mode 3 value 0.3: assembly, its free flow, the closed-form final state
    # and the oracle all read one spectrum per precision rung
    from beamctl import spectrum

    calls, built = [], []
    eigenvalues, make = spectrum.mode_eigenvalues, spectrum.Spectrum
    monkeypatch.setattr(spectrum, "mode_eigenvalues",
                        lambda *args: calls.append(args[1]) or eigenvalues(*args))
    monkeypatch.setattr(spectrum, "Spectrum", lambda *args: built.append(1) or make(*args))
    config = BeamConfig(Boundary.DIRICHLET, Fraction(3), 10, Fraction(1), 256)
    state0 = ModalState.dirichlet(values=(1, 0, "0.3") + (0,) * 7,
                                  velocities=(0, "0.2") + (0,) * 8)
    report = verification.null_control_experiment(config, state0)
    assert report.synthesis.precision_trace == (256,)
    assert calls == list(range(1, 11))
    assert len(built) == 1


def test_experiment_reports_oracle_degree():
    state0 = ModalState.dirichlet(values=(1, 0), velocities=(0, "0.3"))
    report = null_control_experiment(small_config(), state0, tolerance=1e-6)
    assert report.oracle_degree == report.trajectory.degree >= 64
    doc = report.to_json_dict()
    assert doc["oracle_degree"] == report.oracle_degree
    assert list(doc)[6:8] == ["oracle_deviation", "oracle_degree"]
