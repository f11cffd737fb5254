"""Moment assembly: row structure, targets, screening, collision handling."""
from fractions import Fraction

import mpmath as mp
import pytest

from beamctl import closed_form, moment_problem
from beamctl.cli import build_initial_state
from beamctl.errors import ResonanceDefect, UncontrollableMode
from beamctl.modal_dynamics import ModalState
from beamctl.moment_problem import (
    assemble,
    data_l2_norm,
    neumann_admissibility,
)
from beamctl.spectrum import BeamConfig, Boundary
from beamctl.synthesis import solve_min_norm
from reference_calculus import gamma_route_targets, kernel_value


def dirichlet_config(rho, n_modes, bits=256, horizon=Fraction(1)):
    return BeamConfig(Boundary.DIRICHLET, Fraction(rho), n_modes, horizon, bits)


def test_row_structure_underdamped():
    cfg = dirichlet_config(1, 2)
    st = ModalState.dirichlet(values=(1, 0), velocities=(0, 0.5))
    system = assemble(cfg, st)
    assert system.labels == ("flat-slope", "flat-value",
                             "mode1-cos", "mode1-sin", "mode2-cos", "mode2-sin")
    assert system.row_modes == ((), (), (1,), (1,), (2,), (2,))
    kinds = tuple(k.kind for k in system.kernels)
    assert kinds == ("const", "linear", "expcos", "expsin", "expcos", "expsin")
    # flatness rows target zero
    assert system.targets[0] == 0 and system.targets[1] == 0


def test_row_structure_critical():
    cfg = dirichlet_config(2, 2)
    st = ModalState.dirichlet(values=(1, 0), velocities=(0, 0))
    system = assemble(cfg, st)
    assert system.labels[2:] == ("mode1-decay", "mode1-drift",
                                 "mode2-decay", "mode2-drift")
    kinds = tuple(k.kind for k in system.kernels[2:])
    assert kinds == ("exp", "polyexp", "exp", "polyexp")
    assert float(system.kernels[2].rate) == -1.0
    assert float(system.kernels[4].rate) == -4.0


def test_solved_control_satisfies_every_moment():
    # substitution identity: the synthesized curvature must reproduce each
    # target as an actual integral, checked here by quadrature
    cfg = dirichlet_config(1, 3, bits=256)
    st = ModalState.dirichlet(values=(1, 0.3, 0), velocities=(0, 0.2, 0))
    system = assemble(cfg, st)
    report = solve_min_norm(system)
    sig = report.control
    with mp.workprec(300):
        T = mp.mpf(1)

        def fpp(s):
            return mp.fsum(c * kernel_value(k, s, T)
                           for c, k in zip(sig.coefficients, sig.kernels))

        for kernel, target, label in zip(system.kernels, system.targets,
                                         system.labels):
            q = mp.quad(lambda s: fpp(s) * kernel_value(kernel, s, T), [0, T])
            assert abs(q - target) < mp.mpf(10) ** -25, label


def test_overdamped_rows_and_collision_merge():
    # r = 2: slow family n^2/2 meets fast family 2 m^2 at (2,1) and (4,2);
    # with data away from the colliding modes the merged rows agree at zero
    cfg = dirichlet_config(Fraction(5, 2), 4)
    st = ModalState.dirichlet(values=(0, 0, 1, 0), velocities=(0, 0, 0, 0))
    system = assemble(cfg, st)
    assert len(system.collisions) == 2
    assert system.n_rows == 2 + 8 - 2
    merged = [lab for lab in system.labels if "+" in lab]
    assert len(merged) == 2
    assert any("mode2" in lab and "mode1" in lab for lab in merged)


def test_collision_with_incompatible_targets_raises():
    cfg = dirichlet_config(Fraction(5, 2), 2)
    st = ModalState.dirichlet(values=(0.4, -0.7), velocities=(0.1, 0))
    with pytest.raises(ResonanceDefect) as info:
        assemble(cfg, st)
    err = info.value
    assert err.defect > 0
    assert err.data_norm > 0
    assert err.pair == (1, 2)


def test_neumann_even_mode_screening():
    cfg = BeamConfig(Boundary.NEUMANN, Fraction(1), 4, Fraction(1))
    st = ModalState.neumann(values=(0, 0, 0.3, 0, 0), velocities=(0,) * 5)
    with pytest.raises(UncontrollableMode) as info:
        assemble(cfg, st)
    assert info.value.mode == 2


def test_neumann_zero_mode_screening_and_residuals():
    cfg = BeamConfig(Boundary.NEUMANN, Fraction(1), 2, Fraction(1))
    st = ModalState.neumann(values=(0.7, 0, 0), velocities=(0.2, 0, 0))
    with pytest.raises(UncontrollableMode) as info:
        assemble(cfg, st)
    assert info.value.mode == 0
    r0, r1 = neumann_admissibility(st)
    # mean of the eigenfunction expansion: integral = sqrt(pi) * coefficient
    with mp.workprec(300):
        assert abs(r0 - 0.7 * mp.sqrt(mp.pi)) < 1e-12
        assert abs(r1 - 0.2 * mp.sqrt(mp.pi)) < 1e-12


def test_neumann_odd_data_assembles():
    cfg = BeamConfig(Boundary.NEUMANN, Fraction(1), 3, Fraction(1))
    st = ModalState.neumann(values=(0, 1, 0, 0.2), velocities=(0, 0, 0, 0))
    system = assemble(cfg, st)
    # even mode is invisible to the boundary trace and must be dropped
    assert 2 in system.dropped_modes
    assert all(2 not in modes for modes in system.row_modes)


def test_with_precision_rebuilds_consistently():
    cfg = dirichlet_config(1, 2, bits=128)
    st = ModalState.dirichlet(values=(1, 0), velocities=(0, 0.5))
    system = assemble(cfg, st)
    lifted = system.with_precision(512)
    assert lifted.config.precision_bits == 512
    assert lifted.labels == system.labels
    with mp.workprec(140):
        for a, b in zip(lifted.targets, system.targets):
            assert abs(a - b) <= max(abs(b), mp.mpf(1)) * mp.mpf(2) ** -120


def test_data_l2_norm():
    st = ModalState.dirichlet(values=(3, 0), velocities=(0, 4))
    assert abs(data_l2_norm(st) - 5.0) < 1e-13


# (boundary, rho, modes, horizon, data for build_initial_state at seed 1)
TARGET_CASES = {
    "rho1-24modes": (Boundary.DIRICHLET, Fraction(1), 24, Fraction(1), "random"),
    "rho2-24modes": (Boundary.DIRICHLET, Fraction(2), 24, Fraction(1), "random"),
    "rho3-24modes": (Boundary.DIRICHLET, Fraction(3), 24, Fraction(1), "random"),
    "rho-2-plus-2^-200": (Boundary.DIRICHLET, 2 + Fraction(1, 2 ** 200), 8, Fraction(1),
                          "random"),
    "rho5/2-merged": (Boundary.DIRICHLET, Fraction(5, 2), 4, Fraction(1),
                      "1:1e-12:0,3:1:0.5,4:0:2e-12"),
    "neumann-rho1": (Boundary.NEUMANN, Fraction(1), 7, Fraction(1), "random"),
    "horizon-1/1000": (Boundary.DIRICHLET, Fraction(1), 8, Fraction(1, 1000), "random"),
}


def target_case(name, bits=256):
    boundary, rho, modes, horizon, data = TARGET_CASES[name]
    config = BeamConfig(boundary, rho, modes, horizon, bits)
    return config, build_initial_state(data, config, seed=1)


@pytest.mark.parametrize("name", TARGET_CASES)
def test_targets_hold_working_precision_against_the_free_flow(name):
    """Each target is within 2^-(bits - 8) of its row scale of the targets by
    the free flow at T (reference_calculus.gamma_route_targets), at 4x the
    precision: ρ=3's fast rows, which that route gets by cancelling the slow
    root's part, and ρ = 2 + 2^-200, whose fundamental solutions divide by
    l+ - l- ~ n^2 2^-99, included.  A merged row holds the mean of its modes."""
    bits = 256
    config, state0 = target_case(name, bits)
    system = assemble(config, state0)
    reference = gamma_route_targets(config, state0, 4 * bits)
    assert system.collisions if name == "rho5/2-merged" else not system.collisions
    with mp.workprec(4 * bits):
        for label, target in zip(system.labels[2:], system.targets[2:]):
            rows = [reference[part] for part in label.split("+")]
            expect = sum(t for t, _ in rows) / len(rows)
            size = max(scale for _, scale in rows)
            assert abs(target - expect) <= size * mp.mpf(2) ** (8 - bits), label


@pytest.mark.parametrize("name", TARGET_CASES)
def test_assembly_never_evaluates_the_free_flow(monkeypatch, name):
    """Targets come from the data alone, so the closed-form route's final state
    shares nothing with them: assembly runs with closed_form_state unavailable."""
    config, state0 = target_case(name)

    def unavailable(*args, **kwargs):
        raise AssertionError("assembly evaluated the free flow")

    monkeypatch.setattr(closed_form, "closed_form_state", unavailable)
    monkeypatch.setattr(moment_problem, "closed_form_state", unavailable, raising=False)
    assert assemble(config, state0).n_rows > 2
