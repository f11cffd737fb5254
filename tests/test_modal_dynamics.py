"""Modal flows: free evolution, Duhamel responses, the RK4 oracle."""
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from beamctl.errors import StepSizeError
from beamctl.kernels import ControlSignal, Kernel, kernel_value
from beamctl.modal_dynamics import (
    ModalState,
    default_steps,
    duhamel_response,
    forced_state_at,
    forcing_resolution_steps,
    free_state_at,
    simulate_oracle,
    state_pair_norm,
    write_trajectory_csv,
)
from beamctl.spectrum import BeamConfig, Boundary, boundary_trace_coefficients, mode_eigenvalues


def unit_control(bits=256):
    # f'' = 1, so f(t) = t^2/2
    return ControlSignal(kernels=(Kernel("const"),), coefficients=(mp.mpf(1),),
                         horizon=Fraction(1), precision_bits=bits)


def test_modal_state_shapes():
    st = ModalState.dirichlet(values=(1, 0.5), velocities=(0, 0))
    assert st.n_modes == 2 and list(st.modes) == [1, 2]
    assert st.mode_index(2) == 1
    stn = ModalState.neumann(values=(0.1, 1, 0), velocities=(0, 0, 0))
    assert stn.n_modes == 2               # index 0 is the zero mode
    assert list(stn.modes) == [0, 1, 2]
    assert stn.mode_index(1) == 1
    assert float(stn.amplitude(0)) > 0


def test_free_flow_underdamped_oracle():
    # rho=1, n=1, u0=1, u1=0: u(t) = e^{-t/2}(cos(sqrt3 t/2) + sin(sqrt3 t/2)/sqrt3)
    st = ModalState.dirichlet(values=(1,), velocities=(0,))
    eigs = (mode_eigenvalues(Fraction(1), 1, 256),)
    out = free_state_at(st, eigs, 1, 256)
    assert abs(float(out.values[0]) - 0.659700153392) < 1e-11
    with mp.workprec(300):
        expect = mp.exp(mp.mpf(-1) / 2) * (mp.cos(mp.sqrt(3) / 2)
                                           + mp.sin(mp.sqrt(3) / 2) / mp.sqrt(3))
        assert abs(out.values[0] - expect) < mp.mpf(2) ** -240


def test_free_flow_critical_oracle():
    # rho=2, n=1, u0=1, u1=0: u(t) = (1+t) e^{-t}
    st = ModalState.dirichlet(values=(1,), velocities=(0,))
    eigs = (mode_eigenvalues(Fraction(2), 1, 256),)
    out = free_state_at(st, eigs, 1, 256)
    with mp.workprec(300):
        assert abs(out.values[0] - 2 / mp.e) < mp.mpf(2) ** -240
        # velocity: u'(t) = -t e^{-t}
        assert abs(out.velocities[0] + 1 / mp.e) < mp.mpf(2) ** -240


def test_free_flow_overdamped_oracle():
    # rho=5/2, n=1: u(t) = (4/3) e^{-t/2} - (1/3) e^{-2t}
    st = ModalState.dirichlet(values=(1,), velocities=(0,))
    eigs = (mode_eigenvalues(Fraction(5, 2), 1, 256),)
    out = free_state_at(st, eigs, 1, 256)
    with mp.workprec(300):
        expect = mp.mpf(4) / 3 * mp.exp(mp.mpf(-1) / 2) - mp.exp(-2) / 3
        assert abs(out.values[0] - expect) < mp.mpf(2) ** -240


def test_free_flow_neumann_zero_mode_drifts():
    # the constant mode has no restoring force: u_0(t) = u0 + u1 t exactly
    st = ModalState.neumann(values=(0.25, 1, 0), velocities=(0.5, 0, 0.3))
    eigs = tuple(mode_eigenvalues(Fraction(1), n, 256) for n in (1, 2))
    out = free_state_at(st, eigs, 2, 256)
    assert out.boundary is Boundary.NEUMANN and len(out.values) == 3
    assert out.values[0] == mp.mpf("1.25")
    assert out.velocities[0] == mp.mpf("0.5")


def test_duhamel_response_frozen_oracle():
    # unit curvature driving mode 1 at rho=1 through the Dirichlet trace
    e = mode_eigenvalues(Fraction(1), 1, 256)
    traces = boundary_trace_coefficients(Boundary.DIRICHLET, 1, 256)
    val, vel = duhamel_response(e, traces.coefficient(1), unit_control(), 1)
    assert abs(float(val) + 0.271519993652) < 1e-11


def test_duhamel_response_matches_quadrature():
    with mp.workprec(192):
        sig = ControlSignal(
            kernels=(Kernel("expcos", decay=mp.mpf(-2), freq=mp.mpf(5)),
                     Kernel("linear")),
            coefficients=(mp.mpf("1.3"), mp.mpf("-0.4")),
            horizon=Fraction(1), precision_bits=192)
        e = mode_eigenvalues(Fraction(1), 2, 192)
        x = mp.mpf("0.7")
        t = mp.mpf("0.8")

        def fpp(s):
            return sum(c * kernel_value(k, s, mp.mpf(1))
                       for c, k in zip(sig.coefficients, sig.kernels))

        val, vel = duhamel_response(e, x, sig, t)
        q = mp.quad(lambda s: fpp(s) * mp.re(
            (mp.e ** (e.lambda_plus * (t - s)) - mp.e ** (e.lambda_minus * (t - s)))
            / (e.lambda_plus - e.lambda_minus)), [0, t])
        assert abs(val + x * q) < mp.mpf(2) ** -140


def test_duhamel_critical_matches_quadrature():
    with mp.workprec(192):
        sig = ControlSignal(
            kernels=(Kernel("exp", rate=mp.mpf(-1)),),
            coefficients=(mp.mpf(2),),
            horizon=Fraction(1), precision_bits=192)
        e = mode_eigenvalues(Fraction(2), 2, 192)
        t = mp.mpf("0.6")
        val, vel = duhamel_response(e, mp.mpf(1), sig, t)
        q = mp.quad(lambda s: 2 * mp.exp(-(1 - s)) * (t - s) * mp.exp(-4 * (t - s)),
                    [0, t])
        assert abs(val + q) < mp.mpf(2) ** -140


def test_forced_state_zero_at_time_zero():
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 3, Fraction(1))
    out = forced_state_at(cfg, unit_control(), 0)
    for v, w in zip(out.values, out.velocities):
        assert abs(v) < mp.mpf(2) ** -200
        assert abs(w) < mp.mpf(2) ** -200


def test_sobolev_and_pair_norms():
    st = ModalState.dirichlet(values=(0, 1, 0), velocities=(0, 0, 0))
    assert abs(state_pair_norm(st, 3) - 8.0) < 1e-13       # 2^3
    st2 = ModalState.dirichlet(values=(0, 0, 0), velocities=(0, 2, 0))
    assert abs(state_pair_norm(st2, 3) - 4.0) < 1e-13      # 2^(3-2) * 2
    st3 = ModalState.neumann(values=(0.5, 0, 0), velocities=(0, 0, 0))
    assert abs(state_pair_norm(st3, 4) - 0.5) < 1e-13      # unit weight on mode 0
    st4 = ModalState.neumann(values=(0, 0, 0), velocities=(0.5, 0, 0))
    assert abs(state_pair_norm(st4, 4) - 0.5) < 1e-13      # unit weight on mode 0


def test_oracle_free_flow_matches_closed_form():
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 3, Fraction(1))
    st = ModalState.dirichlet(values=(1, 0, -0.4), velocities=(0, 0.3, 0))
    traj = simulate_oracle(cfg, st, None)
    eigs = tuple(mode_eigenvalues(Fraction(1), n, 256) for n in (1, 2, 3))
    expect = free_state_at(st, eigs, 1, 256)
    got = traj.final_state()
    for a, b in zip(got.values, expect.values):
        assert abs(float(a) - float(b)) < 1e-11
    for a, b in zip(got.velocities, expect.velocities):
        assert abs(float(a) - float(b)) < 1e-10


def test_oracle_forced_matches_closed_form():
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 2, Fraction(1))
    st = ModalState.dirichlet(values=(0.2, -0.1), velocities=(0, 0))
    sig = unit_control()
    traj = simulate_oracle(cfg, st, sig)
    free = free_state_at(st, tuple(mode_eigenvalues(Fraction(1), n, 256)
                                   for n in (1, 2)), 1, 256)
    forced = forced_state_at(cfg, sig, 1)
    got = traj.final_state()
    for i in range(2):
        expect_v = float(free.values[i]) + float(forced.values[i])
        expect_w = float(free.velocities[i]) + float(forced.velocities[i])
        assert abs(float(got.values[i]) - expect_v) < 1e-9
        assert abs(float(got.velocities[i]) - expect_w) < 1e-8


def test_oracle_rejects_unstable_step_count():
    # mode 6 decays at rate |lambda| = 36; four RK4 steps put lambda h far
    # outside the stability region and the growth guard must trip
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 6, Fraction(1))
    st = ModalState.dirichlet(values=(0, 0, 0, 0, 0, 1), velocities=(0,) * 6)
    with pytest.raises(StepSizeError):
        simulate_oracle(cfg, st, None, steps=4)


def test_step_choices_scale_with_forcing():
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 4, Fraction(1))
    base = default_steps(cfg)
    assert base >= 4000
    small = ControlSignal(kernels=(Kernel("const"),), coefficients=(mp.mpf(1),),
                          horizon=Fraction(1), precision_bits=256)
    big = ControlSignal(kernels=(Kernel("exp", rate=mp.mpf(-1)),
                                 Kernel("exp", rate=mp.mpf("-1.0001"))),
                        coefficients=(mp.mpf(10) ** 8, -mp.mpf(10) ** 8),
                        horizon=Fraction(1), precision_bits=256)
    s_small = forcing_resolution_steps(cfg, small, 1e-8)
    s_big = forcing_resolution_steps(cfg, big, 1e-8)
    assert s_small >= base
    assert s_big >= s_small
    # tighter targets cannot lower the count
    assert forcing_resolution_steps(cfg, big, 1e-10) >= s_big


def test_trajectory_csv_layout(tmp_path):
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 2, Fraction(1))
    st = ModalState.dirichlet(values=(1, 0), velocities=(0, 0))
    traj = simulate_oracle(cfg, st, None, steps=4000, samples=11)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,n,value,velocity"
    assert len(lines) == 1 + 11 * 2
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and int(first[1]) == 1
    assert abs(float(first[2]) - 1.0) < 1e-15
    # Neumann: the constant mode is listed first, as n = 0
    cfg = BeamConfig(Boundary.NEUMANN, Fraction(1), 2, Fraction(1))
    st = ModalState.neumann(values=(0.5, 1, 0), velocities=(0, 0, 0))
    traj = simulate_oracle(cfg, st, None, steps=4000, samples=11)
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 11 * 3
    assert [int(line.split(",")[1]) for line in lines[1:4]] == [0, 1, 2]
    assert abs(float(lines[1].split(",")[2]) - 0.5) < 1e-15
