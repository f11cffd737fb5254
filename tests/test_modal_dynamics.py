"""Modal flows: free evolution, Duhamel responses, the spectral oracle."""
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from beamctl import closed_form, modal_dynamics
from beamctl.cli import write_trajectory_csv
from beamctl.closed_form import closed_form_state
from beamctl.errors import SamplingError
from beamctl.kernels import ControlSignal, Kernel
from beamctl.modal_dynamics import ModalState, simulate_oracle, state_pair_norm
from beamctl.moment_problem import assemble
from beamctl.spectrum import BeamConfig, Boundary, Spectrum, mode_eigenvalues
from reference_calculus import convolve, curvature


def unit_control(bits=256):
    # f'' = 1, so f(t) = t^2/2
    return ControlSignal(kernels=(Kernel("const"),), coefficients=(mp.mpf(1),),
                         horizon=Fraction(1), precision_bits=bits)


def rest(horizon=Fraction(1)):
    """The zero control: on both routes, the free flow."""
    return ControlSignal((Kernel("const"),), (0,), horizon)


def test_modal_state_shapes():
    st = ModalState.dirichlet(values=(1, 0.5), velocities=(0, 0))
    assert st.n_modes == 2 and list(st.modes) == [1, 2]
    assert st.mode_index(2) == 1
    stn = ModalState.neumann(values=(0.1, 1, 0), velocities=(0, 0, 0))
    assert stn.n_modes == 2               # index 0 is the zero mode
    assert list(stn.modes) == [0, 1, 2]
    assert stn.mode_index(1) == 1
    assert float(stn.amplitude(0)) > 0


def one_mode(rho, bits=256):
    return BeamConfig(Boundary.DIRICHLET, rho, 1, Fraction(1), bits)


def test_free_flow_underdamped_oracle():
    # rho=1, n=1, u0=1, u1=0: u(t) = e^{-t/2}(cos(sqrt3 t/2) + sin(sqrt3 t/2)/sqrt3)
    st = ModalState.dirichlet(values=(1,), velocities=(0,))
    out = closed_form_state(one_mode(Fraction(1)), st, rest())
    assert abs(float(out.values[0]) - 0.659700153392) < 1e-11
    with mp.workprec(300):
        expect = mp.exp(mp.mpf(-1) / 2) * (mp.cos(mp.sqrt(3) / 2)
                                           + mp.sin(mp.sqrt(3) / 2) / mp.sqrt(3))
        assert abs(out.values[0] - expect) < mp.mpf(2) ** -240


def test_free_flow_critical_oracle():
    # rho=2, n=1, u0=1, u1=0: u(t) = (1+t) e^{-t}
    st = ModalState.dirichlet(values=(1,), velocities=(0,))
    out = closed_form_state(one_mode(Fraction(2)), st, rest())
    with mp.workprec(300):
        assert abs(out.values[0] - 2 / mp.e) < mp.mpf(2) ** -240
        # velocity: u'(t) = -t e^{-t}
        assert abs(out.velocities[0] + 1 / mp.e) < mp.mpf(2) ** -240


def test_free_flow_overdamped_oracle():
    # rho=5/2, n=1: u(t) = (4/3) e^{-t/2} - (1/3) e^{-2t}
    st = ModalState.dirichlet(values=(1,), velocities=(0,))
    out = closed_form_state(one_mode(Fraction(5, 2)), st, rest())
    with mp.workprec(300):
        expect = mp.mpf(4) / 3 * mp.exp(mp.mpf(-1) / 2) - mp.exp(-2) / 3
        assert abs(out.values[0] - expect) < mp.mpf(2) ** -240


def test_free_flow_neumann_zero_mode_drifts():
    # the constant mode has no restoring force: u_0(t) = u0 + u1 t exactly
    cfg = BeamConfig(Boundary.NEUMANN, Fraction(1), 2, Fraction(2))
    st = ModalState.neumann(values=(0.25, 1, 0), velocities=(0.5, 0, 0.3))
    out = closed_form_state(cfg, st, rest(cfg.horizon))
    assert out.boundary is Boundary.NEUMANN and len(out.values) == 3
    assert out.values[0] == mp.mpf("1.25")
    assert out.velocities[0] == mp.mpf("0.5")


def curved_neumann_case():
    """Neumann, 3 modes, T = 3/2, zero mode (0.25, 0.5), under a control with
    real and complex kernel parts."""
    cfg = BeamConfig(Boundary.NEUMANN, Fraction(1), 3, Fraction(3, 2))
    sig = ControlSignal(
        kernels=(Kernel("const"), Kernel("linear"), Kernel("exp", rate=mp.mpf(-3)),
                 Kernel("expcos", decay=mp.mpf(-2), freq=mp.mpf(5)),
                 Kernel("expsin", decay=mp.mpf(-1), freq=mp.mpf(3))),
        coefficients=(mp.mpf("0.7"), mp.mpf(-2), mp.mpf("1.3"), mp.mpf(40), mp.mpf(-9)),
        horizon=Fraction(3, 2))
    st = ModalState.neumann(values=(0.25, 1, 0, 0.5), velocities=(0.5, 0, 0.3, 0))
    return cfg, sig, st


def test_neumann_zero_mode_drifts_exactly_under_a_control():
    # the lifting must cancel the zero mode's Duhamel response J_h = f exactly,
    # complex kernel parts included
    cfg, sig, st = curved_neumann_case()
    out = closed_form_state(cfg, st, sig)
    assert out.values[0] == 1 and out.velocities[0] == mp.mpf("0.5")
    assert abs(mp.re(convolve(sig, 1, 0, mp.mpf("1.5")))) > 0.1   # the lifting is not trivially 0


def test_oracle_neumann_zero_mode_drifts_exactly_under_a_control():
    # with no damping and no stiffness the zero mode's u'' = v'' + x_0 f'' is
    # 0 exactly, so the oracle's zero mode follows u0 + u1 t to roundoff
    # however curved the control
    cfg, sig, st = curved_neumann_case()
    u0, u1 = float(st.values[0]), float(st.velocities[0])
    traj = simulate_oracle(cfg, st, sig)
    bound = 4 * np.finfo(float).eps * max(abs(u0), abs(u1) * float(cfg.horizon))
    for t, values, velocities in zip(traj.times, traj.values, traj.velocities):
        assert abs(values[0] - (u0 + u1 * t)) <= bound, t
        assert abs(velocities[0] - u1) <= bound, t


def duhamel_part(cfg, control, n):
    """Forced state of mode n at T from zero data, less the lifting x_n f(T)."""
    out = closed_form_state(cfg, ModalState(cfg.boundary, (0,) * cfg.n_modes,
                                            (0,) * cfg.n_modes), control)
    x = cfg.spectrum.traces[n - 1]
    with mp.workprec(cfg.precision_bits + 64):
        return out.values[n - 1] - x * mp.re(convolve(control, 1, 0, cfg.horizon)), x


def test_duhamel_response_frozen_oracle():
    # unit curvature driving mode 1 at rho=1 through the Dirichlet trace
    val, _ = duhamel_part(one_mode(Fraction(1)), unit_control(), 1)
    assert abs(float(val) + 0.271519993652) < 1e-11


def test_duhamel_response_matches_quadrature():
    with mp.workprec(192):
        sig = ControlSignal(
            kernels=(Kernel("expcos", decay=mp.mpf(-2), freq=mp.mpf(5)),
                     Kernel("linear")),
            coefficients=(mp.mpf("1.3"), mp.mpf("-0.4")),
            horizon=Fraction(4, 5), precision_bits=192)
        e = mode_eigenvalues(Fraction(1), 2, 192)
        t = mp.mpf(4) / 5
        cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 2, Fraction(4, 5), 192)
        val, x = duhamel_part(cfg, sig, 2)
        q = mp.quad(lambda s: curvature(sig, s) * mp.re(
            (mp.e ** (e.lambda_plus * (t - s)) - mp.e ** (e.lambda_minus * (t - s)))
            / (e.lambda_plus - e.lambda_minus)), [0, t])
        assert abs(val + x * q) < mp.mpf(2) ** -140


def test_duhamel_critical_matches_quadrature():
    with mp.workprec(192):
        sig = ControlSignal(
            kernels=(Kernel("exp", rate=mp.mpf(-1)),),
            coefficients=(mp.mpf(2),),
            horizon=Fraction(3, 5), precision_bits=192)
        t = mp.mpf(3) / 5
        cfg = BeamConfig(Boundary.DIRICHLET, Fraction(2), 2, Fraction(3, 5), 192)
        val, x = duhamel_part(cfg, sig, 2)
        q = mp.quad(lambda s: 2 * mp.exp(-(t - s)) * (t - s) * mp.exp(-4 * (t - s)),
                    [0, t])
        assert abs(val + x * q) < mp.mpf(2) ** -140


def test_sobolev_and_pair_norms():
    st = ModalState.dirichlet(values=(0, 1, 0), velocities=(0, 0, 0))
    assert abs(state_pair_norm(st, 3) - 8.0) < 1e-13       # 2^3
    st2 = ModalState.dirichlet(values=(0, 0, 0), velocities=(0, 2, 0))
    assert abs(state_pair_norm(st2, 3) - 4.0) < 1e-13      # 2^(3-2) * 2
    st3 = ModalState.neumann(values=(0.5, 0, 0), velocities=(0, 0, 0))
    assert abs(state_pair_norm(st3, 4) - 0.5) < 1e-13      # unit weight on mode 0
    st4 = ModalState.neumann(values=(0, 0, 0), velocities=(0.5, 0, 0))
    assert abs(state_pair_norm(st4, 4) - 0.5) < 1e-13      # unit weight on mode 0


@pytest.mark.parametrize("value", ["1.7e300", "3e-300", "2.2250738585072014e-308",
                                   "2.2250738585072e-308", "2.880353e-318", "1e-330"])
def test_pair_norm_keeps_its_digits_below_the_normal_range(value):
    """A norm in float64's normal range keeps its float repr; one below it,
    where the float holds a few bits or none, reports 17 digits of the mpf."""
    st = ModalState.dirichlet(values=(value, 0), velocities=(0, "0"))
    norm = state_pair_norm(st, 3)                   # mode 1 has weight 1
    exact = mp.sqrt(mp.mpf(st.values[0]) ** 2)
    assert float(norm) == float(exact)
    if exact >= np.finfo(np.float64).tiny:
        assert type(norm) is float
        return
    mantissa = repr(norm).split("e")[0].replace(".", "").lstrip("0")
    assert len(mantissa) >= 15
    with mp.workprec(200):
        assert abs(mp.mpf(repr(norm)) - exact) <= mp.mpf(10) ** -15 * exact


def test_oracle_free_flow_matches_closed_form():
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 3, Fraction(1))
    st = ModalState.dirichlet(values=(1, 0, -0.4), velocities=(0, 0.3, 0))
    traj = simulate_oracle(cfg, st, rest())
    expect = closed_form_state(cfg, st, rest())
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
    expect = closed_form_state(cfg, st, sig)
    got = traj.final_state()
    for i in range(2):
        assert abs(float(got.values[i]) - float(expect.values[i])) < 1e-9
        assert abs(float(got.velocities[i]) - float(expect.velocities[i])) < 1e-8


def test_oracle_free_flow_matches_closed_form_at_24_modes():
    """Mode 24 decays and turns at |lambda| = 576 over T = 1: a fixed degree of
    64 misses that free flow by about 6e-3, and the oracle must raise its
    degree until every modal series is resolved."""
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 24, Fraction(1))
    rng = np.random.default_rng(24)
    scale = np.arange(1, 25) ** 2.0
    st = ModalState.dirichlet(values=tuple(rng.standard_normal(24) / scale),
                              velocities=tuple(rng.standard_normal(24) / scale))
    traj = simulate_oracle(cfg, st, rest())
    assert traj.degree > 64
    got, expect = traj.final_state(), closed_form_state(cfg, st, rest())
    for a, b in zip(got.values + got.velocities, expect.values + expect.velocities):
        assert abs(float(a) - float(b)) <= 1e-12


def test_oracle_reads_no_root_and_no_moment(monkeypatch):
    """The oracle's inputs are rho, n, the traces and the proxy's f'' series:
    it runs with the spectrum's roots and the control's moments unavailable."""
    cfg = BeamConfig(Boundary.NEUMANN, Fraction(3), 3, Fraction(1))
    st = ModalState.neumann(values=(0.1, 1, 0, 0.3), velocities=(0.2, 0, 0.5, 0))
    expect = closed_form_state(cfg, st, curved_control())

    def unavailable(*args, **kwargs):
        raise AssertionError("the oracle read the closed-form route's calculus")

    monkeypatch.setattr(Spectrum, "roots", unavailable)
    monkeypatch.setattr(closed_form, "control_moments", unavailable)
    monkeypatch.setattr(closed_form, "_moment_set", unavailable)
    got = simulate_oracle(cfg, st, curved_control()).final_state()
    for a, b in zip(got.values + got.velocities, expect.values + expect.velocities):
        assert abs(float(a) - float(b)) <= 1e-12


def test_closed_form_reads_no_sample_and_no_proxy(monkeypatch):
    """The mirror case: the closed form gives the same state with the oracle
    route's proxy, term table and node sums unavailable."""
    cfg = BeamConfig(Boundary.NEUMANN, Fraction(3), 3, Fraction(1))
    st = ModalState.neumann(values=(0.1, 1, 0, 0.3), velocities=(0.2, 0, 0.5, 0))
    expect = closed_form_state(cfg, st, curved_control())

    def unavailable(*args, **kwargs):
        raise AssertionError("the closed form read the oracle route's calculus")

    monkeypatch.setattr(ControlSignal, "proxy", property(unavailable))
    monkeypatch.setattr(ControlSignal, "term_table", property(unavailable))
    monkeypatch.setattr(ControlSignal, "_sample_extended", unavailable)
    with pytest.raises(AssertionError, match="oracle route"):
        simulate_oracle(cfg, st, curved_control())
    assert closed_form_state(cfg, st, curved_control()) == expect


def test_oracle_refuses_a_series_unresolved_at_the_node_cap(monkeypatch):
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 24, Fraction(1))
    st = ModalState.dirichlet(values=(0,) * 23 + (1,), velocities=(0,) * 24)
    monkeypatch.setattr(modal_dynamics, "_MAX_NODES", 128)
    with pytest.raises(SamplingError) as got:
        simulate_oracle(cfg, st, rest())
    assert got.value.degree == 128
    assert got.value.observed_error > got.value.tolerance


def test_every_route_checks_state_and_config_alike():
    """The closed form, the oracle and assembly refuse a state of the wrong
    boundary or mode count with one message."""
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 2, Fraction(1))
    routes = (lambda st: closed_form_state(cfg, st, rest()),
              lambda st: simulate_oracle(cfg, st, rest()), lambda st: assemble(cfg, st))
    for state, text in ((ModalState.neumann((0, 1, 0), (0, 0, 0)), "neumann state with n_modes=2"),
                        (ModalState.dirichlet((1,), (0,)), "dirichlet state with n_modes=1")):
        messages = set()
        for route in routes:
            with pytest.raises(ValueError, match=text) as info:
                route(state)
            messages.add(str(info.value))
        assert len(messages) == 1


def test_trajectory_csv_layout(tmp_path):
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 2, Fraction(1))
    st = ModalState.dirichlet(values=(1, 0), velocities=(0, 0))
    traj = simulate_oracle(cfg, st, rest(), samples=11)
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
    traj = simulate_oracle(cfg, st, rest(), samples=11)
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 11 * 3
    assert [int(line.split(",")[1]) for line in lines[1:4]] == [0, 1, 2]
    assert abs(float(lines[1].split(",")[2]) - 0.5) < 1e-15


def curved_control(horizon=Fraction(1)):
    return ControlSignal(kernels=(Kernel("exp", rate=mp.mpf(-2)), Kernel("linear")),
                         coefficients=(mp.mpf("1.3"), mp.mpf("-0.4")),
                         horizon=horizon, precision_bits=128)


@pytest.mark.parametrize("samples", [4000, 4094, 4199])
def test_trajectory_has_exactly_the_requested_rows(samples):
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 2, Fraction(1))
    st = ModalState.dirichlet(values=(1, 0), velocities=(0, 0))
    zero = rest()
    assert len(simulate_oracle(cfg, st, zero).times) == 201
    for count in (2, 11, 201, samples):
        traj = simulate_oracle(cfg, st, zero, samples=count)
        assert traj.times == tuple(np.linspace(0.0, 1.0, count).tolist())
        assert traj.times[-1] == 1.0
        assert len(traj.values) == len(traj.velocities) == count
    with pytest.raises(ValueError):
        simulate_oracle(cfg, st, zero, samples=1)


def test_oracle_never_evaluates_the_proxy(monkeypatch):
    # the oracle reads only the proxy's f'' coefficients and integrates the
    # physical state itself: neither a refusal at the node cap nor a
    # resolved run evaluates f or f'
    calls = []
    proxy_type = type(curved_control().proxy)
    evaluate = proxy_type.__call__

    def spy(self, times, *args, **kwargs):
        calls.append(len(times))
        return evaluate(self, times, *args, **kwargs)

    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 24, Fraction(1))
    st = ModalState.dirichlet(values=(0,) * 23 + (1,), velocities=(0,) * 24)
    control = curved_control()
    control.proxy                      # built here, outside the spy
    monkeypatch.setattr(proxy_type, "__call__", spy)
    monkeypatch.setattr(modal_dynamics, "_MAX_NODES", 128)
    with pytest.raises(SamplingError):
        simulate_oracle(cfg, st, control)
    assert calls == []
    monkeypatch.undo()
    monkeypatch.setattr(proxy_type, "__call__", spy)
    simulate_oracle(cfg, st, control, samples=11)
    assert calls == []


def test_final_state_does_not_depend_on_samples():
    cfg = BeamConfig(Boundary.NEUMANN, Fraction(3), 3, Fraction(1))
    st = ModalState.neumann(values=(0.1, 1, 0, 0.3), velocities=(0.2, 0, 0.5, 0))
    few = simulate_oracle(cfg, st, curved_control(), samples=2)
    many = simulate_oracle(cfg, st, curved_control(), samples=201)
    assert len(few.times) == 2
    assert few.final_state() == many.final_state()


def test_oracle_carries_data_near_the_float64_limit():
    # squaring such a state overflows float64 (1e160^2 > 1.8e308); the
    # oracle never squares it, so the run must end where the closed form does
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 3, Fraction(1))
    st = ModalState.dirichlet(values=(1e160, -3e159, 2e159), velocities=(0, 5e159, -4e159))
    got = simulate_oracle(cfg, st, rest()).final_state()
    expect = closed_form_state(cfg, st, rest())
    for a, b in zip(got.values + got.velocities, expect.values + expect.velocities):
        assert abs(float(a) - float(b)) <= 1e-10 * abs(float(b))


def crosscheck_case(boundary, rho, n_modes=3, horizon="1", tiny=False):
    name = f"{boundary}-rho{rho}-{n_modes}-modes-T{horizon}" + ("-tiny-data" if tiny else "")
    return pytest.param(Boundary(boundary), Fraction(rho), n_modes, Fraction(horizon), tiny,
                        id=name)


@pytest.mark.parametrize("boundary,rho,n_modes,horizon,tiny", [
    *[crosscheck_case("dirichlet", rho) for rho in ("1", "2", "3", "7/3")],
    *[crosscheck_case("neumann", rho) for rho in ("1", "5/2")],
    crosscheck_case("dirichlet", "1", tiny=True), crosscheck_case("neumann", "1", tiny=True),
    crosscheck_case("dirichlet", "1", horizon="1/1000"),
    crosscheck_case("dirichlet", "1", horizon="7/2"),
    crosscheck_case("dirichlet", "1", n_modes=24)])
def test_closed_form_state_matches_the_convolution_reference(boundary, rho, n_modes,
                                                             horizon, tiny):
    """The integer moment calculus at T against the mpf convolutions, under
    the minimum-norm control, within 2^-(bits/2) of the initial pair norm."""
    from beamctl.moment_problem import assemble
    from beamctl.synthesis import solve_min_norm
    from beamctl.verification import pair_norm_scale
    from reference_calculus import closed_form_state as reference_state

    first = boundary.first_mode
    values, velocities = [0] * (n_modes + 1 - first), [0] * (n_modes + 1 - first)
    if tiny:
        values[1 - first] = "1e-200"
    else:
        values[1 - first], velocities[3 - first], values[n_modes - first] = 1, "0.2", "0.3"
    state0 = ModalState(boundary, tuple(values), tuple(velocities))
    report = solve_min_norm(assemble(BeamConfig(boundary, rho, n_modes, horizon), state0))
    cfg = report.system.config
    got = closed_form_state(cfg, state0, report.control)
    want = reference_state(cfg, state0, report.control, cfg.horizon)
    with mp.workprec(2 * cfg.precision_bits):
        gap = ModalState(boundary, [a - b for a, b in zip(got.values, want.values)],
                         [a - b for a, b in zip(got.velocities, want.velocities)])
    p = pair_norm_scale(boundary)
    bound = 2.0 ** -(cfg.precision_bits // 2) * state_pair_norm(state0, p)
    assert state_pair_norm(gap, p) <= bound
