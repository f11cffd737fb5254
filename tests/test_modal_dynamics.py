"""Modal flows: free evolution, Duhamel responses, the RK4 oracle."""
from fractions import Fraction
from math import ceil

import mpmath as mp
import numpy as np
import pytest

from beamctl.cli import write_trajectory_csv
from beamctl.errors import StepSizeError
from beamctl.kernels import ControlSignal, Kernel
from beamctl.modal_dynamics import (
    ModalState,
    _stiffest_rate,
    closed_form_state,
    default_steps,
    forcing_resolution_steps,
    simulate_oracle,
    state_pair_norm,
)
from beamctl.moment_problem import assemble
from beamctl.spectrum import BeamConfig, Boundary, DampingRegime, mode_eigenvalues
from reference_calculus import convolve, curvature


def stage_loop_oracle(config, state0, control, steps):
    """Reference RK4: the stage formulas run one step at a time, every state kept.

    Returns (times, values, velocities) of the physical state at all
    steps + 1 grid times.
    """
    T = float(config.horizon)
    h = T / steps
    ns_arr = np.asarray(state0.modes, dtype=np.float64)
    x_arr = np.asarray([float(x) for x in config.spectrum.traces])
    damp = float(config.rho) * ns_arr ** 2
    stiff = ns_arr ** 4
    a = np.asarray([float(v) for v in state0.values])
    v = np.asarray([float(v) for v in state0.velocities])
    half_times = np.linspace(0.0, T, 2 * steps + 1)
    if control is not None:
        sampled = control.sample(half_times)
        F, lift_f, lift_fp = sampled["f_second"], sampled["f"], sampled["f_prime"]
    else:
        F = lift_f = lift_fp = np.zeros_like(half_times)

    def deriv(ai, vi, fj):
        return vi, -damp * vi - stiff * ai - fj * x_arr

    vals, vels = [a + x_arr * lift_f[0]], [v + x_arr * lift_fp[0]]
    for k in range(steps):
        f0, f1, f2 = F[2 * k], F[2 * k + 1], F[2 * k + 2]
        k1a, k1v = deriv(a, v, f0)
        k2a, k2v = deriv(a + 0.5 * h * k1a, v + 0.5 * h * k1v, f1)
        k3a, k3v = deriv(a + 0.5 * h * k2a, v + 0.5 * h * k2v, f1)
        k4a, k4v = deriv(a + h * k3a, v + h * k3v, f2)
        a = a + (h / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        vals.append(a + x_arr * lift_f[2 * k + 2])
        vels.append(v + x_arr * lift_fp[2 * k + 2])
    return half_times[::2], np.array(vals), np.array(vels)


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


def one_mode(rho, bits=256):
    return BeamConfig(Boundary.DIRICHLET, rho, 1, Fraction(1), bits)


def test_free_flow_underdamped_oracle():
    # rho=1, n=1, u0=1, u1=0: u(t) = e^{-t/2}(cos(sqrt3 t/2) + sin(sqrt3 t/2)/sqrt3)
    st = ModalState.dirichlet(values=(1,), velocities=(0,))
    out = closed_form_state(one_mode(Fraction(1)), st)
    assert abs(float(out.values[0]) - 0.659700153392) < 1e-11
    with mp.workprec(300):
        expect = mp.exp(mp.mpf(-1) / 2) * (mp.cos(mp.sqrt(3) / 2)
                                           + mp.sin(mp.sqrt(3) / 2) / mp.sqrt(3))
        assert abs(out.values[0] - expect) < mp.mpf(2) ** -240


def test_free_flow_critical_oracle():
    # rho=2, n=1, u0=1, u1=0: u(t) = (1+t) e^{-t}
    st = ModalState.dirichlet(values=(1,), velocities=(0,))
    out = closed_form_state(one_mode(Fraction(2)), st)
    with mp.workprec(300):
        assert abs(out.values[0] - 2 / mp.e) < mp.mpf(2) ** -240
        # velocity: u'(t) = -t e^{-t}
        assert abs(out.velocities[0] + 1 / mp.e) < mp.mpf(2) ** -240


def test_free_flow_overdamped_oracle():
    # rho=5/2, n=1: u(t) = (4/3) e^{-t/2} - (1/3) e^{-2t}
    st = ModalState.dirichlet(values=(1,), velocities=(0,))
    out = closed_form_state(one_mode(Fraction(5, 2)), st)
    with mp.workprec(300):
        expect = mp.mpf(4) / 3 * mp.exp(mp.mpf(-1) / 2) - mp.exp(-2) / 3
        assert abs(out.values[0] - expect) < mp.mpf(2) ** -240


def test_free_flow_neumann_zero_mode_drifts():
    # the constant mode has no restoring force: u_0(t) = u0 + u1 t exactly
    cfg = BeamConfig(Boundary.NEUMANN, Fraction(1), 2, Fraction(2))
    st = ModalState.neumann(values=(0.25, 1, 0), velocities=(0.5, 0, 0.3))
    out = closed_form_state(cfg, st)
    assert out.boundary is Boundary.NEUMANN and len(out.values) == 3
    assert out.values[0] == mp.mpf("1.25")
    assert out.velocities[0] == mp.mpf("0.5")


def test_neumann_zero_mode_drifts_exactly_under_a_control():
    # the lifting must cancel the zero mode's Duhamel response J_h = f exactly,
    # complex kernel parts included
    cfg = BeamConfig(Boundary.NEUMANN, Fraction(1), 3, Fraction(3, 2))
    sig = ControlSignal(
        kernels=(Kernel("const"), Kernel("linear"), Kernel("exp", rate=mp.mpf(-3)),
                 Kernel("expcos", decay=mp.mpf(-2), freq=mp.mpf(5)),
                 Kernel("expsin", decay=mp.mpf(-1), freq=mp.mpf(3))),
        coefficients=(mp.mpf("0.7"), mp.mpf(-2), mp.mpf("1.3"), mp.mpf(40), mp.mpf(-9)),
        horizon=Fraction(3, 2))
    st = ModalState.neumann(values=(0.25, 1, 0, 0.5), velocities=(0.5, 0, 0.3, 0))
    out = closed_form_state(cfg, st, sig)
    assert out.values[0] == 1 and out.velocities[0] == mp.mpf("0.5")
    assert abs(mp.re(convolve(sig, 1, 0, mp.mpf("1.5")))) > 0.1   # the lifting is not trivially 0


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
    traj = simulate_oracle(cfg, st, None)
    expect = closed_form_state(cfg, st)
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


def test_oracle_rejects_unstable_step_count():
    # mode 6 decays at rate |lambda| = 36; four RK4 steps put lambda h far
    # outside the stability region and the oracle must refuse them
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


def stiffness_configs():
    """Every regime (rho = 2 critical, 5/2 and 10/3 rational overdamped, 3
    irrational), both boundaries, one to forty modes, two horizons."""
    for boundary in Boundary:
        for rho in ("1/10", "1", "2", "5/2", "3", "10/3"):
            for n_modes in (1, 3, 24, 40):
                for horizon in ("1", "1/3"):
                    yield BeamConfig(boundary, Fraction(rho), n_modes, Fraction(horizon))


def test_stiffest_rate_is_the_largest_root_of_the_spectrum():
    for cfg in stiffness_configs():
        roots = [lam for e in cfg.spectrum.eigenvalues for lam in (e.lambda_plus, e.lambda_minus)]
        assert _stiffest_rate(cfg) == max(float(abs(lam)) for lam in roots), cfg


def test_default_steps_keeps_the_regime_formula():
    """The step count read off the spectrum equals the regime-by-regime
    formula it replaced, whose third term 20 N^2 T never won."""
    def regime_formula(cfg):
        n2 = cfg.n_modes ** 2
        if cfg.regime is DampingRegime.OVERDAMPED:
            lam_max = -float(cfg.spectrum.eigenvalues[0].lambda_minus) * n2
        else:
            lam_max = float(n2)
        T = float(cfg.horizon)
        return max(4000, ceil(60 * lam_max * T), ceil(20 * n2 * T))

    for cfg in stiffness_configs():
        assert default_steps(cfg) == regime_formula(cfg), cfg


def test_every_route_checks_state_and_config_alike():
    """The closed form, the oracle and assembly refuse a state of the wrong
    boundary or mode count with one message."""
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 2, Fraction(1))
    routes = (lambda st: closed_form_state(cfg, st), lambda st: simulate_oracle(cfg, st, None),
              lambda st: assemble(cfg, st))
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


def curved_control(horizon=Fraction(1)):
    return ControlSignal(kernels=(Kernel("exp", rate=mp.mpf(-2)), Kernel("linear")),
                         coefficients=(mp.mpf("1.3"), mp.mpf("-0.4")),
                         horizon=horizon, precision_bits=128)


BLOCKED_CASES = [
    (Boundary.DIRICHLET, 1), (Boundary.DIRICHLET, 2), (Boundary.DIRICHLET, 3),
    (Boundary.NEUMANN, 1),
]


@pytest.mark.parametrize("boundary, rho", BLOCKED_CASES)
@pytest.mark.parametrize("steps", [1, 150, 4096, 4099])
def test_blocked_oracle_matches_stage_loop(boundary, rho, steps):
    # steps: one step (one block of one), fewer steps than samples, a perfect
    # square, a prime.  The blocked recurrence sums in another order than the
    # stage loop; its roundoff stays below steps * eps of the trajectory
    # scale, and 1e-12 bounds that for up to 4,500 steps.  A single step over
    # T = 1 is unstable (|R(h lambda)| near 2.4e3), so it runs over T = 1/100.
    horizon = Fraction(1, 100) if steps == 1 else Fraction(1)
    cfg = BeamConfig(boundary, Fraction(rho), 4, horizon)
    slots = 5 if boundary is Boundary.NEUMANN else 4    # Neumann: zero mode first
    st = ModalState(boundary, (0.3, -1, 0.5, 0.2, 0.1)[:slots],
                    (0.2, 0, 0.4, -0.1, 0.3)[:slots])
    times, vals, vels = stage_loop_oracle(cfg, st, curved_control(horizon), steps)
    traj = simulate_oracle(cfg, st, curved_control(horizon), steps=steps)
    assert len(traj.times) == min(201, steps + 1)
    assert traj.times[0] == 0.0 and traj.times[-1] == float(horizon)
    ks = [int((2 * r * steps + 200) // 400) for r in range(201)]   # round half up
    ks = sorted(set(ks))
    assert list(traj.times) == [float(times[k]) for k in ks]
    scale = max(np.abs(vals).max(), np.abs(vels).max())
    assert np.abs(np.array(traj.values) - vals[ks]).max() <= 1e-12 * scale
    assert np.abs(np.array(traj.velocities) - vels[ks]).max() <= 1e-12 * scale


@pytest.mark.parametrize("steps", [4000, 4094, 4199])
def test_trajectory_has_exactly_the_requested_rows(steps):
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 2, Fraction(1))
    st = ModalState.dirichlet(values=(1, 0), velocities=(0, 0))
    traj = simulate_oracle(cfg, st, None, steps=steps)
    assert len(traj.times) == 201
    assert traj.times[-1] == 1.0
    with pytest.raises(ValueError):
        simulate_oracle(cfg, st, None, steps=steps, samples=1)


def test_final_state_does_not_depend_on_samples():
    cfg = BeamConfig(Boundary.NEUMANN, Fraction(3), 3, Fraction(1))
    st = ModalState.neumann(values=(0.1, 1, 0, 0.3), velocities=(0.2, 0, 0.5, 0))
    few = simulate_oracle(cfg, st, curved_control(), steps=4099, samples=2)
    many = simulate_oracle(cfg, st, curved_control(), steps=4099, samples=201)
    assert len(few.times) == 2
    assert few.final_state() == many.final_state()


def rk4_amplification(config, steps, modes=None):
    """max |R(h lambda)| at 200 bits over the roots of the given modes (all
    by default), R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 being RK4's stability
    function, for steps steps over the horizon."""
    modes = modes or range(config.boundary.first_mode, config.n_modes + 1)
    with mp.workprec(200):
        h = mp.mpf(config.horizon.numerator) / config.horizon.denominator / steps
        zs = [h * lam for n in modes for lam in config.spectrum.roots(n)]
        return max(abs(1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24) for z in zs)


def test_oracle_rejects_instability_starting_mid_run():
    # h = 0.1 puts mode 6 (|lambda| = 36) outside the RK4 stability region,
    # but its data is 1e-20, so the state stays small for dozens of steps;
    # run anyway, 44 steps end mode 6 at -2.4e4 where the closed form gives
    # -2.1e-57.  Both counts are refused with mode 6's amplification.
    st = ModalState.dirichlet(values=(1, 0, 0, 0, 0, 1e-20), velocities=(0,) * 6)
    for horizon, steps, growth in ((Fraction(44, 10), 44, 2.19e24), (Fraction(14), 140, 1e77)):
        cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 6, horizon)
        with pytest.raises(StepSizeError) as got:
            simulate_oracle(cfg, st, None, steps=steps)
        assert got.value.steps == steps
        stiff = float(rk4_amplification(cfg, steps, modes=[6]) ** steps)
        assert abs(got.value.growth - stiff) <= 1e-12 * stiff
        assert stiff > growth
    early = BeamConfig(Boundary.DIRICHLET, Fraction(1), 6, Fraction(44, 10))
    assert abs(closed_form_state(early, st).values[5]) < 1e-56


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("rho", [Fraction(1, 10 ** 6), Fraction(1, 10), Fraction(1),
                                 Fraction(2), Fraction(3)], ids=str)
def test_oracle_is_stable_exactly_where_the_stability_function_is(boundary, rho):
    """simulate_oracle refuses a step count exactly when some root's
    |R(h lambda)| exceeds 1, and reports the worst |R| to the power steps.
    Complex roots (rho < 2) leave the region near the imaginary axis at
    |h lambda| ~ 2.83, real ones (rho >= 2) at h lambda ~ -2.79."""
    cfg = BeamConfig(boundary, rho, 3, Fraction(1))
    st = ModalState(boundary, (1,) * (cfg.n_modes + 1 - boundary.first_mode),
                    (0,) * (cfg.n_modes + 1 - boundary.first_mode))
    verdicts = []
    for steps in range(1, 25):
        worst = rk4_amplification(cfg, steps)
        if worst > 1:
            with pytest.raises(StepSizeError) as got:
                simulate_oracle(cfg, st, None, steps=steps)
            assert got.value.steps == steps
            assert abs(got.value.growth / float(worst ** steps) - 1) <= 1e-12
        else:
            traj = simulate_oracle(cfg, st, None, steps=steps)
            assert np.isfinite(traj.values).all()
        verdicts.append(worst > 1)
    # both sides of the boundary are in the scan: unstable at one step,
    # stable from some count on
    assert verdicts[0] and not verdicts[-1]
    boundary_steps = verdicts.index(False)
    assert all(verdicts[:boundary_steps]) and not any(verdicts[boundary_steps:])


def test_oracle_refuses_before_it_samples_the_control(monkeypatch):
    calls = []
    sample = ControlSignal.sample

    def spy(self, times, *args, **kwargs):
        calls.append(len(times))
        return sample(self, times, *args, **kwargs)

    monkeypatch.setattr(ControlSignal, "sample", spy)
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 6, Fraction(1))
    st = ModalState.dirichlet(values=(1, 0, 0, 0, 0, 0), velocities=(0,) * 6)
    with pytest.raises(StepSizeError):
        simulate_oracle(cfg, st, curved_control(), steps=4)
    assert calls == []
    simulate_oracle(cfg, st, curved_control(), steps=400)
    assert calls      # the spy sees the samples of a stable count


def test_oracle_carries_data_near_the_float64_limit():
    # squaring such a state overflows float64 (1e160^2 > 1.8e308); RK4 itself
    # never squares it, so the run must end where the closed form does
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 3, Fraction(1))
    st = ModalState.dirichlet(values=(1e160, -3e159, 2e159), velocities=(0, 5e159, -4e159))
    got = simulate_oracle(cfg, st, None, steps=4000).final_state()
    expect = closed_form_state(cfg, st)
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
