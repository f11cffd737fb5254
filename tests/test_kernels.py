"""Kernel algebra: moments, Gram entries, slope and value, signal sampling."""
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import beamctl.closed_form as closed_form
from beamctl._numutil import to_fixed, to_mpf
from beamctl.kernels import ControlSignal, Kernel
from reference_calculus import (
    complex_division_moment_set,
    convolve,
    curvature,
    exponential_parts,
    gram_entry,
    kernel_value,
    power_exp_moment,
    series_moment,
)


def elementwise_sample_extended(sig, t):
    """Reference for ControlSignal._sample_extended: every part's term of f''
    summed in mpf at the precision the term bound asks for, one mp.exp per
    part and node, no merging by rate, rounded to float64 once.  Also
    returns that precision."""
    bits = max(128, int(mp.log(max(sig.term_scale_bound(), 1), 2)) + 80)
    out = np.empty(t.size)
    with mp.workprec(bits):
        T = to_mpf(sig.horizon)
        terms = []      # (ca, p, lam): f'' += Re(ca u^p e^(lam u)), u = T - t
        for c, k in zip(sig.coefficients, sig.kernels):
            c = to_mpf(c)
            if c == 0:
                continue
            for (a, p, lam) in exponential_parts(k, T):
                if mp.im(lam) < 0:
                    continue            # conjugate twin carries it
                terms.append((c * a * (2 if mp.im(lam) > 0 else 1), p, lam))
        for j in range(t.size):
            u = T - mp.mpf(float(t[j]))
            out[j] = float(sum(mp.re(ca * u ** p * mp.exp(lam * u)) for ca, p, lam in terms))
    return out, bits


def test_power_exp_moment_closed_forms():
    with mp.workprec(256):
        # int_0^1 e^{-u} du = 1 - 1/e
        m0 = power_exp_moment(0, mp.mpf(-1), mp.mpf(1))
        assert abs(m0 - (1 - mp.exp(-1))) < mp.mpf(2) ** -246
        # int_0^1 u du = 1/2 at rate zero
        m1 = power_exp_moment(1, mp.mpf(0), mp.mpf(1))
        assert abs(m1 - mp.mpf(1) / 2) < mp.mpf(2) ** -250


def test_power_exp_moment_small_rate_series_is_smooth():
    # the series branch near nu = 0 must agree with the recursion branch
    with mp.workprec(256):
        t = mp.mpf("0.7")
        for d in (0, 1, 2):
            lo = power_exp_moment(d, mp.mpf("1e-30"), t)
            hi = power_exp_moment(d, mp.mpf("0.9") / t, t)   # comfortably large
            direct = mp.quad(lambda u: u ** d * mp.exp(mp.mpf("1e-30") * u), [0, t])
            assert abs(lo - direct) < mp.mpf(2) ** -230
            direct_hi = mp.quad(lambda u: u ** d * mp.exp(mp.mpf("0.9") / t * u), [0, t])
            assert abs(hi - direct_hi) < mp.mpf(2) ** -230


def test_series_branch_follows_the_abs_rule(monkeypatch):
    """_moment_set decides on integers; on a grid of complex and real nu
    around |nu T| = 1/2 it takes the series exactly when abs(nu) T < 1/2."""
    calls = []
    series = closed_form._series_moments
    monkeypatch.setattr(closed_form, "_series_moments",
                        lambda *args: calls.append(args) or series(*args))
    F = 128
    zero = (0, 0, 1 << F, 0)            # rate 0: e^(0 T) = 1
    with mp.workprec(F + 16):
        T = mp.mpf("0.7")
        t = to_fixed(T, F)
        radii = [mp.mpf(r) for r in ("0.3", "0.45", "0.49", "0.51", "0.6", "0.7")]
        radii += [mp.mpf("0.5") + k * mp.mpf(2) ** -120 for k in (-2, -1, 0, 1, 2)]
        cases = [r / T for r in radii] + [-r / T for r in radii]
        for k in range(24):
            turn = mp.expjpi(mp.mpf(k) / 12)
            cases += [turn * r / T for r in radii]
        for nu in cases:
            rate = closed_form._fixed_rate(nu, T, F)
            calls.clear()
            closed_form._moment_set(1, rate, zero, t, F)
            with mp.workprec(8 * F):        # exact for these integers
                expect = mp.hypot(rate[0], rate[1]) * t < mp.ldexp(1, 2 * F - 1)
            assert bool(calls) == expect, nu


def test_series_moments_match_the_mpf_series(monkeypatch):
    """The integer series branch of _moment_set against the mpf series at
    F + 16 bits, rounded as to_fixed rounds: within one unit of 2^-F for
    M_0..M_3 on a grid of real and complex nu, nu = 0 and |nu T| just under
    1/2 included.  Prints how many points match exactly."""
    calls = []
    series = closed_form._series_moments
    monkeypatch.setattr(closed_form, "_series_moments",
                        lambda *args: calls.append(args) or series(*args))
    points = exact = 0
    for T in (Fraction(1, 1000), Fraction(1, 4), Fraction(1), Fraction(7, 2)):
        for F in (200, 350, 550):
            with mp.workprec(F + 16):
                Tm = to_mpf(T)
                t = to_fixed(Tm, F)
                zero = closed_form._fixed_rate(0, Tm, F)
                radii = [mp.mpf(r) for r in ("1e-30", "0.1", "0.3")] + [0.5 - mp.mpf(2) ** -30]
                turns = [1, -1, mp.expjpi(mp.mpf(1) / 3), mp.expjpi(mp.mpf(-3) / 4)]
                for nu in [mp.mpf(0)] + [turn * r / Tm for turn in turns for r in radii]:
                    one = closed_form._fixed_rate(nu, Tm, F)
                    calls.clear()
                    plus, minus = closed_form._moment_set(3, one, zero, t, F)
                    assert calls and plus is minus
                    nu_t = mp.mpc(mp.ldexp(one[0], -F), mp.ldexp(one[1], -F))
                    for j, got in enumerate(plus):
                        m = series_moment(j, nu_t, mp.ldexp(t, -F))
                        ref = (to_fixed(mp.re(m), F), to_fixed(mp.im(m), F))
                        gap = max(abs(g - r) for g, r in zip(got, ref))
                        assert gap <= 1, (T, F, nu, j, gap)
                        points, exact = points + 1, exact + (gap == 0)
    print(f"integer series: {exact} of {points} points equal to_fixed of the mpf series")


def test_real_nu_divides_by_nu_alone_to_the_same_integers(monkeypatch):
    """Where nu is real (two real rates, or a complex rate and its own
    conjugate) _moment_set divides by nu alone: exactly the integers of the
    recursion through |nu|^2 (reference_calculus.complex_division_moment_set),
    on the series and the recursion branch, d <= 2, T in {1/1000, 1, 4}."""
    calls = []
    series = closed_form._series_moments
    monkeypatch.setattr(closed_form, "_series_moments",
                        lambda *args: calls.append(args) or series(*args))
    F = 200
    for T in (Fraction(1, 1000), Fraction(1), Fraction(4)):
        with mp.workprec(F + 16):
            Tm = to_mpf(T)
            t = to_fixed(Tm, F)
            reals = [closed_form._fixed_rate(r / Tm, Tm, F)
                     for r in (0, mp.mpf("-0.1"), mp.mpf("0.15"), mp.mpf("-0.3"), mp.mpf(-2),
                               mp.mpf("-37.5"))]
            pairs = [(one, other) for one in reals for other in reals]
            pairs += [(z, z) for z in (closed_form._fixed_rate(mp.mpc(r, 7) / Tm, Tm, F)
                                       for r in (mp.mpf("-0.05"), -5))]
        branches = set()
        for one, other in pairs:
            for d in range(3):
                calls.clear()
                got = closed_form._moment_set(d, one, other, t, F)
                branches.add(bool(calls))
                assert got == complex_division_moment_set(d, one, other, t, F), (T, d)
                assert all(im == 0 for _, im in got[-1])
        assert branches == {True, False}, T


class _NoMpmath:
    def __getattr__(self, name):
        raise AssertionError(f"_moment_set reached for mpmath's {name}")


def test_moment_set_is_integer_only(monkeypatch):
    """_moment_set runs with mpmath out of reach: nu = 0, the series for a
    real and a complex nu (and its conjugate pair) and the recursion."""
    F = 200
    with mp.workprec(F + 16):
        T = mp.mpf("0.7")
        t = to_fixed(T, F)
        rates = [closed_form._fixed_rate(lam, T, F) for lam in
                 (0, mp.mpf("-0.3"), mp.mpc("0.1", "0.2"), mp.mpc(-5, 7), mp.mpf(-6))]
    zero, small, turn, fast, real = rates
    cases = [(zero, zero), (small, zero), (small, turn), (turn, turn), (fast, real), (fast, fast)]
    expect = [closed_form._moment_set(2, one, other, t, F) for one, other in cases]
    monkeypatch.setattr(closed_form, "mp", _NoMpmath())
    assert [closed_form._moment_set(2, one, other, t, F) for one, other in cases] == expect


@pytest.mark.parametrize("kernel", [
    Kernel("const"), Kernel("linear"), Kernel("exp", rate=mp.mpf(-3)),
    Kernel("polyexp", rate=mp.mpf(-2)),
    Kernel("expcos", decay=mp.mpf(-1), freq=mp.mpf(5)),
    Kernel("expsin", decay=mp.mpf("-1.5"), freq=mp.mpf(7))], ids=lambda k: k.kind)
def test_real_form_matches_kernel_value(kernel):
    """Re, or Im for expsin, of sum c u^p e^(lam u) from real_form is the
    kernel's value by its kind's formula, within 2^-(bits - 8)."""
    bits = 256
    with mp.workprec(bits):
        T = mp.mpf("1.4")
        lam, imag, poly = kernel.real_form(T)
        assert imag == (kernel.kind == "expsin")
        for s in ("0", "0.3", "0.77", "1.2", "1.4"):
            u = T - mp.mpf(s)
            z = sum(c * u ** p * mp.exp(lam * u) for c, p in poly)
            got = mp.im(z) if imag else mp.re(z)
            assert abs(got - kernel_value(kernel, s, T)) <= mp.mpf(2) ** -(bits - 8), s


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel("wavelet")
    with pytest.raises(ValueError):
        Kernel("exp")            # missing rate
    with pytest.raises(ValueError):
        Kernel("expcos", decay=-1.0)   # missing freq
    with pytest.raises(ValueError):
        Kernel("exp", rate=-1, freq=2)  # stray parameter


def test_kernel_value_pointwise():
    with mp.workprec(256):
        T = mp.mpf(1)
        s = mp.mpf("0.3")
        u = T - s
        k = Kernel("expcos", decay=mp.mpf(-2), freq=mp.mpf(5))
        expect = mp.exp(-2 * u) * mp.cos(5 * u)
        assert abs(kernel_value(k, s, T) - expect) < mp.mpf(2) ** -246
        k2 = Kernel("linear")
        assert abs(kernel_value(k2, s, T) - s) < mp.mpf(2) ** -250


def test_gram_entry_closed_forms():
    with mp.workprec(256):
        T = mp.mpf(1)
        const = Kernel("const")
        lin = Kernel("linear")
        e1 = Kernel("exp", rate=mp.mpf(-1))
        assert abs(gram_entry(const, const, T, 256) - 1) < mp.mpf(2) ** -246
        assert abs(gram_entry(const, lin, T, 256) - mp.mpf(1) / 2) < mp.mpf(2) ** -246
        # int_0^1 e^{-2(1-s)} ds = (1 - e^{-2})/2
        expect = (1 - mp.exp(-2)) / 2
        assert abs(gram_entry(e1, e1, T, 256) - expect) < mp.mpf(2) ** -246


def test_gram_entry_symmetric_and_matches_quadrature():
    with mp.workprec(192):
        T = mp.mpf("0.8")
        pairs = [
            (Kernel("expcos", decay=mp.mpf(-3), freq=mp.mpf(7)),
             Kernel("expsin", decay=mp.mpf(-1), freq=mp.mpf(2))),
            (Kernel("polyexp", rate=mp.mpf(-4)), Kernel("exp", rate=mp.mpf("-0.5"))),
            (Kernel("linear"), Kernel("expcos", decay=mp.mpf(-2), freq=mp.mpf(11))),
        ]
        for a, b in pairs:
            g = gram_entry(a, b, T, 192)
            assert abs(g - gram_entry(b, a, T, 192)) < mp.mpf(2) ** -180
            q = mp.quad(lambda s: kernel_value(a, s, T) * kernel_value(b, s, T),
                        [0, T])
            assert abs(g - q) < mp.mpf(2) ** -150 * max(1, abs(q))


def test_slope_and_value_match_quadrature():
    with mp.workprec(192):
        T = mp.mpf(1)
        for k in (Kernel("expcos", decay=mp.mpf(-2), freq=mp.mpf(6)),
                  Kernel("polyexp", rate=mp.mpf(-3)),
                  Kernel("linear")):
            sig = ControlSignal((k,), (1,), T, 192)
            for t in (mp.mpf("0.25"), mp.mpf("0.9")):
                i1, i2 = mp.re(convolve(sig, 0, 0, t)), mp.re(convolve(sig, 1, 0, t))
                q1 = mp.quad(lambda s: kernel_value(k, s, T), [0, t])
                assert abs(i1 - q1) < mp.mpf(2) ** -150
                # Cauchy: int_0^t int_0^tau k = int_0^t (t - s) k(s) ds
                q2 = mp.quad(lambda s: (t - s) * kernel_value(k, s, T), [0, t])
                assert abs(i2 - q2) < mp.mpf(2) ** -120


def test_control_signal_flat_oracle():
    # f'' = 1 integrates to f' = t and f = t^2/2
    with mp.workprec(256):
        sig = ControlSignal(kernels=(Kernel("const"),), coefficients=(mp.mpf(1),),
                            horizon=Fraction(1), precision_bits=256)
        assert abs(curvature(sig, mp.mpf("0.3")) - 1) < mp.mpf(2) ** -246
        assert abs(mp.re(convolve(sig, 0, 0, mp.mpf("0.3"))) - mp.mpf("0.3")) < mp.mpf(2) ** -246
        assert abs(mp.re(convolve(sig, 1, 0, mp.mpf("0.6"))) - mp.mpf("0.18")) < mp.mpf(2) ** -246
        s = sig.sample(np.linspace(0, 1, 11))
        assert np.allclose(s["f_second"], 1.0, rtol=0, atol=1e-14)
        assert np.allclose(s["f_prime"], np.linspace(0, 1, 11), rtol=0, atol=1e-14)


def test_sample_fast_path_matches_evaluators():
    with mp.workprec(256):
        sig = ControlSignal(
            kernels=(Kernel("expcos", decay=mp.mpf(-1), freq=mp.mpf(4)),
                     Kernel("expsin", decay=mp.mpf(-1), freq=mp.mpf(4)),
                     Kernel("linear")),
            coefficients=(mp.mpf("0.7"), mp.mpf("-0.2"), mp.mpf("1.1")),
            horizon=Fraction(1), precision_bits=256)
        assert sig.term_scale_bound() <= 1e6
        t = np.linspace(0, 1, 17)
        s = sig.sample(t)
        for i in (0, 5, 16):
            assert abs(s["f_second"][i] - float(curvature(sig, mp.mpf(t[i])))) < 1e-13
            assert abs(s["f_prime"][i] - float(mp.re(convolve(sig, 0, 0, mp.mpf(t[i]))))) < 1e-13
            assert abs(s["f"][i] - float(mp.re(convolve(sig, 1, 0, mp.mpf(t[i]))))) < 1e-13


def cancellation_control(kind):
    """Two nearly identical kernels with huge opposite weights: the sum is
    O(100) but each term O(1e9) ("exp") or O(1e10) ("expcos"), far beyond
    float64 summation."""
    with mp.workprec(256):
        if kind == "exp":
            big = mp.mpf(10) ** 9
            kernels = (Kernel("exp", rate=mp.mpf(-1)),
                       Kernel("exp", rate=mp.mpf(-1) - mp.mpf(10) ** -7))
        else:
            big = mp.mpf(10) ** 10
            kernels = (Kernel("expcos", decay=mp.mpf(-2), freq=mp.mpf(3)),
                       Kernel("expcos", decay=mp.mpf(-2), freq=mp.mpf(3) + mp.mpf(10) ** -8))
        return ControlSignal(kernels=kernels, coefficients=(big, -big),
                             horizon=Fraction(1), precision_bits=256)


def test_sample_extended_path_defeats_cancellation():
    with mp.workprec(256):
        sig = cancellation_control("exp")
        assert sig.term_scale_bound() > 1e6
        t = np.linspace(0, 1, 101)
        s = sig.sample(t)
        scale = float(max(abs(x) for x in s["f_second"])) or 1.0
        for i in (0, 1, 50, 99, 100):
            ref2 = float(curvature(sig, mp.mpf(t[i])))
            ref1 = float(mp.re(convolve(sig, 0, 0, mp.mpf(t[i]))))
            ref0 = float(mp.re(convolve(sig, 1, 0, mp.mpf(t[i]))))
            assert abs(s["f_second"][i] - ref2) < 1e-12 * max(scale, 1.0)
            assert abs(s["f_prime"][i] - ref1) < 1e-12 * max(scale, 1.0)
            assert abs(s["f"][i] - ref0) < 1e-12 * max(scale, 1.0)


def test_sample_extended_nonuniform_grid():
    with mp.workprec(256):
        sig = cancellation_control("expcos")
        t = np.array([0.0, 0.03, 0.5, 0.500001, 0.99, 1.0])
        s = sig.sample(t)
        for i in range(t.size):
            ref = float(curvature(sig, mp.mpf(t[i])))
            assert abs(s["f_second"][i] - ref) < 1e-10


def acceptance_control(boundary, rho, n_modes, horizon=1):
    """The acceptance battery's minimum-norm control at 256 bits."""
    from beamctl.modal_dynamics import ModalState
    from beamctl.moment_problem import assemble
    from beamctl.spectrum import BeamConfig, Boundary
    from beamctl.synthesis import solve_min_norm

    # Dirichlet: mode 1 value 1, mode 2 velocity 0.2, mode 3 value 0.3;
    # Neumann (slot 0 is the constant mode): modes 1, 3, 5 likewise
    neumann = boundary == "neumann"
    slots = ((1, 0, 1), (3, 0, "0.3"), (5, 1, "0.2")) if neumann else \
        ((0, 0, 1), (1, 1, "0.2"), (2, 0, "0.3"))
    data = [[0] * (n_modes + neumann), [0] * (n_modes + neumann)]
    for slot, part, amp in slots:
        if slot < len(data[0]):
            data[part][slot] = amp
    state = ModalState(Boundary(boundary), tuple(data[0]), tuple(data[1]))
    config = BeamConfig(Boundary(boundary), Fraction(rho), n_modes, Fraction(horizon), 256)
    return solve_min_norm(assemble(config, state)).control


@pytest.mark.parametrize("boundary,rho,n_modes", [
    ("dirichlet", "0.5", 6), ("dirichlet", "1", 6), ("dirichlet", "2", 6),
    ("dirichlet", "3", 6), ("neumann", "1", 5)])
def test_sample_matches_evaluators_in_every_regime(boundary, rho, n_modes):
    sig = acceptance_control(boundary, rho, n_modes)
    rng = np.random.default_rng(20260)
    t = np.concatenate([rng.uniform(0.0, 1.0, 24),
                        1.0 - rng.uniform(0.0, 0.02, 8)])   # the fast kernels peak at T
    s = sig.sample(t)
    dense = sig.sample(np.linspace(0.0, 1.0, 2001))
    for key, exact in (("f_second", lambda t: curvature(sig, t)),
                       ("f_prime", lambda t: mp.re(convolve(sig, 0, 0, t))),
                       ("f", lambda t: mp.re(convolve(sig, 1, 0, t)))):
        scale = float(np.max(np.abs(dense[key])))
        for i, ti in enumerate(t):
            assert abs(s[key][i] - float(exact(mp.mpf(ti)))) <= 1e-12 * scale, (key, ti)


@pytest.mark.parametrize("boundary,rho,n_modes", [
    ("dirichlet", "0.5", 6), ("dirichlet", "1", 6), ("dirichlet", "2", 6),
    ("dirichlet", "3", 6), ("neumann", "1", 5)])
def test_control_is_flat_at_both_ends(boundary, rho, n_modes):
    # f(0) = f'(0) = 0 by construction; f(T) = f'(T) = 0 by the flatness rows
    sig = acceptance_control(boundary, rho, n_modes)
    floor = mp.mpf(2) ** -200 * sig.term_scale_bound()
    for t in (0, sig.horizon):
        assert abs(mp.re(convolve(sig, 1, 0, t))) < floor, ("f", t)
        assert abs(mp.re(convolve(sig, 0, 0, t))) < floor, ("f'", t)


def test_sample_reuses_one_proxy_per_control():
    sig = acceptance_control("dirichlet", "1", 3)
    assert sig.proxy is sig.proxy
    assert sig.proxy.heldout_error <= 1e-12
    assert 16 <= sig.proxy.nodes <= 4096
    assert sig.proxy.degree < sig.proxy.nodes


def scaled(sig, factor):
    """The same control with every coefficient times factor (a power of 10)."""
    with mp.workprec(sig.precision_bits + 64):
        return ControlSignal(sig.kernels, tuple(c * mp.mpf(factor) for c in sig.coefficients),
                             sig.horizon, sig.precision_bits)


def reference_case(case, factor="1"):
    """One control of the evaluator's reference test: an acceptance control
    (boundary, rho, modes, T) or a cancellation control, times factor."""
    name = "{}-rho{}-T{}".format(*case[:2], case[3]) if isinstance(case, tuple) else case
    return pytest.param(case, factor, id=name if factor == "1" else f"{name}-{factor}")


@pytest.mark.parametrize("case,factor", [
    *[reference_case(("dirichlet", rho, 3, T)) for rho in ("1/2", "1", "2", "3")
      for T in ("1/1000", "1", "4")],
    *[reference_case(("neumann", rho, 5, T)) for rho in ("1", "5/2") for T in ("1/1000", "1", "4")],
    reference_case("exp"), reference_case("expcos"),
    reference_case(("dirichlet", "1", 3, "1"), "1e-50"),
    reference_case(("neumann", "5/2", 5, "1"), "1e-30"),
    reference_case("exp", "1e-60"), reference_case("expcos", "1e-300"),
    reference_case("expcos", "1e400")])
def test_sample_extended_matches_elementwise_reference(case, factor):
    """The fixed-point evaluator of f'' against the mpf loop, at the proxy's nodes
    and at 64 random times: within the floor bound * 2^-(bits - 8) everywhere,
    and float64-equal where a half ulp of the value exceeds that floor (below
    it, equality would ask more than the reference's own rounding gives).
    Controls scaled far below 1, whose term bound is below 1, hold to the
    same floor relative to that bound.  Coefficients past float64 keep a
    finite bound; their values round to infinities both ways, and the proxy,
    which cannot hold them, lends its nodes from the unscaled control."""
    from beamctl.kernels import _lobatto_times

    base = cancellation_control(case) if isinstance(case, str) else acceptance_control(*case)
    sig = scaled(base, factor)
    bound = sig.term_scale_bound()
    assert mp.isfinite(bound)
    T = float(sig.horizon)
    n = (sig if bound < 1e300 else base).proxy.nodes
    t = np.concatenate([_lobatto_times(T, np.arange(n + 1), n),
                        np.random.default_rng(14).uniform(0.0, T, 64)])
    ref, bits = elementwise_sample_extended(sig, t)
    got = sig._sample_extended(t)
    floor = float(bound * mp.mpf(2) ** -(bits - 8))
    with np.errstate(invalid="ignore"):     # inf - inf where both overflow
        assert np.all((got == ref) | (np.abs(got - ref) <= floor))
    large = np.abs(ref) > 2.0 ** 53 * floor
    assert large.mean() > 0.9
    assert np.array_equal(got[large], ref[large])


def test_proxy_builds_one_term_table_with_one_exponential_per_rate(monkeypatch):
    """At rho = 1 the expcos and expsin kernels of a mode share one rate: one
    exp_fixed per mode and node, and one term bound per proxy build."""
    import beamctl.kernels as kernels

    counts = {"bound": 0, "exp": 0, "points": 0}

    def counted(key, fn, amount=lambda *args: 1):
        def wrapper(*args):
            counts[key] += amount(*args)
            return fn(*args)
        return wrapper

    n_modes = 3
    sig = acceptance_control("dirichlet", "1", n_modes)
    signal = kernels.ControlSignal
    monkeypatch.setattr(signal, "term_scale_bound", counted("bound", signal.term_scale_bound))
    monkeypatch.setattr(signal, "_sample_extended", counted(
        "points", signal._sample_extended, lambda self, t: t.size))
    monkeypatch.setattr(kernels, "exp_fixed", counted("exp", kernels.exp_fixed))
    sig.sample(np.linspace(0.0, 1.0, 11))
    assert counts["bound"] == 1
    assert counts["points"] > 0
    assert counts["exp"] == n_modes * counts["points"]
    assert sig.term_table is sig.term_table
    assert len(sig.term_table[3]) == n_modes


def test_sample_rejects_times_outside_the_horizon():
    sig = ControlSignal(kernels=(Kernel("const"),), coefficients=(mp.mpf(1),),
                        horizon=Fraction(1), precision_bits=128)
    for bad in ([0.5, 1.5], [-1e-3, 0.5], [float("nan")]):
        with pytest.raises(ValueError):
            sig.sample(np.array(bad))


def test_standard_chop_cuts_at_float64_roundoff():
    from beamctl.kernels import _chebyshev_coefficients, _standard_chop

    x = np.cos(np.pi * np.arange(33) / 32)      # Lobatto points, 32 intervals
    c = _chebyshev_coefficients(np.exp(x))
    # exp's coefficients are 2 I_k(1): 1.4e-15 at k = 14, 4.7e-17 at k = 15
    cut = _standard_chop(c)
    assert cut == 15
    grid = np.linspace(-1.0, 1.0, 1001)
    err = np.polynomial.chebyshev.chebval(grid, c[:cut]) - np.exp(grid)
    assert np.max(np.abs(err)) < 1e-15 * np.e
    # sin(20x) needs about 50 terms: 33 samples show no plateau
    c = _chebyshev_coefficients(np.sin(20 * x))
    assert _standard_chop(c) == c.size


def test_sample_refuses_a_series_that_does_not_decay():
    from beamctl.errors import SamplingError
    from beamctl.kernels import _MAX_NODES

    # about 3,200 periods on [0, 1] need over 10,000 Chebyshev terms
    with mp.workprec(128):
        sig = ControlSignal(kernels=(Kernel("expcos", decay=mp.mpf(0), freq=mp.mpf(20000)),),
                            coefficients=(mp.mpf(1),), horizon=Fraction(1),
                            precision_bits=128)
    with pytest.raises(SamplingError) as info:
        sig.sample(np.linspace(0.0, 1.0, 11))
    assert info.value.degree == _MAX_NODES
    assert info.value.observed_error > 1e-6


def test_sample_refuses_a_failed_held_out_check(monkeypatch):
    import beamctl.kernels
    from beamctl.errors import SamplingError

    monkeypatch.setattr(beamctl.kernels, "_HELDOUT_RTOL", 0.0)
    sig = acceptance_control("dirichlet", "1", 2)
    with pytest.raises(SamplingError) as info:
        sig.sample(np.linspace(0.0, 1.0, 11))
    assert info.value.tolerance == 0.0
    assert info.value.observed_error > 0.0
