"""mpf references for the closed-form route, kept apart from beamctl.

beamctl computes every truncated moment M_d(nu, T) = int_0^T w^d e^(nu w) dw
on fixed-point integers (kernels._moment_set), and the control's
convolutions only at the horizon (ControlSignal.moments).  The functions
here are the per-entry, any-time mpf forms that calculus replaced, written
from each kernel kind's own formula (exponential_parts, kernel_value) and not
from Kernel.real_form: the tests hold the Gram matrix, the closed-form state
and the sampler to them.  ulp_close is the tests' comparison in units of the
last place.
"""
from math import comb

import mpmath as mp

from beamctl._numutil import GUARD_BITS, strip_imag, to_mpf
from beamctl.modal_dynamics import ModalState


def ulp_close(a, b, ulps=10):
    """|a - b| within `ulps` units in the last place at current precision."""
    a, b = mp.mpf(a), mp.mpf(b)
    scale = max(abs(a), abs(b), mp.mpf(2) ** (-mp.mp.prec))
    return abs(a - b) <= ulps * scale * mp.mpf(2) ** (-mp.mp.prec)


def exponential_parts(kernel, horizon):
    """(a, p, lam) parts of a kernel as sum a u^p e^(lam u), u = T - s, by
    kind; cos and sin split over the rate and its conjugate by Euler's
    formula, cos x = (e^(ix) + e^(-ix)) / 2, sin x = (e^(ix) - e^(-ix)) / (2i)."""
    zero = mp.mpf(0)
    if kernel.kind == "const":
        return ((mp.mpf(1), 0, zero),)
    if kernel.kind == "linear":                     # s = T - u
        return ((to_mpf(horizon), 0, zero), (mp.mpf(-1), 1, zero))
    if kernel.kind in ("exp", "polyexp"):
        return ((mp.mpf(1), int(kernel.kind == "polyexp"), mp.mpf(kernel.rate)),)
    lam = mp.mpc(kernel.decay, kernel.freq)
    a = mp.mpf(0.5) if kernel.kind == "expcos" else mp.mpc(0, -0.5)
    return ((a, 0, lam), (mp.conj(a), 0, mp.conj(lam)))


def series_moment(d, nu, t):
    """M_d(nu, t) by its power series, stopped once abs(term) < abs(total) eps."""
    total = mp.mpf(0)
    term = t ** (d + 1)
    k = 0
    while True:
        contrib = term / (k + d + 1)
        total += contrib
        if abs(contrib) < abs(total) * mp.eps and k > 2:
            return total
        k += 1
        term = term * nu * t / k


def power_exp_moments(d, nu, t, e_nut):
    """[M_0, ..., M_d](nu, t) at the working precision, given e_nut = e^(nu t):
    the series when |nu t| < 1/2, else M_j = (t^j e^(nu t) - j M_(j-1)) / nu
    from M_0 = (e^(nu t) - 1) / nu."""
    if t == 0:
        return [mp.mpf(0)] * (d + 1)
    if abs(nu) * t < mp.mpf(0.5):
        return [series_moment(j, nu, t) for j in range(d + 1)]
    out = [(e_nut - 1) / nu]
    tp = mp.mpf(1)
    for j in range(1, d + 1):
        tp = tp * t
        out.append((tp * e_nut - j * out[-1]) / nu)
    return out


def power_exp_moment(d, nu, t):
    """M_d(nu, t) with its own exponential."""
    return power_exp_moments(d, nu, mp.mpf(t), mp.exp(nu * mp.mpf(t)))[d]


def kernel_value(kernel, s, horizon):
    """A kernel's value at time s in [0, T], by its kind's formula."""
    s = mp.mpf(s)
    u = to_mpf(horizon) - s
    if kernel.kind == "const":
        return mp.mpf(1)
    if kernel.kind == "linear":
        return s
    if kernel.kind == "exp":
        return mp.e ** (kernel.rate * u)
    if kernel.kind == "polyexp":
        return u * mp.e ** (kernel.rate * u)
    if kernel.kind == "expcos":
        return mp.e ** (kernel.decay * u) * mp.cos(kernel.freq * u)
    return mp.e ** (kernel.decay * u) * mp.sin(kernel.freq * u)


def gram_entry(kernel_a, kernel_b, horizon, precision_bits=256):
    """L2(0, T) inner product of two kernels: the sum of a_i conj(b_j)
    M_(p_i + p_j)(lam_i + conj(mu_j), T) over their exponential parts."""
    with mp.workprec(precision_bits + GUARD_BITS):
        T = to_mpf(horizon)
        total = mp.mpf(0)
        for a, p, lam in exponential_parts(kernel_a, T):
            for b, q, mu in exponential_parts(kernel_b, T):
                total += a * mp.conj(b) * power_exp_moment(p + q, lam + mp.conj(mu), T)
        return strip_imag(total, precision_bits)


def curvature(control, t):
    """f''(t) of a ControlSignal."""
    with mp.workprec(control.precision_bits + GUARD_BITS):
        return sum((c * kernel_value(k, t, control.horizon)
                    for c, k in zip(control.coefficients, control.kernels)), mp.mpf(0))


def convolve(control, d, lam, t):
    """int_0^t f''(s) (t-s)^d e^(lam (t-s)) ds at any t in [0, T].

    Each part a (T-s)^p e^(mu (T-s)) is rewritten around T - t, binomially,
    so the integral is a sum of M moments in w = t - s.  f'(t) is
    convolve(0, 0, t) and f(t) convolve(1, 0, t); a complex rate or kernel
    part leaves a complex result.
    """
    with mp.workprec(control.precision_bits + GUARD_BITS):
        t, T = to_mpf(t), to_mpf(control.horizon)
        total = mp.mpf(0)
        for c, k in zip(control.coefficients, control.kernels):
            for a, p, mu in exponential_parts(k, T):
                nu = mu + lam
                moments = power_exp_moments(d + p, nu, t, mp.exp(nu * t))
                total += c * a * mp.exp(mu * (T - t)) * sum(
                    comb(p, j) * (T - t) ** (p - j) * moments[d + j] for j in range(p + 1))
        return total


def fundamental_solutions(lp, lm):
    """(g, h, g', h') for roots lp, lm as (coefficient, power, rate) parts
    c t^p e^(rate t): g answers a unit displacement, h a unit velocity."""
    if lp == lm:
        return (((1, 0, lp), (-lp, 1, lp)), ((1, 1, lp),),
                ((-lp * lp, 1, lp),), ((1, 0, lp), (lp, 1, lp)))
    den = lp - lm
    return (((-lm / den, 0, lp), (lp / den, 0, lm)), ((1 / den, 0, lp), (-1 / den, 0, lm)),
            ((-lp * lm / den, 0, lp), (lp * lm / den, 0, lm)),
            ((lp / den, 0, lp), (-lm / den, 0, lm)))


def closed_form_state(config, state0, control, t):
    """Physical state at any time t: u_n = u0 g + u1 h + x_n (f - J_h) and
    its derivative, each Duhamel response J by `convolve`."""
    with mp.workprec(config.precision_bits + GUARD_BITS):
        t = to_mpf(t)

        def at(parts):
            return sum(c * t ** p * mp.exp(lam * t) for c, p, lam in parts)

        def J(parts):
            return sum(c * convolve(control, p, lam, t) for c, p, lam in parts)

        vals, vels = [], []
        for n, u0, u1, x in zip(state0.modes, state0.values, state0.velocities,
                                config.spectrum.traces):
            g, h, dg, dh = fundamental_solutions(*config.spectrum.roots(n))
            v = to_mpf(u0) * at(g) + to_mpf(u1) * at(h)
            w = to_mpf(u0) * at(dg) + to_mpf(u1) * at(dh)
            if control is not None:
                v += x * (convolve(control, 1, 0, t) - J(h))
                w += x * (convolve(control, 0, 0, t) - J(dh))
            vals.append(mp.re(v))
            vels.append(mp.re(w))
        return ModalState(config.boundary, tuple(vals), tuple(vels))
