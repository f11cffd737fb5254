"""The closed-form route: the state at the horizon T at extended precision.

Its one primitive is the truncated moment

    M_d(nu, T) = int_0^T w^d e^(nu w) dw,

computed for d = 0..D at once by _moment_set, on integers only, at nu =
lam + mu and lam + conj mu from two rates encoded by _fixed_rate (each
rate's e^(lam T) at a fixed binary point): one series pass for all orders
when |nu T| < 1/2, the usual recursion in d otherwise.  The control's
moments K(p, lam) = int_0^T f''(s) (T-s)^p e^(lam (T-s)) ds
(control_moments, one moment pair per key rate and kernel rate), which
give f(T), f'(T) and the modal Duhamel responses at T, are sums of M_d,
and nothing outside this module takes a moment set: synthesis builds the
Gram from the kernels' displacement structure and borrows only the
fixed-point sizing, _fixed_point_bits.  closed_form_state evolves each
mode to T through the two fundamental solutions of its roots.

Of the control this route reads its data, each kernel's Kernel.real_form
and ControlSignal.term_scale_bound, and nothing of the oracle route's
sampler or proxy (kernels, modal_dynamics.simulate_oracle).
"""
from __future__ import annotations

import math

import mpmath as mp

from ._numutil import GUARD_BITS, strip_imag, to_fixed, to_mpf
from .kernels import ControlSignal
from .modal_dynamics import ModalState
from .spectrum import BeamConfig

__all__ = [
    "control_moments",
    "closed_form_state",
]


def _fixed_point_bits(precision_bits: int, magnitude_bits: int, horizon) -> int:
    """Fraction bits F of a fixed-point sum (the Gram's entries, or a
    control's moments): precision_bits + GUARD_BITS + 16, the caller's
    magnitude_bits (how far below 1 its sums must reach), and 3 log2(2T)
    for divisions by nu."""
    return (precision_bits + GUARD_BITS + 16 + magnitude_bits
            + 3 * max(0, math.ceil(math.log2(horizon) + 1)))


def _fixed_rate(lam, T, F: int) -> tuple:
    """A rate as _moment_set takes it: (Re lam, Im lam, Re e^(lam T),
    Im e^(lam T)) times 2^F, the exponential taken at F + 16 bits."""
    with mp.workprec(F + 16):
        z, e = mp.mpc(lam), mp.exp(lam * T)
        return tuple(to_fixed(x, F) for x in (z.real, z.imag, e.real, e.imag))


def _series_moments(d: int, a: int, b: int, t: int, scale: int) -> list:
    """[M_0, ..., M_d](nu, T), nu = a + i b, for |nu T| < 1/2, as pairs (re, im),
    all times 2^scale: M_j = T^j sum_k tau_k / (k + j + 1) over the shared
    terms tau_k = nu^k T^(k+1) / k!, summed with 20 guard bits (and those
    T^j takes) and truncated toward zero."""
    G = 20 + d * (t >> scale).bit_length()
    S, t = scale + G, t << G
    wr, wi = a * t >> scale, b * t >> scale         # nu T times 2^S
    sums = [[0, 0] for _ in range(d + 1)]
    tr, ti, k = t, 0, 0
    while abs(tr) + abs(ti) > 16:   # the tail is below 2 |tau_k| (|nu T| < 1/2)
        for j, s in enumerate(sums, k + 1):
            s[0] += tr // j
            s[1] += ti // j
        k += 1
        tr, ti = (tr * wr - ti * wi >> S) // k, (tr * wi + ti * wr >> S) // k
    out, tp = [], 1 << S
    for s in sums:
        out.append(tuple(v >> G if v >= 0 else -(-v >> G) for v in (tp * x >> S for x in s)))
        tp = tp * t >> S
    return out


def _moment_set(d: int, one, other, t: int, scale: int) -> tuple:
    """([M_0, ..., M_d](lam + mu, T), the same at lam + conj mu) as pairs
    (re, im), from rates one (lam) and other (mu) encoded by _fixed_rate and
    t = T, all times 2^scale: the one M_d calculus, on integers only.  For a
    real mu both are the same list.  |nu T| < 1/2, decided on integers, sums
    the series (_series_moments, covering nu = 0 exactly); otherwise M_j =
    (T^j e^(nu T) - j M_(j-1)) / nu from M_0 = (e^(nu T) - 1) / nu, dividing
    through |nu|^2, or by nu alone where nu and e^(nu T) are real (two real
    rates, or a rate and its own conjugate), which floors to the same
    integers.  That seed loses log2(|e^(nu T)| / |e^(nu T) - 1|) bits, a few
    for the damped rates (Re nu < 0) of this problem."""
    (a1, b1, x1, y1), (a2, b2, x2, y2) = one, other
    sets = []
    for sign in (1, -1) if b2 else (1,):
        a, b = a1 + a2, b1 + sign * b2
        x, y = (x1 * x2 - sign * y1 * y2) >> scale, (sign * x1 * y2 + y1 * x2) >> scale
        n2, real = a * a + b * b, b == y == 0
        if abs(a * t) < 1 << 2 * scale - 1 if real else 4 * n2 * t * t < 1 << 4 * scale:
            sets.append(_series_moments(d, a, b, t, scale))
            continue
        out, p, q, tp = [], x - (1 << scale), y, 1 << scale
        for j in range(d + 1):
            if j:
                tp = tp * t >> scale
                p, q = (tp * x >> scale) - j * out[-1][0], (tp * y >> scale) - j * out[-1][1]
            out.append(((p << scale) // a, 0) if real else
                       (((p * a + q * b) << scale) // n2, ((q * a - p * b) << scale) // n2))
        sets.append(out)
    return sets[0], sets[-1]


def control_moments(control: ControlSignal, keys) -> dict:
    """{(p, lam): K(p, lam)} for (power, rate) keys, K(p, lam) =
    int_0^T f''(s) (T-s)^p e^(lam (T-s)) ds.

    f(T) = K(1, 0), f'(T) = K(0, 0), and the modal Duhamel responses at T
    are sums of K.  Kernel parts are merged by rate mu (Kernel.real_form),
    so K(p, lam) sums C_q M_(p+q)(lam + mu, T) and, for a complex mu,
    M_(p+q)(lam + conj mu, T): one _moment_set call per pair of
    lam and mu, a key with Im lam < 0 read off its conjugate (f'' is
    real).  Each key is summed on integers, the moments and the merged
    coefficients C_q with F fraction bits, and rounded once, to
    precision_bits + GUARD_BITS.  F (_fixed_point_bits) takes as magnitude
    bits log2 of the term bound above 1 and its negative exponent below 1:
    a sum of terms near the bound cancels down to the data's size.
    """
    y, e = mp.frexp(control.term_scale_bound())    # bound = y 2^e, 1/2 <= y < 1
    # ceil(log2 bound) is e, or e - 1 at a power of two
    F = _fixed_point_bits(control.precision_bits, max(0, e - (y == 0.5)) + max(0, 1 - e),
                          control.horizon)
    with mp.workprec(F + 16):
        T = to_mpf(control.horizon)
        merged = {}     # mu -> {q: [C_q of the Re kernels, of the Im kernels]}
        for c, k in zip(control.coefficients, control.kernels):
            mu, imag, poly = k.real_form(T)
            for a, q in poly:
                merged.setdefault(mu, {}).setdefault(q, [0, 0])[imag] += to_fixed(c * a, F)
        rates = [(_fixed_rate(mu, T, F), poly) for mu, poly in merged.items()]
        powers = {}     # lam, Im lam >= 0 -> the powers asked for
        for p, lam in keys:
            powers.setdefault(mp.conj(lam) if mp.im(lam) < 0 else lam, set()).add(p)
        # (p, lam) -> 2 K(p, lam) as (re, im) times 2^(2F)
        sums = {(p, lam): [0, 0] for lam, ps in powers.items() for p in ps}
        t = to_fixed(T, F)
        for lam, ps in powers.items():
            one = _fixed_rate(lam, T, F)
            for mu, poly in rates:
                plus, minus = _moment_set(max(ps) + max(poly), one, mu, t, F)
                for p in ps:
                    acc = sums[p, lam]
                    for q, (A, B) in poly.items():
                        (pr, pi), (mr, mi) = plus[p + q], minus[p + q]
                        acc[0] += A * (pr + mr) + B * (pi - mi)
                        acc[1] += A * (pi + mi) - B * (pr - mr)
    with mp.workprec(control.precision_bits + GUARD_BITS):
        out = {}
        for p, lam in keys:
            twin = mp.im(lam) < 0       # K(p, conj lam) = conj K(p, lam)
            re, im = sums[p, mp.conj(lam) if twin else lam]
            z = mp.mpc(mp.ldexp(re, -2 * F - 1), mp.ldexp(im, -2 * F - 1))
            out[p, lam] = mp.conj(z) if twin else z
        return out


def _fundamental_parts(lp, lm):
    """(g, h) for roots l+, l- as (coefficient, power, rate) parts c t^p e^(rate t).

    h answers a unit velocity, g a unit displacement.  Distinct roots give
    h = (e^(l+ t) - e^(l- t)) / (l+ - l-), g = (l+ e^(l- t) - l- e^(l+ t)) / (l+ - l-);
    a double root l gives h = t e^(l t), g = (1 - l t) e^(l t).  That one
    confluent case covers critical damping (l = -n^2) and the Neumann zero
    mode (no damping, no stiffness, l = 0: h = t, g = 1).
    """
    if lp == lm:
        return ((1, 0, lp), (-lp, 1, lp)), ((1, 1, lp),)
    den = lp - lm
    return ((-lm / den, 0, lp), (lp / den, 0, lm)), ((1 / den, 0, lp), (-1 / den, 0, lm))


def _derivative(parts):
    """Parts of d/dt, by (c t^p e^(r t))' = c p t^(p-1) e^(r t) + c r t^p e^(r t)."""
    return [(c * p, p - 1, r) for c, p, r in parts if p] + [(c * r, p, r) for c, p, r in parts]


def closed_form_state(config: BeamConfig, state0: ModalState,
                      control: ControlSignal) -> ModalState:
    """Physical state at the horizon T from initial data state0 under the control.

    With fundamental solutions g, h (_fundamental_parts) of mode n's roots
    in config.spectrum, mode n from (u0, u1) is

        u_n  = u0 g(T)  + u1 h(T)  + x_n (f(T)  - J_h),
        u_n' = u0 g'(T) + u1 h'(T) + x_n (f'(T) - J_h'),

    J_p = int_0^T f''(s) p(T-s) ds being the Duhamel response of v = u - U
    and x_n f the lifting.  Every J is a sum of the control's moments K(p, lam)
    (control_moments), all asked for in one call, and f(T), f'(T) are
    K(1, 0), K(0, 0): on the Neumann zero mode (h = t) the lifting cancels
    J_h, leaving u0 + u1 T exactly.  A control with zero coefficients gives
    the free flow.
    """
    state0.check_fits(config)
    bits = config.precision_bits
    with mp.workprec(bits + GUARD_BITS):
        T = to_mpf(config.horizon)
        solutions = []     # g, h, g', h' per mode
        for n in state0.modes:
            g, h = _fundamental_parts(*config.spectrum.roots(n))
            solutions.append((g, h, _derivative(g), _derivative(h)))
        K = control_moments(control, {(1, 0), (0, 0)} | {(p, lam) for _, h, _, dh in solutions
                                                         for _, p, lam in (*h, *dh)})
        f, f_slope = (strip_imag(K[p, 0], control.precision_bits) for p in (1, 0))
        vals, vels = [], []
        for (g, h, dg, dh), u0, u1, x in zip(solutions, state0.values, state0.velocities,
                                             config.spectrum.traces):
            ex = {lam: mp.exp(lam * T) for _, _, lam in g}

            def at(parts):
                return sum(c * T ** p * ex[lam] for c, p, lam in parts)

            v = to_mpf(u0) * at(g) + to_mpf(u1) * at(h)
            w = to_mpf(u0) * at(dg) + to_mpf(u1) * at(dh)
            v += x * (f - sum(c * K[p, lam] for c, p, lam in h))
            w += x * (f_slope - sum(c * K[p, lam] for c, p, lam in dh))
            scale = max(mp.mpf(1), abs(v), abs(w))
            vals.append(strip_imag(v, bits, scale=scale))
            vels.append(strip_imag(w, bits, scale=scale))
        return ModalState(config.boundary, tuple(vals), tuple(vels))
