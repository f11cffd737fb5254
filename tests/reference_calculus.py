"""mpf references for the closed-form route, kept apart from beamctl.

beamctl computes every truncated moment M_d(nu, T) = int_0^T w^d e^(nu w) dw
on fixed-point integers (closed_form._moment_set), and the control's
convolutions only at the horizon (closed_form.control_moments).  The
functions here are the per-entry, any-time mpf forms that calculus
replaced, written from each kernel kind's own formula (exponential_parts,
kernel_value) and not from Kernel.real_form: the tests hold the Gram
matrix, the closed-form state and the sampler to them.
complex_division_moment_set is the integer recursion through |nu|^2 that
_moment_set keeps for complex nu only, and gamma_route_targets the moment
targets by the free flow at T, which assembly no longer evaluates.
entries reads a FixedMatrix as an mp.matrix, fixed_matrix writes an
mp.matrix as one, integer_cholesky is the row-by-row integer Cholesky that
the Gram's structured factor (synthesis.cholesky_factor) replaced, for any
symmetric FixedMatrix, and biorthogonal_family solves the Gram's factor for
the columns of its inverse.  ulp_close is the tests' comparison in units of the
last place.
"""
import math
from math import comb, isqrt
from operator import mul

import mpmath as mp

from beamctl import closed_form
from beamctl._numutil import GUARD_BITS, quotient, strip_imag, to_fixed, to_mpf
from beamctl.errors import NumericalRankDeficiency
from beamctl.kernels import ControlSignal
from beamctl.modal_dynamics import ModalState
from beamctl.spectrum import DampingRegime
from beamctl.synthesis import FixedMatrix, _solve, cholesky_factor, gram_matrix


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


def entries(M):
    """A FixedMatrix as an mp.matrix of its exact values, 0 past the end of a
    factor's row."""
    out = mp.matrix(M.rows, M.rows)
    for j, row in enumerate(M.ints):
        for k, x in enumerate(row):
            out[j, k] = mp.ldexp(x, -M.scale)
    return out


def fixed_matrix(G, precision_bits):
    """An mp.matrix of finite entries as a FixedMatrix, rounded toward zero
    with P + 16 fraction bits past the smallest positive diagonal entry's
    exponent, P = precision_bits + GUARD_BITS."""
    tiny = min((G[j, j] for j in range(G.rows) if G[j, j] > 0), default=1)
    F = precision_bits + GUARD_BITS + 16 + max(0, -mp.mag(tiny))
    return FixedMatrix(tuple(tuple(to_fixed(x, F) for x in row) for row in G.tolist()), F)


def integer_cholesky(G, precision_bits):
    """Lower-triangular factor of any symmetric FixedMatrix, row by row, with
    synthesis.cholesky_factor's pivot test: (L, condition_estimate), or
    NumericalRankDeficiency at a row whose pivot drops below
    2^(-precision_bits/2) of the largest one seen, or with a nonpositive
    pivot or diagonal entry.

    On D^(-1/2) G D^(-1/2), D = diag(G), whose factor H is held times 2^P,
    P = precision_bits + GUARD_BITS, each entry one exact integer dot
    product and one rounded division; L = D^(1/2) H.  Pivot tests compare
    h_j G_jj as integers.  O(n^3) products, and no structure assumed.
    """
    P = precision_bits + GUARD_BITS
    A, F = G.ints, G.scale
    shift = max(0, 2 * (P + 16) - min((r[j].bit_length() for j, r in enumerate(A)), default=0))
    shift += (shift + F) & 1            # R_j = sqrt(G_jj) 2^((F + shift) / 2), P + 16 bits or more
    roots = [isqrt(max(r[j], 0) << shift) for j, r in enumerate(A)]
    rows, pivots, top = [], [], 0       # rows of H times 2^P; h_j G_jj times 2^(2P + F)
    for j, r in enumerate(A):
        if r[j] <= 0:
            raise NumericalRankDeficiency(
                j, quotient(r[j] << 2 * P, top or 1 << (2 * P + F)), precision_bits)
        row = []
        for k in range(j):
            dot = (r[k] << (2 * P + shift)) // (roots[j] * roots[k]) - sum(map(mul, row, rows[k]))
            row.append((2 * dot + rows[k][k]) // (2 * rows[k][k]))
        h = (1 << 2 * P) - sum(x * x for x in row)      # pivot of H, times 4^P
        s = h * r[j]
        if s <= 0 or s << precision_bits // 2 < top:
            raise NumericalRankDeficiency(j, quotient(s, top) if top else 1.0, precision_bits)
        pivots.append(s)
        top = max(top, s)
        rows.append(row + [isqrt(h)])
    L = FixedMatrix(tuple(tuple(R * x for x in row) for R, row in zip(roots, rows)),
                    P + (F + shift) // 2)
    return L, quotient(top, min(pivots)) if pivots else 1.0


def biorthogonal_family(system):
    """Curvature profiles biorthogonal to the kernels, with their norms.

    Column m of the inverse Gram matrix, solved on the solver's own factor,
    gives the minimum-norm profile g_m in the kernel span with
    <g_m, k_j> = delta_mj; its norm is sqrt((G^-1)_mm)."""
    bits = system.config.precision_bits
    L = cholesky_factor(system, gram_matrix(system))[0]
    n = L.rows
    controls, norms = [], []
    with mp.workprec(bits + GUARD_BITS):
        T = to_mpf(system.config.horizon)
        for m in range(n):
            col = _solve(L, [mp.mpf(int(i == m)) for i in range(n)])
            coefficients = tuple(mp.ldexp(x, -L.scale) for x in col)
            controls.append(ControlSignal(system.kernels, coefficients, T, bits))
            norms.append(float(mp.sqrt(max(coefficients[m], mp.mpf(0)))))
    return tuple(controls), tuple(norms)


def complex_division_moment_set(d, one, other, t, scale):
    """closed_form._moment_set with every recursion step divided through |nu|^2,
    real nu included: the integers that its division by nu alone must match."""
    (a1, b1, x1, y1), (a2, b2, x2, y2) = one, other
    sets = []
    for sign in (1, -1) if b2 else (1,):
        a, b = a1 + a2, b1 + sign * b2
        x, y = (x1 * x2 - sign * y1 * y2) >> scale, (sign * x1 * y2 + y1 * x2) >> scale
        n2 = a * a + b * b
        if 4 * n2 * t * t < 1 << 4 * scale:
            sets.append(closed_form._series_moments(d, a, b, t, scale))
            continue
        out, p, q, tp = [], x - (1 << scale), y, 1 << scale
        for j in range(d + 1):
            if j:
                tp = tp * t >> scale
                p, q = (tp * x >> scale) - j * out[-1][0], (tp * y >> scale) - j * out[-1][1]
            out.append((((p * a + q * b) << scale) // n2, ((q * a - p * b) << scale) // n2))
        sets.append(out)
    return sets[0], sets[-1]


def gamma_route_targets(config, state0, precision_bits):
    """{row label: (target, row scale)} of every mode row, by the route
    assembly took before it read targets from the data: gamma1, gamma2 =
    -(free value, free velocity) at T from the fundamental solutions, then
    (l-+ gamma1 - gamma2) / x_n per root, realified, and -(n^2 gamma1 +
    gamma2) / x_n, -gamma1 / x_n at critical damping.

    The roots and traces are config.spectrum's, as the rows' kernels carry
    them, so that the reference checks the arithmetic, not their rounding.
    That route cancels the slow root's part of the flow to leave a fast
    root's target, so it runs at precision_bits plus the bits the cancellation
    costs, log2 e^((Re l+ - Re l-) T) at most.  The row scale is
    (|u1| + |l-+| |u0|) |e^(l+- T) / x_n|; the drift row's is
    (|u0| + (|u1| + n^2 |u0|) T) e^(-n^2 T) / |x_n|.
    """
    spectrum, last = config.spectrum, config.spectrum.eigenvalues[-1]
    gap = float(mp.re(last.lambda_plus - last.lambda_minus) * config.horizon) / math.log(2)
    out = {}
    with mp.workprec(precision_bits + math.ceil(gap) + GUARD_BITS):
        T = to_mpf(config.horizon)
        for n, u0, u1, x in zip(state0.modes, state0.values, state0.velocities,
                                spectrum.traces):
            if n == 0 or x == 0:
                continue
            eig = spectrum.eigenvalues[n - 1]
            lp, lm, u0, u1 = eig.lambda_plus, eig.lambda_minus, to_mpf(u0), to_mpf(u1)
            g, h, dg, dh = (sum(c * T ** p * mp.exp(lam * T) for c, p, lam in parts)
                            for parts in fundamental_solutions(lp, lm))
            g1, g2 = -(u0 * g + u1 * h), -(u0 * dg + u1 * dh)

            def scale(root, other):
                return (abs(u1) + abs(other) * abs(u0)) * abs(mp.exp(root * T) / x)

            if eig.regime is DampingRegime.UNDERDAMPED:
                zeta, size = (lm * g1 - g2) / x, scale(lp, lm)
                rows = {"cos": (zeta.real, size), "sin": (zeta.imag, size)}
            elif eig.regime is DampingRegime.CRITICAL:
                n2 = mp.mpf(n) ** 2
                drift = (abs(u0) + (abs(u1) + n2 * abs(u0)) * T) * mp.exp(-n2 * T) / abs(x)
                rows = {"decay": (-(n2 * g1 + g2) / x, scale(lp, lm)),
                        "drift": (-g1 / x, drift)}
            else:
                rows = {"slow": ((lm * g1 - g2) / x, scale(lp, lm)),
                        "fast": ((lp * g1 - g2) / x, scale(lm, lp))}
            out.update({f"mode{n}-{suffix}": row for suffix, row in rows.items()})
    return out
