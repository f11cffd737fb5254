"""Moment-problem kernels and the synthesized control signal.

Every constraint kernel used by the moment problem is, in the reversed time
variable u = T - s, a short linear combination of terms u^p e^(lam u) with
p in {0, 1}:

    const        1
    linear       s = T - u
    exp          e^(lam (T-s))                     (real rate)
    polyexp      (T-s) e^(lam (T-s))               (critical-regime partner)
    expcos       e^(beta (T-s)) cos(alpha (T-s))   (conjugate-pair real part)
    expsin       e^(beta (T-s)) sin(alpha (T-s))   (conjugate-pair imag part)

Kernel.real_form writes a kernel as Re, or Im, of one rate's term; that
form is all the two verification routes share.  The closed-form route
needs one primitive, the truncated moment

    M_d(nu, T) = int_0^T w^d e^(nu w) dw,

computed for d = 0..D at once by _moment_set, on integers only, at nu =
lam + mu and lam + conj mu from two rates encoded by _fixed_rate (each
rate's e^(lam T) at a fixed binary point): one series pass for all orders
when |nu T| < 1/2, the usual recursion in d otherwise.  Gram entries
(synthesis.gram_matrix) and the control's moments K(p, lam) = int_0^T
f''(s) (T-s)^p e^(lam (T-s)) ds (ControlSignal.moments), which give f(T),
f'(T) and the modal Duhamel responses at T, are sums of M_d, one moment
pair per rate pair.

The oracle route reads f'' alone, as a Chebyshev series built from
extended-precision values at Chebyshev-Lobatto nodes (ControlSignal.proxy);
f' and f are that series integrated once and twice from t = 0
(_integration_matrix), since f(0) = f'(0) = 0.  ControlSignal._sample_extended
sums f'' from ControlSignal.term_table, with no M_d and no antiderivative:
parts merged by rate, on integers with F fraction bits (F = 32 past the bits
the term bound asks for), one fixed-point exponential per rate and node.  The
spectral oracle (modal_dynamics.simulate_oracle) integrates and resolves its
own modal series with this module's _integration_matrix, _clenshaw and
_standard_chop, under the same _MAX_NODES.  Only these oracle-route functions
import numpy, each when it is called, so the closed-form route never loads it.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import mpmath as mp
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed, ln2_fixed, pi_fixed

from ._numutil import GUARD_BITS, decimal_str, quotient, to_fixed, to_mpf
from .errors import SamplingError

__all__ = [
    "Kernel",
    "ControlSignal",
    "ChebyshevProxy",
]

# Chebyshev proxy of a control's samples (ControlSignal.proxy)
_FIRST_NODES = 16           # Lobatto intervals of the first round
_MAX_NODES = 4096           # no plateau by here: SamplingError
_HELDOUT_RTOL = 1e-12       # held-out gap against the series' largest value
_EPS = 2.0 ** -52
_TINY = sys.float_info.min

SIGNALS = ("f", "f_prime", "f_second")    # ControlSignal.sample's keys, in proxy row order

# kernel kind -> the parameters it takes, in descriptor order
_PARAMETERS = {"const": (), "linear": (), "exp": ("rate",), "polyexp": ("rate",),
               "expcos": ("decay", "freq"), "expsin": ("decay", "freq")}


def _fixed_point_bits(precision_bits: int, magnitude_bits: int, horizon) -> int:
    """Fraction bits F of a fixed-point moment sum (the Gram's, or a control's
    moments): precision_bits + GUARD_BITS + 16, the caller's magnitude_bits
    (how far below 1 its sums must reach), and 3 log2(2T) for divisions by nu."""
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


@dataclass(frozen=True)
class Kernel:
    """One constraint kernel on [0, T]; see the module docstring for kinds."""

    kind: str
    rate: Optional[mp.mpf] = None     # exp / polyexp
    decay: Optional[mp.mpf] = None    # expcos / expsin
    freq: Optional[mp.mpf] = None     # expcos / expsin

    def __post_init__(self):
        if self.kind not in _PARAMETERS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        wanted = _PARAMETERS[self.kind]
        given = tuple(p for p in ("rate", "decay", "freq") if getattr(self, p) is not None)
        if given != wanted:
            raise ValueError(f"{self.kind} kernel takes {' and '.join(wanted) or 'no parameters'}"
                             f", got {' and '.join(given) or 'none'}")

    def real_form(self, horizon) -> Tuple[mp.mpc, bool, Tuple[Tuple[mp.mpf, int], ...]]:
        """(rate, imaginary, ((c, p), ...)): the kernel is Re, or Im if imaginary,
        of sum c u^p e^(rate u), u = T - s, with real c; one rate per kernel."""
        if self.kind in ("expcos", "expsin"):
            return mp.mpc(self.decay, self.freq), self.kind == "expsin", ((1, 0),)
        if self.kind == "linear":
            return mp.mpf(0), False, ((to_mpf(horizon), 0), (-1, 1))
        rate = mp.mpf(0 if self.rate is None else self.rate)
        return rate, False, ((1, int(self.kind == "polyexp")),)

    def descriptor(self, precision_bits: int) -> dict:
        """JSON-ready description with decimal-string parameters."""
        out = {"kind": self.kind}
        for p in _PARAMETERS[self.kind]:
            out[p] = decimal_str(getattr(self, p), precision_bits)
        return out


@dataclass(frozen=True)
class ControlSignal:
    """Boundary control in curvature form: f''(s) = sum_k c_k kernel_k(s).

    The signal itself and its slope are f'' integrated twice from zero, so
    f(0) = f'(0) = 0 holds by construction; f(T) = f'(T) = 0 holds when the
    constant and linear moments of f'' vanish (the first two rows of every
    assembled moment system).  `moments` gives the closed-form route its
    values at T, `proxy` gives the oracle route its Chebyshev series, and
    `sample` reads float64 samples on [0, T] off that proxy.
    """

    kernels: Tuple[Kernel, ...]
    coefficients: Tuple[mp.mpf, ...]
    horizon: mp.mpf
    precision_bits: int = 256

    def __post_init__(self):
        if len(self.kernels) != len(self.coefficients):
            raise ValueError("one coefficient per kernel required")

    def moments(self, keys) -> dict:
        """{(p, lam): K(p, lam)} for (power, rate) keys, K(p, lam) =
        int_0^T f''(s) (T-s)^p e^(lam (T-s)) ds: the closed-form route's calculus.

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
        y, e = mp.frexp(self.term_scale_bound())    # bound = y 2^e, 1/2 <= y < 1
        # ceil(log2 bound) is e, or e - 1 at a power of two
        F = _fixed_point_bits(self.precision_bits, max(0, e - (y == 0.5)) + max(0, 1 - e),
                              self.horizon)
        with mp.workprec(F + 16):
            T = to_mpf(self.horizon)
            merged = {}     # mu -> {q: [C_q of the Re kernels, of the Im kernels]}
            for c, k in zip(self.coefficients, self.kernels):
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
        with mp.workprec(self.precision_bits + GUARD_BITS):
            out = {}
            for p, lam in keys:
                twin = mp.im(lam) < 0       # K(p, conj lam) = conj K(p, lam)
                re, im = sums[p, mp.conj(lam) if twin else lam]
                z = mp.mpc(mp.ldexp(re, -2 * F - 1), mp.ldexp(im, -2 * F - 1))
                out[p, lam] = mp.conj(z) if twin else z
            return out

    def term_scale_bound(self) -> mp.mpf:
        """Upper bound on the magnitude of any single coefficient-times-kernel
        term across [0, T], signal and antiderivatives included.

        A part c a u^p e^(lam u) of a real form is at most |c a| T^p
        e^(max(Re lam, 0) T) on [0, T]; two integrations scale that by max(1, T, T^2/2).
        Synthesized curvatures are small numbers written as differences of
        enormous ones; this bound measures the enormity, which decides how
        much precision faithful samples require.  Summed at 53 bits, rounding
        as float64 does but with mpf's unbounded exponent, so it never overflows.
        """
        with mp.workprec(53):
            T = to_mpf(self.horizon)
            bound = mp.mpf(0)
            for c, k in zip(self.coefficients, self.kernels):
                lam, _, poly = k.real_form(T)
                grow = mp.exp(max(mp.re(lam), 0) * T)
                for a, p in poly:
                    bound += abs(c * a) * T ** p * grow
            return bound * max(1, T, T * T / 2)

    def sample(self, times) -> dict:
        """Float64 samples {t, f, f_prime, f_second} at times in [0, T], such as
        the uniform samples of control.csv.

        Synthesized controls are small numbers written as differences of huge
        terms, so no float64 sum of the terms can be trusted.  Every sample is
        read off the control's Chebyshev proxy (`proxy`) by Clenshaw
        recurrence: f'' within _HELDOUT_RTOL of its series' largest value, f'
        and f from that series integrated.  A control the proxy cannot capture
        raises SamplingError.
        """
        import numpy as np
        t = np.asarray(times, dtype=np.float64)
        if t.size == 0:
            return {"t": t, **{name: t.copy() for name in SIGNALS}}
        return {"t": t, **dict(zip(SIGNALS, self.proxy(t)))}

    @cached_property
    def proxy(self) -> "ChebyshevProxy":
        """Chebyshev series of f, f' and f'' good to float64, built once.

        f'' is summed on fixed-point integers (`_sample_extended` on
        `term_table`) at the Chebyshev-Lobatto nodes of [0, T], their times
        exact to the fixed point (`_lobatto_nodes`), doubling them from
        _FIRST_NODES (each round evaluates only the new half) until the
        standard chop of Aurentz & Trefethen (ACM TOMS 2017) finds its
        coefficient tail flat at float64 roundoff.  The chopped series is then
        checked at held-out times: the angular midpoints of the node intervals
        next to both ends (the fast kernels peak next to t = T) and of a spread
        across the interior.  A node value past float64's range, no plateau by
        _MAX_NODES, or a held-out gap above _HELDOUT_RTOL of the largest node
        value raises SamplingError.  f' and f are the chopped series
        integrated from t = 0 (_integration_matrix).
        """
        import numpy as np
        T = float(self.horizon)
        n = _FIRST_NODES
        values = self._sample_extended(self._lobatto_nodes(np.arange(n + 1), n))
        while True:
            if not np.isfinite(values).all():
                raise SamplingError(n, math.inf, _EPS, "control proxy node value")
            coeffs = _chebyshev_coefficients(values)
            cut = _standard_chop(coeffs)
            if cut <= n:
                break
            if 2 * n > _MAX_NODES:
                tail = np.abs(coeffs[-(n // 8):]).max() / max(np.abs(coeffs).max(), _TINY)
                raise SamplingError(n, float(tail), _EPS, "control proxy coefficient tail")
            fresh = self._sample_extended(self._lobatto_nodes(2 * np.arange(n) + 1, 2 * n))
            merged = np.empty(2 * n + 1)
            merged[::2], merged[1::2] = values, fresh
            values, n = merged, 2 * n

        f2 = np.append(coeffs[:cut], [0.0, 0.0])      # room for two integrations
        ends = np.concatenate([np.arange(min(8, n)), np.arange(n - 4, n),
                               np.arange(0, n, max(1, n // 16))])
        held = _lobatto_times(T, 2 * np.unique(ends) + 1, 2 * n)
        gap = np.abs(_clenshaw(2.0 * held / T - 1.0, f2[:, None])[0] - self._sample_extended(held))
        worst = float(gap.max() / max(np.abs(values).max(), _TINY))
        if not worst <= _HELDOUT_RTOL:
            raise SamplingError(n, worst, _HELDOUT_RTOL, "control proxy held-out error")
        J = _integration_matrix(cut + 1, T)
        f1 = J @ f2
        return ChebyshevProxy(T, np.column_stack([J @ f1, f1, f2]), n, cut - 1, worst)

    @cached_property
    def term_table(self) -> tuple:
        """The oracle route's own calculus, independent of `moments`, built
        once: (F, T, line, rates, ln 2, pi / 2) on integers with F fraction
        bits, 32 past what the term bound asks for and past a bound's negative
        exponent (2^-F <= bound 2^-(bits + 32) for data of any size).  f''(t)
        = line[0] + line[1] t + sum over rates of Re((A + B u) e^(lam u)),
        u = T - t, parts merged by rate, each (Re lam, Im lam, Re A, Im A,
        Re B, Im B).
        """
        e = mp.frexp(self.term_scale_bound())[1]      # floor(log2 bound) is e - 1
        F = 32 + max(128, e - 1 + 80) + max(0, 1 - e)
        with mp.workprec(F):
            T = to_mpf(self.horizon)
            line = [mp.mpf(0), mp.mpf(0)]   # the rate-0 parts
            rates = {}                      # lam -> [A, B]
            for c, k in zip(self.coefficients, self.kernels):
                c = to_mpf(c)
                if c == 0:
                    continue
                lam, imag, poly = k.real_form(T)
                for a, p in poly:           # Im z = Re(-i z)
                    ca = c * a * (mp.mpc(0, -1) if imag else 1)
                    if lam == 0:            # ca (T - t)^p
                        line[0] += ca * T ** p
                        line[1] -= ca * p
                    else:
                        rates.setdefault(lam, [0, 0])[p] += ca
            return (F, to_fixed(T, F), [to_fixed(x, F) for x in line],
                    [tuple(to_fixed(part(z), F) for z in (lam, *AB) for part in (mp.re, mp.im))
                     for lam, AB in rates.items()], ln2_fixed(F), pi_fixed(F - 1))

    def _lobatto_nodes(self, numer: np.ndarray, denom: int) -> np.ndarray:
        """The times of `_lobatto_times` as integers t 2^F (`term_table`'s F),
        in an object array: T sin^2(pi (denom - numer) / (2 denom)) on
        integers by mpmath's fixed-point sine, within a few 2^-F of exact, so
        each node value belongs to its Lobatto point (f'' turns at a rate
        near max |lam| next to t = T, where a float64 time misplaces it)."""
        import numpy as np
        F, T, *_, half_pi = self.term_table
        angles = (half_pi * k // denom for k in (denom - numer).tolist())
        sines = (cos_sin_fixed(x, F, half_pi)[1] for x in angles)
        return np.array([T * s * s >> 2 * F for s in sines], dtype=object)

    def _sample_extended(self, t: np.ndarray) -> np.ndarray:
        """f'' at times t by `term_table`, summed on integers from t_j 2^F and
        rounded to float64 once: float64 times exactly, or an object array of
        those integers (`_lobatto_nodes`).  All terms see the same u = T - t_j:
        one ulp between them would smear the cancellation by bound * ulp.  One
        e^(Re lam u) and cos, sin(Im lam u) per rate by mpmath's fixed-point
        kernels (mpz under gmpy2, untested: made int last).
        """
        import numpy as np
        F, T, (l0, l1), rates, ln2, half_pi = self.term_table
        xs = t.tolist() if t.dtype == object else [to_fixed(tj, F) for tj in t.tolist()]
        out = np.empty(len(xs))
        for j, x in enumerate(xs):
            u, acc = T - x, (l0 << F) + l1 * x
            for lr, li, ar, ai, br, bi in rates:
                zr, zi = exp_fixed(lr * u >> F, F, ln2), 0
                if li:
                    cos, sin = cos_sin_fixed(li * u >> F, F, half_pi)
                    zr, zi = zr * cos >> F, zr * sin >> F
                acc += (ar + (br * u >> F)) * zr - (ai + (bi * u >> F)) * zi
            out[j] = quotient(int(acc), 1 << 2 * F)
        return out


@dataclass(frozen=True)
class ChebyshevProxy:
    """Chebyshev series of f, f' and f'' on [0, T], in float64.

    Row k of `coefficients` holds the T_k coefficients of (f, f', f'') in
    x = 2t/T - 1: f'' chopped at `degree` and zero-padded, f' and f that
    series integrated once and twice from t = 0.
    """

    horizon: float
    coefficients: np.ndarray          # shape (degree + 3, 3)
    nodes: int                        # Lobatto intervals sampled in extended precision
    degree: int                       # chopped degree of f''
    heldout_error: float              # worst held-out gap of f'', relative to its scale

    def __call__(self, t: np.ndarray):
        """(f, f', f'') at times t in [0, T], by Clenshaw recurrence."""
        if not (t.min() >= 0.0 and t.max() <= self.horizon):
            raise ValueError(f"sample times must lie in [0, {self.horizon!r}]")
        return tuple(_clenshaw(2.0 * t / self.horizon - 1.0, self.coefficients))


def _lobatto_times(T: float, numer: np.ndarray, denom: int) -> np.ndarray:
    """Times T (1 + cos(pi numer / denom)) / 2, written so t = 0 and t = T come out exact."""
    import numpy as np
    return T * np.sin(np.pi * (denom - numer) / (2 * denom)) ** 2


def _integration_matrix(m: int, T: float) -> np.ndarray:
    """J: the Chebyshev coefficients 0..m of a series on [0, T], in s = 2t/T - 1,
    to those of its integral from t = 0, truncated at degree m.

    int T_k ds = T_(k+1) / (2(k+1)) - T_(k-1) / (2(k-1)) (T_0 -> T_1,
    T_1 -> T_2 / 4), dt = T ds / 2, and row 0 is the constant that makes the
    integral vanish at s = -1.
    """
    import numpy as np
    J = np.zeros((m + 1, m + 1))
    k = np.arange(1, m + 1)
    J[k, k - 1] = T / (4 * k)
    J[1, 0] = T / 2
    J[k[:-1], k[:-1] + 1] = -T / (4 * k[:-1])
    J[0] = -((-1.0) ** k) @ J[1:]
    return J


def _clenshaw(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_k table[k] T_k(x) at every x, one output row per column of table."""
    import numpy as np
    x2 = 2.0 * x
    b1 = b2 = np.zeros((table.shape[1], x.size))
    for c in table[:0:-1]:
        b1, b2 = x2 * b1 - b2 + c[:, None], b1
    return x * b1 - b2 + table[0][:, None]


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """T_k coefficients, k = 0..n, of the interpolant through values at the
    Lobatto points x_j = cos(pi j / n), j = 0..n (along the last axis)."""
    import numpy as np
    n = values.shape[-1] - 1
    even = np.concatenate([values, values[..., -2:0:-1]], axis=-1)
    c = np.fft.rfft(even, axis=-1).real / n
    c[..., 0] /= 2
    c[..., n] /= 2
    return c


def _standard_chop(coeffs: np.ndarray) -> int:
    """Number of leading Chebyshev coefficients worth keeping.

    Aurentz & Trefethen's standardChop at tol = _EPS: find where the monotone
    envelope of |coeffs| flattens into a plateau below tol^(2/3), then cut at
    the last point before it on the envelope tilted by tol^(1/3).  Returns
    len(coeffs) when there is no plateau: the series is unresolved.
    """
    import numpy as np
    n = coeffs.size
    if n < 17:
        return n
    envelope = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if envelope[0] == 0.0:
        return 1
    envelope = envelope / envelope[0]
    for j in range(2, n + 1):           # 1-based indices, as in the paper
        j2 = int(1.25 * j + 5.5)
        if j2 > n:
            return n
        e1, e2 = envelope[j - 1], envelope[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - math.log(e1) / math.log(_EPS)):
            plateau = j - 1
            break
    if envelope[plateau - 1] == 0.0:
        return plateau
    floor = _EPS ** (7.0 / 6.0)
    j3 = int(np.count_nonzero(envelope >= floor))
    if j3 < j2:
        j2 = j3 + 1
        envelope[j2 - 1] = floor
    tilted = np.log10(envelope[:j2]) + np.linspace(0.0, -math.log10(_EPS) / 3.0, j2)
    return max(int(np.argmin(tilted)), 1)
