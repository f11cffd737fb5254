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

Those (coefficient, power, rate) parts (Kernel.exponential_parts) are all
that the two verification routes share.  The closed-form route needs one
primitive, the truncated moment

    M_d(nu, t) = int_0^t w^d e^(nu w) dw,

computed for d = 0..D at once by power_exp_moments, from an exponential
e^(nu t) the caller supplies, by a stable series for small |nu t| and by the
usual recursion in d otherwise.  Gram entries and the convolutions of f''
against (t-s)^d e^(lam (t-s)) (ControlSignal.convolve) that give the slope
f', the signal f and the modal Duhamel response are all sums of M_d.  The
Gram matrix (synthesis.gram_matrix) takes each kernel as Re or Im of one
rate's term (Kernel.real_form), one moment pair per rate pair, in fixed point
but for the series; gram_entry, the per-entry reference, sums all products.

The oracle route reads float64 samples of f, f', f'' off one Chebyshev proxy
per signal, built from extended-precision values at Chebyshev-Lobatto nodes
(ControlSignal.proxy).  ControlSignal._sample_extended sums those from the
explicit antiderivatives in ControlSignal.term_table, with no M_d: parts
merged by rate, on integers with F fraction bits (F = 32 past the bits the
term bound asks for), one fixed-point exponential per rate and node.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Optional, Tuple

import mpmath as mp
import numpy as np
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed, ln2_fixed, pi_fixed

from ._numutil import GUARD_BITS, decimal_str, quotient, strip_imag, to_fixed, to_mpf
from .errors import SamplingError

__all__ = [
    "Kernel",
    "ControlSignal",
    "power_exp_moment",
    "power_exp_moments",
    "gram_entry",
    "kernel_value",
    "convolution_moment",
    "ChebyshevProxy",
]

# Chebyshev proxy of a control's samples (ControlSignal.proxy)
_FIRST_NODES = 16           # Lobatto intervals of the first round
_MAX_NODES = 4096           # no plateau by here: SamplingError
_HELDOUT_RTOL = 1e-12       # held-out gap against the series' largest value
_EPS = 2.0 ** -52
_TINY = np.finfo(np.float64).tiny

SIGNALS = ("f", "f_prime", "f_second")    # ControlSignal.sample's keys, in proxy row order

# kernel kind -> the parameters it takes, in descriptor order
_PARAMETERS = {"const": (), "linear": (), "exp": ("rate",), "polyexp": ("rate",),
               "expcos": ("decay", "freq"), "expsin": ("decay", "freq")}
_HALF = mp.mpf(0.5)         # power_exp_moments' series bound, built once (exact at any precision)


def power_exp_moments(d: int, nu, t, e_nut) -> list:
    """[M_0, ..., M_d](nu, t), M_j = int_0^t w^j e^(nu w) dw, given e_nut = e^(nu t).

    The one M_d calculus, for an mpf t at the current working precision.
    Series when |nu t| < 1/2 (covers nu = 0 exactly; abs(nu) only once
    max(|Re nu|, |Im nu|) t, never rounded above it, is below 1/2); otherwise
    M_j = (t^j e^(nu t) - j M_(j-1)) / nu seeded with M_0 = (e^(nu t) - 1) / nu.
    That seed loses log2(|e^(nu t)| / |e^(nu t) - 1|) bits, a few for the
    damped rates (Re nu < 0) of this problem, well inside GUARD_BITS.
    Callers that need many moments pass exponentials they computed once.
    """
    if d < 0:
        raise ValueError("moment order must be nonnegative")
    if t == 0:
        return [mp.mpf(0)] * (d + 1)
    if max(abs(nu.real), abs(nu.imag)) * t < _HALF and abs(nu) * t < _HALF:
        return [_series_moment(j, nu, t) for j in range(d + 1)]
    out = [(e_nut - 1) / nu]
    tp = mp.mpf(1)
    for j in range(1, d + 1):
        tp = tp * t
        out.append((tp * e_nut - j * out[-1]) / nu)
    return out


def _series_moment(d: int, nu, t):
    """M_d(nu, t) = sum_k nu^k t^(k+d+1) / (k! (k+d+1)); geometric-factorial decay."""
    total = mp.mpf(0)
    term = t ** (d + 1)
    drop, k = mp.mp.prec + 2, 0     # mag may overstate by 2 bits: stop once term < total eps
    while True:
        contrib = term / (k + d + 1)
        total += contrib
        if k > 2 and mp.mag(total) - mp.mag(contrib) >= drop:
            return total
        k += 1
        term = term * nu * t / k


def power_exp_moment(d: int, nu, t):
    """M_d(nu, t) with its own exponential, at the working precision; see power_exp_moments."""
    return power_exp_moments(d, nu, mp.mpf(t), mp.exp(nu * mp.mpf(t)))[d]


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

    def exponential_parts(self, horizon) -> Tuple[Tuple[mp.mpc, int, mp.mpc], ...]:
        """(coefficient, power, rate) terms of sum a u^p e^(lam u), u = T - s:
        the real form, with Re z = (z + conj z) / 2 and Im z = (z - conj z) / (2i)
        splitting a complex rate's term over the rate and its conjugate."""
        lam, imag, poly = self.real_form(horizon)
        if mp.im(lam) == 0:
            return tuple((mp.mpf(c), p, lam) for c, p in poly)
        a = mp.mpc(0, -0.5) if imag else mp.mpf(0.5)
        return tuple(part for c, p in poly
                     for part in ((c * a, p, lam), (c * mp.conj(a), p, mp.conj(lam))))

    def descriptor(self, precision_bits: int) -> dict:
        """JSON-ready description with decimal-string parameters."""
        out = {"kind": self.kind}
        for p in _PARAMETERS[self.kind]:
            out[p] = decimal_str(getattr(self, p), precision_bits)
        return out

    @staticmethod
    def from_descriptor(d: dict) -> "Kernel":
        kind = d["kind"]
        return Kernel(kind, **{p: mp.mpf(d[p]) for p in _PARAMETERS.get(kind, ())})


def kernel_value(kernel: Kernel, s, horizon):
    """Pointwise value at time s in [0, T], at the current working precision.

    Per-kind formulas rather than a parts sum: this is the independent
    reference the quadrature tests hold the M_d calculus to.
    """
    s = mp.mpf(s)
    T = to_mpf(horizon)
    u = T - s
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


def gram_entry(kernel_a: Kernel, kernel_b: Kernel, horizon,
               precision_bits: int = 256):
    """L2(0, T) inner product of two kernels, by closed form.

    Expands both kernels into u^p e^(lam u) terms and sums
    a_i conj(b_j) M_(p_i + p_j)(lam_i + conj(mu_j), T).  Real for the real
    kernel kinds; the roundoff-level imaginary residue is stripped.
    """
    with mp.workprec(precision_bits + GUARD_BITS):
        T = to_mpf(horizon)
        total = mp.mpf(0)
        for (a, p, lam) in kernel_a.exponential_parts(T):
            for (b, q, mu) in kernel_b.exponential_parts(T):
                total = total + a * mp.conj(b) * power_exp_moment(p + q, lam + mp.conj(mu), T)
        return strip_imag(total, precision_bits)


def convolution_moment(part, d: int, lam, t, horizon):
    """int_0^t (T-s)^p e^(mu (T-s)) (t-s)^d e^(lam (t-s)) ds for one kernel part.

    Binomially rewrites (T-s)^p around (T-t) so everything reduces to
    M moments in the local variable w = t - s.  Used by ControlSignal.convolve.
    """
    a, p, mu = part
    t = mp.mpf(t)
    T = to_mpf(horizon)
    head = a * mp.exp(mu * (T - t))
    nu = mu + lam
    moments = power_exp_moments(d + p, nu, t, mp.exp(nu * t))
    total = mp.mpf(0)
    for j in range(p + 1):
        total = total + comb(p, j) * (T - t) ** (p - j) * moments[d + j]
    return head * total


@dataclass(frozen=True)
class ControlSignal:
    """Boundary control in curvature form: f''(s) = sum_k c_k kernel_k(s).

    The signal itself and its slope are recovered by integrating twice from
    zero, f'(t) = convolve(0, 0, t) and f(t) = convolve(1, 0, t), so
    f(0) = f'(0) = 0 holds by construction; f(T) = f'(T) = 0 holds when the
    constant and linear moments of f'' vanish (the first two rows of every
    assembled moment system).
    """

    kernels: Tuple[Kernel, ...]
    coefficients: Tuple[mp.mpf, ...]
    horizon: mp.mpf
    precision_bits: int = 256

    def __post_init__(self):
        if len(self.kernels) != len(self.coefficients):
            raise ValueError("one coefficient per kernel required")

    def curvature(self, t):
        """f''(t)."""
        with mp.workprec(self.precision_bits + GUARD_BITS):
            acc = mp.mpf(0)
            for c, k in zip(self.coefficients, self.kernels):
                acc = acc + c * kernel_value(k, t, self.horizon)
            return acc

    def convolve(self, d: int, lam, t):
        """int_0^t f''(s) (t-s)^d e^(lam (t-s)) ds, the closed-form route's one calculus.

        Sums c * convolution_moment over every kernel's exponential parts, so
        slope, value and the modal Duhamel response all reduce to M_d moments.
        A complex rate or kernel part leaves a complex result.
        """
        with mp.workprec(self.precision_bits + GUARD_BITS):
            total = mp.mpf(0)
            for c, k in zip(self.coefficients, self.kernels):
                for part in k.exponential_parts(self.horizon):
                    total = total + c * convolution_moment(part, d, lam, t, self.horizon)
            return total

    def term_scale_bound(self) -> float:
        """Upper bound on the magnitude of any single coefficient-times-kernel
        term across [0, T], signal and antiderivatives included.

        A part c a u^p e^(lam u) is at most |c a| T^p e^(max(Re lam, 0) T) on
        [0, T], and two integrations from 0 scale that by max(1, T, T^2/2).
        Synthesized curvatures are small numbers written as differences of
        enormous ones; this bound measures the enormity, which decides how
        much precision faithful samples require.
        """
        T = float(self.horizon)
        bound = 0.0
        for c, k in zip(self.coefficients, self.kernels):
            for a, p, lam in k.exponential_parts(self.horizon):
                grow = math.exp(max(float(mp.re(lam)), 0.0) * T)
                bound += abs(complex(c * a)) * T ** p * grow
        return bound * max(1.0, T, T * T / 2)

    def sample(self, times, signals=SIGNALS) -> dict:
        """Float64 samples {t, f, f_prime, f_second} at times in [0, T].

        Synthesized controls are small numbers written as differences of huge
        terms, so no float64 sum of the terms can be trusted.  Every sample is
        read off the control's Chebyshev proxy (`proxy`) by Clenshaw
        recurrence, within _HELDOUT_RTOL of its series' largest value; a
        control the proxy cannot capture raises SamplingError.  `signals`
        names the subset of SIGNALS to evaluate; each comes out the same
        whatever else is asked for.
        """
        t = np.asarray(times, dtype=np.float64)
        if t.size == 0:
            return {"t": t, **{name: t.copy() for name in signals}}
        rows = self.proxy(t, [SIGNALS.index(name) for name in signals])
        return {"t": t, **dict(zip(signals, rows))}

    @cached_property
    def proxy(self) -> "ChebyshevProxy":
        """Chebyshev series of f, f' and f'' good to float64, built once.

        f, f', f'' are summed on fixed-point integers (`_sample_extended` on
        `term_table`) at the Chebyshev-Lobatto nodes of [0, T], doubling them from
        _FIRST_NODES (each round evaluates only the new half) until the
        standard chop of Aurentz & Trefethen (ACM TOMS 2017) finds all three
        coefficient tails flat at float64 roundoff.  The chopped series are
        then checked at held-out times: the angular midpoints of the node
        intervals next to both ends (the fast kernels peak next to t = T)
        and of a spread across the interior.  No plateau by _MAX_NODES, or a
        held-out gap above _HELDOUT_RTOL of the series' largest node value,
        raises SamplingError.
        """
        T = float(self.horizon)
        n = _FIRST_NODES
        values = self._sample_extended(_lobatto_times(T, np.arange(n + 1), n))
        while True:
            coeffs = _chebyshev_coefficients(values)
            cuts = [_standard_chop(row) for row in coeffs]
            if max(cuts) <= n:
                break
            if 2 * n > _MAX_NODES:
                tail = np.abs(coeffs[:, -(n // 8):]).max(axis=1)
                top = np.maximum(np.abs(coeffs).max(axis=1), _TINY)
                raise SamplingError(n, float((tail / top).max()), _EPS,
                                    "coefficient tail")
            fresh = self._sample_extended(_lobatto_times(T, 2 * np.arange(n) + 1, 2 * n))
            merged = np.empty((3, 2 * n + 1))
            merged[:, ::2] = values
            merged[:, 1::2] = fresh
            values, n = merged, 2 * n

        table = np.zeros((max(cuts), 3))
        for i, cut in enumerate(cuts):
            table[:cut, i] = coeffs[i, :cut]
        ends = np.concatenate([np.arange(min(8, n)), np.arange(n - 4, n),
                               np.arange(0, n, max(1, n // 16))])
        held = _lobatto_times(T, 2 * np.unique(ends) + 1, 2 * n)
        gap = np.abs(_clenshaw(2.0 * held / T - 1.0, table) - self._sample_extended(held))
        scale = np.maximum(np.abs(values).max(axis=1), _TINY)
        worst = float((gap.max(axis=1) / scale).max())
        if not worst <= _HELDOUT_RTOL:
            raise SamplingError(n, worst, _HELDOUT_RTOL, "held-out error")
        return ChebyshevProxy(T, table, n, tuple(cut - 1 for cut in cuts), worst)

    @cached_property
    def term_table(self) -> tuple:
        """The oracle route's own calculus, independent of `convolve`, built
        once: (F, T, cubic, rates, ln 2, pi / 2) on integers with F fraction
        bits, 32 past what the term bound asks for and past a bound's negative
        exponent (2^-F <= bound 2^-(bits + 32) for data of any size).  f^(i)(t)
        = cubic[i](t) + sum over rates of Re((A_i + B_i u) e^(lam u)), u = T - t,
        parts merged by rate, each (Re lam, Im lam, ((Re, Im of A_i, B_i) per i)).
        """
        bound = self.term_scale_bound()
        F = 32 + (max(128, int(math.log2(max(bound, 1.0))) + 80) + max(0, 1 - math.frexp(bound)[1])
                  if math.isfinite(bound) else max(256, self.precision_bits))
        with mp.workprec(F):
            T = to_mpf(self.horizon)
            lin = [mp.mpf(0), mp.mpf(0)]    # f'' of the rate-0 parts: lin[0] + lin[1] t
            rates = {}                      # lam -> [A_0, A_1, A_2, B_0, B_1, B_2]
            for c, k in zip(self.coefficients, self.kernels):
                c = to_mpf(c)
                if c == 0:
                    continue
                for (a, p, lam) in k.exponential_parts(T):
                    if mp.im(lam) < 0:
                        continue            # conjugate twin carries it
                    ca = c * a * (2 if mp.im(lam) > 0 else 1)
                    if lam == 0:            # ca (T - t)^p
                        lin[0] += ca * T ** p
                        lin[1] -= ca * p
                        continue
                    AB = rates.setdefault(lam, [0] * 6)
                    g = (ca / lam ** 2, -ca / lam, ca)  # G, G', G'' of G'' = ca e^(lam u)
                    for i, x in enumerate((-2 * g[0] / lam, g[0], 0) + g if p else g):
                        AB[i] += x
            # the cubic cancels the exponential terms' f and f' at t = 0
            h = [sum(mp.re((AB[i] + AB[i + 3] * T) * mp.exp(lam * T)) for lam, AB in rates.items())
                 for i in (0, 1)]
            cubic = [(-h[0], -h[1], lin[0] / 2, lin[1] / 6), (-h[1], lin[0], lin[1] / 2, 0),
                     (lin[0], lin[1], 0, 0)]
            ints = [[to_fixed(part(z), F) for z in (lam, *AB) for part in (mp.re, mp.im)]
                    for lam, AB in rates.items()]
            return (F, to_fixed(T, F), [[to_fixed(x, F) for x in q] for q in cubic],
                    [(lr, li, [AB[2 * i:2 * i + 2] + AB[2 * i + 6:2 * i + 8] for i in range(3)])
                     for lr, li, *AB in ints], ln2_fixed(F), pi_fixed(F - 1))

    def _sample_extended(self, t: np.ndarray) -> np.ndarray:
        """Rows f, f', f'' at times t by `term_table`, summed on integers from
        the exact t_j 2^F and rounded to float64 once.  All terms see the same
        u = T - t_j: one ulp between them would smear the cancellation by
        bound * ulp.  One e^(Re lam u) and cos, sin(Im lam u) per rate by
        mpmath's fixed-point kernels (mpz under gmpy2, untested: made int last).
        """
        F, T, cubic, rates, ln2, half_pi = self.term_table
        out = np.empty((3, t.size))
        for j, tj in enumerate(t.tolist()):
            x = to_fixed(tj, F)
            u, x2 = T - x, x * x >> F
            acc = [(q0 << F) + q1 * x + q2 * x2 + q3 * (x2 * x >> F) for q0, q1, q2, q3 in cubic]
            for lr, li, rows in rates:
                zr, zi = exp_fixed(lr * u >> F, F, ln2), 0
                if li:
                    cos, sin = cos_sin_fixed(li * u >> F, F, half_pi)
                    zr, zi = zr * cos >> F, zr * sin >> F
                for i, (ar, ai, br, bi) in enumerate(rows):
                    acc[i] += (ar + (br * u >> F)) * zr - (ai + (bi * u >> F)) * zi
            out[:, j] = [quotient(int(v), 1 << 2 * F) for v in acc]
        return out


@dataclass(frozen=True)
class ChebyshevProxy:
    """Chopped Chebyshev series of f, f' and f'' on [0, T], in float64.

    Row k of `coefficients` holds the T_k coefficients of (f, f', f'') in
    x = 2t/T - 1, each series zero-padded past its own chopped degree.
    """

    horizon: float
    coefficients: np.ndarray          # shape (max degree + 1, 3)
    nodes: int                        # Lobatto intervals sampled in extended precision
    degrees: Tuple[int, int, int]     # chopped degree of f, f', f''
    heldout_error: float              # worst held-out gap relative to its series' scale

    def __call__(self, t: np.ndarray, rows=(0, 1, 2)):
        """(f, f', f'') at times t in [0, T], by Clenshaw recurrence; only the
        given rows of that triple."""
        if not (t.min() >= 0.0 and t.max() <= self.horizon):
            raise ValueError(f"sample times must lie in [0, {self.horizon!r}]")
        return tuple(_clenshaw(2.0 * t / self.horizon - 1.0, self.coefficients[:, list(rows)]))


def _lobatto_times(T: float, numer: np.ndarray, denom: int) -> np.ndarray:
    """Times T (1 + cos(pi numer / denom)) / 2, written so t = 0 and t = T come out exact."""
    return T * np.sin(np.pi * (denom - numer) / (2 * denom)) ** 2


def _clenshaw(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_k table[k] T_k(x) at every x, one output row per column of table."""
    x2 = 2.0 * x
    b1 = b2 = np.zeros((table.shape[1], x.size))
    for c in table[:0:-1]:
        b1, b2 = x2 * b1 - b2 + c[:, None], b1
    return x * b1 - b2 + table[0][:, None]


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """T_k coefficients, k = 0..n, of the interpolant through values at the
    Lobatto points x_j = cos(pi j / n), j = 0..n (along the last axis)."""
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
