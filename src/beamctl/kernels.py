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
form and ControlSignal.term_scale_bound are all the two verification
routes share.  The closed-form route's moment calculus lives in
closed_form; this module holds the oracle route's.

The oracle route reads f'' alone, as a Chebyshev series built from
extended-precision values at Chebyshev-Lobatto nodes (ControlSignal.proxy);
f' and f are that series integrated once and twice from t = 0
(_integration_matrix), since f(0) = f'(0) = 0.  ControlSignal._sample_extended
sums f'' from ControlSignal.term_table, with no moment and no antiderivative:
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

from ._numutil import decimal_str, quotient, to_fixed, to_mpf
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
    assembled moment system).  closed_form.control_moments gives the
    closed-form route its values at T, `proxy` gives the oracle route its
    Chebyshev series, and `sample` reads float64 samples on [0, T] off that
    proxy.
    """

    kernels: Tuple[Kernel, ...]
    coefficients: Tuple[mp.mpf, ...]
    horizon: mp.mpf
    precision_bits: int = 256

    def __post_init__(self):
        if len(self.kernels) != len(self.coefficients):
            raise ValueError("one coefficient per kernel required")

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
        """The oracle route's own calculus, apart from closed_form's, built
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
