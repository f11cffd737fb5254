"""Minimum-norm synthesis of the boundary control from a moment system.

Among all curvature profiles f'' in L2(0, T) meeting the moment constraints,
the smallest one lies in the span of the constraint kernels themselves, so
synthesis reduces to the normal equations G c = target with G the kernels'
Gram matrix.  The boundary signal is then rebuilt from f'' by double
integration in closed form (the two flatness rows guarantee f(T) = f'(T) = 0,
and f(0) = f'(0) = 0 by construction).

The Gram matrix of nearly dependent kernels is famously ill conditioned;
entries are computed in closed form at extended precision, real by
construction, from one exponential per rate and one moment pair per rate
pair, and factored, scaled to unit diagonal, on exact integer dot products
by a Cholesky routine that watches its own pivots.  A pivot collapsing below
2^(-precision_bits/2) of the largest one seen means the matrix has lost
definiteness at the working precision: the solver then reassembles
everything at doubled precision, up to PRECISION_CEILING bits, or gives up
with a quantitative report.  There is no approximate fallback: a returned
control meets its moment targets to the working precision.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from math import isqrt
from operator import mul
from typing import Sequence, Tuple

import mpmath as mp

from ._numutil import GUARD_BITS, decimal_str, to_mpf
from .errors import NumericalRankDeficiency
from .kernels import ControlSignal, power_exp_moments
from .moment_problem import MomentSystem

__all__ = [
    "PRECISION_CEILING",
    "SynthesisReport",
    "gram_matrix",
    "cholesky_factor",
    "solve_min_norm",
    "biorthogonal_family",
    "write_control_csv",
]

PRECISION_CEILING = 4096    # highest rung of the doubling ladder, in bits


def gram_matrix(system: MomentSystem) -> mp.matrix:
    """Symmetric Gram matrix of the system's kernels over [0, horizon].

    Each kernel is Re, or Im, of one term P(u) e^(lam u), P a real polynomial
    (Kernel.real_form).  By Re x Re y = Re(x y + x conj y) / 2 and its Im
    analogues an entry is half a sum or difference of Re or Im parts of
    S+ = sum c d M_(p+q)(lam + mu, T) and of S-, that sum at lam + conj(mu):
    real by construction.  Each rate's e^(lam T), each rate pair's two moment sets
    (one for real mu) and each term pair's four entries are computed once.
    gram_entry is the per-entry reference.
    """
    bits = system.config.precision_bits
    with mp.workprec(bits + GUARD_BITS):
        T = to_mpf(system.config.horizon)
        rates = {}      # rate -> [position, highest power of u]
        terms = {}      # (rate position, ((c, p), ...)) -> position
        rows = []       # per kernel: (term position, 1 for an Im part, 0 for Re)
        for kernel in system.kernels:
            lam, imag, poly = kernel.real_form(T)
            rate = rates.setdefault(lam, [len(rates), 0])
            rate[1] = max(rate[1], *(p for _, p in poly))
            rows.append((terms.setdefault((rate[0], poly), len(terms)), int(imag)))
        rates = [(lam, mp.exp(lam * T), top) for lam, (_, top) in rates.items()]
        terms = list(terms)
        moments = {}    # (r, s) -> ([M_d(lam_r + lam_s, T)], [M_d(lam_r + conj(lam_s), T)])
        table = [[None] * len(terms) for _ in terms]    # [u][v][2 a + b], a, b as in rows
        for u, (r, P) in enumerate(terms):
            for v in range(u, len(terms)):
                s, Q = terms[v]
                if (r, s) not in moments:
                    (lam, e_lam, top_r), (mu, e_mu, top_s) = rates[r], rates[s]
                    plus = power_exp_moments(top_r + top_s, lam + mu, T, e_lam * e_mu)
                    moments[r, s] = plus, plus if mp.im(mu) == 0 else power_exp_moments(
                        top_r + top_s, lam + mp.conj(mu), T, e_lam * mp.conj(e_mu))
                m1, m2 = moments[r, s]
                sp = sum(c * e * m1[p + q] for c, p in P for e, q in Q)
                if m2 is m1:        # real mu: S- = S+, and mu's kernels have no Im row
                    table[u][v], table[v][u] = (sp.real, None, sp.imag, None), (sp.real, sp.imag)
                    continue
                sp, sm = sp / 2, sum(c * e * m2[p + q] for c, p in P for e, q in Q) / 2
                re_re, im_im = sp.real + sm.real, sm.real - sp.real
                re_im, im_re = sp.imag - sm.imag, sp.imag + sm.imag
                table[u][v] = (re_re, re_im, im_re, im_im)
                table[v][u] = (re_re, im_re, re_im, im_im)
        return mp.matrix([[table[u][v][2 * a + b] for v, b in rows] for u, a in rows])


def cholesky_factor(G: mp.matrix, precision_bits: int):
    """Lower-triangular factor of a symmetric matrix, with pivot monitoring.

    Returns (L, condition_estimate) where the estimate is the ratio of the
    largest to the smallest squared diagonal pivot.  Raises
    NumericalRankDeficiency the moment a pivot drops below
    2^(-precision_bits/2) of the largest pivot seen (or goes nonpositive),
    or at a diagonal entry that is not positive and finite: past that point
    the factor digits are noise, not information.

    Row by row, so a failing rung stops after the rows above its pivot, on
    D^(-1/2) G D^(-1/2), D = diag(G): its factor H has entries in [-1, 1],
    held as integers times 2^P, P = precision_bits + GUARD_BITS, and each is
    one exact integer dot product and one rounded division.  The pivot tests
    see the unscaled pivots; L = D^(1/2) H comes back as mpf.
    """
    n = G.rows
    threshold = mp.mpf(2) ** (-(precision_bits // 2))
    P = precision_bits + GUARD_BITS
    with mp.workprec(P):
        A = G.tolist()
        roots, rows, pivots = [], [], []    # sqrt(G_jj); rows of H times 2^P; pivots
        for j in range(n):
            d = A[j][j]
            if not (d > 0 and mp.isfinite(d)):
                raise NumericalRankDeficiency(j, float(d / max(pivots, default=1)), precision_bits)
            roots.append(mp.sqrt(d))
            row = []
            for k in range(j):
                dot = int(mp.ldexp(A[j][k] / (roots[j] * roots[k]), 2 * P)) \
                    - sum(map(mul, row, rows[k]))
                row.append((2 * dot + rows[k][k]) // (2 * rows[k][k]))
            h = (1 << 2 * P) - sum(x * x for x in row)      # pivot of H, times 4^P
            s = mp.ldexp(h, -2 * P) * d
            ratio = s / max(pivots) if pivots else mp.mpf(1)
            if s <= 0 or ratio < threshold:
                raise NumericalRankDeficiency(j, float(ratio), precision_bits)
            pivots.append(s)
            rows.append(row + [isqrt(h)])
        L = mp.matrix([[roots[i] * mp.ldexp(row[k], -P) if k <= i else 0 for k in range(n)]
                       for i, row in enumerate(rows)])
        return L, float(max(pivots) / min(pivots))


def _solve_cholesky(L: list, rhs: Sequence, precision_bits: int) -> list:
    """Solve L L^T x = rhs by forward and back substitution; L as row lists."""
    n = len(L)
    with mp.workprec(precision_bits + GUARD_BITS):
        y = []
        for i in range(n):
            y.append((to_mpf(rhs[i]) - mp.fdot(L[i][:i], y)) / L[i][i])
        x = [mp.mpf(0)] * n
        for i in reversed(range(n)):
            below = [L[k][i] for k in range(i + 1, n)]
            x[i] = (y[i] - mp.fdot(below, x[i + 1:])) / L[i][i]
        return x


@dataclass(frozen=True)
class SynthesisReport:
    """Everything the solve produced, at the precision that finally worked."""

    system: MomentSystem                 # reassembled at precision_bits_used
    control: ControlSignal
    coefficients: Tuple
    cost: float                          # L2 norm of f'' on [0, T]
    condition_estimate: float
    precision_bits_used: int
    precision_trace: Tuple[int, ...]     # every precision attempted, in order
    residuals: Tuple[float, ...]         # per-row |G c - target|
    max_residual: float

    def to_json_dict(self) -> dict:
        bits = self.precision_bits_used
        doc = self.system.to_json_dict()
        rows = doc["rows"]
        for row, coeff, resid in zip(rows, self.coefficients, self.residuals):
            row["coefficient"] = decimal_str(coeff, bits)
            row["residual"] = repr(resid)
        doc.update({
            "cost": decimal_str(self.cost, bits),
            "condition_estimate": repr(self.condition_estimate),
            "precision_bits_used": bits,
            "precision_trace": list(self.precision_trace),
        })
        return doc


def _attempt(system: MomentSystem) -> SynthesisReport:
    bits = system.config.precision_bits
    G = gram_matrix(system)
    with mp.workprec(bits + GUARD_BITS):
        L, cond = cholesky_factor(G, bits)
        A = G.tolist()
        c = _solve_cholesky(L.tolist(), system.targets, bits)
        Gc = [mp.fdot(row, c) for row in A]
        residuals = [abs(float(g - to_mpf(t))) for g, t in zip(Gc, system.targets)]
        cost = float(mp.sqrt(max(mp.fdot(c, Gc), mp.mpf(0))))
        control = ControlSignal(kernels=system.kernels, coefficients=tuple(c),
                                horizon=to_mpf(system.config.horizon),
                                precision_bits=bits)
        return SynthesisReport(
            system=system,
            control=control,
            coefficients=tuple(c),
            cost=cost,
            condition_estimate=cond,
            precision_bits_used=bits,
            precision_trace=(bits,),
            residuals=tuple(residuals),
            max_residual=max(residuals) if residuals else 0.0,
        )


def solve_min_norm(system: MomentSystem) -> SynthesisReport:
    """Minimum-norm control for the moment system, with exact moment targets.

    The Gram system is factored by Cholesky at the system's precision.  On
    rank collapse the system is reassembled at doubled precision, as long as
    that stays within PRECISION_CEILING.  When the ladder is exhausted
    NumericalRankDeficiency propagates, carrying every precision attempted.
    """
    trace = []
    current = system
    while True:
        bits = current.config.precision_bits
        trace.append(bits)
        try:
            return replace(_attempt(current), precision_trace=tuple(trace))
        except NumericalRankDeficiency as err:
            if bits * 2 > PRECISION_CEILING:
                raise NumericalRankDeficiency(
                    err.pivot_index, err.pivot_ratio, err.precision_bits,
                    attempted_bits=tuple(trace)) from None
        current = current.with_precision(bits * 2)


def biorthogonal_family(system: MomentSystem):
    """Curvature profiles biorthogonal to the kernels, with their norms.

    Column m of the inverse Gram matrix gives the unique minimum-norm
    profile g_m in the kernel span with <g_m, k_j> = delta_mj; its norm is
    sqrt((G^-1)_mm).  The norms quantify how expensive each individual
    constraint is to satisfy in isolation, and their growth with the mode
    index is the numerical shadow of the cost of controllability.
    """
    bits = system.config.precision_bits
    G = gram_matrix(system)
    L = cholesky_factor(G, bits)[0].tolist()
    n = G.rows
    controls = []
    norms = []
    T = to_mpf(system.config.horizon)
    with mp.workprec(bits + GUARD_BITS):
        for m in range(n):
            e = [mp.mpf(1) if i == m else mp.mpf(0) for i in range(n)]
            col = _solve_cholesky(L, e, bits)
            controls.append(ControlSignal(kernels=system.kernels,
                                          coefficients=tuple(col),
                                          horizon=T, precision_bits=bits))
            norms.append(float(mp.sqrt(max(col[m], mp.mpf(0)))))
    return tuple(controls), tuple(norms)


def write_control_csv(control: ControlSignal, path, samples: int = 501) -> None:
    """Uniform samples of the boundary signal as CSV: t, f, f_prime, f_second."""
    import numpy as np

    T = float(control.horizon)
    times = np.linspace(0.0, T, samples)
    data = control.sample(times)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "f", "f_prime", "f_second"])
        for k in range(samples):
            w.writerow([repr(float(data["t"][k])), repr(float(data["f"][k])),
                        repr(float(data["f_prime"][k])),
                        repr(float(data["f_second"][k]))])
