"""Minimum-norm synthesis of the boundary control from a moment system.

Among all curvature profiles f'' in L2(0, T) meeting the moment constraints,
the smallest one lies in the span of the constraint kernels themselves, so
synthesis reduces to the normal equations G c = target with G the kernels'
Gram matrix.  The boundary signal is then rebuilt from f'' by double
integration in closed form (the two flatness rows guarantee f(T) = f'(T) = 0,
and f(0) = f'(0) = 0 by construction).

The Gram matrix of nearly dependent kernels is famously ill conditioned;
entries are computed in closed form at extended precision, from per-rate
exponentials and per-rate-pair M_d moments, each computed once and shared
by the entries that need it, and factored by a Cholesky routine that
watches its own pivots.  A pivot collapsing below
2^(-precision_bits/2) of the largest one seen means the matrix has lost
definiteness at the working precision: the solver then reassembles
everything at doubled precision, up to PRECISION_CEILING bits, or gives up
with a quantitative report.  There is no approximate fallback: a returned
control meets its moment targets to the working precision.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import mpmath as mp

from ._numutil import GUARD_BITS, decimal_str, strip_imag, to_mpf
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

    Entry (i, j) is sum a conj(b) M_(p+q)(lam + conj(mu), T) over the
    kernels' exponential parts (a, p, lam) and (b, q, mu), as in gram_entry,
    but each distinct rate's e^(lam T) is computed once, and each rate pair's
    moments once per row group: the rows that share one rate set, such as
    the cos and sin rows of an underdamped mode.  The moment cache is
    cleared when the row's rate set changes, so it stays one group deep.
    """
    bits = system.config.precision_bits
    n = system.n_rows
    with mp.workprec(bits + GUARD_BITS):
        T = to_mpf(system.config.horizon)
        index = {}          # rate -> position in rates
        rates = []          # [lam, e^(lam T), highest power of u with this rate]
        rows = []           # per kernel: ((a, p, rate position), ...)
        for kernel in system.kernels:
            parts = []
            for a, p, lam in kernel.exponential_parts(T):
                r = index.get(lam)
                if r is None:
                    r = index[lam] = len(rates)
                    rates.append([lam, mp.exp(lam * T), p])
                rates[r][2] = max(rates[r][2], p)
                parts.append((a, p, r))
            rows.append(tuple(parts))

        G = mp.matrix(n, n)
        moments = {}        # (r, s) -> [M_0, ...](lam_r + conj(lam_s), T)
        group = None
        for i in range(n):
            rate_set = {r for _, _, r in rows[i]}
            if rate_set != group:
                group = rate_set
                moments.clear()
            for j in range(i, n):
                total = mp.mpf(0)
                for a, p, r in rows[i]:
                    for b, q, s in rows[j]:
                        m = moments.get((r, s))
                        if m is None:
                            lam, e_lam, top_r = rates[r]
                            mu, e_mu, top_s = rates[s]
                            m = moments[r, s] = power_exp_moments(
                                top_r + top_s, lam + mp.conj(mu), T, e_lam * mp.conj(e_mu))
                        total += a * mp.conj(b) * m[p + q]
                G[i, j] = G[j, i] = strip_imag(total, bits)
        return G


def cholesky_factor(G: mp.matrix, precision_bits: int):
    """Lower-triangular factor of a symmetric matrix, with pivot monitoring.

    Returns (L, condition_estimate) where the estimate is the ratio of the
    largest to the smallest squared diagonal pivot.  Raises
    NumericalRankDeficiency the moment a pivot drops below
    2^(-precision_bits/2) of the largest pivot seen (or goes nonpositive):
    past that point the factor digits are noise, not information.

    Row by row on plain lists, each entry one exactly summed dot product
    (mp.fdot), so a failing rung stops after the rows above its pivot.
    """
    n = G.rows
    threshold = mp.mpf(2) ** (-(precision_bits // 2))
    with mp.workprec(precision_bits + GUARD_BITS):
        A = G.tolist()
        rows = []
        max_piv: Optional[mp.mpf] = None
        min_piv: Optional[mp.mpf] = None
        for j in range(n):
            row = []
            for k in range(j):
                row.append((A[j][k] - mp.fdot(row, rows[k][:k])) / rows[k][k])
            s = A[j][j] - mp.fdot(row, row)
            if max_piv is None:
                ratio = mp.mpf(1)
            else:
                ratio = s / max_piv
            if s <= 0 or ratio < threshold:
                raise NumericalRankDeficiency(j, float(ratio), precision_bits)
            max_piv = s if max_piv is None else max(max_piv, s)
            min_piv = s if min_piv is None else min(min_piv, s)
            row.append(mp.sqrt(s))
            rows.append(row)
        L = mp.matrix(n, n)
        for i, row in enumerate(rows):
            for k, v in enumerate(row):
                L[i, k] = v
        return L, float(max_piv / min_piv)


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
    L, _ = cholesky_factor(G, bits)
    L = L.tolist()
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
