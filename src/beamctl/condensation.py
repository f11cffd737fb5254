"""Spectral condensation analysis for strongly damped beams.

Past the critical damping value the decay rates split into two real families,
n^2/r and r n^2, with branch ratio r = (rho + sqrt(rho^2 - 4))/2 >= 1.  A
rational r = p/q makes the families collide exactly at the pairs (pk, qk);
an irrational r keeps them disjoint, but rates from opposite families can
approach each other as fast as the rational approximations of r allow, and
the cost of controlling high modes is governed by exactly how fast.

The central object is the canonical entire function vanishing on the merged
rate sequence,

    E(z) = sin(pi sqrt(r z)) sinh(pi sqrt(r z))
           sin(pi sqrt(z/r)) sinh(pi sqrt(z/r)) / (pi^4 z^2),   E(0) = 1,

whose derivative magnitudes at the rates set the size of the biorthogonal
family.  |E'| at a rate carries a factor |sin(pi n / r)| or |sin(pi r n)|
that collapses precisely when r n or n / r drifts near an integer, so the
quantity to monitor is

    -log |sin(pi n / r)| / (n^2 / r)    on the slow family,
    -log |sin(pi r n)| / (r n^2)        on the fast family,

whose tail supremum is finite exactly when the control problem stays
solvable for every horizon; badly approximable ratios push it toward zero
while ratios with enormous continued-fraction quotients spike it.  The tail
cut matters: small n carry no asymptotic information and would pollute the
estimate, so running suprema start at tail_start.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, isqrt
from typing import Optional, Sequence, Tuple, Union

import mpmath as mp

from ._numutil import GUARD_BITS, check_positive_int, strip_imag, to_mpf
from .errors import RationalResonance

__all__ = [
    "CondensationRow",
    "CondensationEstimate",
    "merged_frequencies",
    "weierstrass_E",
    "eprime_magnitudes",
    "condensation_estimate",
    "ratio_from_quotients",
    "ratio_from_sqrt",
]


def _log_sinh(x):
    """log(sinh x) for x > 0 without overflow: x + log1p(-e^(-2x)) - log 2."""
    return x + mp.log1p(-mp.e ** (-2 * x)) - mp.log(2)


def _is_exact_rational(r) -> bool:
    return isinstance(r, (int, Fraction)) and not isinstance(r, bool)


def _ratio_mpf(r):
    """r at the working precision, refused below 1."""
    r_mp = to_mpf(r)
    if r_mp < 1:
        raise ValueError(f"branch ratio must be >= 1, got {r}")
    return r_mp


def merged_frequencies(r, n_max: int, precision_bits: int = 256) -> Tuple:
    """The union of both decay-rate families up to mode n_max, sorted.

    Returns (value, branch, n) triples with branch "slow" for n^2/r and
    "fast" for r n^2, ascending by value.  Exact collisions (rational r)
    appear as consecutive equal values on opposite branches.
    """
    check_positive_int(n_max, "n_max")
    with mp.workprec(precision_bits + GUARD_BITS):
        r_mp = _ratio_mpf(r)
        rows = []
        for n in range(1, n_max + 1):
            n2 = mp.mpf(n) ** 2
            rows.append((float(n2 / r_mp), "slow", n))
            rows.append((float(r_mp * n2), "fast", n))
        rows.sort()
        return tuple(rows)


def weierstrass_E(z, r, precision_bits: int = 256):
    """The canonical entire function of the merged rate sequence.

    Accepts real or complex z; square roots take the principal branch, and
    the result is real for real z because each family's sin * sinh product
    is an even function of its square root.  E(0) = 1 by the normalization.
    """
    with mp.workprec(precision_bits + GUARD_BITS):
        r_mp = _ratio_mpf(r)
        was_real = not isinstance(z, (complex, mp.mpc))
        z_mp = mp.mpf(z) if was_real else mp.mpc(z)
        if z_mp == 0:
            return mp.mpf(1)
        w_fast = mp.sqrt(mp.mpc(r_mp * z_mp))
        w_slow = mp.sqrt(mp.mpc(z_mp / r_mp))
        val = (mp.sin(mp.pi * w_fast) * mp.sinh(mp.pi * w_fast)
               * mp.sin(mp.pi * w_slow) * mp.sinh(mp.pi * w_slow)
               / (mp.pi ** 4 * z_mp ** 2))
        if was_real:
            return strip_imag(val, precision_bits, scale=max(mp.mpf(1), abs(val)))
        return val


def eprime_magnitudes(r, n_max: int, precision_bits: int = 256) -> Tuple:
    """log |E'| at every rate of both families, as (n, branch, log_magnitude).

    Closed forms, evaluated in the log domain so the sinh growth (order
    e^(pi n (1 + 1/r))) never overflows:

        slow family, z = n^2/r:
            3 log r - log(2 pi^3) - 5 log n
            + log sinh(pi n) + log sinh(pi n / r) + log |sin(pi n / r)|
        fast family, z = r n^2:
            -3 log r - log(2 pi^3) - 5 log n
            + log sinh(pi n) + log sinh(pi r n) + log |sin(pi r n)|

    A rate where the sine factor vanishes exactly (a two-family collision)
    reports -inf: the derivative is zero there and no biorthogonal element
    exists.  That happens only for rational r.
    """
    check_positive_int(n_max, "n_max")
    exact = _is_exact_rational(r)
    frac = Fraction(r) if exact else None
    with mp.workprec(precision_bits + GUARD_BITS):
        r_mp = _ratio_mpf(r)
        log_r = mp.log(r_mp)
        base = -mp.log(2 * mp.pi ** 3)
        rows = []
        for n in range(1, n_max + 1):
            n_mp = mp.mpf(n)
            common = base - 5 * mp.log(n_mp) + _log_sinh(mp.pi * n_mp)
            # slow: exact zero iff n/r is an integer, i.e. p | n for r = p/q
            if exact and (n * frac.denominator) % frac.numerator == 0:
                rows.append((n, "slow", -inf))
            else:
                s = mp.sinpi(n_mp / r_mp)
                rows.append((n, "slow", float(
                    3 * log_r + common + _log_sinh(mp.pi * n_mp / r_mp)
                    + mp.log(abs(s)))))
            if exact and (n * frac.numerator) % frac.denominator == 0:
                rows.append((n, "fast", -inf))
            else:
                s = mp.sinpi(r_mp * n_mp)
                rows.append((n, "fast", float(
                    -3 * log_r + common + _log_sinh(mp.pi * r_mp * n_mp)
                    + mp.log(abs(s)))))
        return tuple(rows)


@dataclass(frozen=True)
class CondensationRow:
    """One mode's contribution on one branch, with the branch's running sup."""

    n: int
    branch: str
    value: float
    running_sup: Optional[float]        # None before the tail window opens


@dataclass(frozen=True)
class CondensationEstimate:
    """Tail supremum of the normalized Diophantine defect of the ratio."""

    ratio_repr: str
    n_max: int
    tail_start: int
    rows: Tuple[CondensationRow, ...]
    sup_slow: float
    sup_fast: float
    estimate: float

    def to_json_dict(self) -> dict:
        return {
            "ratio": self.ratio_repr,
            "n_max": self.n_max,
            "tail_start": self.tail_start,
            "sup_slow": repr(self.sup_slow),
            "sup_fast": repr(self.sup_fast),
            "estimate": repr(self.estimate),
            "rows": [
                {"n": row.n, "branch": row.branch, "value": repr(row.value),
                 "running_sup": None if row.running_sup is None else repr(row.running_sup)}
                for row in self.rows
            ],
        }


def condensation_estimate(r, n_max: int, tail_start: int = 10,
                          precision_bits: int = 256) -> CondensationEstimate:
    """Tail supremum of -log|sin| over both families, normalized by the rate.

    The estimate is sup over n in [tail_start, n_max] of the per-mode values
    on both branches; it bounds the exponential condensation correction in
    the biorthogonal growth rate.  Exactly rational ratios (int or Fraction)
    raise RationalResonance immediately: their supremum is infinite by
    collision, not by approximation, and no finite scan could certify it.
    An inexact value that still lands a rate exactly on an integer multiple
    of pi raises as well, since that proves the scan cannot separate the
    families at this precision.
    """
    if _is_exact_rational(r):
        raise RationalResonance(float(Fraction(r)))
    check_positive_int(n_max, "n_max")
    check_positive_int(tail_start, "tail_start")
    if tail_start > n_max:
        raise ValueError(f"tail_start {tail_start} exceeds n_max {n_max}")
    with mp.workprec(precision_bits + GUARD_BITS):
        r_mp = _ratio_mpf(r)
        if r_mp == 1:   # the critical point rho = 2, rational by definition
            raise RationalResonance(1.0)
        rows = []
        sup_slow = -inf
        sup_fast = -inf
        for n in range(1, n_max + 1):
            n_mp = mp.mpf(n)
            s_slow = abs(mp.sinpi(n_mp / r_mp))
            s_fast = abs(mp.sinpi(r_mp * n_mp))
            if s_slow == 0 or s_fast == 0:
                raise RationalResonance(float(r_mp))
            v_slow = float(-mp.log(s_slow) / (n_mp ** 2 / r_mp))
            v_fast = float(-mp.log(s_fast) / (r_mp * n_mp ** 2))
            if n >= tail_start:
                sup_slow = max(sup_slow, v_slow)
                sup_fast = max(sup_fast, v_fast)
                rows.append(CondensationRow(n, "slow", v_slow, sup_slow))
                rows.append(CondensationRow(n, "fast", v_fast, sup_fast))
            else:
                rows.append(CondensationRow(n, "slow", v_slow, None))
                rows.append(CondensationRow(n, "fast", v_fast, None))
        ratio_repr = mp.nstr(r_mp, 30)
        return CondensationEstimate(
            ratio_repr=ratio_repr,
            n_max=n_max,
            tail_start=tail_start,
            rows=tuple(rows),
            sup_slow=sup_slow,
            sup_fast=sup_fast,
            estimate=max(sup_slow, sup_fast),
        )


def ratio_from_quotients(quotients: Sequence[int], precision_bits: int = 256):
    """Branch ratio from its continued-fraction quotients [a0; a1, a2, ...].

    Evaluated back to front at extended precision.  All quotients must be
    positive integers; a0 >= 1 keeps the ratio in the valid range r >= 1.
    Quotients may be arbitrarily large Python integers, which is the whole
    point: enormous quotients build ratios that rational numbers approximate
    abnormally well.
    """
    qs = list(quotients)
    if not qs:
        raise ValueError("at least one continued-fraction quotient is required")
    for a in qs:
        if not isinstance(a, int) or isinstance(a, bool) or a < 1:
            raise ValueError(f"continued-fraction quotients must be positive integers, got {a!r}")
    with mp.workprec(precision_bits + GUARD_BITS):
        x = mp.mpf(qs[-1])
        for a in reversed(qs[:-1]):
            x = a + 1 / x
        return x


def ratio_from_sqrt(d: int, precision_bits: int = 256) -> Union[Fraction, mp.mpf]:
    """Branch ratio sqrt(d), exact when d is a perfect square.

    Returns a Fraction for perfect squares so downstream rationality
    handling (collision enumeration, resonance refusal) stays exact, and an
    extended-precision mpf otherwise.
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError(f"square-root argument must be a positive integer, got {d!r}")
    root = isqrt(d)
    if root * root == d:
        return Fraction(root)
    with mp.workprec(precision_bits + GUARD_BITS):
        return mp.sqrt(d)
