"""Exact-rational and extended-precision helpers shared across modules."""
from __future__ import annotations

from fractions import Fraction
from math import inf, isfinite, isqrt
from typing import Optional, Union

import mpmath as mp

from .errors import ImaginaryResidue

RealLike = Union[int, float, str, Fraction]

GUARD_BITS = 64          # extra working bits over every requested precision


def as_fraction(x: RealLike, what: str = "value") -> Fraction:
    """Exact Fraction from int, Fraction, decimal/rational string, or float.

    Floats are dyadic rationals, so the conversion is exact for the supplied
    representation; decimal strings like "2.5" parse exactly.
    """
    if isinstance(x, bool):
        raise TypeError(f"{what} must be numeric, got bool")
    if isinstance(x, float) and not isfinite(x):
        raise ValueError(f"{what} must be finite, got {x!r}")
    if isinstance(x, (int, float, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse {what} from {x!r}") from exc
    raise TypeError(f"{what} must be int, float, str or Fraction, got {type(x).__name__}")


def check_positive_int(value, what: str) -> None:
    """Refuse anything but a positive integer, naming it `what`."""
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value}")


def rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def to_mpf(x) -> mp.mpf:
    """Convert to mpf at the current working precision (Fractions exactly rounded)."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def to_fixed(x, scale: int) -> int:
    """x 2^scale, rounded toward zero, for a finite mpf x."""
    return int(mp.ldexp(x, scale))


def quotient(a: int, b: int) -> float:
    """a / b, b > 0, correctly rounded to float, or an infinity past its range."""
    try:
        return a / b
    except OverflowError:
        return inf if a > 0 else -inf


def strip_imag(z, precision_bits: int, scale=None):
    """Drop an imaginary residue known to be roundoff; object if it is not.

    `scale` defaults to max(1, |Re z|).  A residue above 2^(-precision_bits/2)
    relative indicates a real algebra bug upstream, so it raises.
    """
    if not isinstance(z, mp.mpc):
        return mp.mpf(z)
    re, im = z.real, z.imag
    ref = scale if scale is not None else max(mp.mpf(1), abs(re))
    if abs(im) > ref * mp.mpf(2) ** (-(precision_bits // 2)):
        raise ImaginaryResidue(float(im), float(ref), precision_bits)
    return re


def decimal_str(x, precision_bits: int) -> str:
    """Deterministic decimal string carrying the full working precision.

    The value is converted at precision_bits plus guard bits, so mpf values
    keep every digit and Fractions round once, at that precision.
    """
    dps = max(17, int(precision_bits * 0.30103) + 2)
    with mp.workprec(precision_bits + GUARD_BITS):
        return mp.nstr(to_mpf(x), dps)
