"""Exact-arithmetic helpers: fractions, square roots, guarded rounding."""
from fractions import Fraction

import mpmath as mp
import pytest

from beamctl._numutil import (
    as_fraction,
    decimal_str,
    quotient,
    rational_sqrt,
    strip_imag,
    to_mpf,
)
from reference_calculus import ulp_close


def test_as_fraction_accepts_exact_forms():
    assert as_fraction("0.5") == Fraction(1, 2)
    assert as_fraction("7/3") == Fraction(7, 3)
    assert as_fraction(Fraction(19, 10)) == Fraction(19, 10)
    assert as_fraction(2) == Fraction(2)
    # binary floats convert by their exact value
    assert as_fraction(0.25) == Fraction(1, 4)


def test_as_fraction_takes_every_horizon_form():
    # the forms cost_sweep accepts for its horizons
    assert as_fraction("0.5") == Fraction(1, 2)
    assert as_fraction(0.25) == Fraction(1, 4)
    assert as_fraction(2) == Fraction(2)
    assert as_fraction(Fraction(3, 4)) == Fraction(3, 4)
    with pytest.raises(TypeError):
        as_fraction([1])


def test_as_fraction_rejects_bool_and_garbage():
    with pytest.raises(TypeError):
        as_fraction(True)
    with pytest.raises((ValueError, TypeError)):
        as_fraction("three halves")
    for x in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="horizon must be finite"):
            as_fraction(x, "horizon")


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == Fraction(0)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(25, 36)) == Fraction(5, 6)


def test_to_mpf_handles_fractions_beyond_float():
    with mp.workprec(256):
        x = to_mpf(Fraction(1, 3))
        assert abs(x - mp.mpf(1) / 3) < mp.mpf(2) ** -250
        # mpf passthrough keeps the value
        y = mp.mpf("0.1")
        assert to_mpf(y) == y


def test_strip_imag_guards_residue():
    with mp.workprec(64):
        assert strip_imag(mp.mpc(1, 1e-50), 64) == 1
        with pytest.raises(ArithmeticError):
            strip_imag(mp.mpc(1, 1e-3), 64)


def test_decimal_str_round_trip():
    with mp.workprec(256):
        x = mp.sqrt(2)
        back = mp.mpf(decimal_str(x, 256))
        assert ulp_close(x, back, ulps=4)


def test_ulp_close_detects_separation():
    with mp.workprec(53):
        a = mp.mpf(1)
        assert ulp_close(a, a + mp.eps, ulps=2)
        assert not ulp_close(a, a + 1000 * mp.eps, ulps=2)


def test_strip_imag_raises_typed_error():
    from beamctl.errors import BeamControlError, ImaginaryResidue

    with mp.workprec(64):
        with pytest.raises(ImaginaryResidue) as info:
            strip_imag(mp.mpc(2, 1e-3), 64)
    assert isinstance(info.value, BeamControlError)
    assert info.value.residue == pytest.approx(1e-3)
    assert info.value.scale == 2.0
    assert info.value.precision_bits == 64


def test_decimal_str_keeps_full_precision_and_takes_fractions():
    with mp.workprec(53):       # the ambient precision must not matter
        text = decimal_str(Fraction(1, 3), 256)
    with mp.workprec(320):
        back = mp.mpf(text)
        assert abs(back - mp.mpf(1) / 3) <= mp.mpf(2) ** -250
    with mp.workprec(256):
        x = mp.sqrt(3)
    with mp.workprec(53):
        text = decimal_str(x, 256)
    with mp.workprec(320):
        assert abs(mp.mpf(text) - x) <= mp.mpf(2) ** -250 * x


def test_quotient_rounds_once_and_saturates_past_float64():
    assert quotient(1, 3) == 1 / 3
    assert quotient(10 ** 400 + 1, 10 ** 380) == 1e20
    # numerators too large to convert to float still saturate to a signed infinity
    assert quotient(10 ** 400, 1) == float("inf")
    assert quotient(-10 ** 400, 3) == float("-inf")
