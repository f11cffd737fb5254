"""The canonical product E, its derivative magnitudes, Diophantine tail sups."""
from fractions import Fraction
from math import inf, isinf

import mpmath as mp
import pytest

from beamctl.cli import main
from beamctl.condensation import (
    condensation_estimate,
    eprime_magnitudes,
    ratio_from_quotients,
    ratio_from_sqrt,
    weierstrass_E,
)
from beamctl.errors import RationalResonance

# continued fraction [1; 2, 2, 2, ...] = sqrt(2), truncated late with a huge
# quotient: a ratio that rationals approximate absurdly well
LIOUVILLE_QS = (1, 2, 2, 2, 10 ** 29)


@pytest.mark.parametrize("scan", [eprime_magnitudes, condensation_estimate])
def test_each_scan_refuses_an_input_with_one_message(scan):
    with pytest.raises(ValueError, match="^n_max must be a positive integer, got 0$"):
        scan(ratio_from_sqrt(2), 0)
    with pytest.raises(ValueError, match=r"^branch ratio must be >= 1, got 0\.5$"):
        scan(0.5, 40)
    with pytest.raises(ValueError, match=r"^branch ratio must be >= 1, got 0\.5$"):
        weierstrass_E(1, 0.5)


def test_E_normalization_and_zeros():
    r = ratio_from_sqrt(2)
    assert weierstrass_E(0, r) == 1
    with mp.workprec(300):
        # rates of either family are zeros
        for z in (float(r), 4 * float(r), 1 / float(r)):
            assert abs(weierstrass_E(z, r)) < 1e-12
        # generic points are not
        assert abs(weierstrass_E(0.3, r)) > 1e-3


def test_E_matches_truncated_product():
    r = ratio_from_sqrt(2)
    with mp.workprec(300):
        r_mp = mp.mpf(2) ** mp.mpf("0.5")
        for z in (mp.mpf("0.37"), mp.mpf("-2.1"), mp.mpc("1.3", "0.7")):
            prod = mp.mpf(1)
            for n in range(1, 4001):
                n4 = mp.mpf(n) ** 4
                prod *= (1 - r_mp ** 2 * z ** 2 / n4) * (1 - z ** 2 / (r_mp ** 2 * n4))
            val = weierstrass_E(complex(z) if isinstance(z, mp.mpc) else float(z), r)
            assert abs(val - prod) < 1e-8 * max(1, abs(prod))


def test_E_complex_input_returns_complex():
    r = ratio_from_sqrt(3)
    val = weierstrass_E(complex(0.5, 0.5), r)
    assert isinstance(val, mp.mpc)


def test_eprime_closed_form_matches_numeric_derivative():
    r = ratio_from_sqrt(2)
    logs = {(n, b): v for n, b, v in eprime_magnitudes(r, 3)}
    with mp.workprec(220):
        r_mp = mp.mpf(2) ** mp.mpf("0.5")
        for n in (1, 2, 3):
            for branch, z in (("slow", mp.mpf(n) ** 2 / r_mp),
                              ("fast", r_mp * mp.mpf(n) ** 2)):
                d = mp.diff(lambda w: weierstrass_E(w, r, precision_bits=200), z)
                assert abs(float(mp.log(abs(d))) - logs[(n, branch)]) < 1e-8


def test_eprime_rational_ratio_reports_dead_rates():
    rows = eprime_magnitudes(Fraction(2), 4)
    table = {(n, b): v for n, b, v in rows}
    # r = 2: every fast rate 2 n^2 collides with slow mode 2n
    for n in range(1, 5):
        assert table[(n, "fast")] == -inf
    assert table[(1, "slow")] > -inf
    assert table[(2, "slow")] == -inf
    assert table[(3, "slow")] > -inf
    assert table[(4, "slow")] == -inf


def test_estimate_sqrt2_baseline():
    est = condensation_estimate(ratio_from_sqrt(2), 200, tail_start=10)
    assert est.estimate < 0.1
    assert est.estimate == pytest.approx(0.021322, abs=2e-5)
    assert est.estimate == max(est.sup_slow, est.sup_fast)
    assert not isinf(est.estimate)


def test_estimate_liouville_spike():
    base = condensation_estimate(ratio_from_sqrt(2), 200, tail_start=10)
    spike = condensation_estimate(ratio_from_quotients(LIOUVILLE_QS), 200,
                                  tail_start=10)
    assert spike.estimate > 10 * base.estimate
    assert spike.estimate == pytest.approx(0.335605, abs=2e-5)


def test_estimate_rejects_rational_ratio():
    with pytest.raises(RationalResonance):
        condensation_estimate(Fraction(3, 2), 50)
    with pytest.raises(RationalResonance):
        condensation_estimate(2, 50)
    with pytest.raises(RationalResonance) as info:
        condensation_estimate(Fraction(1), 50)
    assert info.value.ratio == 1.0


def test_estimate_validation():
    r = ratio_from_sqrt(2)
    with pytest.raises(ValueError):
        condensation_estimate(r, 0)
    with pytest.raises(ValueError):
        condensation_estimate(r, 50, tail_start=0)
    with pytest.raises(ValueError):
        condensation_estimate(r, 50, tail_start=51)
    with pytest.raises(ValueError):
        condensation_estimate(0.5, 50)


def test_rows_open_tail_window():
    est = condensation_estimate(ratio_from_sqrt(2), 20, tail_start=8)
    for row in est.rows:
        if row.n < 8:
            assert row.running_sup is None
        else:
            assert row.running_sup is not None
    sups = [row.running_sup for row in est.rows if row.branch == "slow"
            and row.running_sup is not None]
    assert sups == sorted(sups)


def test_ratio_from_quotients():
    with mp.workprec(300):
        assert abs(ratio_from_quotients((1, 2, 2)) - mp.mpf(7) / 5) < mp.mpf(2) ** -250
    with pytest.raises(ValueError):
        ratio_from_quotients(())
    with pytest.raises(ValueError):
        ratio_from_quotients((1, 0, 2))
    with pytest.raises(ValueError):
        ratio_from_quotients((1, True))


def test_ratio_from_sqrt():
    assert ratio_from_sqrt(4) == Fraction(2)
    assert isinstance(ratio_from_sqrt(4), Fraction)
    with mp.workprec(300):
        assert abs(ratio_from_sqrt(2) ** 2 - 2) < mp.mpf(2) ** -250
    with pytest.raises(ValueError):
        ratio_from_sqrt(0)
    with pytest.raises(ValueError):
        ratio_from_sqrt(True)


def test_condensation_csv(tmp_path):
    argv = ["condensation", "--ratio-sqrt", "2", "--nmax", "12", "--tail-start", "5"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    lines = (tmp_path / "condensation.csv").read_text().splitlines()
    assert lines[0] == "n,branch,value,running_sup"
    assert len(lines) == 1 + 24
    # pre-tail rows leave the running sup blank
    assert lines[1].endswith(",")
    assert not lines[-1].endswith(",")
