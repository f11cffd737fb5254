"""Eigenstructure: regimes, branch ratios, collisions, boundary traces."""
from fractions import Fraction

import mpmath as mp
import pytest

from beamctl.spectrum import (
    BeamConfig,
    Boundary,
    DampingRegime,
    boundary_trace_coefficients,
    branch_ratio,
    branch_ratio_exact,
    classify_damping,
    detect_collisions,
    gap_statistics,
    mode_eigenvalues,
)


def test_regime_classification():
    assert classify_damping(Fraction(1, 2)) is DampingRegime.UNDERDAMPED
    assert classify_damping(Fraction(2)) is DampingRegime.CRITICAL
    assert classify_damping(Fraction(5, 2)) is DampingRegime.OVERDAMPED


def test_config_validation():
    good = BeamConfig(Boundary.DIRICHLET, Fraction(1), 4, Fraction(1))
    assert good.regime is DampingRegime.UNDERDAMPED
    assert good.rho == Fraction(1)
    with pytest.raises(ValueError):
        BeamConfig(Boundary.DIRICHLET, Fraction(0), 4, Fraction(1))
    with pytest.raises(ValueError):
        BeamConfig(Boundary.DIRICHLET, Fraction(1), 0, Fraction(1))
    with pytest.raises(ValueError):
        BeamConfig(Boundary.DIRICHLET, Fraction(1), 4, Fraction(-1))
    with pytest.raises(ValueError):
        BeamConfig(Boundary.DIRICHLET, Fraction(1), 4, Fraction(1), precision_bits=32)
    # non-finite floats and bool counts fail naming the field
    with pytest.raises(ValueError, match="rho must be finite"):
        BeamConfig(Boundary.DIRICHLET, float("nan"), 4, Fraction(1))
    with pytest.raises(ValueError, match="horizon must be finite"):
        BeamConfig(Boundary.DIRICHLET, Fraction(1), 4, float("inf"))
    with pytest.raises(TypeError, match="n_modes must be an integer"):
        BeamConfig(Boundary.DIRICHLET, Fraction(1), True, Fraction(1))
    with pytest.raises(TypeError, match="precision_bits must be an integer"):
        BeamConfig(Boundary.DIRICHLET, Fraction(1), 4, Fraction(1), precision_bits=True)
    # exact string forms normalize to fractions
    cfg = BeamConfig("dirichlet", "2.5", 3, "0.25")
    assert cfg.rho == Fraction(5, 2) and cfg.horizon == Fraction(1, 4)


def test_overdamped_eigenvalues_exact_split():
    # rho = 5/2 gives branch ratio 2: roots -n^2/2 and -2 n^2
    with mp.workprec(300):
        e = mode_eigenvalues(Fraction(5, 2), 1, 256)
        assert e.regime is DampingRegime.OVERDAMPED
        assert abs(e.lambda_plus + mp.mpf(1) / 2) < mp.mpf(2) ** -240
        assert abs(e.lambda_minus + 2) < mp.mpf(2) ** -240


def test_eigenvalue_sum_and_product_identities():
    # the roots of z^2 + rho n^2 z + n^4 satisfy Vieta's relations
    with mp.workprec(300):
        for rho in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)):
            for n in (1, 2, 5):
                e = mode_eigenvalues(rho, n, 256)
                s = e.lambda_plus + e.lambda_minus
                p = e.lambda_plus * e.lambda_minus
                assert abs(s + rho * n * n) < mp.mpf(2) ** -240 * n * n
                assert abs(p - n ** 4) < mp.mpf(2) ** -236 * n ** 4


def test_critical_double_root():
    e = mode_eigenvalues(Fraction(2), 3, 256)
    assert e.regime is DampingRegime.CRITICAL
    assert e.lambda_plus == e.lambda_minus == -9


def test_underdamped_components():
    # rho=1: lambda = n^2(-1/2 +- i sqrt(3)/2), magnitude exactly n^2
    with mp.workprec(300):
        e = mode_eigenvalues(Fraction(1), 2, 256)
        assert abs(e.beta + 2) < mp.mpf(2) ** -240
        assert abs(e.alpha - 2 * mp.sqrt(3)) < mp.mpf(2) ** -240
        assert abs(abs(e.lambda_plus) - 4) < mp.mpf(2) ** -240


def test_branch_ratio_exact_rationality():
    assert branch_ratio_exact(Fraction(5, 2)) == Fraction(2)
    # rho = 13/6: rho^2 - 4 = 25/36, so r = (13/6 + 5/6)/2 = 3/2
    assert branch_ratio_exact(Fraction(13, 6)) == Fraction(3, 2)
    assert branch_ratio_exact(Fraction(3)) is None
    with mp.workprec(300):
        r = branch_ratio(Fraction(3), 256)
        assert abs(r - (3 + mp.sqrt(5)) / 2) < mp.mpf(2) ** -240


def test_collision_detection_rational():
    assert detect_collisions(Fraction(2), 6) == [(2, 1), (4, 2), (6, 3)]
    assert detect_collisions(Fraction(3, 2), 6) == [(3, 2), (6, 4)]
    assert detect_collisions(Fraction(3, 2), 2) == []


def test_collision_detection_irrational_is_empty():
    # a rounded ratio cannot tell a near miss from a hit: exact input only
    with mp.workprec(256), pytest.raises(TypeError):
        detect_collisions(mp.sqrt(2), 50)


def test_dirichlet_traces_alternate():
    with mp.workprec(300):
        traces = boundary_trace_coefficients(Boundary.DIRICHLET, 4, 256)
        base = mp.sqrt(2 / mp.pi)
        for n in range(1, 5):
            expect = base / n * (1 if n % 2 == 1 else -1)
            assert abs(traces.coefficient(n) - expect) < mp.mpf(2) ** -240
        assert traces.zero_mode is None


def test_neumann_traces_even_modes_vanish():
    with mp.workprec(300):
        traces = boundary_trace_coefficients(Boundary.NEUMANN, 4, 256)
        assert traces.coefficient(2) == 0
        assert traces.coefficient(4) == 0
        base = mp.sqrt(2 / mp.pi)
        assert abs(traces.coefficient(1) + 2 * base) < mp.mpf(2) ** -240
        assert abs(traces.coefficient(3) + 2 * base / 9) < mp.mpf(2) ** -240
        assert abs(traces.zero_mode - mp.pi ** mp.mpf("1.5") / 2) < mp.mpf(2) ** -240


def test_gap_statistics_underdamped():
    stats = gap_statistics(Fraction(1), 6, 256)
    # per branch the tightest spacing is |lambda_2 - lambda_1| >= 3; merged,
    # the conjugate pair of mode 1 sits sqrt(3) apart
    assert abs(stats.min_gap_plus - 3.0) < 1e-12
    assert abs(stats.merged_min_gap - 3 ** 0.5) < 1e-12
    assert stats.collisions == ()


@pytest.mark.parametrize("rho", [Fraction(1), Fraction(2), Fraction(5, 2)])
def test_gap_minimum_is_the_smallest_consecutive_gap(rho):
    # one per regime: underdamped, critical, overdamped
    stats = gap_statistics(rho, 7, 128)
    assert stats.min_gap_plus == min(stats.consecutive_gaps_plus)
    assert stats.min_gap_minus == min(stats.consecutive_gaps_minus)
    with mp.workprec(128):
        eigs = [mode_eigenvalues(rho, n, 128) for n in range(1, 8)]
        for branch, gap in (("lambda_plus", stats.min_gap_plus),
                            ("lambda_minus", stats.min_gap_minus)):
            vals = [getattr(e, branch) for e in eigs]
            every = min(abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:])
            assert gap == float(every)


def test_gap_statistics_irrational_ratio_has_no_collisions():
    # rho = 3 gives r = (3 + sqrt 5)/2, irrational: no m = r n exists
    assert gap_statistics(Fraction(3), 12).collisions == ()


def test_gap_statistics_reports_collisions():
    stats = gap_statistics(Fraction(5, 2), 4, 256)
    assert (2, 1) in stats.collisions and (4, 2) in stats.collisions
