"""Eigenstructure: regimes, branch ratios, collisions, boundary traces."""
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest

from beamctl.spectrum import (
    BeamConfig,
    Boundary,
    DampingRegime,
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
    traces = BeamConfig(Boundary.DIRICHLET, Fraction(1), 4, Fraction(1)).spectrum.traces
    assert len(traces) == 4             # slots are modes 1..4: no zero mode
    with mp.workprec(300):
        base = mp.sqrt(2 / mp.pi)
        for n in range(1, 5):
            expect = base / n * (1 if n % 2 == 1 else -1)
            assert abs(traces[n - 1] - expect) < mp.mpf(2) ** -240


def test_neumann_traces_even_modes_vanish():
    # slot n holds cosine mode n, the constant mode 0 first
    traces = BeamConfig(Boundary.NEUMANN, Fraction(1), 4, Fraction(1)).spectrum.traces
    assert len(traces) == 5
    with mp.workprec(300):
        assert traces[2] == 0
        assert traces[4] == 0
        base = mp.sqrt(2 / mp.pi)
        assert abs(traces[1] + 2 * base) < mp.mpf(2) ** -240
        assert abs(traces[3] + 2 * base / 9) < mp.mpf(2) ** -240
        assert abs(traces[0] - mp.pi ** mp.mpf("1.5") / 2) < mp.mpf(2) ** -240


def spectrum(rho, n_modes, bits=256):
    """The spectrum gap_statistics reads: a Dirichlet beam's, horizon 1."""
    return BeamConfig(Boundary.DIRICHLET, rho, n_modes, Fraction(1), bits).spectrum


def test_gap_statistics_underdamped():
    stats = gap_statistics(spectrum(Fraction(1), 6))
    # per branch the tightest spacing is |lambda_2 - lambda_1| >= 3; merged,
    # the conjugate pair of mode 1 sits sqrt(3) apart
    assert abs(stats.min_gap_plus - 3.0) < 1e-12
    assert abs(stats.merged_min_gap - 3 ** 0.5) < 1e-12
    assert stats.collisions == ()


@pytest.mark.parametrize("rho", [Fraction(1), Fraction(2), Fraction(5, 2)])
def test_gap_minimum_is_the_smallest_consecutive_gap(rho):
    # one per regime: underdamped, critical, overdamped
    stats = gap_statistics(spectrum(rho, 7, 128))
    assert stats.min_gap_plus == min(stats.consecutive_gaps_plus)
    assert stats.min_gap_minus == min(stats.consecutive_gaps_minus)
    with mp.workprec(128):
        eigs = [mode_eigenvalues(rho, n, 128) for n in range(1, 8)]
        for branch, gap in (("lambda_plus", stats.min_gap_plus),
                            ("lambda_minus", stats.min_gap_minus)):
            vals = [getattr(e, branch) for e in eigs]
            every = min(abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:])
            assert gap == float(every)


def test_gap_statistics_single_mode():
    # no consecutive gaps; the merged gap is |lambda_1^+ - lambda_1^-|: sqrt 3
    # for the conjugate pair at rho = 1, 0 at the double root, r - 1/r = sqrt 5
    # at rho = 3
    for rho, gap in ((Fraction(1), 3 ** 0.5), (Fraction(2), 0.0), (Fraction(3), 5 ** 0.5)):
        stats = gap_statistics(spectrum(rho, 1))
        assert stats.min_gap_plus is None and stats.min_gap_minus is None
        assert stats.consecutive_gaps_plus == stats.consecutive_gaps_minus == ()
        assert abs(stats.merged_min_gap - gap) < 1e-12
        assert stats.merged_min_pair == ((1, "+"), (1, "-"))
    # no modes, no spectrum: the config refuses it
    with pytest.raises(ValueError, match="n_modes must be a positive integer"):
        spectrum(Fraction(1), 0)


def test_spectrum_is_built_once_per_config():
    cfg = BeamConfig(Boundary.NEUMANN, Fraction(5, 2), 3, Fraction(1), 128)
    spec = cfg.spectrum
    assert cfg.spectrum is spec
    assert [e.n for e in spec.eigenvalues] == [1, 2, 3]
    assert spec.eigenvalues[1] == mode_eigenvalues(Fraction(5, 2), 2, 128)
    assert len(spec.traces) == 4                # the Neumann x_0 first
    assert spec.ratio_exact == Fraction(2)
    assert spec.roots(0) == (0, 0)
    assert spec.roots(2) == (spec.eigenvalues[1].lambda_plus, spec.eigenvalues[1].lambda_minus)
    # a precision rung is a new config with its own spectrum at its own precision
    rung = replace(cfg, precision_bits=256)
    assert rung.spectrum is not spec
    assert rung.spectrum.traces[1] != spec.traces[1]
    assert abs(rung.spectrum.traces[1] - spec.traces[1]) < mp.mpf(2) ** -120
    # underdamped and critical beams have no branch ratio; rho = 3's is irrational
    for rho in (Fraction(1), Fraction(2), Fraction(3)):
        assert BeamConfig(Boundary.DIRICHLET, rho, 2, Fraction(1)).spectrum.ratio_exact is None


def test_gap_statistics_irrational_ratio_has_no_collisions():
    # rho = 3 gives r = (3 + sqrt 5)/2, irrational: no m = r n exists
    assert gap_statistics(spectrum(Fraction(3), 12)).collisions == ()


def test_gap_statistics_reports_collisions():
    stats = gap_statistics(spectrum(Fraction(5, 2), 4))
    assert (2, 1) in stats.collisions and (4, 2) in stats.collisions
