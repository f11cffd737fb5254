"""Property tests of the Gram factor: the row-by-row integer Cholesky
(reference_calculus.integer_cholesky) against an elementwise mpf factor on
random Cauchy Gram matrices, and the structured factor
(synthesis.cholesky_factor) against that reference on random moment systems."""
from fractions import Fraction

import mpmath as mp
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from beamctl._numutil import GUARD_BITS
from beamctl.errors import NumericalRankDeficiency
from beamctl.modal_dynamics import ModalState
from beamctl.moment_problem import assemble
from beamctl.spectrum import BeamConfig, Boundary
from beamctl.synthesis import cholesky_factor, gram_matrix
from reference_calculus import entries, fixed_matrix, integer_cholesky
from test_synthesis import elementwise_cholesky


def cauchy_gram(rates, exponents, bits):
    """G_ij = 2^(k_i + k_j) (e^((lam_i + lam_j) T) - 1) / (lam_i + lam_j), T = 1:
    the Gram matrix of e^(lam u) on [0, 1] under a diagonal scaling."""
    with mp.workprec(bits + GUARD_BITS):
        lam = [mp.mpf(r) for r in rates]
        n = len(lam)
        return mp.matrix([[mp.ldexp(mp.expm1(lam[i] + lam[j]) / (lam[i] + lam[j]),
                                    exponents[i] + exponents[j]) for j in range(n)]
                          for i in range(n)])


def assert_reconstructs(L, G, bits):
    """L L^T = G entrywise within 2^-bits sqrt(G_ii G_jj)."""
    L, n = entries(L), G.rows
    with mp.workprec(bits + GUARD_BITS):
        for i in range(n):
            for j in range(n):
                s = mp.fsum(L[i, k] * L[j, k] for k in range(min(i, j) + 1))
                assert abs(s - G[i, j]) <= mp.mpf(2) ** -bits * mp.sqrt(G[i, i] * G[j, j]), (i, j)


@st.composite
def cauchy_cases(draw):
    n = draw(st.integers(2, 8))
    rates = draw(st.lists(st.floats(-40.0, -0.05), min_size=n, max_size=n))
    exponents = draw(st.lists(st.integers(-16, 16), min_size=n, max_size=n))
    return rates, exponents, draw(st.sampled_from([64, 128, 192]))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(cauchy_cases())
def test_cholesky_matches_elementwise_reference(case):
    """integer_cholesky reconstructs G, or fails at the pivot where the
    elementwise reference fails."""
    rates, exponents, bits = case
    G = cauchy_gram(rates, exponents, bits)
    try:
        elementwise_cholesky(G, bits)
        failed_at = None
    except NumericalRankDeficiency as err:
        failed_at = err.pivot_index
    try:
        L, cond = integer_cholesky(fixed_matrix(G, bits), bits)
    except NumericalRankDeficiency as err:
        assert err.pivot_index == failed_at
        return
    assert failed_at is None
    assert cond >= 1
    assert_reconstructs(L, G, bits)


def fraction_between(low, high, denominator=1000):
    return st.integers(int(low * denominator), int(high * denominator)).map(
        lambda k: Fraction(k, denominator))


@st.composite
def moment_systems(draw):
    """Random assembled systems: either boundary, every damping regime, T from
    1/1000 to 4, 64 to 256 bits.  At a rational branch ratio (rho = 5/2 among
    them) the modes whose rows collide get no data, so those rows merge."""
    boundary = draw(st.sampled_from([Boundary.DIRICHLET, Boundary.NEUMANN]))
    rho = draw(st.one_of(fraction_between(Fraction(1, 100), Fraction(199, 100)),
                         st.just(Fraction(2)), st.just(Fraction(5, 2)),
                         fraction_between(Fraction(201, 100), 7)))
    modes = draw(st.integers(2, 8))
    horizon = draw(st.one_of(fraction_between(Fraction(1, 1000), Fraction(1, 10), 10000),
                             fraction_between(Fraction(1, 10), 4)))
    bits = draw(st.integers(64, 256))
    config = BeamConfig(boundary, rho, modes, horizon, bits)
    r = config.spectrum.ratio_exact     # rational: mode r k's slow rate is mode k's fast one
    merged = set()
    for k in range(1, modes + 1):
        if r is not None and (r * k).denominator == 1 and r * k <= modes:
            merged |= {k, int(r * k)}
    reach = [n for n in range(1, modes + 1)
             if (boundary is Boundary.DIRICHLET or n % 2) and n not in merged]
    amplitude = st.integers(-1000, 1000).map(lambda k: Fraction(k, 1000))
    values = [draw(amplitude) if n in reach else 0 for n in range(1, modes + 1)]
    velocities = [draw(amplitude) if n in reach else 0 for n in range(1, modes + 1)]
    if boundary is Boundary.NEUMANN:
        state = ModalState.neumann([0] + values, [0] + velocities)
    else:
        state = ModalState.dirichlet(values, velocities)
    return assemble(config, state)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(moment_systems())
def test_structured_factor_matches_the_integer_cholesky(system):
    """cholesky_factor fails at the reference's failing pivot, or its L
    reconstructs the Gram, with the reference's condition estimate."""
    bits, G = system.config.precision_bits, gram_matrix(system)
    try:
        _, ref_cond = integer_cholesky(G, bits)
        failed_at = None
    except NumericalRankDeficiency as err:
        failed_at = err.pivot_index
    try:
        L, cond = cholesky_factor(system, G)
    except NumericalRankDeficiency as err:
        assert err.pivot_index == failed_at
        return
    assert failed_at is None
    assert cond == pytest.approx(ref_cond, rel=1e-12)
    assert_reconstructs(L, entries(G), bits)
