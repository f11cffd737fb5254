"""Property test of the Gram factor on random Cauchy Gram matrices."""
import mpmath as mp
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from beamctl._numutil import GUARD_BITS
from beamctl.errors import NumericalRankDeficiency
from beamctl.synthesis import cholesky_factor
from reference_calculus import entries, fixed_matrix
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


@st.composite
def cauchy_cases(draw):
    n = draw(st.integers(2, 8))
    rates = draw(st.lists(st.floats(-40.0, -0.05), min_size=n, max_size=n))
    exponents = draw(st.lists(st.integers(-16, 16), min_size=n, max_size=n))
    return rates, exponents, draw(st.sampled_from([64, 128, 192]))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(cauchy_cases())
def test_cholesky_matches_elementwise_reference(case):
    """cholesky_factor reconstructs G, or fails at the pivot where the
    elementwise reference fails."""
    rates, exponents, bits = case
    G = cauchy_gram(rates, exponents, bits)
    try:
        elementwise_cholesky(G, bits)
        failed_at = None
    except NumericalRankDeficiency as err:
        failed_at = err.pivot_index
    try:
        L, cond = cholesky_factor(fixed_matrix(G, bits), bits)
    except NumericalRankDeficiency as err:
        assert err.pivot_index == failed_at
        return
    assert failed_at is None
    assert cond >= 1
    L, n = entries(L), G.rows
    with mp.workprec(bits + GUARD_BITS):
        for i in range(n):
            for j in range(n):
                s = mp.fsum(L[i, k] * L[j, k] for k in range(min(i, j) + 1))
                assert abs(s - G[i, j]) <= mp.mpf(2) ** -bits * mp.sqrt(G[i, i] * G[j, j])
