"""Gram solve: Cholesky, autoscale ladder, biorthogonals."""
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest

from beamctl._numutil import GUARD_BITS, to_mpf
from beamctl.cli import write_control_csv
from beamctl.errors import NumericalRankDeficiency
from beamctl.kernels import Kernel
from beamctl.modal_dynamics import ModalState
from beamctl.moment_problem import assemble
from beamctl.spectrum import BeamConfig, Boundary
from beamctl import closed_form, synthesis
from beamctl.synthesis import FixedMatrix, cholesky_factor, gram_matrix, solve_min_norm
from reference_calculus import (biorthogonal_family, entries, fixed_matrix, gram_entry,
                                integer_cholesky)

CRIT_DATA = dict(values=(1, 0, 0.3, 0, 0, 0), velocities=(0, 0.2, 0, 0, 0, 0))


def small_system(bits=256):
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 3, Fraction(1), bits)
    st = ModalState.dirichlet(values=(1, 0, 0.3), velocities=(0, 0.2, 0))
    return assemble(cfg, st)


def stiff_system(bits=64):
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(19, 10), 6, Fraction(1), bits)
    st = ModalState.dirichlet(**CRIT_DATA)
    return assemble(cfg, st)


def decaying_data(boundary, modes):
    """Value 1/n^2 and velocity 1/(2 n^2) on every mode; under Neumann on
    the odd modes only, the ones a boundary control can reach."""
    reach = range(1, modes + 1, 2 if boundary is Boundary.NEUMANN else 1)
    values = [Fraction(1, n * n) if n in reach else 0 for n in range(1, modes + 1)]
    velocities = [Fraction(1, 2 * n * n) if n in reach else 0 for n in range(1, modes + 1)]
    if boundary is Boundary.NEUMANN:
        return ModalState.neumann([0] + values, [0] + velocities)
    return ModalState.dirichlet(values, velocities)


def elementwise_gram(system):
    """Reference Gram matrix: one gram_entry per entry, nothing shared."""
    bits = system.config.precision_bits
    n = system.n_rows
    G = mp.matrix(n, n)
    for i in range(n):
        for j in range(i, n):
            G[i, j] = G[j, i] = gram_entry(system.kernels[i], system.kernels[j],
                                           system.config.horizon, bits)
    return G


def elementwise_cholesky(G, precision_bits):
    """Reference factor: column by column, one mp.matrix element at a time,
    with the solver's pivot test."""
    n = G.rows
    threshold = mp.mpf(2) ** (-(precision_bits // 2))
    with mp.workprec(precision_bits + GUARD_BITS):
        L = mp.zeros(n, n)
        max_piv = None
        for j in range(n):
            s = G[j, j]
            for k in range(j):
                s -= L[j, k] ** 2
            ratio = mp.mpf(1) if max_piv is None else s / max_piv
            if s <= 0 or ratio < threshold:
                raise NumericalRankDeficiency(j, float(ratio), precision_bits)
            max_piv = s if max_piv is None else max(max_piv, s)
            L[j, j] = mp.sqrt(s)
            for i in range(j + 1, n):
                t = G[i, j]
                for k in range(j):
                    t -= L[i, k] * L[j, k]
                L[i, j] = t / L[j, j]
        return L


def elementwise_ladder(system):
    """Reference solve: the doubling ladder on elementwise_gram and
    elementwise_cholesky.  Returns (precision trace, {bits: failing pivot},
    coefficients, max residual)."""
    trace, pivots = [], {}
    while True:
        bits = system.config.precision_bits
        trace.append(bits)
        G = elementwise_gram(system)
        try:
            L = elementwise_cholesky(G, bits)
            break
        except NumericalRankDeficiency as err:
            pivots[bits] = err.pivot_index
        system = system.with_precision(2 * bits)
    n = G.rows
    with mp.workprec(bits + GUARD_BITS):
        y = [mp.mpf(0)] * n
        for i in range(n):
            s = to_mpf(system.targets[i])
            for k in range(i):
                s -= L[i, k] * y[k]
            y[i] = s / L[i, i]
        c = [mp.mpf(0)] * n
        for i in reversed(range(n)):
            s = y[i]
            for k in range(i + 1, n):
                s -= L[k, i] * c[k]
            c[i] = s / L[i, i]
        worst = 0.0
        for i in range(n):
            acc = -to_mpf(system.targets[i])
            for j in range(n):
                acc += G[i, j] * c[j]
            worst = max(worst, abs(float(acc)))
    return tuple(trace), pivots, c, worst


@pytest.mark.parametrize("bits", [96, 192, 256])
@pytest.mark.parametrize("boundary, rho, modes, horizon", [
    (Boundary.DIRICHLET, Fraction(1), 5, 1),        # expcos / expsin
    (Boundary.DIRICHLET, Fraction(2), 5, 1),        # exp / polyexp
    (Boundary.DIRICHLET, Fraction(3), 5, 1),        # irrational exp rates
    (Boundary.DIRICHLET, Fraction(5, 2), 4, 1),     # merged collision rows
    (Boundary.NEUMANN, Fraction(1), 5, 1),
    (Boundary.DIRICHLET, Fraction(40), 5, 1),       # slow rates near -1/40, fast up to -1000
    (Boundary.DIRICHLET, Fraction(1), 5, Fraction(1, 1000)),    # every |lam T| small
    (Boundary.DIRICHLET, Fraction(2), 5, 4),        # the flatness block up to T^3 / 3 = 64/3
    (Boundary.DIRICHLET, Fraction(1, 10 ** 30), 5, 1),  # rate sums with Re 1e-30 of |Im|
    (Boundary.DIRICHLET, Fraction(10 ** 30), 5, 1),     # slow rates near -1e-30, fast near -1e30
    (Boundary.DIRICHLET, Fraction(1), 5, Fraction(1, 100000)),
    # the linear column divides twice by a small rate: lam T near -1e-3 ...
    (Boundary.DIRICHLET, Fraction(2), 5, Fraction(1, 1000)),
    # ... and a slow rate near -1e-10 beside fast ones near -1e10
    (Boundary.DIRICHLET, Fraction(10 ** 10), 5, Fraction(1, 1000)),
], ids=["rho1", "rho2", "rho3", "rho5/2-merged", "neumann-rho1", "rho40", "T1/1000", "T4",
        "rho1e-30", "rho1e30", "T1e-5", "rho2-T1/1000", "rho1e10-T1/1000"])
def test_gram_matrix_matches_gram_entry(boundary, rho, modes, horizon, bits):
    cfg = BeamConfig(boundary, rho, modes, horizon, bits)
    if rho == Fraction(5, 2):
        # data only on mode 3, so the colliding rows of modes 1, 2, 4 merge
        state = ModalState.dirichlet(values=(0, 0, 1, 0), velocities=(0, 0, "0.1", 0))
    else:
        state = decaying_data(boundary, modes)
    system = assemble(cfg, state)
    assert (len(system.collisions) == 2) == (rho == Fraction(5, 2))
    G = entries(gram_matrix(system))
    n = system.n_rows
    with mp.workprec(bits + GUARD_BITS):
        for i in range(n):
            for j in range(n):
                ref = gram_entry(system.kernels[i], system.kernels[j], horizon, bits)
                bound = mp.mpf(2) ** -(bits - 8) * mp.sqrt(G[i, i] * G[j, j])
                assert abs(G[i, j] - ref) <= bound, (i, j)


@pytest.mark.parametrize("rho, modes, bits, horizon", [
    (Fraction(1), 16, 64, 1),                   # fails at 64 bits, holds at 128
    (Fraction(2), 12, 64, 1),                   # fails at 64 and 128, holds at 256
    (Fraction(3), 14, 96, 1),                   # fails at 96, holds at 192
    (Fraction(1), 8, 64, Fraction(1, 4)),       # fails at 64, holds at 128
], ids=["rho1", "rho2", "rho3", "rho1-T1/4"])
def test_solve_matches_elementwise_reference(rho, modes, bits, horizon):
    cfg = BeamConfig(Boundary.DIRICHLET, rho, modes, horizon, bits)
    system = assemble(cfg, decaying_data(Boundary.DIRICHLET, modes))
    trace, pivots, coeffs, _ = elementwise_ladder(system)
    report = solve_min_norm(system)
    assert report.precision_trace == trace
    assert len(trace) > 1
    for failed in trace[:-1]:
        rung = system.with_precision(failed)
        with pytest.raises(NumericalRankDeficiency) as info:
            cholesky_factor(rung, gram_matrix(rung))
        assert info.value.pivot_index == pivots[failed]
    used = report.precision_bits_used
    with mp.workprec(used + GUARD_BITS):
        top = max(abs(c) for c in coeffs)
        worst = max(abs(a - b) for a, b in zip(report.coefficients, coeffs))
        assert worst <= mp.mpf(2) ** -(used // 2) * top
    assert report.max_residual < 2.0 ** -(used // 2)


def test_cholesky_reconstructs_gram():
    system = small_system()
    G = gram_matrix(system)
    with mp.workprec(320):
        L, cond = cholesky_factor(system, G)
        L, G = entries(L), entries(G)
        m = G.rows
        worst = mp.mpf(0)
        for i in range(m):
            for j in range(m):
                s = mp.fsum(L[i, k] * L[j, k] for k in range(min(i, j) + 1))
                worst = max(worst, abs(s - G[i, j]))
        assert worst < mp.mpf(2) ** -200
        assert cond >= 1


def test_cholesky_rejects_singular_matrix():
    with pytest.raises(NumericalRankDeficiency) as info:
        integer_cholesky(FixedMatrix(((1, 1), (1, 1)), 0), 128)
    assert info.value.pivot_index == 1


@pytest.mark.parametrize("diagonal, index", [((0, 1), 0), ((1, 0), 1), ((1, -1), 1)],
                         ids=["zero-first", "zero-second", "negative"])
def test_cholesky_rejects_bad_diagonal(diagonal, index):
    with pytest.raises(NumericalRankDeficiency) as info:
        integer_cholesky(FixedMatrix(((diagonal[0], 0), (0, diagonal[1])), 0), 128)
    assert info.value.pivot_index == index


def test_structured_factor_rejects_a_bad_diagonal_and_a_repeated_kernel():
    """A nonpositive Gram diagonal entry, one kernel twice, or an exp row at
    rate 0 (the const row again) stops the structured factor at that row with
    NumericalRankDeficiency, as it stops the reference, never with a division
    by zero."""
    system = small_system(128)
    G = gram_matrix(system)
    ints = [list(row) for row in G.ints]
    ints[3][3] = 0
    with pytest.raises(NumericalRankDeficiency) as info:
        cholesky_factor(system, FixedMatrix(tuple(map(tuple, ints)), G.scale))
    assert info.value.pivot_index == 3
    for rates, row in (((-1, -1), 3), ((0, -1), 2)):
        kernels = tuple(Kernel("exp", rate=mp.mpf(r)) for r in rates)
        degenerate = replace(system, kernels=system.kernels[:2] + kernels, targets=(0, 0, 1, 1))
        G = gram_matrix(degenerate)
        for factor in (lambda: cholesky_factor(degenerate, G), lambda: integer_cholesky(G, 128)):
            with pytest.raises(NumericalRankDeficiency) as info:
                factor()
            assert info.value.pivot_index == row


def test_cholesky_reconstructs_badly_scaled_matrix():
    """D A D with A_ij = 2^-|i-j| and D_ii from 2^-100 up to 2^100, so the
    diagonal spans 2^-200 .. 2^200; rising pivots pass the ratio test, and
    the reconstruction meets test_cholesky_reconstructs_gram's bound
    relative to sqrt(G_ii G_jj)."""
    scale = [mp.mpf(2) ** e for e in (-100, -60, -20, 20, 60, 100)]
    m = len(scale)
    with mp.workprec(320):
        G = mp.matrix([[scale[i] * scale[j] * mp.mpf(2) ** -abs(i - j) for j in range(m)]
                       for i in range(m)])
        L, cond = integer_cholesky(fixed_matrix(G, 256), 256)
        L = entries(L)
        for i in range(m):
            for j in range(m):
                s = mp.fsum(L[i, k] * L[j, k] for k in range(min(i, j) + 1))
                assert abs(s - G[i, j]) < mp.mpf(2) ** -200 * mp.sqrt(G[i, i] * G[j, j]), (i, j)
        assert cond >= 1


@pytest.mark.parametrize("rho", [Fraction(1), Fraction(2), Fraction(3)],
                         ids=["rho1-underdamped", "rho2-critical", "rho3-real"])
def test_gram_takes_one_exponential_per_rate(monkeypatch, rho):
    """One mp.exp per distinct kernel rate, rate 0 included, gives the
    generators k(T), and no moment set of the closed form is taken: the
    rate-0 rows' own entries are exact and every other entry comes from the
    displacement's column solves (test_gram_matrix_matches_gram_entry)."""
    cfg = BeamConfig(Boundary.DIRICHLET, rho, 6, Fraction(1), 128)
    system = assemble(cfg, decaying_data(Boundary.DIRICHLET, 6))
    calls = []
    exp = mp.exp
    monkeypatch.setattr(mp, "exp", lambda z: calls.append(z) or exp(z))

    def unavailable(*args):
        raise AssertionError("the Gram took a moment set of the closed form")

    monkeypatch.setattr(closed_form, "_moment_set", unavailable)
    gram_matrix(system)
    with mp.workprec(128 + GUARD_BITS):
        rates = {k.real_form(1)[0] for k in system.kernels}
    assert len(calls) == len(rates)


def test_solver_reproduces_targets():
    system = small_system()
    report = solve_min_norm(system)
    assert report.max_residual < 1e-60
    G = entries(gram_matrix(system))
    with mp.workprec(320):
        c = report.coefficients
        # cost^2 = c^T G c
        quad = mp.fsum(c[i] * G[i, j] * c[j]
                       for i in range(system.n_rows) for j in range(system.n_rows))
        # report.cost is rounded to float64
        assert abs(mp.sqrt(quad) - report.cost) < abs(report.cost) * 1e-12


def test_autoscale_ladder_climbs_until_solvable(monkeypatch):
    system = stiff_system(bits=64)
    with monkeypatch.context() as m, pytest.raises(NumericalRankDeficiency) as info:
        m.setattr(synthesis, "PRECISION_CEILING", 64)
        solve_min_norm(system)
    err = info.value
    assert err.precision_bits == 64
    assert err.attempted_bits == (64,)
    assert err.pivot_ratio < 2 ** -32

    report = solve_min_norm(system)
    assert report.precision_trace == (64, 128)
    assert report.precision_bits_used == 128


def test_precision_ceiling_ends_the_ladder(monkeypatch):
    monkeypatch.setattr(synthesis, "PRECISION_CEILING", 64)
    system = stiff_system(bits=64)
    with pytest.raises(NumericalRankDeficiency) as info:
        solve_min_norm(system)
    assert info.value.attempted_bits == (64,)


def gaussian_data(modes, seed):
    """Value and velocity N(0, 1)/n^2 on every mode, as 7-digit strings: the
    benchmark's synthesis data."""
    rng = random.Random(seed)
    values = [f"{rng.gauss(0.0, 1.0) / n ** 2:.6e}" for n in range(1, modes + 1)]
    velocities = [f"{rng.gauss(0.0, 1.0) / n ** 2:.6e}" for n in range(1, modes + 1)]
    return ModalState.dirichlet(values, velocities)


def doubling_ladder(system):
    """Reference solve: every rung assembled and factored, doubling from the
    system's precision while that stays within PRECISION_CEILING."""
    trace = []
    while True:
        bits = system.config.precision_bits
        trace.append(bits)
        try:
            return replace(synthesis._attempt(system), precision_trace=tuple(trace))
        except NumericalRankDeficiency as err:
            if bits * 2 > synthesis.PRECISION_CEILING:
                raise NumericalRankDeficiency(err.pivot_index, err.pivot_ratio, err.precision_bits,
                                              attempted_bits=tuple(trace)) from None
        system = system.with_precision(2 * bits)


def worst_log2_pivot_ratio(system):
    """min over rows j > 0 of log2(p_j / max_(i<j) p_i), p the unscaled pivots
    of a plain mpf LDL^T of the Gram, at twice the precision the ladder
    settles on."""
    bits = 2 * solve_min_norm(system).precision_bits_used
    G = entries(gram_matrix(system.with_precision(bits)))
    n = G.rows
    with mp.workprec(bits + GUARD_BITS):
        A = [[G[i, j] for j in range(n)] for i in range(n)]
        pivots = []
        for j in range(n):
            pivots.append(A[j][j])
            for i in range(j + 1, n):
                factor = A[i][j] / A[j][j]
                for k in range(j + 1, i + 1):
                    A[i][k] -= factor * A[k][j]
        logs = [float(mp.log(p, 2)) for p in pivots]
    return min(p - max(logs[:j]) for j, p in enumerate(logs) if j)


NEAR_COLLISION = Fraction(5, 2) + Fraction(1, 10 ** 12)     # branch ratio near 2


@pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
@pytest.mark.parametrize("rho", [Fraction(1, 10), Fraction(1), Fraction(2), Fraction(3),
                                 NEAR_COLLISION], ids=["rho1/10", "rho1", "rho2", "rho3", "rho5/2+eps"])
def test_pivot_bound_is_above_the_worst_pivot_ratio(boundary, rho):
    """The spectral bound never reads below the worst pivot ratio of a
    reference LDL^T of the Gram, on both sides of T = 1, at every damping
    and at a near-collision of rates."""
    grid = [(3, T) for T in (Fraction(1, 100000), Fraction(1, 1000), Fraction(1, 10), 1,
                             Fraction(7, 2))]
    grid += [(12, T) for T in (Fraction(1, 10), 1, Fraction(7, 2))] + [(24, 1)]
    for modes, horizon in grid:
        system = assemble(BeamConfig(boundary, rho, modes, horizon, 64),
                          decaying_data(boundary, modes))
        bound = synthesis._log2_pivot_bound(system)
        assert bound < math.inf
        assert bound >= worst_log2_pivot_ratio(system), (modes, horizon)


def test_pivot_bound_refuses_nothing_on_rows_out_of_order():
    system = solve_min_norm(small_system()).system
    assert synthesis._log2_pivot_bound(replace(system, kernels=system.kernels[::-1])) == math.inf
    assert synthesis._log2_pivot_bound(replace(system, kernels=system.kernels[:3])) == math.inf


@pytest.mark.parametrize("rho, modes, bits, horizon", [
    (Fraction(1), 28, 96, 1),                   # the benchmark's ladder cases
    (Fraction(2), 32, 256, 1),
    (Fraction(3), 40, 256, 1),
    (Fraction(3), 24, 53, 1),                   # three rungs refused, 424 bits hold
    (Fraction(2), 16, 64, 1),
    (Fraction(1), 8, 64, Fraction(1, 1000)),    # the bound too loose to refuse
    (Fraction(3), 6, 53, Fraction(1, 1000)),
], ids=["rho1-28", "rho2-32", "rho3-40", "rho3-24-53bits", "rho2-16-64bits",
        "rho1-8-T1/1000", "rho3-6-53bits-T1/1000"])
def test_solve_matches_the_plain_doubling_ladder(rho, modes, bits, horizon):
    system = assemble(BeamConfig(Boundary.DIRICHLET, rho, modes, horizon, bits),
                      gaussian_data(modes, 1))
    report, reference = solve_min_norm(system), doubling_ladder(system)
    assert report.precision_trace == reference.precision_trace
    assert len(report.precision_trace) > 1
    assert list(map(repr, report.coefficients)) == list(map(repr, reference.coefficients))
    assert report.to_json_dict() == reference.to_json_dict()


def test_refused_rungs_build_no_gram(monkeypatch):
    calls = {"gram_matrix": 0, "cholesky_factor": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(synthesis, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(synthesis, name, counted)
    system = assemble(BeamConfig(Boundary.DIRICHLET, Fraction(3), 40, Fraction(1), 256),
                      gaussian_data(40, 1))
    assert solve_min_norm(system).precision_trace == (256, 512)
    assert calls == {"gram_matrix": 1, "cholesky_factor": 1}


def test_ceiling_rung_is_factored_for_its_pivot(monkeypatch):
    monkeypatch.setattr(synthesis, "PRECISION_CEILING", 256)
    system = assemble(BeamConfig(Boundary.DIRICHLET, Fraction(3), 40, Fraction(1), 128),
                      gaussian_data(40, 1))
    assert synthesis._log2_pivot_bound(system) < -(256 // 2) - synthesis._REFUSAL_MARGIN_BITS
    errors = []
    for solve in (solve_min_norm, doubling_ladder):
        with pytest.raises(NumericalRankDeficiency) as info:
            solve(system)
        errors.append(info.value)
    got, want = errors
    assert got.attempted_bits == want.attempted_bits == (128, 256)
    assert (got.precision_bits, got.pivot_index, got.pivot_ratio) \
        == (want.precision_bits, want.pivot_index, want.pivot_ratio)


def test_biorthogonal_family_identity():
    system = small_system()
    controls, norms = biorthogonal_family(system)
    m = system.n_rows
    assert len(controls) == len(norms) == m
    G = entries(gram_matrix(system))
    with mp.workprec(320):
        for i in range(m):
            ci = controls[i].coefficients
            for k in range(m):
                ip = mp.fsum(G[k, j] * ci[j] for j in range(m))
                assert abs(ip - (1 if i == k else 0)) < mp.mpf(10) ** -40
        for i in range(m):
            # norm of g_i is sqrt(g_i^T G g_i) = sqrt((G^-1)_ii)
            ci = controls[i].coefficients
            quad = mp.fsum(ci[a] * G[a, b] * ci[b]
                           for a in range(m) for b in range(m))
            assert abs(mp.sqrt(quad) - norms[i]) < norms[i] * 1e-12


def test_report_json_is_deterministic():
    r1 = solve_min_norm(small_system())
    r2 = solve_min_norm(small_system())
    assert json.dumps(r1.to_json_dict()) == json.dumps(r2.to_json_dict())


def test_control_csv_shape(tmp_path):
    report = solve_min_norm(small_system())
    path = tmp_path / "control.csv"
    write_control_csv(report.control, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,f,f_prime,f_second"
    assert len(lines) == 1 + 501
    # boundary signal starts from rest, up to solver residual
    first = lines[1].split(",")
    scale = max(1.0, max(abs(float(l.split(",")[1])) for l in lines[1:]))
    assert abs(float(first[1])) < 1e-12 * scale
    assert abs(float(first[2])) < 1e-12 * scale


def test_report_json_carries_256_bit_coefficients():
    report = solve_min_norm(small_system(256))
    doc = json.loads(json.dumps(report.to_json_dict()))
    with mp.workprec(320):
        for row, coeff in zip(doc["rows"], report.coefficients):
            back = mp.mpf(row["coefficient"])
            assert abs(back - coeff) <= mp.mpf(2) ** -240 * abs(coeff)


def test_report_json_from_fraction_state():
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 2, Fraction(1), 128)
    st = ModalState.dirichlet(values=(Fraction(1), Fraction(0)),
                              velocities=(Fraction(0), Fraction(1, 3)))
    doc = json.loads(json.dumps(solve_min_norm(assemble(cfg, st)).to_json_dict()))
    with mp.workprec(256):
        third = mp.mpf(doc["state0"]["velocities"][1])
        assert abs(third - mp.mpf(1) / 3) <= mp.mpf(2) ** -120
