"""Gram solve: Cholesky, autoscale ladder, biorthogonals."""
import json
from fractions import Fraction

import mpmath as mp
import pytest

from beamctl.errors import NumericalRankDeficiency
from beamctl.modal_dynamics import ModalState
from beamctl.moment_problem import assemble
from beamctl.spectrum import BeamConfig, Boundary
from beamctl import synthesis
from beamctl.synthesis import (
    biorthogonal_family,
    cholesky_factor,
    gram_matrix,
    solve_min_norm,
    write_control_csv,
)

CRIT_DATA = dict(values=(1, 0, 0.3, 0, 0, 0), velocities=(0, 0.2, 0, 0, 0, 0))


def small_system(bits=256):
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(1), 3, Fraction(1), bits)
    st = ModalState.dirichlet(values=(1, 0, 0.3), velocities=(0, 0.2, 0))
    return assemble(cfg, st)


def stiff_system(bits=64):
    cfg = BeamConfig(Boundary.DIRICHLET, Fraction(19, 10), 6, Fraction(1), bits)
    st = ModalState.dirichlet(**CRIT_DATA)
    return assemble(cfg, st)


def test_cholesky_reconstructs_gram():
    system = small_system()
    G = gram_matrix(system)
    with mp.workprec(320):
        L, cond = cholesky_factor(G, 256)
        m = G.rows
        worst = mp.mpf(0)
        for i in range(m):
            for j in range(m):
                s = mp.fsum(L[i, k] * L[j, k] for k in range(min(i, j) + 1))
                worst = max(worst, abs(s - G[i, j]))
        assert worst < mp.mpf(2) ** -200
        assert cond >= 1


def test_cholesky_rejects_singular_matrix():
    with mp.workprec(128):
        G = mp.matrix([[1, 1], [1, 1]])
        with pytest.raises(NumericalRankDeficiency) as info:
            cholesky_factor(G, 128)
        assert info.value.pivot_index == 1


def test_solver_reproduces_targets():
    system = small_system()
    report = solve_min_norm(system)
    assert report.max_residual < 1e-60
    G = gram_matrix(system)
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


def test_biorthogonal_family_identity():
    system = small_system()
    controls, norms = biorthogonal_family(system)
    m = system.n_rows
    assert len(controls) == len(norms) == m
    G = gram_matrix(system)
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
