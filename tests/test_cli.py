"""Command-line surface: exit codes, file layouts, config overlays."""
import json

import pytest

from beamctl import errors, synthesis
from beamctl.cli import _error_doc, build_parser, main

FAST = ["--precision-bits", "128"]


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def load(out, name):
    return json.loads((out / name).read_text())


def test_spectrum_reports_overdamped_collisions(tmp_path, capsys):
    code, out = run(tmp_path, "spectrum", "--rho", "2.5", "--modes", "4")
    assert code == 0
    doc = load(out, "spectrum.json")
    assert doc["collisions"] == [[2, 1], [4, 2]]
    assert float(doc["branch_ratio"]) == 2.0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "n,regime,lambda_plus_re,lambda_plus_im,lambda_minus_re,lambda_minus_im"
    assert len(lines) == 1 + 4
    assert all(row.split(",")[1] == "overdamped" for row in lines[1:])
    assert "collision" in capsys.readouterr().out


def test_spectrum_irrational_ratio_is_silent(tmp_path, capsys):
    # rho = 3 has the irrational branch ratio (3 + sqrt 5)/2: no collisions
    code, out = run(tmp_path, "spectrum", "--rho", "3", "--modes", "8")
    assert code == 0
    assert load(out, "spectrum.json")["collisions"] == []
    assert capsys.readouterr().err == ""


def test_spectrum_single_mode(tmp_path, capsys):
    # one mode has no consecutive gaps (JSON null); the merged gap is
    # |lambda_1^+ - lambda_1^-| = sqrt 5 at rho = 3
    code, out = run(tmp_path, "spectrum", "--rho", "3", "--modes", "1")
    assert code == 0
    doc = load(out, "spectrum.json")
    assert doc["min_gap_plus"] is None and doc["min_gap_minus"] is None
    assert abs(float(doc["merged_min_gap"]) - 5 ** 0.5) < 1e-12
    assert len((out / "spectrum.csv").read_text().splitlines()) == 2
    assert capsys.readouterr().err == ""


# a small run of each subcommand, with the CSV files it writes
SMALL_RUNS = {
    "spectrum": (["--rho", "0.5", "--modes", "2"], ["spectrum.csv"]),
    "synthesize": (["--modes", "2", "--data", "random", "--seed", "7", *FAST],
                   ["control.csv"]),
    "verify": (["--modes", "2", "--data", "1:1:0,2:0:0.3", *FAST],
               ["control.csv", "trajectory.csv"]),
    "condensation": (["--ratio-sqrt", "2", "--nmax", "40", "--tail-start", "10"],
                     ["condensation.csv"]),
    "cost-sweep": (["--modes", "1", "--horizons", "0.5,1", *FAST], ["cost_sweep.csv"]),
}


@pytest.mark.parametrize("command", SMALL_RUNS)
def test_csv_uses_dot_decimal_and_lf(tmp_path, command):
    argv, names = SMALL_RUNS[command]
    code, out = run(tmp_path, command, *argv)
    assert code == 0
    for name in names:
        raw = (out / name).read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        header, *body = raw.decode().splitlines()
        assert body
        for row in body:
            assert len(row.split(",")) == len(header.split(","))


def test_synthesize_small_system(tmp_path):
    code, out = run(tmp_path, "synthesize", "--modes", "2",
                    "--data", "1:1:0,2:0:0.3", *FAST)
    assert code == 0
    doc = load(out, "synthesis.json")
    assert doc["command"] == "synthesize"
    assert float(doc["cost"]) > 0
    assert doc["precision_trace"] == [128]
    lines = (out / "control.csv").read_text().splitlines()
    assert lines[0] == "t,f,f_prime,f_second"


@pytest.mark.parametrize("argv", [
    ["--rho", "1", "--modes", "40", "--precision-bits", "192"],
    ["--rho", "3", "--modes", "24"],
    ["--rho", "2", "--modes", "16"],
], ids=["rho1-40-modes", "rho3-24-modes", "rho2-16-modes"])
def test_synthesize_random_data_at_many_modes(tmp_path, argv):
    # the control's proxy passes its held-out check here only with node
    # values taken at the exact Lobatto times
    code, out = run(tmp_path, "synthesize", "--data", "random", "--seed", "1", *argv)
    assert code == 0
    header, *rows = (out / "control.csv").read_text().splitlines()
    assert header == "t,f,f_prime,f_second"
    assert len(rows) == 501


@pytest.mark.parametrize("command", SMALL_RUNS)
def test_outputs_are_byte_identical(tmp_path, command):
    argv, csvs = SMALL_RUNS[command]
    code1, out1 = run(tmp_path / "a", command, *argv)
    code2, out2 = run(tmp_path / "b", command, *argv)
    assert code1 == code2 == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert len(names) == 1 + len(csvs)     # the JSON report and the CSVs
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_synthesize_seed_changes_random_data(tmp_path):
    code1, out1 = run(tmp_path / "a", "synthesize", "--modes", "2",
                      "--data", "random", "--seed", "1", *FAST)
    code2, out2 = run(tmp_path / "b", "synthesize", "--modes", "2",
                      "--data", "random", "--seed", "2", *FAST)
    assert code1 == code2 == 0
    assert (out1 / "synthesis.json").read_bytes() != (out2 / "synthesis.json").read_bytes()


def test_synthesize_refuses_invisible_neumann_mode(tmp_path):
    code, out = run(tmp_path, "synthesize", "--boundary", "neumann",
                    "--modes", "3", "--data", "2:1:0", *FAST)
    assert code == 3
    doc = load(out, "synthesis.json")
    assert doc["error"]["type"] == "UncontrollableMode"
    assert doc["error"]["mode"] == 2
    assert not (out / "control.csv").exists()


def test_synthesize_refuses_mean_violating_neumann_data(tmp_path):
    code, out = run(tmp_path, "synthesize", "--boundary", "neumann",
                    "--modes", "3", "--data", "0:0.7:0.2", *FAST)
    assert code == 3
    doc = load(out, "synthesis.json")
    assert doc["error"]["type"] == "UncontrollableMode"
    assert doc["error"]["mode"] == 0


def test_synthesize_rank_deficiency_reports_trace(tmp_path, monkeypatch):
    monkeypatch.setattr(synthesis, "PRECISION_CEILING", 64)
    code, out = run(tmp_path, "synthesize", "--rho", "1.9", "--modes", "6",
                    "--precision-bits", "64", "--data", "1:1:0,3:0.3:0")
    assert code == 4
    doc = load(out, "synthesis.json")
    assert doc["error"]["type"] == "NumericalRankDeficiency"
    assert doc["error"]["attempted_bits"] == [64]
    assert float(doc["error"]["pivot_ratio"]) < 2 ** -32


def test_verify_small_system(tmp_path):
    code, out = run(tmp_path, "verify", "--modes", "2",
                    "--data", "1:1:0,2:0:0.3", *FAST)
    assert code == 0
    doc = load(out, "verification.json")
    assert doc["verdict"] == "controlled"
    assert float(doc["final_norm"]) < 1e-6 * float(doc["initial_norm"])
    for name in ("verification.json", "control.csv", "trajectory.csv"):
        assert (out / name).exists()
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,n,value,velocity"


def test_verify_failed_tolerance_exits_three(tmp_path):
    # the float64 oracle floors far above 1e-30 of the initial norm
    code, out = run(tmp_path, "verify", "--modes", "2", "--data", "1:1:0",
                    "--tolerance", "1e-30", *FAST)
    assert code == 3
    doc = load(out, "verification.json")
    assert doc["verdict"] == "residual-too-large"
    floor = 1e-30 * float(doc["initial_norm"])
    assert float(doc["final_norm"]) <= floor < float(doc["oracle_final_norm"])


def test_verify_controls_24_modes_of_random_data(tmp_path):
    code, out = run(tmp_path, "verify", "--modes", "24", "--data", "random", "--seed", "1")
    assert code == 0
    doc = load(out, "verification.json")
    assert doc["verdict"] == "controlled"
    floor = 1e-6 * float(doc["initial_norm"])
    assert float(doc["final_norm"]) <= floor
    assert float(doc["oracle_final_norm"]) <= floor
    assert doc["oracle_degree"] < 452       # below twice the f'' series' 226 coefficients


@pytest.mark.parametrize("tolerance", ["inf", "nan", "0"])
def test_verify_non_finite_tolerance_exits_two(tmp_path, capsys, tolerance):
    code, out = run(tmp_path, "verify", "--modes", "2", "--data", "1:1:0",
                    "--tolerance", tolerance, *FAST)
    assert code == 2
    assert not (out / "verification.json").exists()
    assert "tolerance must be positive and finite" in capsys.readouterr().err


def test_bad_flag_values_exit_two(tmp_path):
    assert run(tmp_path / "a", "spectrum", "--rho", "-1")[0] == 2
    assert run(tmp_path / "b", "spectrum", "--modes", "0")[0] == 2
    assert run(tmp_path / "c", "synthesize", "--horizon", "0", *FAST)[0] == 2
    assert run(tmp_path / "d", "synthesize", "--data", "1:1:0,1:2:0", *FAST)[0] == 2
    assert run(tmp_path / "e", "synthesize", "--data", "random-seeded:7", *FAST)[0] == 2


def test_config_file_overlay(tmp_path):
    cfg = tmp_path / "beam.ini"
    cfg.write_text("[beam]\nrho = 2.5\nmodes = 4\n")
    code, out = run(tmp_path, "spectrum", "--rho", "1", "--config", str(cfg))
    assert code == 0
    doc = load(out, "spectrum.json")
    # config values win over flags
    assert float(doc["branch_ratio"]) == 2.0
    assert len(doc["collisions"]) == 2


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "beam.ini"
    cfg.write_text("[beam]\nrho = 1\ndamping = 3\n")
    code, _ = run(tmp_path, "spectrum", "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("beam", "regularization", "0.0"),
    ("synthesize", "ridge_fallback", "false"),
    ("synthesize", "autoscale", "false"),
    ("verify", "steps", "4000"),
    ("verify", "samples", "11"),
])
def test_config_file_rejects_removed_ridge_keys(tmp_path, capsys, section, key, value):
    cfg = tmp_path / "beam.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    code, _ = run(tmp_path, "synthesize", "--config", str(cfg), *FAST)
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


def test_ridge_fallback_flag_is_refused(tmp_path):
    with pytest.raises(SystemExit) as info:
        run(tmp_path, "synthesize", "--ridge-fallback", *FAST)
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["synthesize", "--no-autoscale"],
    ["verify", "--no-autoscale"],
    ["verify", "--steps", "4000"],
    ["verify", "--samples", "11"],
])
def test_removed_override_flags_are_refused(tmp_path, argv):
    with pytest.raises(SystemExit) as info:
        run(tmp_path, *argv, *FAST)
    assert info.value.code == 2


@pytest.mark.parametrize("mode", ["4", "-1"])
def test_neumann_mode_range_message_starts_at_zero(tmp_path, capsys, mode):
    code, _ = run(tmp_path, "synthesize", "--boundary", "neumann", "--modes", "3",
                  f"--data={mode}:1:0", *FAST)
    assert code == 2
    assert f"mode {mode} outside the configured range 0..3" in capsys.readouterr().err


def test_config_file_rejects_key_for_other_subcommand(tmp_path, capsys):
    cfg = tmp_path / "beam.ini"
    cfg.write_text("[verify]\ntolerance = 1e-8\n")
    code, _ = run(tmp_path, "spectrum", "--config", str(cfg))
    assert code == 2
    assert "does not apply" in capsys.readouterr().err


SOLVE_DESTS = {"rho", "modes", "boundary", "precision_bits", "seed", "data", "out", "config"}
# subcommand -> every flag it accepts, as argparse dests; each is one it reads
ACCEPTED_DESTS = {
    "spectrum": {"rho", "modes", "precision_bits", "out", "config"},
    "synthesize": SOLVE_DESTS | {"horizon"},
    "verify": SOLVE_DESTS | {"horizon", "tolerance"},
    "condensation": {"rho", "ratio_sqrt", "ratio_cf", "nmax", "tail_start",
                     "precision_bits", "out", "config"},
    "cost-sweep": SOLVE_DESTS | {"horizons"},
}


def test_each_subcommand_accepts_exactly_the_flags_it_reads():
    parser = build_parser()
    for command, dests in ACCEPTED_DESTS.items():
        assert set(vars(parser.parse_args([command]))) - {"command", "func"} == dests
    assert sum(map(len, ACCEPTED_DESTS.values())) == 41


# (subcommand, flag, value, config section, config key) a subcommand does not read
UNREAD = [
    ("spectrum", "--horizon", "5", "beam", "horizon"),
    ("spectrum", "--boundary", "neumann", "beam", "boundary"),
    ("spectrum", "--data", "random", "data", "initial"),
    ("spectrum", "--seed", "3", "data", "seed"),
    ("condensation", "--modes", "5", "beam", "modes"),
    ("condensation", "--horizon", "5", "beam", "horizon"),
    ("condensation", "--boundary", "neumann", "beam", "boundary"),
    ("condensation", "--data", "random", "data", "initial"),
    ("condensation", "--seed", "3", "data", "seed"),
    ("cost-sweep", "--horizon", "0.5", "beam", "horizon"),
]


@pytest.mark.parametrize("command,flag,value,section,key", UNREAD,
                         ids=[f"{c}{f}" for c, f, *_ in UNREAD])
def test_flags_a_subcommand_does_not_read_are_refused(tmp_path, capsys, command, flag,
                                                     value, section, key):
    ratio = ["--ratio-sqrt", "2"] if command == "condensation" else []
    with pytest.raises(SystemExit) as info:
        run(tmp_path / "flag", command, *ratio, flag, value)
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    cfg = tmp_path / "beam.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    code, out = run(tmp_path / "config", command, *ratio, "--config", str(cfg))
    assert code == 2
    err = capsys.readouterr().err
    assert f"config key [{section}] {key} does not apply to '{command}'" in err
    assert not out.exists()


@pytest.mark.parametrize("argv,config", [
    (["--rho", "3", "--ratio-sqrt", "2"], None),
    (["--ratio-sqrt", "2", "--ratio-cf", "1,2,2"], None),
    (["--rho", "3", "--ratio-sqrt", "2", "--ratio-cf", "1,2,2"], None),
    ([], None),
    (["--ratio-sqrt", "2"], "[beam]\nrho = 3\n"),
    (["--rho", "3"], "[condensation]\nratio_cf = 1,2,2\n"),
], ids=["rho-sqrt", "sqrt-cf", "all-three", "none", "config-rho-flag-sqrt",
        "flag-rho-config-cf"])
def test_condensation_takes_exactly_one_ratio_source(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "beam.ini"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    code, out = run(tmp_path, "condensation", "--nmax", "40", *argv)
    assert code == 2
    assert "exactly one of --rho, --ratio-sqrt and --ratio-cf" in capsys.readouterr().err
    assert not out.exists()


def test_mode1_is_the_triple_1_1_0(tmp_path):
    code1, out1 = run(tmp_path / "a", "synthesize", "--modes", "2", "--data", "mode1", *FAST)
    code2, out2 = run(tmp_path / "b", "synthesize", "--modes", "2", "--data", "1:1:0", *FAST)
    assert code1 == code2 == 0
    for name in ("synthesis.json", "control.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
def test_random_data_keeps_each_float64_draw_exactly(boundary):
    # each slot is the draw over n^2, rounded once at the working precision
    import mpmath as mp
    import numpy as np

    from beamctl import BeamConfig
    from beamctl._numutil import GUARD_BITS
    from beamctl.cli import build_initial_state

    config = BeamConfig(boundary, 1, 5, 1, 128)
    state = build_initial_state("random", config, seed=3)
    rng = np.random.default_rng(3)
    first = config.boundary.first_mode
    with mp.workprec(128 + GUARD_BITS):
        for n in state.modes:
            if n == 0 or config.spectrum.traces[n - first] == 0:
                assert state.values[n - first] == state.velocities[n - first] == 0
                continue
            assert state.values[n - first] == mp.mpf(float(rng.standard_normal())) / n ** 2
            assert state.velocities[n - first] == mp.mpf(float(rng.standard_normal())) / n ** 2


def test_condensation_rational_ratio_exits_three(tmp_path):
    code, out = run(tmp_path, "condensation", "--rho", "2.5", "--nmax", "50")
    assert code == 3
    doc = load(out, "condensation.json")
    assert doc["error"]["type"] == "RationalResonance"
    assert float(doc["error"]["ratio"]) == 2.0


def test_condensation_requires_overdamping(tmp_path):
    code, _ = run(tmp_path, "condensation", "--rho", "1.5", "--nmax", "50")
    assert code == 2


def test_condensation_sqrt_ratio(tmp_path):
    code, out = run(tmp_path, "condensation", "--ratio-sqrt", "2",
                    "--nmax", "60", "--tail-start", "10")
    assert code == 0
    doc = load(out, "condensation.json")
    assert float(doc["estimate"]) < 0.1
    lines = (out / "condensation.csv").read_text().splitlines()
    assert lines[0] == "n,branch,value,running_sup"
    assert len(lines) == 1 + 120


def test_condensation_cf_ratio(tmp_path):
    # a finite continued fraction is rational: the scan must refuse it
    code, out = run(tmp_path / "rat", "condensation", "--ratio-cf", "1,2,2,2",
                    "--nmax", "40", "--tail-start", "10")
    assert code == 3
    doc = load(out, "condensation.json")
    assert doc["error"]["type"] == "RationalResonance"
    # a huge trailing quotient keeps it irrational at working precision
    # but nearly rational, which spikes the estimate
    liouville = "1,2,2,2," + str(10 ** 29)
    code, out = run(tmp_path / "irr", "condensation", "--ratio-cf", liouville,
                    "--nmax", "200", "--tail-start", "10")
    assert code == 0
    doc = load(out, "condensation.json")
    assert float(doc["estimate"]) > 0.3


def test_cost_sweep_outputs(tmp_path):
    code, out = run(tmp_path, "cost-sweep", "--modes", "1",
                    "--horizons", "0.5,1", *FAST)
    assert code == 0
    lines = (out / "cost_sweep.csv").read_text().splitlines()
    assert lines[0] == "horizon,cost"
    assert len(lines) == 3
    doc = load(out, "cost_sweep.json")
    assert doc["monotone_nonincreasing"] is True
    assert doc["horizons"] == ["1/2", "1"]


def test_cost_sweep_requires_a_horizon(tmp_path, capsys):
    code, _ = run(tmp_path, "cost-sweep", "--horizons", " , ", *FAST)
    assert code == 2
    assert "at least one horizon is required" in capsys.readouterr().err


def test_cost_sweep_invisible_neumann_mode_exits_three(tmp_path):
    # even cosine modes have a zero boundary trace: no control reaches them
    code, out = run(tmp_path, "cost-sweep", "--boundary", "neumann",
                    "--data", "2:1:0", *FAST)
    assert code == 3
    doc = load(out, "cost_sweep.json")
    assert doc["command"] == "cost-sweep"
    assert doc["error"]["type"] == "UncontrollableMode"
    assert doc["error"]["mode"] == 2
    assert not (out / "cost_sweep.csv").exists()


def test_verify_sampling_failure_exits_four(tmp_path, monkeypatch):
    import beamctl.kernels

    # a node cap no control of these rates can meet
    monkeypatch.setattr(beamctl.kernels, "_MAX_NODES", 16)
    code, out = run(tmp_path, "verify", "--modes", "2",
                    "--data", "1:1:0,2:0:0.3", *FAST)
    assert code == 4
    doc = load(out, "verification.json")
    assert doc["error"]["type"] == "SamplingError"
    assert doc["error"]["degree"] == 16
    assert float(doc["error"]["observed_error"]) > float(doc["error"]["tolerance"])


def test_synthesize_sampling_failure_exits_four(tmp_path, monkeypatch):
    import beamctl.kernels

    monkeypatch.setattr(beamctl.kernels, "_MAX_NODES", 16)
    code, out = run(tmp_path, "synthesize", "--modes", "2",
                    "--data", "1:1:0,2:0:0.3", *FAST)
    assert code == 4
    assert load(out, "synthesis.json")["error"]["type"] == "SamplingError"
    assert not (out / "control.csv").exists()


def test_synthesize_refuses_data_past_float64_in_the_first_round(tmp_path):
    # node values that overflow float64 are refused before any Chebyshev
    # coefficient is formed (no FFT of infinities), at the first 16 nodes
    code, out = run(tmp_path, "synthesize", "--modes", "2", "--data", "1:1e400:0")
    assert code == 4
    err = load(out, "synthesis.json")["error"]
    assert err["type"] == "SamplingError"
    assert err["degree"] == 16
    assert err["observed_error"] == "inf"
    assert not (out / "control.csv").exists()


def test_synthesize_with_a_damping_past_float64_exits_four(tmp_path):
    # rates near -rho n^2 = -1e400 size the Gram's fixed point without
    # overflowing; the moment problem is then numerically rank deficient
    code, out = run(tmp_path, "synthesize", "--rho", "1e400", "--modes", "1")
    assert code == 4
    err = load(out, "synthesis.json")["error"]
    assert err["type"] == "NumericalRankDeficiency"


def test_imaginary_residue_exits_four(tmp_path, monkeypatch):
    import beamctl.cli
    from beamctl.errors import ImaginaryResidue

    def broken(config, state):
        raise ImaginaryResidue(1e-3, 1.0, 128)

    monkeypatch.setattr(beamctl.cli, "assemble", broken)
    code, out = run(tmp_path, "synthesize", "--modes", "2", *FAST)
    assert code == 4
    err = load(out, "synthesis.json")["error"]
    assert err["type"] == "ImaginaryResidue"
    assert float(err["residue"]) == 1e-3
    assert err["precision_bits"] == 128


# each typed error with its attributes, in the order its document lists them
TYPED_ERRORS = [
    (errors.UncontrollableMode(2, 0.5, 1e-9), ["mode", "amplitude", "data_scale"]),
    (errors.ResonanceDefect(-4.0, 0.25, 1.5, (2, 1)),
     ["rate", "defect", "data_norm", "pair"]),
    (errors.NumericalRankDeficiency(3, 1e-40, 64, (64, 128)),
     ["pivot_index", "pivot_ratio", "precision_bits", "attempted_bits"]),
    (errors.RationalResonance(2.0), ["ratio"]),
    (errors.ImaginaryResidue(1e-3, 1.0, 128), ["precision_bits", "residue", "scale"]),
    (errors.SamplingError(16, 0.1, 1e-14, "coefficient tail"),
     ["degree", "observed_error", "tolerance"]),
]


@pytest.mark.parametrize("exc,fields", TYPED_ERRORS,
                         ids=[type(e).__name__ for e, _ in TYPED_ERRORS])
def test_error_document_carries_every_attribute(exc, fields):
    info = json.loads(json.dumps(_error_doc("verify", exc)))["error"]
    assert list(info) == ["type", "message", *fields]
    assert fields == list(vars(exc))
    assert info["type"] == type(exc).__name__
    assert info["message"] == str(exc)
    for name in fields:
        value = getattr(exc, name)
        if isinstance(value, float):
            value = repr(value)
        assert info[name] == (list(value) if isinstance(value, tuple) else value)
