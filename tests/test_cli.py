"""Command-line surface: exit codes, file layouts, config overlays."""
import json

import pytest

from beamctl import errors, synthesis, verification
from beamctl.cli import _error_doc, main

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


def test_spectrum_csv_uses_dot_decimal_and_lf(tmp_path):
    code, out = run(tmp_path, "spectrum", "--rho", "0.5", "--modes", "2")
    assert code == 0
    raw = (out / "spectrum.csv").read_bytes()
    assert b"\r" not in raw
    body = raw.decode().splitlines()[1:]
    for row in body:
        assert len(row.split(",")) == 6


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


def test_synthesize_outputs_are_byte_identical(tmp_path):
    args = ["synthesize", "--modes", "2", "--data", "random", "--seed", "7", *FAST]
    code1, out1 = run(tmp_path / "a", *args)
    code2, out2 = run(tmp_path / "b", *args)
    assert code1 == code2 == 0
    assert (out1 / "synthesis.json").read_bytes() == (out2 / "synthesis.json").read_bytes()
    assert (out1 / "control.csv").read_bytes() == (out2 / "control.csv").read_bytes()


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


def test_verify_failed_tolerance_exits_three(tmp_path, monkeypatch):
    # 1e-30 sizes the oracle far past any cap; a low one keeps the test short
    monkeypatch.setattr(verification, "ORACLE_STEP_CAP", 4000)
    code, out = run(tmp_path, "verify", "--modes", "2", "--data", "1:1:0",
                    "--tolerance", "1e-30", *FAST)
    assert code == 3
    doc = load(out, "verification.json")
    assert doc["verdict"] == "residual-too-large"
    assert doc["oracle_steps_used"] == 4000 < doc["oracle_steps_requested"]


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
    (errors.StepSizeError(4000, 1e12), ["steps", "growth"]),
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
