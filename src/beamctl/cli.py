"""Command-line front end: config ingestion, experiment dispatch, file reports.

Five subcommands wrap the library: `spectrum` (eigenvalue tables and
collision detection), `synthesize` (moment solve, control emission),
`verify` (the full null-control experiment with the independent spectral
oracle, whose trajectory.csv holds 201 uniform times on [0, T]),
`condensation` (Diophantine tail analysis of the overdamped rate families)
and `cost-sweep` (minimum cost across horizons with a blow-up fit).  A
`verify` verdict depends on the config, the data and --tolerance alone.

Each subcommand accepts exactly the flags it reads (build_parser).
Everything a run produces lands in --out as CSV (plot-ready: '.' decimal,
',' separator, LF newlines, header row) and JSON (decimal-string numbers,
fixed field order, so identical configs reproduce byte-identical files).
A config file named by --config overrides command-line flags; its schema is
INI-style sections with the exact keys documented in CONFIG_SCHEMA, and
unknown keys, or keys whose flag the subcommand lacks, are rejected.

Exit codes: 0 success, 2 configuration or domain error, 3 uncontrollable
data or failed verification verdict, 4 numerical infeasibility at the
allowed precision.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from fractions import Fraction

import mpmath as mp

from ._numutil import as_fraction, decimal_str
from .condensation import condensation_estimate, ratio_from_quotients, ratio_from_sqrt
from .errors import (
    ImaginaryResidue,
    NumericalRankDeficiency,
    RationalResonance,
    ResonanceDefect,
    SamplingError,
    UncontrollableMode,
)
from .kernels import ControlSignal
from .modal_dynamics import ModalState, Trajectory, _exact_norm
from .moment_problem import assemble
from .spectrum import (
    BeamConfig,
    DampingRegime,
    branch_ratio,
    branch_ratio_exact,
    gap_statistics,
)
from .synthesis import solve_min_norm
from .verification import Verdict, cost_sweep, null_control_experiment

__all__ = ["main", "CONFIG_SCHEMA", "build_initial_state"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNCONTROLLABLE = 3
EXIT_NUMERICAL = 4

UNCONTROLLABLE_ERRORS = (UncontrollableMode, ResonanceDefect, RationalResonance)
NUMERICAL_ERRORS = (NumericalRankDeficiency, SamplingError, ImaginaryResidue)

# subcommand -> its JSON report, which carries the error document on exit 3 or 4
REPORT_FILES = {"spectrum": "spectrum.json", "synthesize": "synthesis.json",
                "verify": "verification.json", "cost-sweep": "cost_sweep.json",
                "condensation": "condensation.json"}

CONTROL_SAMPLES = 501       # uniform samples of the control in control.csv

# (section, key) -> (args attribute, converter); the whole config-file schema
CONFIG_SCHEMA = {
    ("beam", "rho"): ("rho", str),
    ("beam", "modes"): ("modes", int),
    ("beam", "horizon"): ("horizon", str),
    ("beam", "boundary"): ("boundary", str),
    ("beam", "precision_bits"): ("precision_bits", int),
    ("data", "initial"): ("data", str),
    ("data", "seed"): ("seed", int),
    ("output", "dir"): ("out", str),
    ("verify", "tolerance"): ("tolerance", float),
    ("sweep", "horizons"): ("horizons", str),
    ("condensation", "nmax"): ("nmax", int),
    ("condensation", "tail_start"): ("tail_start", int),
    ("condensation", "ratio_sqrt"): ("ratio_sqrt", int),
    ("condensation", "ratio_cf"): ("ratio_cf", str),
}


# flags more than one subcommand reads, with their argparse keywords
SHARED_FLAGS = {
    "--rho": dict(default="1", help="damping coefficient, exact decimal or fraction (default 1)"),
    "--modes": dict(type=int, default=6, help="number of controlled modes (default 6)"),
    "--horizon": dict(default="1", help="control horizon T, decimal or fraction (default 1)"),
    "--boundary": dict(choices=["dirichlet", "neumann"], default="dirichlet"),
    "--precision-bits": dict(type=int, default=256),
    "--seed": dict(type=int, default=0, help="seed for the 'random' data fixture"),
    "--data": dict(default="mode1", help="initial data: 'mode1' (1:1:0), 'random' (with --seed) "
                                         "or triples 'mode:value:velocity,...'"),
    "--out": dict(default=".", help="output directory (default .)"),
    "--config": dict(help="INI config file; its values override flags"),
}


def build_parser(only=None) -> argparse.ArgumentParser:
    """One subparser per subcommand, each with exactly the flags it reads.

    Given a subcommand `only` (main's, read off argv), only that one is
    built; otherwise all five, so --help and an invalid choice list them.
    """
    common = ("--precision-bits", "--out", "--config")
    solve = ("--rho", "--modes", "--boundary", "--seed", "--data") + common
    # name -> (handler, help, its SHARED_FLAGS, its own (flag, keywords))
    commands = {
        "spectrum": (cmd_spectrum, "eigenvalue table, gaps and collision pairs",
                     common + ("--rho", "--modes"), ()),
        "synthesize": (cmd_synthesize, "solve the moment system and emit the control",
                       solve + ("--horizon",), ()),
        "verify": (cmd_verify, "synthesize, then verify along both evaluation routes",
                   solve + ("--horizon",), (
                       ("--tolerance", dict(type=float, default=1e-6, help="relative final-norm "
                                            "threshold for the verdict (default 1e-6)")),)),
        # exactly one of the three ratio sources, checked after the config overlay
        "condensation": (cmd_condensation, "Diophantine condensation estimate of the rate "
                         "families", common, (
                             ("--rho", dict(help="damping coefficient rho > 2, exact decimal "
                                                 "or fraction")),
                             ("--ratio-sqrt", dict(type=int, help="branch ratio sqrt(D) for a "
                                                                  "positive integer D")),
                             ("--ratio-cf", dict(help="branch ratio from continued-fraction "
                                                      "quotients 'a0,a1,...'")),
                             ("--nmax", dict(type=int, default=200)),
                             ("--tail-start", dict(type=int, default=10)))),
        "cost-sweep": (cmd_cost_sweep, "minimum control cost across horizons, with blow-up "
                       "fit", solve, (
                           ("--horizons", dict(default="0.25,0.5,1,2", help="comma-separated "
                                               "horizons (default 0.25,0.5,1,2)")),)),
    }
    parser = argparse.ArgumentParser(
        prog="beamctl",
        description="Boundary null control of a structurally damped beam: "
                    "synthesis, verification and spectral diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, shared, own) in commands.items():
        if only in commands and only != name:
            continue
        # no abbreviations, so a flag a subcommand lacks is never read as a
        # prefix of one it has (cost-sweep --horizon as --horizons)
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        for flag, keywords in [(f, SHARED_FLAGS[f]) for f in shared] + list(own):
            p.add_argument(flag, **keywords)
    return parser


def apply_config_file(args: argparse.Namespace) -> None:
    """Overlay --config values onto parsed flags; unknown keys are errors."""
    if not args.config:
        return
    if not os.path.exists(args.config):
        raise ValueError(f"config file not found: {args.config}")
    ini = configparser.ConfigParser()
    try:
        with open(args.config) as fh:
            ini.read_file(fh)
    except configparser.Error as exc:
        raise ValueError(f"config file {args.config} is not valid INI: {exc}") from exc
    for section in ini.sections():
        for key in ini[section]:
            try:
                dest, conv = CONFIG_SCHEMA[(section, key)]
            except KeyError:
                raise ValueError(
                    f"unknown config key [{section}] {key}; "
                    f"known keys: {sorted(f'[{s}] {k}' for s, k in CONFIG_SCHEMA)}")
            if not hasattr(args, dest):
                # key belongs to a different subcommand
                raise ValueError(
                    f"config key [{section}] {key} does not apply to '{args.command}'")
            raw = ini[section][key]
            try:
                value = conv(raw)
            except ValueError as exc:
                raise ValueError(
                    f"config key [{section}] {key} has invalid value {raw!r}") from exc
            setattr(args, dest, value)


def beam_config(args: argparse.Namespace) -> BeamConfig:
    # spectrum has no --boundary or --horizon and cost-sweep no --horizon:
    # their reports read neither, so fixed values fill the BeamConfig
    return BeamConfig(getattr(args, "boundary", "dirichlet"), args.rho, args.modes,
                      getattr(args, "horizon", "1"), args.precision_bits)


def build_initial_state(descriptor: str, config: BeamConfig, seed: int = 0) -> ModalState:
    """Initial data from a fixture name or explicit mode:value:velocity triples.

    Every descriptor becomes exact Fraction triples, and the state keeps
    them, so each ladder rung reads the data at its own precision.  'mode1' is 1:1:0, unit
    displacement on the first oscillatory mode.  'random' draws Gaussian
    float64 data from `seed` with a 1/n^2 amplitude decay on every
    oscillatory mode whose trace in config.spectrum is nonzero (under
    Neumann the odd cosine modes), which keeps Neumann fixtures admissible
    by construction.  Triples may name mode 0 under Neumann, e.g. to probe
    the admissibility screening on purpose.
    """
    descriptor = descriptor.strip()
    first = config.boundary.first_mode
    if descriptor == "mode1":
        descriptor = "1:1:0"
    if descriptor == "random":
        import numpy as np
        rng = np.random.default_rng(seed)
        # no draw for a mode the control cannot see
        triples = [(n, Fraction(float(rng.standard_normal())) / n ** 2,
                    Fraction(float(rng.standard_normal())) / n ** 2)
                   for n in range(1, config.n_modes + 1)
                   if config.spectrum.traces[n - first] != 0]
    else:
        triples = []
        for chunk in descriptor.split(","):
            parts = chunk.strip().split(":")
            if len(parts) != 3:
                raise ValueError(
                    f"bad data triple {chunk!r}; expected mode:value:velocity")
            try:
                mode = int(parts[0])
                val = Fraction(parts[1])
                vel = Fraction(parts[2])
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad data triple {chunk!r}")
            triples.append((mode, val, vel))

    size = config.n_modes + 1 - first
    values = [Fraction(0)] * size
    velocities = [Fraction(0)] * size
    seen = set()
    for mode, val, vel in triples:
        if mode in seen:
            raise ValueError(f"mode {mode} appears twice in the data descriptor")
        seen.add(mode)
        if mode == 0 and first == 1:
            raise ValueError("mode 0 only exists under Neumann control")
        if not first <= mode <= config.n_modes:
            raise ValueError(
                f"mode {mode} outside the configured range {first}..{config.n_modes}")
        values[mode - first], velocities[mode - first] = val, vel

    return ModalState(config.boundary, tuple(values), tuple(velocities))


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_control_csv(control: ControlSignal, path) -> None:
    """Uniform samples of the boundary signal as CSV: t, f, f_prime, f_second."""
    import numpy as np
    header = ["t", "f", "f_prime", "f_second"]
    data = control.sample(np.linspace(0.0, float(control.horizon), CONTROL_SAMPLES))
    _write_csv(path, header, zip(*(map(repr, map(float, data[c])) for c in header)))


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Long-format CSV: t, n, value, velocity (header row, '.' decimal, LF)."""
    modes = trajectory.state_at(0).modes
    _write_csv(path, ["t", "n", "value", "velocity"],
               ([repr(t), n, repr(val), repr(vel)]
                for t, vals, vels in zip(trajectory.times, trajectory.values,
                                         trajectory.velocities)
                for n, val, vel in zip(modes, vals, vels)))


def _error_doc(command: str, exc: Exception) -> dict:
    info = {"type": type(exc).__name__, "message": str(exc)}
    for field, value in vars(exc).items():
        if isinstance(value, float):
            value = repr(value)
        elif isinstance(value, tuple):
            value = list(value)
        info[field] = value
    return {"command": command, "error": info}


def _out_path(args: argparse.Namespace, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_report(args: argparse.Namespace, doc: dict) -> None:
    _write_json(_out_path(args, REPORT_FILES[args.command]), {"command": args.command, **doc})


def cmd_spectrum(args: argparse.Namespace) -> int:
    config = beam_config(args)
    bits = config.precision_bits
    _write_csv(_out_path(args, "spectrum.csv"),
               ["n", "regime", "lambda_plus_re", "lambda_plus_im",
                "lambda_minus_re", "lambda_minus_im"],
               ([e.n, e.regime.value,
                 decimal_str(mp.re(e.lambda_plus), bits),
                 decimal_str(mp.im(e.lambda_plus), bits),
                 decimal_str(mp.re(e.lambda_minus), bits),
                 decimal_str(mp.im(e.lambda_minus), bits)]
                for e in config.spectrum.eigenvalues))

    stats = gap_statistics(config.spectrum)
    doc = {
        "rho": str(config.rho),
        "n_modes": config.n_modes,
        "regime": config.regime.value,
        "min_gap_plus": None if stats.min_gap_plus is None else repr(stats.min_gap_plus),
        "min_gap_minus": None if stats.min_gap_minus is None else repr(stats.min_gap_minus),
        "merged_min_gap": repr(stats.merged_min_gap),
        "collisions": [list(pair) for pair in stats.collisions],
    }
    if config.regime is DampingRegime.OVERDAMPED:
        exact = config.spectrum.ratio_exact
        # lambda_1^- = -r; fneg(exact=True) keeps all of its bits
        doc["branch_ratio"] = decimal_str(mp.fneg(config.spectrum.roots(1)[1], exact=True), bits)
        doc["branch_ratio_exact"] = None if exact is None else str(exact)
    _write_report(args, doc)
    msg = (f"spectrum: {config.n_modes} modes, regime {config.regime.value}, "
           f"{len(stats.collisions)} collision pair(s)")
    print(msg)
    return EXIT_OK


def cmd_synthesize(args: argparse.Namespace) -> int:
    config = beam_config(args)
    state0 = build_initial_state(args.data, config, args.seed)
    system = assemble(config, state0)
    report = solve_min_norm(system)
    # sampling can still fail (SamplingError): before any success report
    write_control_csv(report.control, _out_path(args, "control.csv"))
    _write_report(args, report.to_json_dict())
    print(f"synthesize: cost {report.cost:.6g}, condition ~{report.condition_estimate:.3g}, "
          f"{report.precision_bits_used} bits")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    config = beam_config(args)
    state0 = build_initial_state(args.data, config, args.seed)
    report = null_control_experiment(config, state0, tolerance=args.tolerance)
    _write_report(args, report.to_json_dict())
    write_control_csv(report.synthesis.control, _out_path(args, "control.csv"))
    write_trajectory_csv(report.trajectory, _out_path(args, "trajectory.csv"))
    rel = float(_exact_norm(report.final_norm) / (_exact_norm(report.initial_norm) or 1))
    print(f"verify: verdict {report.verdict.value}, final/initial {rel:.3e}, "
          f"route deviation {report.oracle_deviation:.3e}")
    return EXIT_OK if report.verdict is Verdict.CONTROLLED else EXIT_UNCONTROLLABLE


def cmd_condensation(args: argparse.Namespace) -> int:
    given = [flag for flag, value in (("--rho", args.rho), ("--ratio-sqrt", args.ratio_sqrt),
                                      ("--ratio-cf", args.ratio_cf)) if value is not None]
    if len(given) != 1:
        raise ValueError("condensation takes exactly one of --rho, --ratio-sqrt and --ratio-cf, "
                         f"as flags or config keys; got {', '.join(given) or 'none'}")
    bits = args.precision_bits
    if args.ratio_cf is not None:
        try:
            quotients = [int(a) for a in args.ratio_cf.split(",")]
        except ValueError:
            raise ValueError(f"bad continued-fraction quotients {args.ratio_cf!r}")
        r = ratio_from_quotients(quotients, bits)
        source = f"cf:{args.ratio_cf}"
    elif args.ratio_sqrt is not None:
        r = ratio_from_sqrt(args.ratio_sqrt, bits)
        source = f"sqrt:{args.ratio_sqrt}"
    else:
        rho = as_fraction(args.rho, "rho")
        if rho <= 2:
            raise ValueError("condensation analysis needs rho > 2")
        exact = branch_ratio_exact(rho)
        r = exact if exact is not None else branch_ratio(rho, bits)
        source = f"rho:{rho}"
    est = condensation_estimate(r, args.nmax, tail_start=args.tail_start,
                                precision_bits=bits)
    _write_report(args, {"ratio_source": source, **est.to_json_dict()})
    _write_csv(_out_path(args, "condensation.csv"), ["n", "branch", "value", "running_sup"],
               ([row.n, row.branch, repr(row.value),
                 "" if row.running_sup is None else repr(row.running_sup)] for row in est.rows))
    print(f"condensation: estimate {est.estimate:.6g} "
          f"(slow {est.sup_slow:.6g}, fast {est.sup_fast:.6g}, "
          f"tail {args.tail_start}..{args.nmax})")
    return EXIT_OK


def cmd_cost_sweep(args: argparse.Namespace) -> int:
    config = beam_config(args)
    state0 = build_initial_state(args.data, config, args.seed)
    horizons = [h.strip() for h in args.horizons.split(",") if h.strip()]
    sweep = cost_sweep(config, state0, horizons)
    _write_csv(_out_path(args, "cost_sweep.csv"), ["horizon", "cost"],
               ([str(float(T)), repr(c)] for T, c in zip(sweep.horizons, sweep.costs)))
    _write_report(args, sweep.to_json_dict())
    fit = "n/a" if sweep.fit_r_squared is None else f"{sweep.fit_r_squared:.4f}"
    print(f"cost-sweep: {len(sweep.costs)} horizons, monotone "
          f"{sweep.monotone_nonincreasing}, fit r^2 {fit}")
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
    try:
        apply_config_file(args)
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"beamctl {args.command}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UNCONTROLLABLE_ERRORS + NUMERICAL_ERRORS as exc:
        uncontrollable = isinstance(exc, UNCONTROLLABLE_ERRORS)
        _write_report(args, _error_doc(args.command, exc))
        what = "uncontrollable" if uncontrollable else "numerically infeasible"
        print(f"beamctl {args.command}: {what}: {exc}", file=sys.stderr)
        return EXIT_UNCONTROLLABLE if uncontrollable else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
