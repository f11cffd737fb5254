"""Every exported name resolves, at the package and in each module; only
the CLI touches files; the two verification routes import across one
boundary; the exact route runs without numpy."""
import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import beamctl


def test_every_exported_name_resolves():
    modules = [beamctl] + [importlib.import_module(f"beamctl.{info.name}")
                           for info in pkgutil.iter_modules(beamctl.__path__)]
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names missing attributes: {missing}"


def test_only_the_cli_opens_files():
    # the library computes; the CLI owns every CSV and JSON file it writes
    for path in sorted(Path(beamctl.__file__).parent.glob("*.py")):
        if path.name != "cli.py":
            found = re.findall(r"import csv|from csv |open\(", path.read_text())
            assert not found, f"{path.name} does file I/O: {found}"


SRC = Path(__file__).resolve().parent.parent / "src"


def _imports(module: str) -> list:
    """(imported module, names) of every import in a beamctl module, names
    empty for a plain `import x`; relative modules keep only their name."""
    tree = ast.parse((SRC / "beamctl" / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.append((node.module or "", {alias.name for alias in node.names}))
        elif isinstance(node, ast.Import):
            found += [(alias.name, set()) for alias in node.names]
    return found


def test_routes_import_across_one_boundary():
    """The oracle route (kernels, modal_dynamics) imports nothing of the closed
    form; the closed form takes only the control's data from kernels and the
    state type from modal_dynamics, and touches no sampler or proxy."""
    for module in ("kernels", "modal_dynamics"):
        for source, names in _imports(module):
            assert "closed_form" not in source.split(".") + sorted(names), (module, source)
    allowed = {"kernels": {"Kernel", "ControlSignal"}, "modal_dynamics": {"ModalState"}}
    for source, names in _imports("closed_form"):
        base = source.split(".")[-1]
        assert not names & set(allowed), source         # no whole-module import
        if base in allowed:
            assert names and names <= allowed[base], (source, names)
    oracle = {"proxy", "term_table", "sample", "_sample_extended", "_lobatto_nodes"}
    tree = ast.parse((SRC / "beamctl" / "closed_form.py").read_text())
    touched = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    touched |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not touched & oracle

# spectrum, assembly, Gram, Cholesky, solve and closed form: integers and mpf only
EXACT_ROUTE = textwrap.dedent("""
    from fractions import Fraction
    import beamctl
    config = beamctl.BeamConfig(beamctl.Boundary.DIRICHLET, Fraction(3), 3, Fraction(1), 256)
    state0 = beamctl.ModalState.dirichlet((1, 0, Fraction(3, 10)), (0, Fraction(1, 5), 0))
    system = beamctl.assemble(config, state0)
    report = beamctl.solve_min_norm(system)
    final = beamctl.closed_form_state(config, state0, report.control)
    assert beamctl.state_pair_norm(final, 2) < 1e-50
""")


def _numpy_loaded_after(steps: str, cwd: Path) -> bool:
    """Whether numpy is in sys.modules after steps, run in a fresh
    interpreter: this one already holds numpy."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    script = steps + "\nimport sys; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()[-1] == "True"


def test_exact_route_runs_without_numpy(tmp_path):
    assert not _numpy_loaded_after(EXACT_ROUTE, tmp_path)
    # the oracle route loads it with the control's first sample
    assert _numpy_loaded_after(EXACT_ROUTE + "report.control.sample([0.0])", tmp_path)


def test_spectrum_and_condensation_start_without_numpy(tmp_path):
    steps = textwrap.dedent("""
        from beamctl import cli
        assert cli.main(["spectrum", "--out", "spectrum"]) == 0
        assert cli.main(["condensation", "--rho", "3", "--out", "condensation"]) == 0
    """)
    assert not _numpy_loaded_after(steps, tmp_path)
