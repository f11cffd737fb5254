"""Every exported name resolves, at the package and in each module; only
the CLI touches files."""
import importlib
import pkgutil
import re
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
