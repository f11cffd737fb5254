"""Every exported name resolves, at the package and in each module."""
import importlib
import pkgutil

import beamctl


def test_every_exported_name_resolves():
    modules = [beamctl] + [importlib.import_module(f"beamctl.{info.name}")
                           for info in pkgutil.iter_modules(beamctl.__path__)]
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names missing attributes: {missing}"
