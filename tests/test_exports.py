"""The public name lists of the package modules."""

import importlib
import pkgutil

import nls2d


def test_all_names_resolve():
    """Every name in a module's ``__all__`` exists, so ``import *`` succeeds."""
    modules = [m.name for m in pkgutil.iter_modules(nls2d.__path__) if m.name != "__main__"]
    assert "spectral" in modules
    for name in modules:
        module = importlib.import_module(f"nls2d.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"nls2d.{name}.__all__ names missing attributes {missing}"
        exec(f"from nls2d.{name} import *", {})
