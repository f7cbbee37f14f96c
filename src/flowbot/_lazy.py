"""Package exports that import their submodule on first use (PEP 562)."""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, submodules: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__)`` for ``package``.

    A name listed under ``submodules[m]`` is imported from ``package.m`` the
    first time it is read from the package, and then kept in the package, so
    ``from package import name`` loads ``m`` and what ``m`` imports, nothing
    else. ``__all__`` is every name, sorted.
    """
    home = {name: module for module, names in submodules.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{home[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return sorted(home), __getattr__
