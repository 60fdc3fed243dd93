"""PEP 562 lazy package surfaces.

A package ``__init__`` that re-exports names from its submodules would
otherwise import every submodule on first touch of the package -- so
``import repro.machines`` used to pull in the sweep engine, and every
CLI command paid for the whole model stack before doing any work.
:func:`lazy_exports` builds the module-level ``__getattr__``/``__dir__``
pair that resolves each exported name from its submodule on first
access instead, then caches it in the package namespace.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: dict, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for a package re-exporting ``exports``.

    ``namespace`` is the package's ``globals()``; ``exports`` maps a
    relative submodule name (``".sweep"``) to the names it provides.
    Resolved names are stored into ``namespace``, so each costs one
    lookup; unknown names raise :class:`AttributeError` as usual, which
    also lets ``from package import submodule`` fall through to the
    import system.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
