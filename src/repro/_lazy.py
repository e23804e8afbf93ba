"""Lazy package re-exports (PEP 562): importing a package loads only the
submodules its caller uses, so the router never loads the model."""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], exports: dict[str, tuple[str, ...]]
) -> Callable[[str], Any]:
    """A module ``__getattr__`` resolving ``exports`` (module → names) on
    first access; each resolved name is cached in ``namespace``."""
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in where:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = namespace[name] = getattr(
            importlib.import_module(where[name]), name
        )
        return value

    return __getattr__
