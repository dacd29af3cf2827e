"""Layer registry: maps configuration names to layer classes.

The XML configuration sub-system (paper §3.1, AppiaXML) refers to layers by
name.  Every layer class that should be reachable from an XML description
registers itself with the :func:`register_layer` decorator when its module
is imported, so :func:`resolve_layer` finds a layer only once its module
has been imported.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.kernel.errors import UnknownLayerError
from repro.kernel.layer import Layer

_REGISTRY: dict[str, type[Layer]] = {}


def register_layer(cls: type[Layer]) -> type[Layer]:
    """Class decorator registering ``cls`` under ``cls.name()``.

    Re-registering the same class is idempotent; registering a *different*
    class under an existing name raises ``ValueError`` — silent shadowing of
    protocol implementations would be a debugging nightmare.
    """
    name = cls.name()
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"layer name {name!r} already registered to {existing.__name__}")
    _REGISTRY[name] = cls
    return cls


def resolve_layer(name: str) -> type[Layer]:
    """Return the layer class registered under ``name``.

    Raises:
        UnknownLayerError: when no layer with that name is registered.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise UnknownLayerError(
            f"unknown layer {name!r}; registered layers: {known}") from None


def registered_layers() -> Iterator[tuple[str, type[Layer]]]:
    """Iterate over ``(name, class)`` pairs in name order."""
    for name in sorted(_REGISTRY):
        yield name, _REGISTRY[name]


def is_registered(name: str) -> bool:
    """Return whether a layer is registered under ``name``."""
    return name in _REGISTRY


def unregister_layer(name: str) -> Optional[type[Layer]]:
    """Remove and return the layer registered under ``name`` (tests only)."""
    return _REGISTRY.pop(name, None)
