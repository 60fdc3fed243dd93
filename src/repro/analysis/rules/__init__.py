"""Built-in rules.  Importing this package registers every rule code."""

from __future__ import annotations

from . import (  # noqa: F401
    blocking,
    concurrency,
    determinism,
    lockorder,
    resilience,
    storeio,
    telemetry,
    units,
)

__all__ = [
    "determinism",
    "concurrency",
    "units",
    "telemetry",
    "resilience",
    "lockorder",
    "blocking",
    "storeio",
]
