"""The one scalar-reference switch.

``REPRO_REFERENCE=1`` selects every paper-faithful scalar reference at
once: the knapsack DP and Algorithm 2, the slice-by-slice runtime loop
and the per-event QoS loop.  :func:`reference` sets the variable for a
block, so subprocesses and pool workers started inside it inherit it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = ["use_reference", "reference"]


def use_reference() -> bool:
    """Whether the scalar reference implementations are selected."""
    value = os.environ.get("REPRO_REFERENCE", "").strip().lower()
    return value in {"1", "true", "yes", "on"}


@contextmanager
def reference(enabled: bool = True):
    """Force the scalar references (or the fast paths) for the block."""
    with _env_override("REPRO_REFERENCE", "1" if enabled else "0"):
        yield


@contextmanager
def _env_override(name: str, value: str):
    """Set environment variable ``name`` for the block; restore on exit."""
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous
