"""Execution-backend selection.

Two substrates execute (M̃)PY programs:

- ``"compiled"`` — the generated-source backend of this package
  (default: lower once, run candidates as plain Python bytecode);
- ``"interp"`` — the tree-walking interpreter of :mod:`repro.mpy.interp`
  (the escape hatch, and the semantic reference the differential suite
  holds the compiler to).

Selection order: an explicit ``backend=`` argument at a call site, else a
process-wide default set via :func:`set_default_backend` (the CLI's
``--backend`` flag), else the ``REPRO_BACKEND`` environment variable,
else ``"compiled"``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

COMPILED = "compiled"
INTERP = "interp"
BACKENDS = (COMPILED, INTERP)

ENV_VAR = "REPRO_BACKEND"

_default: Optional[str] = None


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown execution backend {name!r}; expected one of {BACKENDS}"
        )
    return name


def default_backend() -> str:
    """The process-wide backend: explicit default, env var, or compiled."""
    if _default is not None:
        return _default
    env = os.environ.get(ENV_VAR, "").strip().lower()
    if env:
        return _validate(env)
    return COMPILED


def set_default_backend(name: Optional[str]) -> None:
    """Set (or with ``None``, clear) the process-wide backend default."""
    global _default
    _default = _validate(name) if name is not None else None


def resolve_backend(name: Optional[str]) -> str:
    """An explicit choice if given, else the process default."""
    return _validate(name) if name is not None else default_backend()


@contextmanager
def using_backend(name: Optional[str]) -> Iterator[str]:
    """Temporarily pin the process-wide default (``None`` = leave as is)."""
    global _default
    saved = _default
    if name is not None:
        _default = _validate(name)
    try:
        yield default_backend()
    finally:
        _default = saved
