"""Value-iteration kernel with a compiled (Cython) core and a pure-Python fallback.

The compiled module is optional: when it is not built (no compiler, no
Cython), the pure-Python twin is selected at import time. Both
implementations are arithmetically identical, so results do not depend on
which backend runs. Set REMEST_BACKEND=python or REMEST_BACKEND=compiled
to force a choice; the default prefers the compiled core when present.
"""

from __future__ import annotations

import os

from . import rvi_py

try:
    from . import rvi_cy

    _COMPILED_OK = True
except ImportError:
    rvi_cy = None
    _COMPILED_OK = False

BACKENDS = ("compiled", "python")


def has_compiled() -> bool:
    return _COMPILED_OK


def available_backends():
    return BACKENDS if _COMPILED_OK else ("python",)


def default_backend() -> str:
    env = os.environ.get("REMEST_BACKEND")
    if env:
        if env not in BACKENDS:
            raise ValueError(f"REMEST_BACKEND must be one of {BACKENDS}, got {env!r}")
        if env == "compiled" and not _COMPILED_OK:
            raise RuntimeError("REMEST_BACKEND=compiled but the compiled kernel is not built")
        return env
    return "compiled" if _COMPILED_OK else "python"


def _resolve(backend):
    if backend is None:
        return default_backend()
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if backend == "compiled" and not _COMPILED_OK:
        raise RuntimeError("compiled kernel is not built; run `python setup.py build_ext --inplace`")
    return backend


def rvi_kernel(backend=None):
    """Relative-value-iteration kernel for the requested backend."""
    return rvi_cy.rvi_iterate if _resolve(backend) == "compiled" else rvi_py.rvi_iterate
