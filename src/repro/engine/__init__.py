"""Pluggable bit-storage backends for :class:`repro.core.bitarray.BitArray`.

The paper's offline decoder is pure bit-parallel work — unfold (Eq. 3),
OR (Eq. 4), count zeros, MLE (Eq. 5) — so how the physical array ``B_x``
is *stored* decides how fast the whole measurement plane runs and how
many RSU-periods fit in server memory.  This package separates the
storage representation from the :class:`~repro.core.bitarray.BitArray`
API behind a small backend interface:

* :class:`PackedWordBackend` (``"packed"``, the default) stores bits in
  ``uint64`` words — 8x denser than one-byte-per-bit — and implements
  OR/AND/tile on words with zero counting via vectorized popcount;
* :class:`LegacyBoolBackend` (``"legacy"``) keeps the original numpy
  ``bool`` representation, retained for differential testing (the
  hypothesis suite in ``tests/test_engine.py`` asserts both backends
  agree bit for bit) and as a fallback reference.

Both backends produce **byte-identical** wire serializations
(``to_bytes`` uses big-endian bit order, matching ``np.packbits``) and
**bit-identical** estimates, so a deployment can switch backends
without invalidating stored reports or golden results.

Selecting a backend
-------------------
The backend is a property of the process, not of a call.  Two
mechanisms choose it, strongest first:

1. the scoped :func:`use_backend` context, local to the current thread
   or asyncio task (the thread executor of :func:`repro.runtime.run_tasks`
   carries it into its workers; a process worker enters its own);
2. the ``REPRO_ENGINE`` environment variable (``legacy`` / ``packed``),
   the deployment setting CI runs the whole suite under;

and the built-in default, ``"packed"``, when neither is set.  Every
:class:`~repro.core.bitarray.BitArray` takes the backend current at
its construction and keeps it; operands built under different scopes
still combine (the right operand is converted).  See ``docs/engine.md``
for the word layout and the memory math.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.engine import kernels
from repro.engine.backend import BitBackend
from repro.engine.kernels import KernelTable, get_kernels
from repro.engine.legacy import LegacyBoolBackend
from repro.engine.packed import PackedWordBackend
from repro.errors import ConfigurationError

__all__ = [
    "BitBackend",
    "KernelTable",
    "LegacyBoolBackend",
    "PackedWordBackend",
    "BUILTIN_DEFAULT",
    "ENV_VAR",
    "available_backends",
    "get_backend",
    "get_kernels",
    "default_backend_name",
    "register_backend",
    "use_backend",
]

#: Environment variable that overrides the built-in default backend.
ENV_VAR = "REPRO_ENGINE"

#: The backend used when nothing else selects one.
BUILTIN_DEFAULT = "packed"

_BACKENDS: Dict[str, BitBackend] = {}

#: The backend chosen by the innermost :func:`use_backend` scope
#: (None = fall through to the environment).
_scoped: ContextVar[Optional[str]] = ContextVar("repro_engine", default=None)

BackendLike = Union[str, BitBackend, None]


def register_backend(
    backend: BitBackend,
    *,
    kernel_table: Optional[KernelTable] = None,
    replace: bool = False,
) -> BitBackend:
    """Register *backend* (and its kernel table) under ``backend.name``.

    The single entry point that keeps the backend registry and the
    kernel-table registry of :mod:`repro.engine.kernels` in lockstep:
    when *kernel_table* is omitted, a default table is derived from the
    backend's own primitives via
    :func:`~repro.engine.kernels.table_from_backend`.  Registering an
    already-taken name raises
    :class:`~repro.errors.ConfigurationError` unless *replace* is true.

    This is how an out-of-tree accelerator plugs in::

        engine.register_backend(MyGpuBackend(), kernel_table=my_table)
        with engine.use_backend("my-gpu"):
            ...
    """
    if not isinstance(backend, BitBackend):
        raise ConfigurationError(
            f"register_backend needs a BitBackend instance, got {backend!r}"
        )
    name = backend.name
    if name in _BACKENDS and not replace:
        raise ConfigurationError(
            f"bit-engine backend {name!r} is already registered; "
            "pass replace=True to override"
        )
    table = kernel_table or kernels.table_from_backend(backend)
    if table.backend != name:
        raise ConfigurationError(
            f"kernel table is for backend {table.backend!r}, "
            f"not {name!r}"
        )
    _BACKENDS[name] = backend
    kernels.register_kernels(table, replace=True)
    return backend


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def _lookup(name: str) -> BitBackend:
    try:
        return _BACKENDS[name]
    except KeyError:
        choices = ", ".join(available_backends())
        raise ConfigurationError(
            f"unknown bit-engine backend {name!r}; choose one of {choices}"
        ) from None


def default_backend_name() -> str:
    """The backend name a new ``BitArray`` takes.

    Resolution: the innermost :func:`use_backend` scope >
    ``REPRO_ENGINE`` environment variable > ``"packed"``.
    """
    scoped = _scoped.get()
    if scoped is not None:
        return scoped
    env = os.environ.get(ENV_VAR)
    if env:
        # Validate eagerly so a typo in CI fails loudly, not quietly.
        return _lookup(env).name
    return BUILTIN_DEFAULT


def get_backend(backend: BackendLike = None) -> BitBackend:
    """Resolve *backend* (name, instance, or ``None``) to an instance.

    ``None`` resolves through :func:`default_backend_name`; an unknown
    name raises :class:`~repro.errors.ConfigurationError`.
    """
    if backend is None:
        return _lookup(default_backend_name())
    if isinstance(backend, BitBackend):
        return backend
    return _lookup(str(backend))


@contextmanager
def use_backend(name: str) -> Iterator[BitBackend]:
    """Make *name* the backend of every ``BitArray`` built in scope.

    The scope is local to the current thread or asyncio task, so
    concurrent scopes never leak into one another.  The tool the
    differential tests use to run the same code path under both
    representations::

        with repro.engine.use_backend("legacy"):
            reports = scheme.encode(passes)
    """
    backend = _lookup(str(name))
    token = _scoped.set(backend.name)
    try:
        yield backend
    finally:
        _scoped.reset(token)


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------
register_backend(LegacyBoolBackend())
register_backend(PackedWordBackend())


def _register_optional_backends() -> None:
    """Auto-register accelerated backends whose dependency imports.

    Today that is the numba word backend; a CuPy/GPU backend would hook
    in the same way.  Absence is normal (numba is optional), so the
    probe is silent.
    """
    from repro.engine import numba_backend

    if numba_backend.HAVE_NUMBA:  # pragma: no cover - CI numba leg only
        backend = numba_backend.NumbaWordBackend()
        register_backend(
            backend, kernel_table=numba_backend.kernel_table(backend)
        )


_register_optional_backends()
