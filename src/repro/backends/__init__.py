"""Pluggable plane backends: how two-plane batches are stored and run.

The compiled engine, the exhaustive verifier, and the batched network
simulator all operate on **planes** (one bit per batch lane, two planes
per net).  This package owns the choice of plane representation behind
the :class:`~repro.backends.base.PlaneBackend` interface and a small
name registry, mirroring the engine registry in
:mod:`repro.networks.simulate` and the executor registry in
:mod:`repro.verify.parallel`:

* ``"bigint"`` -- arbitrary-precision Python ints (the original
  representation and the reference; the default),
* ``"array"``  -- uint64 lane-word arrays: numpy ufuncs when numpy is
  importable, a stdlib ``array``-of-words fallback otherwise (force the
  fallback with ``REPRO_NO_NUMPY=1``); the variant, and with it the
  numpy import, is picked on the backend's first use, never at import,
* ``"native"`` -- uint64 lane-word planes in stdlib ``array("Q")``
  buffers, executed by a C kernel built on first use (one call per
  shard for the whole compiled program); on hosts without a compiler,
  or under ``REPRO_NO_NATIVE=1``, it degrades to bigint planes with a
  one-time notice (:mod:`repro.backends.native`).

``"auto"`` is an *alias*, not a registered backend: it resolves to
``native`` when the kernel is built on this host and ``bigint``
otherwise (:func:`resolve_backend_name`).  The CLI defaults to it;
library callers that persist or forward backend choices should resolve
it to a concrete name first so cache and epoch keys stay stable across
hosts with different toolchains.

Selection is by name everywhere a backend crosses an API boundary
(``compile_circuit(..., backend=...)``, ``verify --backend``, pool
initializers), so backend choices serialize trivially to worker
processes and compile caches can key on ``(circuit.version, name)``.
The process-wide default is ``"bigint"`` unless ``REPRO_PLANE_BACKEND``
says otherwise; :func:`use_backend` scopes an override (used by
distributed workers, :mod:`repro.distributed.worker`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Union

from ._kernel import native_disabled_by_env
from .array_backend import ArrayBackend, numpy_disabled_by_env
from .base import Plane, PlaneBackend
from .bigint import BigIntBackend
from .native import NativeBackend

__all__ = [
    "AUTO_BACKEND",
    "ArrayBackend",
    "BigIntBackend",
    "NativeBackend",
    "Plane",
    "PlaneBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "known_backend_names",
    "native_disabled_by_env",
    "numpy_disabled_by_env",
    "register_backend",
    "resolve_backend_name",
    "set_default_backend",
    "use_backend",
]

#: The auto-selection alias accepted wherever a backend name is.
AUTO_BACKEND = "auto"

_BACKENDS: Dict[str, PlaneBackend] = {}

#: Scoped override of the default backend name (see use_backend); the
#: environment variable is consulted only when this is unset.
_default_override: Optional[str] = None


def register_backend(name: str, backend: PlaneBackend) -> None:
    """Register (or replace) a plane backend under ``name``.

    The instance's ``name`` attribute is aligned with the registry key
    so compile caches keyed on it stay consistent.
    """
    backend.name = name
    _BACKENDS[name] = backend


def available_backends() -> List[str]:
    return sorted(_BACKENDS)


def known_backend_names() -> List[str]:
    """Every name accepted where a backend name is expected.

    ``available_backends()`` plus the ``auto`` alias -- what CLI
    validation and service-request validation check against.
    """
    return sorted([*_BACKENDS, AUTO_BACKEND])


def resolve_backend_name(name: Optional[str]) -> str:
    """Resolve ``auto`` (or ``None``) to a concrete registered name.

    ``auto`` picks ``native`` when its kernel is built on this host and
    ``bigint`` otherwise; resolving may therefore trigger the one-time
    kernel build.  Concrete names pass through unchanged (including
    unknown ones -- :func:`get_backend` owns that error).
    """
    if name is None:
        name = default_backend_name()
    if name == AUTO_BACKEND:
        native = _BACKENDS.get("native")
        if native is not None and getattr(native, "built", False):
            return "native"
        return "bigint"
    return name


def default_backend_name() -> str:
    """The process default: override > ``REPRO_PLANE_BACKEND`` > bigint."""
    if _default_override is not None:
        return _default_override
    return os.environ.get("REPRO_PLANE_BACKEND", "") or "bigint"


def set_default_backend(name: Optional[str]) -> None:
    """Pin (or with ``None`` clear) the process-default backend."""
    global _default_override
    if name is not None and name != AUTO_BACKEND and name not in _BACKENDS:
        raise KeyError(
            f"unknown plane backend {name!r}; available: {available_backends()}"
        )
    _default_override = name


@contextmanager
def use_backend(name: str) -> Iterator[PlaneBackend]:
    """Scope the default backend to ``name`` for a ``with`` block."""
    global _default_override
    previous = _default_override
    set_default_backend(name)
    try:
        yield get_backend(name)
    finally:
        _default_override = previous


def get_backend(
    backend: Union[str, PlaneBackend, None] = None
) -> PlaneBackend:
    """Resolve a backend argument: instance, registry name, or default.

    ``None`` means the process default (:func:`default_backend_name`);
    a :class:`PlaneBackend` instance passes through, so internal layers
    can resolve once and hand the object down.
    """
    if isinstance(backend, PlaneBackend):
        return backend
    name = resolve_backend_name(backend)
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown plane backend {name!r}; available: {available_backends()}"
        ) from None


register_backend("bigint", BigIntBackend())
register_backend("array", ArrayBackend())
register_backend("native", NativeBackend())
