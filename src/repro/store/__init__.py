"""Unified result persistence: pluggable stores behind one protocol.

Public surface of the ``repro.store`` subsystem (see
:mod:`repro.store.base` for the protocol itself):

* :func:`open_store` parses a store *spec* -- ``"memory"`` /
  ``"memory:N"``, ``"journal:PATH"``, ``"sqlite:PATH"``, or a bare
  path (``.jsonl``/``.journal`` suffix selects the journal backend,
  anything else sqlite) -- and returns an opened
  :class:`~repro.store.base.ResultStore`.  The file-backed classes live
  in :mod:`repro.store.journal` (``JournalStore``) and
  :mod:`repro.store.sqlite_store` (``SqliteStore``) and are imported
  only when a spec opens one;
* :func:`register_store_backend` is the registry hook, exactly like
  the executor and plane-backend registries;
* :func:`shared_store` returns a per-process cached handle for a spec
  -- the worker-side entry point: pool and remote workers receive a
  shareable store's spec through the sweep initargs and consult the
  store before executing a leased range.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from .base import ResultStore, RunRecord, result_digest
from .memory import MemoryStore
from .stacked import StackedStore

__all__ = [
    "MemoryStore",
    "ResultStore",
    "RunRecord",
    "StackedStore",
    "available_store_backends",
    "open_store",
    "register_store_backend",
    "result_digest",
    "shared_store",
]

#: Backend factories: ``factory(arg)`` where ``arg`` is the text after
#: the first ``:`` of the spec (possibly empty).
_BACKENDS: Dict[str, Callable[[str], ResultStore]] = {}


def register_store_backend(
    name: str, factory: Callable[[str], ResultStore]
) -> None:
    """Register (or replace) a store backend under ``name``."""
    _BACKENDS[name] = factory


def available_store_backends() -> List[str]:
    return sorted(_BACKENDS)


def _make_memory(arg: str) -> ResultStore:
    return MemoryStore(maxsize=int(arg)) if arg else MemoryStore()


# The file-backed stores are imported when first opened, so a sweep
# without a store never loads sqlite3.
def _make_journal(arg: str) -> ResultStore:
    from .journal import JournalStore

    return JournalStore(arg)


def _make_sqlite(arg: str) -> ResultStore:
    from .sqlite_store import SqliteStore

    return SqliteStore(arg)


register_store_backend("memory", _make_memory)
register_store_backend("journal", _make_journal)
register_store_backend("sqlite", _make_sqlite)


def open_store(spec: str) -> ResultStore:
    """Open the store a spec names.

    ``"memory"``/``"memory:4096"`` -> LRU; ``"journal:PATH"`` ->
    JSON-lines journal; ``"sqlite:PATH"`` -> shared WAL-mode SQLite.  A
    bare path picks the backend by suffix: ``.jsonl``/``.journal`` mean
    journal, everything else (``.db``, ``.sqlite``, ...) sqlite -- so
    ``verify --store s.db`` does the expected thing with no ceremony.
    """
    if not isinstance(spec, str) or not spec:
        raise ValueError(f"store spec must be a non-empty string, got {spec!r}")
    name, sep, arg = spec.partition(":")
    if sep and name in _BACKENDS:
        return _BACKENDS[name](arg)
    if not sep and spec in _BACKENDS:
        return _BACKENDS[spec]("")
    # A bare path: infer the backend from the suffix.
    if spec.endswith((".jsonl", ".journal")):
        return _BACKENDS["journal"](spec)
    return _BACKENDS["sqlite"](spec)


#: Worker-side handle cache, keyed on (pid, spec).  The pid guards
#: forked pool workers: a SQLite connection must never be shared across
#: a fork, so each process lazily opens its own.
_SHARED: Dict[Tuple[int, str], ResultStore] = {}


def shared_store(spec: str) -> ResultStore:
    """A per-process cached handle on ``spec`` (for worker consults).

    Handles are kept open for the life of the process -- workers
    consult the store per task, and reconnecting per task would turn
    every shard into a connection handshake.
    """
    key = (os.getpid(), spec)
    store = _SHARED.get(key)
    if store is None:
        store = open_store(spec)
        _SHARED[key] = store
    return store
