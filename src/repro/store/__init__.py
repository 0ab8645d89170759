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
* :func:`shared_store` acquires a per-process, reference-counted
  handle for a spec and :func:`release_shared_store` drops it -- the
  worker-side entry point: pool and remote workers receive a shareable
  store's spec through the sweep initargs and consult the store before
  executing a leased range.
"""

from __future__ import annotations

import os
import threading
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
    "release_shared_store",
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


#: Worker-side handles, keyed on (pid, spec), each with its count of
#: live acquisitions.  The pid guards forked pool workers: a SQLite
#: connection must never be shared across a fork, so each process
#: lazily opens its own.
_SHARED: Dict[Tuple[int, str], List[Any]] = {}
_SHARED_LOCK = threading.Lock()


def shared_store(spec: str) -> ResultStore:
    """Acquire this process's shared handle on ``spec`` (worker consults).

    Concurrent acquisitions of one spec -- sweeps on the service's
    thread pool -- share one handle, so a sweep's workers never pay a
    connection handshake per task.  Every call must be paired with one
    :func:`release_shared_store`; the last release closes the handle,
    so no connection or open file outlives the sweeps that used it.
    """
    key = (os.getpid(), spec)
    with _SHARED_LOCK:
        entry = _SHARED.get(key)
        if entry is not None:
            entry[1] += 1
            return entry[0]
    # Open outside the lock: a SQLite open may wait on another
    # process's lock, and no other spec's acquire or release should
    # wait behind it.  Two threads racing here keep the first handle.
    store = open_store(spec)
    with _SHARED_LOCK:
        entry = _SHARED.get(key)
        if entry is None:
            entry = _SHARED[key] = [store, 0]
        entry[1] += 1
    if entry[0] is not store:
        store.close()
    return entry[0]


def release_shared_store(spec: str) -> None:
    """Drop one :func:`shared_store` acquisition; close on the last."""
    key = (os.getpid(), spec)
    with _SHARED_LOCK:
        entry = _SHARED.get(key)
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] > 0:
            return
        del _SHARED[key]
    entry[0].close()
