"""The ``sqlite`` backend: one store shared across processes and hosts.

The journal backend is durable but per-sweep and per-handle; this
backend is the *shared* half of the ROADMAP's persistence item: a
single SQLite file (WAL mode) that CLI runs, service jobs, the
distributed coordinator, and workers on other hosts (via a shared
path) all read and write concurrently.  ``shareable = True`` is the
protocol-level consequence: the sharded sweep ships this store's spec
to its pool/remote workers, which open their own connections and
consult the store *before executing a leased range*.

Layout (all values pure JSON -- no pickles on disk):

* ``results(key, value, created)`` -- first-write-wins keyed values
  (``INSERT OR IGNORE``, matching the journal and the coordinator);
* ``epochs(fingerprint, epoch, shards, shard_size, created)``;
* ``runs(...)`` -- the append-only audit trail of completed sweeps;
* ``claims(key, host, pid, ts)`` -- advisory in-flight markers with a
  TTL, the no-double-execute mechanism: :meth:`claim` arbitrates via
  ``BEGIN IMMEDIATE`` so exactly one writer wins a key, and a claimant
  that dies simply lets its claim expire.

Keys are stored as their canonical JSON-array text, so any tuple of
JSON scalars works and prefix scans decode losslessly.  Connections
use ``busy_timeout`` + WAL so concurrent writers queue instead of
failing, and every handle is thread-safe behind one lock (SQLite
serializes per-connection access anyway).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..verify.exhaustive import SweepEpoch
from .base import ResultStore, RunRecord, decode_value, encode_value

__all__ = ["SqliteStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key     TEXT PRIMARY KEY,
    value   TEXT NOT NULL,
    created REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS epochs (
    fingerprint TEXT PRIMARY KEY,
    epoch       TEXT NOT NULL,
    shards      INTEGER,
    shard_size  INTEGER,
    created     REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id             INTEGER PRIMARY KEY AUTOINCREMENT,
    circuit        TEXT NOT NULL,
    circuit_hash   TEXT NOT NULL,
    backend        TEXT NOT NULL,
    executor       TEXT NOT NULL,
    width          INTEGER NOT NULL,
    shards         INTEGER NOT NULL,
    checked        INTEGER NOT NULL,
    failure_count  INTEGER NOT NULL,
    ok             INTEGER NOT NULL,
    result_digest  TEXT NOT NULL,
    mode           TEXT NOT NULL,
    host           TEXT NOT NULL,
    pid            INTEGER NOT NULL,
    timestamp      REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS claims (
    key  TEXT PRIMARY KEY,
    host TEXT NOT NULL,
    pid  INTEGER NOT NULL,
    ts   REAL NOT NULL
);
"""

_RUN_COLUMNS = (
    "circuit", "circuit_hash", "backend", "executor", "width", "shards",
    "checked", "failure_count", "ok", "result_digest", "mode", "host",
    "pid", "timestamp",
)


def _key_text(key: Tuple) -> str:
    return json.dumps(list(key), separators=(",", ":"), sort_keys=False)


class SqliteStore(ResultStore):
    """WAL-mode SQLite store, safe for concurrent multi-process writers.

    ``claim_ttl`` is the default advisory-claim lifetime in seconds: a
    worker that claims a key and dies releases it implicitly after the
    TTL, so a shared sweep degrades to at-least-once execution instead
    of wedging.  ``fsync`` maps to ``synchronous=NORMAL`` (default;
    WAL-safe against process crash) vs ``FULL``.
    """

    backend_name = "sqlite"
    shareable = True

    def __init__(
        self, path: str, claim_ttl: float = 60.0, fsync: bool = False
    ):
        path = os.fspath(path)
        if path != ":memory:":
            path = os.path.abspath(path)
        super().__init__(spec=f"sqlite:{path}")
        self.path = path
        self.claim_ttl = claim_ttl
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            path, timeout=30.0, check_same_thread=False
        )
        self._conn.isolation_level = None  # explicit transactions only
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(
                "PRAGMA synchronous=%s" % ("FULL" if fsync else "NORMAL")
            )
            self._conn.execute("PRAGMA busy_timeout=30000")
            self._conn.executescript(_SCHEMA)

    # -- keyed results -------------------------------------------------
    def get(self, key: Tuple) -> Optional[Any]:
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM results WHERE key = ?",
                (_key_text(key),),
            ).fetchone()
            if row is None:
                self.misses += 1
                return None
            self.hits += 1
        return decode_value(json.loads(row[0]))

    def put(self, key: Tuple, value: Any) -> None:
        blob = json.dumps(
            encode_value(value), separators=(",", ":"), sort_keys=True
        )
        text = _key_text(key)
        with self._lock:
            # First write wins (like the journal); the claim, if any,
            # is released in the same transaction so waiting claimants
            # see key+result appear atomically.
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT OR IGNORE INTO results(key, value, created) "
                    "VALUES (?, ?, ?)",
                    (text, blob, time.time()),
                )
                self._conn.execute(
                    "DELETE FROM claims WHERE key = ?", (text,)
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self.puts += 1

    def scan(self, prefix: Tuple = ()) -> Iterator[Tuple[Tuple, Any]]:
        prefix = tuple(prefix)
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, value FROM results ORDER BY key"
            ).fetchall()
        for key_text, blob in rows:
            key = tuple(json.loads(key_text))
            if key[: len(prefix)] == prefix:
                yield key, decode_value(json.loads(blob))

    def claim(self, key: Tuple, ttl: Optional[float] = None) -> bool:
        ttl = self.claim_ttl if ttl is None else ttl
        text = _key_text(key)
        now = time.time()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                # A stored result means some claimant already finished
                # (its put deleted the claim row): refuse, so the
                # caller's next get returns that value instead of
                # recomputing it.
                done = self._conn.execute(
                    "SELECT 1 FROM results WHERE key = ?", (text,)
                ).fetchone()
                row = self._conn.execute(
                    "SELECT ts FROM claims WHERE key = ?", (text,)
                ).fetchone()
                if done is not None or (row is not None and now - row[0] < ttl):
                    self._conn.execute("COMMIT")
                    return False
                self._conn.execute(
                    "INSERT OR REPLACE INTO claims(key, host, pid, ts) "
                    "VALUES (?, ?, ?, ?)",
                    (text, _hostname(), os.getpid(), now),
                )
                self._conn.execute("COMMIT")
                return True
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    # -- epochs --------------------------------------------------------
    def record_epoch(
        self,
        epoch: SweepEpoch,
        shards: Optional[int] = None,
        shard_size: Optional[int] = None,
    ) -> None:
        blob = json.dumps(
            epoch.to_dict(), separators=(",", ":"), sort_keys=True
        )
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT OR IGNORE INTO epochs"
                    "(fingerprint, epoch, shards, shard_size, created) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (epoch.fingerprint(), blob, shards, shard_size,
                     time.time()),
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def epochs(self) -> List[SweepEpoch]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT epoch FROM epochs ORDER BY created, fingerprint"
            ).fetchall()
        return [SweepEpoch.from_dict(json.loads(blob)) for (blob,) in rows]

    # -- audit trail ---------------------------------------------------
    def record_run(self, run: RunRecord) -> None:
        data = run.to_dict()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT INTO runs(%s) VALUES (%s)"
                    % (", ".join(_RUN_COLUMNS),
                       ", ".join("?" * len(_RUN_COLUMNS))),
                    tuple(
                        int(data[c]) if c == "ok" else data[c]
                        for c in _RUN_COLUMNS
                    ),
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def runs(self, limit: Optional[int] = None) -> List[RunRecord]:
        with self._lock:
            if limit:
                rows = self._conn.execute(
                    "SELECT %s FROM runs ORDER BY id DESC LIMIT ?"
                    % ", ".join(_RUN_COLUMNS),
                    (limit,),
                ).fetchall()
                rows.reverse()
            else:
                rows = self._conn.execute(
                    "SELECT %s FROM runs ORDER BY id" % ", ".join(_RUN_COLUMNS)
                ).fetchall()
        return [
            RunRecord.from_dict(dict(zip(_RUN_COLUMNS, row))) for row in rows
        ]

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            (n,) = self._conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
        return n

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            (results,) = self._conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
            (epochs,) = self._conn.execute(
                "SELECT COUNT(*) FROM epochs"
            ).fetchone()
            (runs,) = self._conn.execute(
                "SELECT COUNT(*) FROM runs"
            ).fetchone()
            (claims,) = self._conn.execute(
                "SELECT COUNT(*) FROM claims"
            ).fetchone()
        return {
            "backend": self.backend_name,
            "path": self.path,
            "results": results,
            "epochs": epochs,
            "runs": runs,
            "claims": claims,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
        }

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def _hostname() -> str:
    import socket

    return socket.gethostname()
