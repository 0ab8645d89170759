"""Tests for the unified verification store (repro.store).

Covers the ResultStore backend contract (memory / journal / sqlite /
stacked), per-region hashing and cone extraction, region-granularity
incremental re-verification, cross-process no-double-execute against a
shared SQLite store, the audit trail, and the CLI surface
(``verify --store``, ``store log``).
"""

import json
import os
import subprocess
import sys
import textwrap
import threading

import pytest

import repro.store
from repro.__main__ import main
from repro.circuits.compiled import compile_circuit
from repro.circuits.gates import INV
from repro.core.two_sort import build_two_sort
from repro.store import MemoryStore, StackedStore, open_store, result_digest
from repro.store import journal as journal_module
from repro.store.base import RunRecord, wait_for, wait_for_many
from repro.store.journal import JournalStore
from repro.store.sqlite_store import SqliteStore
from repro.verify import parallel
from repro.verify.exhaustive import (
    SweepEpoch,
    VerificationResult,
    pair_shards,
    verify_two_sort_circuit,
    verify_two_sort_region_shard,
)
from repro.verify.parallel import verify_two_sort_sharded


def pairs(width):
    return ((1 << (width + 1)) - 1) ** 2


def sample_result():
    r = VerificationResult(checked=123)
    r.record("(gg, hh): got x/y, want a/b")
    return r


def sample_run(digest="d" * 16):
    return RunRecord(
        circuit="c",
        circuit_hash="h" * 16,
        backend="bigint",
        executor="serial",
        width=5,
        shards=8,
        checked=3969,
        failure_count=0,
        ok=True,
        result_digest=digest,
        mode="regions",
        host="testhost",
        pid=1234,
        timestamp=1700000000.0,
    )


def make_edit(circuit, output_index):
    """A double-INV splice on one output: changes exactly one region
    digest while keeping the circuit functionally identical."""
    edited = circuit.copy()
    root = edited.outputs[output_index]
    n1 = edited.add_gate(INV, [root], output="__edit_inv0")
    n2 = edited.add_gate(INV, [n1], output="__edit_inv1")
    edited.replace_output(output_index, n2)
    return edited


def make_broken(circuit, output_index):
    """A single INV splice: a real bug confined to one output cone."""
    bad = circuit.copy()
    n = bad.add_gate(INV, [bad.outputs[output_index]], output="__bad_inv")
    bad.replace_output(output_index, n)
    return bad


# ----------------------------------------------------------------------
# Backend contract
# ----------------------------------------------------------------------
class TestBackendContract:
    @pytest.fixture(params=["memory", "journal", "sqlite"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            yield MemoryStore()
        elif request.param == "journal":
            with JournalStore(str(tmp_path / "s.jsonl"), fsync=False) as s:
                yield s
        else:
            with SqliteStore(str(tmp_path / "s.db")) as s:
                yield s

    def test_result_roundtrip(self, store):
        key = ("c", "h" * 16, "bigint", 5, 0, 8)
        assert store.get(key) is None
        want = sample_result()
        store.put(key, want)
        got = store.get(key)
        assert isinstance(got, VerificationResult)
        assert got.to_json() == want.to_json()

    def test_plain_value_roundtrip(self, store):
        key = ("c", "r" * 16, "bigint", 5, "r", 3, 0, 8)
        store.put(key, {"lanes": 504, "mismatches": 0})
        assert store.get(key) == {"lanes": 504, "mismatches": 0}

    def test_replay_semantics(self, store):
        # Durable backends are first-write-wins (replays from another
        # worker must be idempotent); the memory backend is an LRU
        # *cache*, where re-put replaces (pinned by the LRU tests in
        # test_service.py).  Either way a re-put never errors.
        key = ("c", "h", "bigint", 5, 0, 8)
        store.put(key, {"lanes": 1, "mismatches": 0})
        store.put(key, {"lanes": 2, "mismatches": 9})
        want = 2 if store.backend_name == "memory" else 1
        assert store.get(key)["lanes"] == want

    def test_counters(self, store):
        key = ("k",)
        store.get(key)
        store.put(key, {"lanes": 1, "mismatches": 0})
        store.get(key)
        c = store.counters()
        assert c["hits"] == 1 and c["misses"] == 1 and c["puts"] == 1
        assert c["backend"] == store.backend_name

    def test_scan_prefix(self, store):
        store.put(("a", 1), {"lanes": 1, "mismatches": 0})
        store.put(("a", 2), {"lanes": 2, "mismatches": 0})
        store.put(("b", 1), {"lanes": 3, "mismatches": 0})
        keys = {k for k, _v in store.scan(("a",))}
        assert keys == {("a", 1), ("a", 2)}

    def test_epochs_dedup(self, store):
        epoch = SweepEpoch(
            kind="verify-two-sort", circuit_name="c",
            circuit_hash="h" * 16, width=5, backend=None,
        )
        store.record_epoch(epoch, shards=8, shard_size=504)
        store.record_epoch(epoch, shards=8, shard_size=504)
        assert len(store.epochs()) == 1
        assert store.epochs()[0].fingerprint() == epoch.fingerprint()

    def test_run_records(self, store):
        store.record_run(sample_run("a" * 16))
        store.record_run(sample_run("b" * 16))
        runs = store.runs()
        assert [r.result_digest for r in runs] == ["a" * 16, "b" * 16]
        assert runs[0].mode == "regions" and runs[0].ok
        newest = store.runs(limit=1)
        assert [r.result_digest for r in newest] == ["b" * 16]

    def test_claim_default_granted(self, store):
        # Non-shareable backends always grant; sqlite grants the first.
        assert store.claim(("k",)) is True


class TestPersistence:
    """What survives close + reopen (the durable backends)."""

    @pytest.mark.parametrize("backend", ["journal", "sqlite"])
    def test_reopen_sees_everything(self, backend, tmp_path):
        path = str(tmp_path / ("p.jsonl" if backend == "journal" else "p.db"))
        opener = JournalStore if backend == "journal" else SqliteStore
        with opener(path) as store:
            store.put(("k", 1), sample_result())
            store.put(("k", 2), {"lanes": 7, "mismatches": 0})
            store.record_run(sample_run())
        with opener(path) as store:
            assert store.get(("k", 1)).to_json() == sample_result().to_json()
            assert store.get(("k", 2)) == {"lanes": 7, "mismatches": 0}
            assert len(store.runs()) == 1
            assert store.runs()[0].host == "testhost"

    def test_sqlite_claim_ttl(self, tmp_path):
        path = str(tmp_path / "c.db")
        with SqliteStore(path) as a, SqliteStore(path) as b:
            assert a.claim(("k",), ttl=60.0) is True
            # A live claim blocks other handles...
            assert b.claim(("k",), ttl=60.0) is False
            # ...a put by the claimant releases it...
            a.put(("k",), {"lanes": 1, "mismatches": 0})
            # ...and the value is visible, so waiters take the result.
            assert b.get(("k",)) == {"lanes": 1, "mismatches": 0}
            # An expired claim is reclaimable (ttl in the past).
            assert a.claim(("x",), ttl=0.0) is True
            assert b.claim(("x",), ttl=0.0) is True

    def test_sqlite_claim_refused_once_result_stored(self, tmp_path):
        """Regression: a put deletes the claimant's claim row, so a
        handle that missed on get and then claimed used to be granted
        and recompute the stored shard."""
        path = str(tmp_path / "r.db")
        with SqliteStore(path) as a, SqliteStore(path) as b:
            a.put(("k",), {"lanes": 1, "mismatches": 0})
            assert b.claim(("k",), ttl=60.0) is False
            assert b.claim(("k",), ttl=0.0) is False
            assert b.get(("k",)) == {"lanes": 1, "mismatches": 0}

    def test_wait_for_executes_once_per_key(self, tmp_path):
        with SqliteStore(str(tmp_path / "w.db")) as store:
            calls = []

            def execute():
                calls.append(1)
                return {"lanes": 5, "mismatches": 0}

            v1 = wait_for(store, ("k",), execute)
            v2 = wait_for(store, ("k",), execute)
            assert v1 == v2 == {"lanes": 5, "mismatches": 0}
            assert len(calls) == 1


V1 = {"lanes": 1, "mismatches": 0}
V2 = {"lanes": 2, "mismatches": 0}
V3 = {"lanes": 3, "mismatches": 0}


class TestBatchApi:
    """get_many / put_many / claim_many / wait_for_many on every backend."""

    @pytest.fixture(params=["memory", "journal", "sqlite", "stacked"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            yield MemoryStore()
        elif request.param == "journal":
            with JournalStore(str(tmp_path / "s.jsonl"), fsync=False) as s:
                yield s
        elif request.param == "sqlite":
            with SqliteStore(str(tmp_path / "s.db")) as s:
                yield s
        else:
            with SqliteStore(str(tmp_path / "s.db")) as db:
                yield StackedStore(db, MemoryStore())

    def test_counters_count_per_key(self, store):
        store.put(("a",), V1)
        base = store.counters()
        got = store.get_many([("a",), ("b",), ("c",)])
        assert got == [V1, None, None]
        store.put_many([(("b",), V2), (("c",), V3)])
        assert store.get_many([("c",), ("b",)]) == [V3, V2]
        after = store.counters()
        assert after["hits"] - base["hits"] == 3
        assert after["misses"] - base["misses"] == 2
        assert after["puts"] - base["puts"] == 2
        assert store.get_many([]) == [] and store.claim_many([]) == []

    def test_first_write_wins(self, store):
        store.put_many([(("k",), V1), (("j",), V1)])
        store.put_many([(("k",), V2)])
        # The memory backend is an LRU cache (re-put replaces); every
        # durable backend, and a stack fronted by one, keeps the first.
        want = V2 if store.backend_name == "memory" else V1
        assert store.get_many([("k",), ("j",)]) == [want, V1]

    def test_wait_for_many_computes_only_misses(self, store):
        store.put(("a",), V1)
        calls = []

        def execute(claimed):
            calls.append(list(claimed))
            return [V3 for _key in claimed]

        got = wait_for_many(store, [("a",), ("b",), ("c",)], execute)
        assert got == [V1, V3, V3]
        assert calls == [[("b",), ("c",)]]
        assert store.get_many([("b",), ("c",)]) == [V3, V3]

    @pytest.mark.parametrize("sqlite_first", [True, False])
    def test_stacked_get_many_is_one_select_per_layer(
        self, tmp_path, sqlite_first
    ):
        with SqliteStore(str(tmp_path / "s.db")) as db:
            db.put_many([(("a",), V1), (("b",), V2)])
            memory = MemoryStore()
            memory.put(("m",), V3)
            stack = StackedStore(
                *((db, memory) if sqlite_first else (memory, db))
            )
            statements = []
            db._conn.set_trace_callback(statements.append)
            keys = [("a",), ("m",), ("b",), ("x",)]
            assert stack.get_many(keys) == [V1, V3, V2, None]
            db._conn.set_trace_callback(None)
            selects = [s for s in statements if s.startswith("SELECT")]
            assert len(selects) == 1
            # Every hit is backfilled into the layers that lacked it.
            assert memory.get_many([("a",), ("b",)]) == [V1, V2]
            assert db.get(("m",)) == V3
            assert (stack.hits, stack.misses) == (3, 1)

    def test_stacked_get_many_on_duck_typed_layers(self):
        class Spy:
            def __init__(self, data):
                self.data = dict(data)

            def get(self, key):
                return self.data.get(key)

            def put(self, key, value):
                self.data[key] = value

        front, back = Spy({("a",): V1}), Spy({("b",): V2})
        stack = StackedStore(front, back)
        assert stack.get_many([("a",), ("b",), ("c",)]) == [V1, V2, None]
        assert front.data == back.data == {("a",): V1, ("b",): V2}


class TestBatchClaims:
    """Claim arbitration through two handles on one sqlite file."""

    @pytest.fixture(params=["sqlite", "stacked"])
    def handles(self, request, tmp_path):
        path = str(tmp_path / "c.db")
        with SqliteStore(path) as a, SqliteStore(path) as b:
            if request.param == "stacked":
                yield StackedStore(a, MemoryStore()), b
            else:
                yield a, b

    def test_claim_many_refuses_stored_and_live_keys(self, handles):
        a, b = handles
        a.put(("stored",), V1)
        assert a.claim_many([("live",)]) == [True]
        assert b.claim_many([("stored",), ("live",), ("free",)]) == [
            False, False, True,
        ]
        # An expired claim is reclaimable; a stored key never is.
        assert b.claim_many([("live",), ("stored",)], ttl=0.0) == [
            True, False,
        ]

    def test_put_many_releases_its_claims(self, handles):
        a, b = handles
        assert a.claim_many([("x",), ("y",), ("z",)]) == [True] * 3
        a.put_many([(("x",), V1), (("y",), V2)])
        assert b.stats()["claims"] == 1  # only z is still claimed
        assert b.claim_many([("x",), ("y",), ("z",)]) == [False] * 3
        assert b.get_many([("x",), ("y",), ("z",)]) == [V1, V2, None]

    def test_wait_for_many_takes_the_other_handles_value(self, handles):
        a, b = handles
        a.put(("done",), V1)
        assert a.claim_many([("theirs",)]) == [True]
        calls = []

        def execute(claimed):
            calls.append(list(claimed))
            # The other claimant finishes while this one computes.
            a.put(("theirs",), V2)
            return [V3 for _key in claimed]

        got = wait_for_many(
            b, [("done",), ("theirs",), ("mine",)], execute, poll=0.001
        )
        assert got == [V1, V2, V3]
        assert calls == [[("mine",)]]


class TestJournalBatchFsync:
    def test_put_many_fsyncs_once(self, tmp_path, monkeypatch):
        calls = []
        real = os.fsync
        monkeypatch.setattr(
            journal_module.os, "fsync", lambda fd: (calls.append(fd), real(fd))
        )
        path = str(tmp_path / "f.jsonl")
        with JournalStore(path) as store:
            store.put_many([((i,), V1) for i in range(5)])
            assert len(calls) == 1
            store.put_many([((i,), V2) for i in range(5)])  # all present
            assert len(calls) == 1
        with JournalStore(path) as store:
            assert len(store) == 5 and store.get((4,)) == V1


class TestStacked:
    def test_backfill_and_write_through(self, tmp_path):
        front = MemoryStore()
        back = MemoryStore()
        stack = StackedStore(front, back)
        back.put(("k",), {"lanes": 1, "mismatches": 0})
        assert stack.get(("k",)) == {"lanes": 1, "mismatches": 0}
        # The hit was backfilled into the front layer.
        assert front.get(("k",)) == {"lanes": 1, "mismatches": 0}
        stack.put(("j",), {"lanes": 2, "mismatches": 0})
        assert front.get(("j",)) is not None and back.get(("j",)) is not None

    def test_share_spec_comes_from_shareable_layer(self, tmp_path):
        db = SqliteStore(str(tmp_path / "s.db"))
        stack = StackedStore(db, MemoryStore())
        assert stack.shareable
        assert stack.share_spec() == db.spec
        assert StackedStore(MemoryStore()).share_spec() is None
        db.close()

    def test_close_leaves_layers_open(self, tmp_path):
        db = SqliteStore(str(tmp_path / "s.db"))
        StackedStore(db, MemoryStore()).close()
        db.put(("k",), {"lanes": 1, "mismatches": 0})  # still usable
        db.close()


class TestOpenStore:
    def test_spec_forms(self, tmp_path):
        assert isinstance(open_store("memory"), MemoryStore)
        assert open_store("memory:4").maxsize == 4
        j = open_store(f"journal:{tmp_path}/a.log")
        assert isinstance(j, JournalStore)
        j.close()
        with open_store(f"sqlite:{tmp_path}/a.db") as s:
            assert isinstance(s, SqliteStore)
        # Bare paths pick the backend by suffix.
        with open_store(str(tmp_path / "b.jsonl")) as s:
            assert isinstance(s, JournalStore)
        with open_store(str(tmp_path / "b.db")) as s:
            assert isinstance(s, SqliteStore)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            open_store("")


# ----------------------------------------------------------------------
# Per-region hashing and cone extraction
# ----------------------------------------------------------------------
class TestRegionHashing:
    def test_rebuilt_circuit_hashes_identically(self):
        a = build_two_sort(5)
        b = build_two_sort(5)
        assert a.region_hashes() == b.region_hashes()
        assert a.copy().region_hashes() == a.region_hashes()

    def test_regions_are_distinct(self):
        hashes = build_two_sort(5).region_hashes()
        assert len(hashes) == 10 and len(set(hashes)) == 10

    def test_edit_invalidates_only_its_cone(self):
        circuit = build_two_sort(5)
        before = circuit.region_hashes()
        edited = make_edit(circuit, 3)
        after = edited.region_hashes()
        changed = [i for i in range(10) if after[i] != before[i]]
        assert changed == [3]
        # The whole-circuit hash does change (it is a different netlist).
        assert edited.content_hash() != circuit.content_hash()

    def test_extract_cone_preserves_inputs_and_output(self):
        circuit = build_two_sort(4)
        cone = circuit.extract_cone(2)
        assert cone.inputs == circuit.inputs
        assert cone.outputs == (circuit.outputs[2],)
        assert len(cone.gates) < len(circuit.gates)

    def test_edited_circuit_still_verifies(self):
        edited = make_edit(build_two_sort(4), 1)
        assert verify_two_sort_circuit(edited, 4).ok


# ----------------------------------------------------------------------
# Region-granularity sweeps
# ----------------------------------------------------------------------
@pytest.fixture
def count_executions(monkeypatch):
    """Count actual region-shard computations through the module seam.

    One ``(width, cone, g_lo, g_hi)`` entry per cone executed: a region
    task carries every missing cone of its g-row range.
    """
    executed = []
    real = parallel._execute_region_shard

    def counting(task):
        width, outputs, g_lo, g_hi = task
        executed.extend((width, o, g_lo, g_hi) for o in outputs)
        return real(task)

    monkeypatch.setattr(parallel, "_execute_region_shard", counting)
    return executed


class TestRegionSweep:
    def test_clean_sweep_matches_plain(self, tmp_path, count_executions):
        circuit = build_two_sort(5)
        plain = verify_two_sort_sharded(circuit, 5, jobs=1, shard_size=63 * 8)
        with SqliteStore(str(tmp_path / "s.db")) as store:
            cold = verify_two_sort_sharded(
                circuit, 5, jobs=1, shard_size=63 * 8, store=store
            )
            n_cold = len(count_executions)
            assert cold.to_json() == plain.to_json()
            assert n_cold == 8 * 10  # every (range, cone) computed once
            count_executions.clear()
            warm = verify_two_sort_sharded(
                circuit, 5, jobs=1, shard_size=63 * 8, store=store
            )
            assert warm.to_json() == plain.to_json()
            assert len(count_executions) == 0  # nothing re-executed

    def test_failing_sweep_report_is_byte_identical(self, tmp_path):
        bad = make_broken(build_two_sort(5), 2)
        want = verify_two_sort_circuit(bad, 5)
        assert not want.ok
        with SqliteStore(str(tmp_path / "s.db")) as store:
            got = verify_two_sort_sharded(
                bad, 5, jobs=1, shard_size=63 * 8, store=store
            )
            assert got.to_json() == want.to_json()
            # Warm rerun: same bytes again, from the store.
            again = verify_two_sort_sharded(
                bad, 5, jobs=1, shard_size=63 * 8, store=store
            )
            assert again.to_json() == want.to_json()

    def test_audit_trail_records_each_sweep(self, tmp_path):
        circuit = build_two_sort(5)
        with SqliteStore(str(tmp_path / "s.db")) as store:
            verify_two_sort_sharded(circuit, 5, jobs=1, store=store)
            verify_two_sort_sharded(circuit, 5, jobs=1, store=store)
            runs = store.runs()
            assert len(runs) == 2
            assert runs[0].result_digest == runs[1].result_digest
            assert all(r.mode == "regions" and r.ok for r in runs)
            assert runs[0].circuit_hash == circuit.content_hash()

    def test_cache_granularity_records_audit_too(self, tmp_path):
        store = MemoryStore()
        result = verify_two_sort_sharded(
            build_two_sort(4), 4, jobs=1, cache=store
        )
        runs = store.runs()
        assert len(runs) == 1 and runs[0].mode == "shards"
        assert runs[0].result_digest == result_digest(result)

    def test_incremental_b8_reexecutes_only_the_cone(
        self, tmp_path, count_executions
    ):
        """The acceptance bar: a one-gate edit at B=8 against a warm
        store re-executes only the edited cone's shards -- at least 5x
        fewer than the cold sweep -- with a byte-identical report."""
        width = 8
        circuit = build_two_sort(width)
        plain = verify_two_sort_sharded(circuit, width, jobs=1)
        n_regions = 2 * width
        with SqliteStore(str(tmp_path / "b8.db")) as store:
            cold = verify_two_sort_sharded(
                circuit, width, jobs=1, store=store
            )
            n_cold = len(count_executions)
            shards = len(pair_shards(
                width, parallel._default_pair_shard_size(width, 1)
            ))
            assert n_cold == shards * n_regions
            assert cold.to_json() == plain.to_json()

            count_executions.clear()
            edited = make_edit(circuit, 3)
            incremental = verify_two_sort_sharded(
                edited, width, jobs=1, store=store
            )
            n_inc = len(count_executions)
            assert incremental.to_json() == plain.to_json()
            assert n_inc == shards  # exactly the edited cone's shards
            assert n_cold >= 5 * n_inc
            assert {task[1] for task in count_executions} == {3}

    def test_region_sweep_process_pool(self, tmp_path):
        """jobs>1: the store spec rides initargs; workers consult it."""
        circuit = build_two_sort(5)
        plain = verify_two_sort_sharded(circuit, 5, jobs=1, shard_size=63 * 4)
        with SqliteStore(str(tmp_path / "p.db")) as store:
            r1 = verify_two_sort_sharded(
                circuit, 5, jobs=2, shard_size=63 * 4, store=store
            )
            r2 = verify_two_sort_sharded(
                circuit, 5, jobs=2, shard_size=63 * 4, store=store
            )
        assert r1.to_json() == r2.to_json() == plain.to_json()

    def test_duck_typed_cache_in_region_mode(self, count_executions):
        """A plain get/put object still works as a region-mode cache."""
        circuit = build_two_sort(4)
        plain = verify_two_sort_sharded(circuit, 4, jobs=1)

        class DictCache:
            def __init__(self):
                self.data = {}

            def get(self, key):
                return self.data.get(key)

            def put(self, key, value):
                self.data.setdefault(key, value)

        cache = DictCache()
        for _ in range(2):
            got = verify_two_sort_sharded(
                circuit, 4, jobs=1, store=cache
            )
            assert got.to_json() == plain.to_json()
        assert len(count_executions) == len(cache.data)
        assert all(key[4] == "r" for key in cache.data)

    def test_journal_backend_region_sweep(self, tmp_path, count_executions):
        circuit = build_two_sort(4)
        plain = verify_two_sort_sharded(circuit, 4, jobs=1)
        path = str(tmp_path / "j.jsonl")
        with JournalStore(path, fsync=False) as store:
            r1 = verify_two_sort_sharded(circuit, 4, jobs=1, store=store)
        count_executions.clear()
        with JournalStore(path, fsync=False) as store:  # reopen = resume
            r2 = verify_two_sort_sharded(circuit, 4, jobs=1, store=store)
        assert r1.to_json() == r2.to_json() == plain.to_json()
        assert len(count_executions) == 0


class TestFullPassRegions:
    """A range task runs one full-circuit pass when its missing cones
    cost at least the whole circuit, and falls back to cone programs
    for exact per-cone counts when that pass finds a mismatch."""

    @pytest.fixture
    def count_region_shards(self, monkeypatch):
        calls = []
        real = parallel.verify_two_sort_region_shard

        def counting(program, width, output_index, g_lo, g_hi):
            calls.append(output_index)
            return real(program, width, output_index, g_lo, g_hi)

        monkeypatch.setattr(
            parallel, "verify_two_sort_region_shard", counting
        )
        return calls

    def test_cold_clean_sweep_runs_no_cone_program(
        self, tmp_path, count_region_shards
    ):
        circuit = build_two_sort(6)
        assert sum(circuit.cone_sizes()) >= len(circuit.gates)
        plain = verify_two_sort_sharded(circuit, 6, jobs=1)
        with SqliteStore(str(tmp_path / "c.db")) as store:
            cold = verify_two_sort_sharded(circuit, 6, jobs=1, store=store)
            assert cold.to_json() == plain.to_json()
            assert count_region_shards == []
            # A one-cone edit misses one small cone per range: cone
            # programs, not the full circuit.
            ranges = len(pair_shards(
                6, parallel._default_pair_shard_size(6, 1)
            ))
            edited = verify_two_sort_sharded(
                make_edit(circuit, 3), 6, jobs=1, store=store
            )
            assert edited.to_json() == plain.to_json()
            assert count_region_shards == [3] * ranges

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("backend", ["sqlite", "memory"])
    def test_broken_circuit_falls_back_to_exact_cone_counts(
        self, tmp_path, backend, jobs
    ):
        width = 5
        bad = make_broken(build_two_sort(width), 2)
        assert sum(bad.cone_sizes()) >= len(bad.gates)  # full pass first
        want = verify_two_sort_circuit(bad, width)
        assert not want.ok
        store = (
            SqliteStore(str(tmp_path / "b.db")) if backend == "sqlite"
            else MemoryStore()
        )
        with store:
            got = verify_two_sort_sharded(
                bad, width, jobs=jobs, shard_size=63 * 8, store=store
            )
            assert got.to_json() == want.to_json()
            region = [
                (key, value) for key, value in store.scan((bad.name,))
                if key[4] == "r"
            ]
        assert len(region) == 8 * 2 * width
        programs = {}
        mismatching = set()
        for key, value in region:
            o, g_lo, g_hi = key[5:]
            if o not in programs:
                programs[o] = compile_circuit(bad.extract_cone(o))
            assert value == verify_two_sort_region_shard(
                programs[o], width, o, g_lo, g_hi
            )
            if value["mismatches"]:
                mismatching.add(o)
        assert mismatching == {2}


class TestSharedHandles:
    """Worker-side shared handles never outlive the sweeps using them."""

    @staticmethod
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_handles_and_fds_stay_flat_across_sweeps(self, tmp_path):
        circuit = build_two_sort(4)
        plain = verify_two_sort_sharded(circuit, 4, jobs=1).to_json()
        counts = []
        for n in range(20):
            with SqliteStore(str(tmp_path / f"s{n}.db")) as store:
                got = verify_two_sort_sharded(circuit, 4, jobs=1, store=store)
                assert got.to_json() == plain
            assert repro.store._SHARED == {}
            counts.append(self.open_fds())
        assert counts[-1] <= counts[0], counts

    def test_two_threads_share_one_spec(self, tmp_path):
        circuit = build_two_sort(5)
        plain = verify_two_sort_sharded(circuit, 5, jobs=1).to_json()
        path = str(tmp_path / "t.db")
        barrier = threading.Barrier(2)
        reports, errors = [], []

        def sweep():
            try:
                with SqliteStore(path) as store:
                    barrier.wait(timeout=10)
                    reports.append(verify_two_sort_sharded(
                        circuit, 5, jobs=1, shard_size=63 * 4, store=store
                    ).to_json())
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=sweep) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert reports == [plain, plain]
        assert repro.store._SHARED == {}
        with SqliteStore(path) as store:
            assert len(store) == 16 * 10 and len(store.runs()) == 2

    def test_inline_worker_agent_releases_its_handle(self, tmp_path):
        # An inline (jobs=1) agent runs the sweep's initializer on its
        # own thread, which acquires the shared handle; run() must give
        # it back when the coordinator goes away.
        from repro.distributed import (
            ShardCoordinator,
            ShardWorker,
            use_coordinator,
        )

        circuit = build_two_sort(5)
        plain = verify_two_sort_sharded(circuit, 5, jobs=1).to_json()
        coordinator = ShardCoordinator(host="127.0.0.1", port=0).start()
        agent = ShardWorker(
            "127.0.0.1", coordinator.port, jobs=1, retry_max=0
        )
        errors = []

        def serve():
            try:
                agent.run()
            except ConnectionError:
                pass
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with SqliteStore(str(tmp_path / "w.db")) as store:
                spec = store.share_spec()
                with use_coordinator(coordinator):
                    got = verify_two_sort_sharded(
                        circuit, 5, executor="distributed", store=store
                    )
                assert got.to_json() == plain
                assert agent.completed > 0
        finally:
            coordinator.close()
            thread.join(timeout=30)
        assert not thread.is_alive() and not errors, errors
        assert (os.getpid(), spec) not in repro.store._SHARED

    def test_open_runs_outside_the_lock(self, monkeypatch):
        # Two threads open one spec at once: neither open holds the
        # registry lock, both end up on the first handle, and the
        # second opened handle is closed at once.
        opening = threading.Barrier(2)
        opened = []

        class Handle(MemoryStore):
            closed = False

            def close(self):
                self.closed = True

        def slow_open(spec):
            assert not repro.store._SHARED_LOCK.locked()
            opening.wait(timeout=10)
            store = Handle()
            opened.append(store)
            return store

        monkeypatch.setattr(repro.store, "open_store", slow_open)
        got = []
        threads = [
            threading.Thread(
                target=lambda: got.append(repro.store.shared_store("s"))
            )
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert len(opened) == 2 and got[0] is got[1]
        assert repro.store._SHARED[(os.getpid(), "s")] == [got[0], 2]
        assert [h.closed for h in opened] == [h is not got[0] for h in opened]
        repro.store.release_shared_store("s")
        assert not got[0].closed
        repro.store.release_shared_store("s")
        assert repro.store._SHARED == {} and got[0].closed


# ----------------------------------------------------------------------
# Two processes, one SQLite store: no double execution, no corruption
# ----------------------------------------------------------------------
_SWEEP_SCRIPT = textwrap.dedent(
    """
    import json, sys
    from repro.core.two_sort import build_two_sort
    from repro.store.sqlite_store import SqliteStore
    from repro.verify import parallel
    from repro.verify.parallel import verify_two_sort_sharded

    db, counter_path, barrier_path = sys.argv[1], sys.argv[2], sys.argv[3]

    real = parallel._execute_region_shard
    def counting(task):
        with open(counter_path, "a") as fh:
            fh.write("x\\n" * len(task[1]))  # one line per cone executed
        return real(task)
    parallel._execute_region_shard = counting

    # Crude start barrier so both processes sweep concurrently.
    import os, time
    with open(barrier_path + "." + str(os.getpid()), "w"):
        pass
    deadline = time.time() + 10
    while time.time() < deadline:
        ready = [f for f in os.listdir(os.path.dirname(barrier_path))
                 if os.path.basename(barrier_path) in f]
        if len(ready) >= 2:
            break
        time.sleep(0.01)

    circuit = build_two_sort(5)
    with SqliteStore(db) as store:
        result = verify_two_sort_sharded(
            circuit, 5, jobs=1, shard_size=63 * 8, store=store
        )
    print(json.dumps({"report": result.to_json()}))
    """
)


class TestTwoProcessSqlite:
    def test_concurrent_sweeps_never_double_execute(self, tmp_path):
        db = str(tmp_path / "shared.db")
        counter = str(tmp_path / "executions.log")
        barrier = str(tmp_path / "barrier")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _SWEEP_SCRIPT, db, counter, barrier],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                text=True,
            )
            for _ in range(2)
        ]
        outs = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            outs.append(json.loads(out.strip().splitlines()[-1]))
        # Identical merged reports from both processes...
        assert outs[0]["report"] == outs[1]["report"]
        plain = verify_two_sort_sharded(
            build_two_sort(5), 5, jobs=1, shard_size=63 * 8
        )
        assert outs[0]["report"] == plain.to_json()
        # ...and every (range, cone) task was executed exactly once
        # *in total* across both processes: 8 ranges x 10 cones.
        with open(counter) as fh:
            executions = sum(1 for _ in fh)
        assert executions == 8 * 10
        # The shared store is intact and fully populated.
        with SqliteStore(db) as store:
            assert len(store) == 80
            assert len(store.runs()) == 2


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------
class TestServiceStore:
    def test_request_store_field_roundtrip(self):
        from repro.service.jobs import VerifyRequest, request_from_dict

        req = VerifyRequest(width=4, store="sqlite:/tmp/x.db")
        data = req.to_dict()
        assert data["store"] == "sqlite:/tmp/x.db"
        assert request_from_dict(data) == req

    def test_store_and_checkpoint_are_exclusive(self):
        from repro.service.jobs import VerifyRequest

        with pytest.raises(ValueError, match="mutually exclusive"):
            VerifyRequest(
                width=4, store="s.db", checkpoint="c.jsonl"
            ).validate()

    def test_request_run_with_store_spec(self, tmp_path):
        from repro.service.jobs import VerifyRequest

        db = str(tmp_path / "svc.db")
        req = VerifyRequest(width=4, store=db)
        first = req.run()
        second = req.run()
        assert first.to_json() == second.to_json()
        with SqliteStore(db) as store:
            assert len(store.runs()) == 2

    def test_manager_stats_include_store_block(self):
        from repro.service.jobs import JobManager

        # Constructing a manager needs no running loop for stats().
        import asyncio

        async def go():
            manager = JobManager(jobs=1)
            try:
                stats = manager.stats()
                assert stats["store"]["backend"] == "memory"
                assert {"hits", "misses", "puts", "runs"} <= set(
                    stats["store"]
                )
                assert "cache" in stats  # the historical block survives
            finally:
                await manager.aclose()

        asyncio.run(go())


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliStore:
    def test_verify_store_warm_run_executes_nothing(
        self, tmp_path, capsys, count_executions
    ):
        db = str(tmp_path / "cli.db")
        assert main(["verify", "--width", "5", "--store", db]) == 0
        first = capsys.readouterr()
        assert len(count_executions) > 0
        count_executions.clear()
        assert main(["verify", "--width", "5", "--store", db]) == 0
        second = capsys.readouterr()
        assert len(count_executions) == 0
        # stdout is byte-identical across cold and warm runs; the store
        # summary goes to stderr.
        assert first.out == second.out
        assert "miss(es)" in first.err and "hit(s)" in second.err

    def test_verify_store_json_block(self, tmp_path, capsys):
        db = str(tmp_path / "cli.db")
        assert main(["verify", "--width", "4", "--store", db, "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["store"]["backend"] == "sqlite"
        assert cold["store"]["misses"] > 0 and cold["store"]["puts"] > 0
        assert main(["verify", "--width", "4", "--store", db, "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["store"]["misses"] == 0 and warm["store"]["puts"] == 0
        assert warm["store"]["hits"] > 0
        assert warm["checked"] == cold["checked"] == pairs(4)

    def test_plain_json_has_no_store_block(self, capsys):
        assert main(["verify", "--width", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "store" not in payload

    def test_store_log(self, tmp_path, capsys):
        db = str(tmp_path / "log.db")
        assert main(["verify", "--width", "4", "--store", db]) == 0
        assert main(["verify", "--width", "4", "--store", db]) == 0
        capsys.readouterr()
        assert main(["store", "log", "--store", db]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        assert all("mode=regions" in line and "OK" in line for line in out)
        assert main(["store", "log", "--store", db, "--json",
                     "--limit", "1"]) == 0
        records = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        assert len(records) == 1
        assert records[0]["width"] == 4 and records[0]["ok"] is True

    def test_store_log_digests_match_across_runs(self, tmp_path, capsys):
        db = str(tmp_path / "dig.db")
        assert main(["verify", "--width", "4", "--store", db]) == 0
        assert main(["verify", "--width", "4", "--store", db]) == 0
        capsys.readouterr()
        assert main(["store", "log", "--store", db, "--json"]) == 0
        records = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        digests = {r["result_digest"] for r in records}
        assert len(records) == 2 and len(digests) == 1

    def test_store_excludes_checkpoint(self, tmp_path, capsys):
        assert main([
            "verify", "--width", "4",
            "--store", str(tmp_path / "a.db"),
            "--checkpoint", str(tmp_path / "b.jsonl"),
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_journal_store_via_suffix(self, tmp_path, capsys,
                                      count_executions):
        path = str(tmp_path / "j.jsonl")
        assert main(["verify", "--width", "4", "--store", path]) == 0
        count_executions.clear()
        assert main(["verify", "--width", "4", "--store", path]) == 0
        assert len(count_executions) == 0
        with JournalStore(path, fsync=False) as store:
            assert len(store.runs()) == 2
