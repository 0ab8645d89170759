"""Sharded parallel verification across a pluggable executor registry.

The bit-parallel engine (:mod:`repro.circuits.compiled`) made a single
process sweep the ``|S^B_rg|^2`` pair domain ~3000x faster, but one
core is still the ceiling: at B = 13 the domain is 268M pairs.  The
plane-space construction is embarrassingly parallel, though -- each
g-row block of the pair product (:func:`repro.verify.exhaustive.pair_shards`)
is an independent unit of work whose
:class:`~repro.verify.exhaustive.VerificationResult` merges
deterministically with the others.  This module dispatches those shards
across worker processes.

**Executor registry.**  An executor is a strategy for running a worker
function over a task list::

    executor(worker, tasks, jobs=..., initializer=..., initargs=...)
        -> [worker(t) for t in tasks]      # results in task order

Two local executors ship by default:

* ``"serial"``  -- in-process loop; the semantic reference and the
  zero-overhead path for one job,
* ``"process"`` -- a ``multiprocessing`` pool; the initializer runs once
  per worker (compiling the circuit there, so the netlist is pickled
  once and the program is reused across that worker's shards).

:func:`register_executor` is the backend hook, exactly like the engine
registry in :mod:`repro.networks.simulate`.  A third executor rides
on it: ``"distributed"`` leases tasks to socket-connected worker
agents on other hosts (:mod:`repro.distributed` -- imported lazily by
its registration stub, as is :mod:`multiprocessing` by the process
executor, so a serial sweep loads neither).  Orthogonally, every
sharded entry point takes a ``backend`` argument that the pool
initializers forward to workers **by name**, so any executor can run
any plane representation (process pools pickle the name, never the
backend object).

**Determinism.**  Executors must return results in task order; callers
merge with :meth:`VerificationResult.merge` (or plain concatenation for
batch workloads), so the outcome is bit-identical for any job count --
``--jobs N`` changes wall-clock time, never the report.
"""

from __future__ import annotations

import inspect
import os
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..backends import (
    AUTO_BACKEND,
    PlaneBackend,
    get_backend,
    resolve_backend_name,
)
from ..circuits.compiled import BackendLike, compile_circuit
from ..circuits.netlist import Circuit
from ..store import shared_store
from ..store.base import RunRecord, result_digest, wait_for
from .exhaustive import (
    _MAX_SHARD_LANES,
    SweepEpoch,
    VerificationResult,
    check_two_sort_shape,
    pair_shards,
    verify_two_sort_region_shard,
    verify_two_sort_shard,
)

__all__ = [
    "SweepCancelled",
    "available_executors",
    "default_jobs",
    "plan_shards",
    "register_executor",
    "run_sharded",
    "verify_two_sort_sharded",
]

#: Worker signature: one picklable task in, one picklable result out.
Worker = Callable[[Any], Any]
#: Executor signature (see module docstring).
Executor = Callable[..., List[Any]]
#: Per-result hook: ``on_result(task_index, result)``, called in task
#: order from the *calling* process as each task completes.
OnResult = Callable[[int, Any], None]
#: Cooperative stop probe, polled between tasks.
ShouldStop = Callable[[], bool]


class SweepCancelled(RuntimeError):
    """A sharded run was stopped by ``should_stop()`` between tasks.

    ``results`` holds the tasks completed before the stop, in task
    order -- enough for a caller to report partial progress.  Raised
    (never returned) so a cancelled sweep can't be mistaken for a
    complete one.
    """

    def __init__(self, results: List[Any]):
        super().__init__(f"cancelled after {len(results)} completed task(s)")
        self.results = results


_EXECUTORS: Dict[str, Executor] = {}
#: Executors whose signature accepts ``on_result``/``should_stop``
#: (detected at registration); others get the replay fallback.
_STREAMING: Dict[str, bool] = {}
#: Executors whose signature accepts ``epoch`` -- the sweep-setup
#: descriptor remote workers key their compile caches on.  Local
#: executors don't need it (the initializer already carries the
#: circuit), so it is forwarded only where declared.
_EPOCH_AWARE: Dict[str, bool] = {}


def _signature_params(executor: Executor):
    try:
        params = inspect.signature(executor).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins etc.
        return None
    return params


def _supports_streaming(executor: Executor) -> bool:
    params = _signature_params(executor)
    if params is None:
        return False
    if any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    ):
        return True
    return {"on_result", "should_stop"} <= set(params)


def _supports_epoch(executor: Executor) -> bool:
    params = _signature_params(executor)
    if params is None:
        return False
    if any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    ):
        return True  # same **kwargs rule as the streaming detection
    return "epoch" in params


def register_executor(name: str, executor: Executor) -> None:
    """Register (or replace) an execution backend under ``name``.

    Executors that accept ``on_result``/``should_stop`` keyword
    arguments (detected by signature) get them forwarded natively for
    per-task streaming and cooperative cancellation; legacy executors
    without them still work -- :func:`run_sharded` replays their
    completed results through ``on_result`` afterwards and only checks
    ``should_stop`` up front.  Executors declaring an ``epoch``
    keyword additionally receive the sweep's
    :class:`~repro.verify.exhaustive.SweepEpoch` (the ``"distributed"``
    executor ships it to remote workers).
    """
    _EXECUTORS[name] = executor
    _STREAMING[name] = _supports_streaming(executor)
    _EPOCH_AWARE[name] = _supports_epoch(executor)


def available_executors() -> List[str]:
    return sorted(_EXECUTORS)


def default_jobs() -> int:
    """Worker count when the caller does not pin one (all cores)."""
    return os.cpu_count() or 1


def plan_shards(total: int, shard_size: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into ``[lo, hi)`` blocks of ``shard_size``.

    The generic index-space twin of
    :func:`repro.verify.exhaustive.pair_shards`: disjoint, exactly
    covering, in ascending order -- so concatenating per-shard results
    reproduces the unsharded output.
    """
    if total <= 0:
        return []
    size = max(1, shard_size)
    return [(lo, min(total, lo + size)) for lo in range(0, total, size)]


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
def _pool_context():
    """Multiprocessing context for worker pools.

    From the main thread (the CLI path) the platform default is kept --
    fork on Linux, with its cheap startup.  From any other thread the
    caller is a multithreaded process (the service layer runs sweeps on
    a thread pool), where forking can deadlock the child on locks held
    by sibling threads at fork time (and is a DeprecationWarning on
    3.12+), so ``spawn`` is used instead.  All pool initializers and
    workers in this codebase are module-level with picklable initargs,
    so both contexts run them identically.
    """
    import multiprocessing

    if threading.current_thread() is threading.main_thread():
        return multiprocessing.get_context()
    return multiprocessing.get_context("spawn")


def _serial_executor(
    worker: Worker,
    tasks: Sequence[Any],
    jobs: int = 1,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
    on_result: Optional[OnResult] = None,
    should_stop: Optional[ShouldStop] = None,
) -> List[Any]:
    """Run every task in this process (reference implementation)."""
    if initializer is not None:
        initializer(*initargs)
    out: List[Any] = []
    for i, task in enumerate(tasks):
        if should_stop is not None and should_stop():
            raise SweepCancelled(out)
        result = worker(task)
        out.append(result)
        if on_result is not None:
            on_result(i, result)
    return out


def _process_executor(
    worker: Worker,
    tasks: Sequence[Any],
    jobs: int,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
    on_result: Optional[OnResult] = None,
    should_stop: Optional[ShouldStop] = None,
) -> List[Any]:
    """Fan tasks out over a ``multiprocessing`` pool, order-preserving.

    A pool is spawned even for ``jobs=1`` -- callers asked for process
    isolation by name, and benchmarks need the honest single-worker
    pool overhead, not a silent serial fallback.  With streaming hooks
    the pool switches from ``map`` to ordered ``imap`` so each result
    surfaces (and ``should_stop`` is polled) as it completes; a stop
    terminates the pool, abandoning in-flight shards.
    """
    if not tasks:
        return []
    jobs = min(max(1, jobs), len(tasks))
    ctx = _pool_context()
    with ctx.Pool(
        processes=jobs, initializer=initializer, initargs=initargs
    ) as pool:
        # chunksize=1: shards are coarse already; keep scheduling greedy.
        if on_result is None and should_stop is None:
            return pool.map(worker, tasks, chunksize=1)
        out: List[Any] = []
        results = pool.imap(worker, tasks, chunksize=1)
        for i in range(len(tasks)):
            if should_stop is not None and should_stop():
                pool.terminate()
                raise SweepCancelled(out)
            result = next(results)
            out.append(result)
            if on_result is not None:
                on_result(i, result)
        return out


def _distributed_executor(
    worker: Worker,
    tasks: Sequence[Any],
    jobs: int = 1,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
    on_result: Optional[OnResult] = None,
    should_stop: Optional[ShouldStop] = None,
    epoch: Optional[SweepEpoch] = None,
) -> List[Any]:
    """Cross-host executor: lease tasks to socket-connected workers.

    A thin registration stub -- the machinery (work-queue coordinator,
    lease/heartbeat/re-queue run loop, in-order merge) lives in
    :mod:`repro.distributed`, imported lazily so the registry can
    always list the name without the CLI paying the import.  ``jobs``
    is ignored: parallelism is each *worker's* ``--jobs``.  Requires a
    running coordinator (``--listen`` on the CLI, or
    :func:`repro.distributed.ensure_coordinator`).
    """
    from ..distributed.executor import run_distributed

    return run_distributed(
        worker,
        tasks,
        jobs=jobs,
        initializer=initializer,
        initargs=initargs,
        on_result=on_result,
        should_stop=should_stop,
        epoch=epoch,
    )


register_executor("serial", _serial_executor)
register_executor("process", _process_executor)
register_executor("distributed", _distributed_executor)


def run_sharded(
    worker: Worker,
    tasks: Sequence[Any],
    jobs: Optional[int] = None,
    executor: Optional[str] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
    on_result: Optional[OnResult] = None,
    should_stop: Optional[ShouldStop] = None,
    epoch: Optional[SweepEpoch] = None,
) -> List[Any]:
    """Run ``worker`` over ``tasks`` on a registered executor.

    ``jobs=None`` or ``0`` means every core; ``executor=None`` picks
    ``"process"`` for more than one job and ``"serial"`` otherwise.
    Results come back in task order regardless of backend, which is
    what makes sharded sweeps deterministic.

    ``on_result(i, result)`` fires in task order as task ``i``
    completes -- the single progress seam shared by the CLI, the async
    service layer, and tests.  ``should_stop()`` is polled between
    tasks; returning true raises :class:`SweepCancelled` carrying the
    results completed so far.  Executors registered without these
    keywords still work: their whole-batch result is replayed through
    ``on_result`` after the fact, and ``should_stop`` is only honoured
    before dispatch.

    ``epoch`` optionally describes the sweep's shared setup
    (:class:`~repro.verify.exhaustive.SweepEpoch`); it is forwarded
    only to executors that declare the keyword (``"distributed"``
    workers key their compile caches on it and validate circuit
    identity against it).
    """
    tasks = list(tasks)
    jobs = default_jobs() if not jobs else max(1, jobs)
    name = executor or ("process" if jobs > 1 else "serial")
    try:
        run = _EXECUTORS[name]
    except KeyError:
        raise KeyError(
            f"unknown executor {name!r}; available: {available_executors()}"
        ) from None
    extra: Dict[str, Any] = {}
    if epoch is not None and _EPOCH_AWARE.get(name, False):
        extra["epoch"] = epoch
    if on_result is None and should_stop is None:
        return run(
            worker, tasks, jobs=jobs, initializer=initializer,
            initargs=initargs, **extra
        )
    if _STREAMING.get(name, False):
        return run(
            worker,
            tasks,
            jobs=jobs,
            initializer=initializer,
            initargs=initargs,
            on_result=on_result,
            should_stop=should_stop,
            **extra,
        )
    # Legacy executor: no mid-run streaming, but the contract holds.
    if should_stop is not None and should_stop():
        raise SweepCancelled([])
    out = run(
        worker, tasks, jobs=jobs, initializer=initializer,
        initargs=initargs, **extra
    )
    if on_result is not None:
        for i, result in enumerate(out):
            on_result(i, result)
    return out


# ----------------------------------------------------------------------
# Sharded exhaustive two-sort verification
# ----------------------------------------------------------------------
#: Per-worker state installed by the pool initializer (the compiled
#: program is built once per worker, not once per shard).  Thread-local
#: because the service layer runs concurrent in-process sweeps on a
#: thread pool; multiprocessing pool workers run the initializer and
#: their tasks on one thread, so per-process semantics are unchanged.
_VERIFY_STATE = threading.local()


def _init_verify_worker(
    circuit: Circuit, backend: BackendLike = None,
    store_spec: Optional[str] = None,
) -> None:
    # `backend` arrives as a registry name (or None for the executor /
    # process default) and `store_spec` as a store spec string (or None
    # when the sweep's store is not shareable) so the initargs stay
    # picklable for pool *and remote* workers.
    _VERIFY_STATE.program = compile_circuit(circuit, get_backend(backend))
    _VERIFY_STATE.circuit = circuit
    _VERIFY_STATE.backend = backend
    _VERIFY_STATE.backend_name = get_backend(backend).name
    _VERIFY_STATE.region_programs = {}
    _VERIFY_STATE.store = shared_store(store_spec) if store_spec else None


def _verify_shard_worker(task: Tuple[int, int, int]) -> VerificationResult:
    width, g_lo, g_hi = task
    return verify_two_sort_shard(_VERIFY_STATE.program, width, g_lo, g_hi)


def _region_key(
    circuit_name: str, region_hash: str, backend_name: str,
    width: int, output_index: int, g_lo: int, g_hi: int,
) -> Tuple:
    """Store key for one output cone over one g-row range.

    Keyed on the *region* digest, not the whole-circuit content hash:
    an edit invalidates exactly the keys of the cones it touches, which
    is what makes re-verification after an edit incremental.  The
    ``"r"`` marker keeps region keys disjoint from the historical
    circuit-granularity shard keys in shared stores.
    """
    return (
        circuit_name, region_hash, backend_name, width, "r",
        output_index, g_lo, g_hi,
    )


def _execute_region_shard(task: Tuple[int, int, int, int]) -> Dict[str, int]:
    """Compute one region shard from per-worker state (no store consult).

    Module-level (not a closure) so tests can monkeypatch it to count
    actual executions -- the seam that pins "a warm store re-executes
    nothing" and "an edit re-executes only the affected cones".
    """
    width, output_index, g_lo, g_hi = task
    state = _VERIFY_STATE
    program = state.region_programs.get(output_index)
    if program is None:
        program = state.region_programs[output_index] = compile_circuit(
            state.circuit.extract_cone(output_index),
            get_backend(state.backend),
        )
    return verify_two_sort_region_shard(
        program, width, output_index, g_lo, g_hi
    )


def _verify_region_worker(task: Tuple[int, int, int, int]) -> Dict[str, int]:
    """Worker for region tasks: consult the shared store, then compute.

    When the sweep's store is shareable its spec rides the pool
    initargs, and each worker holds its own handle: a get-hit skips the
    execution entirely, and :func:`repro.store.base.wait_for` claims
    the key first so two processes sweeping the same circuit against
    one store never double-execute a region shard.
    """
    state = _VERIFY_STATE
    store = getattr(state, "store", None)
    if store is None:
        return _execute_region_shard(task)
    width, output_index, g_lo, g_hi = task
    key = _region_key(
        state.circuit.name,
        state.circuit.region_hashes()[output_index],
        state.backend_name, width, output_index, g_lo, g_hi,
    )
    return wait_for(store, key, lambda: _execute_region_shard(task))


def _default_pair_shard_size(
    width: int, jobs: int, backend: BackendLike = None
) -> int:
    """Lane budget per shard, balanced for the width and plane backend.

    Three forces, in order:

    * **load balance** -- ~4 shards per worker, but never above the
      backend's preferred per-shard lane count (big-int planes want the
      slot file cache-resident; the native kernel tiles internally and
      wants few, wide shards);
    * **plane-construction/run split at B = 10..13** -- a g-row of the
      pair product is ``S = 2^(B+1)-1`` lanes, and building its planes
      costs O(width * S) big-int block work *per row* while the program
      run costs O(ops * lanes).  Once ``S`` is a sizable fraction of
      the lane budget (B >= 10), fractional-row remainders would leave
      shards whose construction/run ratio differs wildly, so the budget
      is spent on a whole number of g-rows per shard;
    * **word alignment** -- the result is rounded up to the backend's
      preferred lane-word size so no shard ends mid-word.

    Deterministic (pinned by ``tests/test_backends.py``) and capped at
    the hard :data:`~repro.verify.exhaustive._MAX_SHARD_LANES` bound.
    """
    be = get_backend(backend)
    S = (1 << (width + 1)) - 1
    budget = be.preferred_shard_lanes
    per_worker = -(-S * S // max(1, 4 * jobs))  # ceil
    size = min(budget, max(S, per_worker))
    if width >= 10:
        size = max(1, budget // S) * S  # whole g-rows per shard
    word = max(1, be.word_bits)
    return min(_MAX_SHARD_LANES, -(-size // word) * word)


#: Per-shard progress hook: ``on_shard(done, total, result)`` where
#: ``done`` is the number of shards finished so far (cached hits
#: included) and ``result`` is that shard's VerificationResult.
OnShard = Callable[[int, int, VerificationResult], None]


def verify_two_sort_sharded(
    circuit: Circuit,
    width: int,
    jobs: Optional[int] = None,
    shard_size: Optional[int] = None,
    executor: Optional[str] = None,
    backend: BackendLike = None,
    on_shard: Optional[OnShard] = None,
    should_stop: Optional[ShouldStop] = None,
    cache: Optional[Any] = None,
    store: Optional[Any] = None,
    regions: Optional[bool] = None,
) -> VerificationResult:
    """Exhaustively verify a 2-sort circuit with sharded execution.

    Splits the ``|S^B_rg|^2`` pair domain into lane-block shards
    (:func:`~repro.verify.exhaustive.pair_shards`), dispatches them on
    the chosen executor, and merges the per-shard results in shard
    order.  For any ``jobs``/``shard_size``/``executor``/``backend``
    the returned :class:`VerificationResult` counts are identical to the
    single-process :func:`~repro.verify.exhaustive.verify_two_sort_circuit`.
    ``jobs=None`` or ``0`` means one worker per core; ``backend`` names
    a plane backend (:mod:`repro.backends`) and is forwarded to every
    worker through the pool initializer (by name, so it pickles).

    This is the one code path behind the CLI, the async service layer
    (:mod:`repro.service`), and the sharded tests:

    * ``on_shard(done, total, result)`` fires per finished shard, in
      shard order, from the calling process -- the progress stream;
    * ``should_stop()`` is polled between shards; a true return raises
      :class:`SweepCancelled` (cooperative cancellation -- in-flight
      shards on a process pool are abandoned);
    * ``cache`` is an optional mapping-like object with
      ``get(key)``/``put(key, value)`` (see
      :class:`repro.service.cache.ShardCache`).  Shards are keyed on
      ``(circuit.name, circuit.content_hash(), backend.name, width,
      g_lo, g_hi)`` -- the content hash identifies the netlist
      *structure*, so a rebuilt-but-identical circuit hits while any
      structural edit (which also bumps ``version``) misses, and two
      different circuits can never collide the way an in-process
      mutation counter could.  Hits skip the worker entirely but still
      count toward progress, and fresh results are inserted as they
      complete (so even a cancelled run warms the cache);
    * ``store`` is a :class:`repro.store.base.ResultStore`: same role
      as ``cache`` (either name works; ``store`` wins when both are
      given) but it flips the sweep into **region granularity** --
      every primary-output cone is verified independently per g-row
      range, keyed on the cone's *region* digest
      (:meth:`Circuit.region_hashes`) instead of the whole-circuit
      hash.  A one-gate edit then re-executes only the shards of the
      cones it touched; untouched cones hit the store.  ``regions``
      overrides the granularity explicitly (``store`` alone implies
      ``True``).  Shareable stores (sqlite) additionally ship their
      spec to workers, which consult the store *before executing* --
      the no-double-execute mechanism across processes and hosts.
      Clean ranges merge into the report as synthetic all-clear counts;
      a range whose cone mismatches is re-verified at circuit
      granularity through the canonical
      :func:`~repro.verify.exhaustive.verify_two_sort_shard`, so the
      merged report is byte-identical to an uncached sweep.  Every
      completed (non-plain) sweep appends a
      :class:`~repro.store.base.RunRecord` audit row to the store.
    """
    check_two_sort_shape(circuit, width)
    jobs = default_jobs() if not jobs else max(1, jobs)
    if isinstance(backend, PlaneBackend):
        backend = backend.name
    if backend == AUTO_BACKEND:
        # Resolve the alias once, up front, so shard sizing, cache and
        # epoch keys, and the name forwarded to every worker all agree
        # on one concrete backend (workers on compiler-less hosts still
        # degrade via the native proxy's bigint fallback).
        backend = resolve_backend_name(backend)
    if shard_size is None:
        shard_size = _default_pair_shard_size(width, jobs, backend)
    shards = pair_shards(width, shard_size)
    total = len(shards)
    # The sweep's shared-setup descriptor: remote workers compile once
    # per epoch and verify the circuit they deserialized against the
    # content hash before any result merges.  `backend` stays the
    # caller's *name* (None = worker default), matching the initargs.
    epoch = SweepEpoch(
        kind="verify-two-sort",
        circuit_name=circuit.name,
        circuit_hash=circuit.content_hash(),
        width=width,
        backend=backend,
    )
    plain = (
        on_shard is None and should_stop is None
        and cache is None and store is None and not regions
    )
    if plain:
        # The zero-overhead path: bit-for-bit the pre-service behaviour.
        tasks = [(width, g_lo, g_hi) for g_lo, g_hi in shards]
        results = run_sharded(
            _verify_shard_worker,
            tasks,
            jobs=jobs,
            executor=executor,
            initializer=_init_verify_worker,
            initargs=(circuit, backend),
            epoch=epoch,
        )
        return VerificationResult.merge(results)

    backend_name = get_backend(backend).name
    circuit_hash = epoch.circuit_hash
    # `store` and `cache` are one seam with two granularities: `store`
    # wins when both are given, and by default switches the sweep to
    # per-region keys.
    handle = store if store is not None else cache
    region_mode = regions if regions is not None else store is not None
    # Stores that journal sweeps (the journal backend) take the epoch
    # descriptor up front, so the journal is self-describing even if
    # the run dies before any shard completes.
    if handle is not None and hasattr(handle, "record_epoch"):
        handle.record_epoch(epoch, shards=total, shard_size=shard_size)

    if region_mode:
        merged = _run_region_sweep(
            circuit, width, shards, jobs, executor, backend, backend_name,
            circuit_hash, handle, on_shard, should_stop, epoch,
        )
    else:
        merged = _run_circuit_sweep(
            circuit, width, shards, jobs, executor, backend, backend_name,
            circuit_hash, handle, on_shard, should_stop, epoch,
        )

    if handle is not None and hasattr(handle, "record_run"):
        handle.record_run(RunRecord(
            circuit=circuit.name,
            circuit_hash=circuit_hash,
            backend=backend_name,
            executor=executor or ("process" if jobs > 1 else "serial"),
            width=width,
            shards=total,
            checked=merged.checked,
            failure_count=merged.failure_count,
            ok=merged.failure_count == 0,
            result_digest=result_digest(merged),
            mode="regions" if region_mode else "shards",
            host=socket.gethostname(),
            pid=os.getpid(),
            timestamp=time.time(),
        ))
    return merged


def _run_circuit_sweep(
    circuit: Circuit,
    width: int,
    shards: List[Tuple[int, int]],
    jobs: int,
    executor: Optional[str],
    backend: BackendLike,
    backend_name: str,
    circuit_hash: str,
    cache: Optional[Any],
    on_shard: Optional[OnShard],
    should_stop: Optional[ShouldStop],
    epoch: SweepEpoch,
) -> VerificationResult:
    """Circuit-granularity sweep: one key per whole-circuit shard."""
    total = len(shards)

    def shard_key(index: int) -> Tuple:
        g_lo, g_hi = shards[index]
        return (
            circuit.name, circuit_hash, backend_name, width, g_lo, g_hi
        )

    results: List[Optional[VerificationResult]] = [None] * total
    pending: List[int] = []
    for i in range(total):
        hit = cache.get(shard_key(i)) if cache is not None else None
        if hit is not None:
            results[i] = hit
        else:
            pending.append(i)

    done = 0
    # Cached shards report first (ascending shard order), then fresh
    # ones as the executor completes them -- `done` stays strictly
    # increasing either way.
    for i in range(total):
        if results[i] is None:
            continue
        if should_stop is not None and should_stop():
            raise SweepCancelled([r for r in results[:i] if r is not None])
        done += 1
        if on_shard is not None:
            on_shard(done, total, results[i])

    def _record(k: int, result: VerificationResult) -> None:
        nonlocal done
        i = pending[k]
        results[i] = result
        if cache is not None:
            cache.put(shard_key(i), result)
        done += 1
        if on_shard is not None:
            on_shard(done, total, result)

    if pending:
        tasks = [(width,) + shards[i] for i in pending]
        run_sharded(
            _verify_shard_worker,
            tasks,
            jobs=jobs,
            executor=executor,
            initializer=_init_verify_worker,
            initargs=(circuit, backend),
            on_result=_record,
            should_stop=should_stop,
            epoch=epoch,
        )
    return VerificationResult.merge(results)


def _run_region_sweep(
    circuit: Circuit,
    width: int,
    shards: List[Tuple[int, int]],
    jobs: int,
    executor: Optional[str],
    backend: BackendLike,
    backend_name: str,
    circuit_hash: str,
    store: Optional[Any],
    on_shard: Optional[OnShard],
    should_stop: Optional[ShouldStop],
    epoch: SweepEpoch,
) -> VerificationResult:
    """Region-granularity sweep: one key per output cone per g-range.

    Every primary-output cone is verified independently over every
    g-row range; the store is consulted per ``(cone, range)`` so an
    edit only misses on the cones whose region digest changed.  Clean
    ranges (every cone matches everywhere) merge as synthetic all-clear
    counts; a range with any cone mismatch is re-verified through the
    canonical full-circuit shard (cached at circuit granularity), so
    failure messages -- and therefore the merged report -- stay
    byte-identical to an uncached sweep.
    """
    total = len(shards)
    region_hashes = circuit.region_hashes()
    n_out = len(region_hashes)
    S = (1 << (width + 1)) - 1

    region_results: List[List[Optional[Dict[str, int]]]] = [
        [None] * n_out for _ in range(total)
    ]
    pending: List[Tuple[int, int]] = []
    for i in range(total):
        g_lo, g_hi = shards[i]
        for o in range(n_out):
            key = _region_key(
                circuit.name, region_hashes[o], backend_name, width,
                o, g_lo, g_hi,
            )
            hit = store.get(key) if store is not None else None
            if hit is not None:
                region_results[i][o] = hit
            else:
                pending.append((i, o))

    full_program = None

    def _resolve(i: int) -> VerificationResult:
        """Collapse one range's per-cone outcomes into a shard result."""
        nonlocal full_program
        g_lo, g_hi = shards[i]
        if all(v["mismatches"] == 0 for v in region_results[i]):
            return VerificationResult(checked=(g_hi - g_lo) * S)
        # A cone mismatched somewhere in this range: produce the
        # canonical per-pair failure messages via the full-circuit
        # shard (stored under the historical circuit-granularity key).
        ckey = (circuit.name, circuit_hash, backend_name, width, g_lo, g_hi)
        hit = store.get(ckey) if store is not None else None
        if hit is not None:
            return hit
        if full_program is None:
            full_program = compile_circuit(
                circuit, get_backend(backend)
            )
        result = verify_two_sort_shard(full_program, width, g_lo, g_hi)
        if store is not None:
            store.put(ckey, result)
        return result

    results: List[Optional[VerificationResult]] = [None] * total
    done = 0
    for i in range(total):
        if any(v is None for v in region_results[i]):
            continue
        if should_stop is not None and should_stop():
            raise SweepCancelled([r for r in results[:i] if r is not None])
        results[i] = _resolve(i)
        done += 1
        if on_shard is not None:
            on_shard(done, total, results[i])

    if pending:
        remaining: Dict[int, int] = {}
        for i, _o in pending:
            remaining[i] = remaining.get(i, 0) + 1
        share = (
            store.share_spec()
            if store is not None and hasattr(store, "share_spec")
            else None
        )
        tasks = [(width, o) + shards[i] for i, o in pending]

        def _record(k: int, value: Dict[str, int]) -> None:
            nonlocal done
            i, o = pending[k]
            region_results[i][o] = value
            if store is not None:
                g_lo, g_hi = shards[i]
                # Idempotent for workers that already wrote through a
                # shared handle (first write wins everywhere); local
                # (non-shareable) stores learn the value here.
                store.put(
                    _region_key(
                        circuit.name, region_hashes[o], backend_name,
                        width, o, g_lo, g_hi,
                    ),
                    value,
                )
            remaining[i] -= 1
            if remaining[i] == 0:
                # Tasks are range-major and executors are ordered, so
                # ranges complete ascending -- `done` stays monotonic.
                results[i] = _resolve(i)
                done += 1
                if on_shard is not None:
                    on_shard(done, total, results[i])

        run_sharded(
            _verify_region_worker,
            tasks,
            jobs=jobs,
            executor=executor,
            initializer=_init_verify_worker,
            initargs=(circuit, backend, share),
            on_result=_record,
            should_stop=should_stop,
            epoch=epoch,
        )
    return VerificationResult.merge(results)
