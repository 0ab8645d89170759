"""Job-oriented async front-end over the sharded verification engine.

The public API redesign: instead of blocking on
:func:`~repro.verify.parallel.verify_two_sort_sharded` or
:func:`~repro.networks.simulate.sort_words_batch`, clients *submit*
typed requests to a :class:`JobManager` and get back a :class:`Job`
they can poll, stream, and cancel while other jobs run concurrently.

Layering:

* :class:`~repro.requests.VerifyRequest` /
  :class:`~repro.requests.SortRequest` (re-exported here) are the
  typed request dataclasses; their ``run()`` is the one synchronous
  code path shared with the CLI.
* :class:`JobManager` drives ``run()`` shard-by-shard through asyncio:
  the blocking sweep is offloaded to a thread pool, per-shard progress
  re-enters the event loop via ``call_soon_threadsafe``, and
  cancellation is a ``threading.Event`` the sweep polls between shards
  (:class:`~repro.verify.parallel.SweepCancelled`).
* Progress, failures, and state changes are published as event dicts,
  buffered per job (late subscribers replay from the start) and fanned
  out to any number of ``async for`` consumers.

The manager owns a :class:`~repro.store.base.ResultStore` -- an
in-process :class:`~repro.store.memory.MemoryStore`, fronted by a
durable store when one is given -- so re-verifying an unedited circuit
skips clean shards; the hit/miss counters are part of
:meth:`JobManager.stats`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Any, AsyncIterator, Dict, List, Optional

from ..requests import (
    MAX_VERIFY_WIDTH,
    Request,
    SortRequest,
    VerifyRequest,
    request_from_dict,
)
from ..store import MemoryStore, StackedStore
from ..verify.exhaustive import VerificationResult
from ..verify.parallel import SweepCancelled

__all__ = [
    "Job",
    "JobManager",
    "JobState",
    "MAX_VERIFY_WIDTH",
    "SortRequest",
    "VerifyRequest",
    "request_from_dict",
]


# ----------------------------------------------------------------------
# Job lifecycle
# ----------------------------------------------------------------------
class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)

#: Event-history bounds: a running B=13 sweep publishes ~2.6k progress
#: events, so the running cap never bites normal jobs; after a job
#: finishes only a short tail (always including ``done``) is kept, so
#: retained terminal jobs cost O(1) memory each.
EVENTS_KEEP_RUNNING = 8192
EVENTS_KEEP_TERMINAL = 32


@dataclass
class JobProgress:
    """Cumulative per-shard counters, updated as shards finish."""

    shards_done: int = 0
    shards_total: int = 0
    checked: int = 0
    failure_count: int = 0
    items_done: int = 0  # sort jobs: vectors sorted so far

    def to_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class Job:
    """One submitted request and everything observable about it.

    Created by :meth:`JobManager.submit`; not constructed directly.
    All mutation happens on the manager's event loop, so readers on
    that loop see a consistent snapshot.
    """

    def __init__(self, job_id: str, request: Request):
        self.id = job_id
        self.request = request
        self.state = JobState.QUEUED
        self.progress = JobProgress()
        self.result: Any = None
        self.error: Optional[str] = None
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        #: Ordered event history; late stream subscribers replay it.
        #: Bounded: the oldest events are compacted away past
        #: ``EVENTS_KEEP_RUNNING`` (and down to ``EVENTS_KEEP_TERMINAL``
        #: once the job finishes); ``events_dropped`` counts them so
        #: streamers can skip forward instead of misindexing.
        self.events: List[Dict[str, Any]] = []
        self.events_dropped = 0
        self._cancel = threading.Event()
        self._done = asyncio.Event()
        self._changed = asyncio.Event()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def status(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.request.kind,
            "request": self.request.to_dict(),
            "state": self.state.value,
            "progress": self.progress.to_dict(),
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
        }

    def result_payload(self) -> Optional[Dict[str, Any]]:
        if self.result is None:
            return None
        return self.request.result_to_dict(self.result)


class JobManager:
    """Submits, schedules, observes, and cancels jobs on one event loop.

    ``jobs`` bounds how many submitted jobs *run* concurrently (the
    rest wait in queue order); each running job occupies one thread of
    an internal pool and may itself fan out over process workers via
    its request's ``jobs``/``executor`` fields.  Constructed and used
    from within a running event loop.
    """

    def __init__(
        self,
        jobs: int = 2,
        cache_size: int = 8192,
        default_backend: Optional[str] = None,
        keep_finished: int = 256,
        store: Optional[Any] = None,
    ):
        self.max_jobs = max(1, jobs)
        self.default_backend = default_backend
        #: Terminal jobs retained for status/result queries; beyond
        #: this the oldest are evicted so a long-lived server doesn't
        #: accumulate every result and event history forever.
        self.keep_finished = max(1, keep_finished)
        #: The server-wide result store every job consults.  By default
        #: an in-process LRU; with ``store`` (an open
        #: :class:`~repro.store.base.ResultStore`, e.g. ``serve
        #: --store``) a durable backend fronted by that LRU, so results
        #: survive restarts and are shared with CLI runs against the
        #: same path.
        memory = MemoryStore(maxsize=cache_size)
        self.store: Any = (
            memory if store is None else StackedStore(store, memory)
        )
        self._jobs: Dict[str, Job] = {}
        self._sem = asyncio.Semaphore(self.max_jobs)
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_jobs, thread_name_prefix="repro-job"
        )
        self._tasks: set = set()
        self._seq = itertools.count(1)

    # -- accounting ----------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return self.store.hits

    @property
    def cache_misses(self) -> int:
        return self.store.misses

    def stats(self) -> Dict[str, Any]:
        by_state: Dict[str, int] = {}
        for job in self._jobs.values():
            by_state[job.state.value] = by_state.get(job.state.value, 0) + 1
        return {
            "jobs": by_state,
            "max_jobs": self.max_jobs,
            "cache": self.store.stats(),
            # The uniform observability block (same shape as the CLI's
            # `verify --json` store section), including audit counters.
            "store": dict(
                self.store.counters(),
                runs=len(self.store.runs() or []),
            ),
        }

    # -- submission / lookup -------------------------------------------
    def submit(self, request: Request) -> Job:
        """Validate, enqueue, and start driving a request; returns its Job."""
        if (
            self.default_backend is not None
            and request.backend is None
            # Only requests that *use* a plane backend: forcing one onto
            # e.g. an fsm-engine sort would turn it invalid.
            and (request.kind == "verify" or getattr(request, "engine", None)
                 == "compiled")
        ):
            request = dataclasses.replace(request, backend=self.default_backend)
        request.validate()  # fail fast, before a job exists
        job_id = f"j{next(self._seq):04d}-{uuid.uuid4().hex[:6]}"
        job = Job(job_id, request)
        self._jobs[job.id] = job
        self._publish(job, {"event": "state", "state": JobState.QUEUED.value})
        task = asyncio.get_running_loop().create_task(self._drive(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job {job_id!r}") from None

    def list_jobs(self) -> List[Dict[str, Any]]:
        return [job.status() for job in self._jobs.values()]

    async def wait(self, job_id: str) -> Job:
        job = self.get(job_id)
        await job._done.wait()
        return job

    def cancel(self, job_id: str) -> bool:
        """Request cooperative cancellation; True if the job could still stop.

        A queued job is finalised immediately; a running one stops at
        the next shard boundary.  Terminal jobs return False.
        """
        job = self.get(job_id)
        if job.terminal:
            return False
        job._cancel.set()
        if job.state is JobState.QUEUED:
            self._finish(job, JobState.CANCELLED)
        return True

    # -- event stream --------------------------------------------------
    async def stream(self, job_id: str) -> AsyncIterator[Dict[str, Any]]:
        """Replay a job's event history, then follow it live to the end.

        Yields event dicts in publish order and returns after the
        terminal ``done`` event -- the ``async for`` failure/progress
        stream.  Any number of consumers may stream one job.  Event
        history is bounded (:data:`EVENTS_KEEP_RUNNING` /
        :data:`EVENTS_KEEP_TERMINAL`), so a consumer that subscribes
        very late or falls far behind skips the compacted-away prefix;
        the terminal event is always delivered.
        """
        job = self.get(job_id)
        pos = 0  # absolute event index (compaction-aware)
        while True:
            base = job.events_dropped
            if pos < base:
                pos = base  # prefix compacted away; skip forward
            if pos - base < len(job.events):
                event = job.events[pos - base]
                pos += 1
                yield event
                if event.get("event") == "done":
                    return
                continue
            # No await between the length check and clear(): publishes
            # only happen on this loop, so no event can slip past.
            job._changed.clear()
            await job._changed.wait()

    # -- internals -----------------------------------------------------
    def _publish(self, job: Job, event: Dict[str, Any]) -> None:
        event = dict(event)
        event["id"] = job.id
        event["ts"] = time.time()
        job.events.append(event)
        if len(job.events) > EVENTS_KEEP_RUNNING:
            self._compact_events(job, EVENTS_KEEP_RUNNING)
        job._changed.set()

    @staticmethod
    def _compact_events(job: Job, keep: int) -> None:
        excess = len(job.events) - keep
        if excess > 0:
            del job.events[:excess]
            job.events_dropped += excess

    def _finish(self, job: Job, state: JobState) -> None:
        job.state = state
        job.finished = time.time()
        event: Dict[str, Any] = {
            "event": "done",
            "state": state.value,
            "progress": job.progress.to_dict(),
        }
        if job.error is not None:
            event["error"] = job.error
        self._publish(job, event)
        job._done.set()
        # Terminal jobs keep only a short event tail (ending in `done`),
        # so the retained-job window is O(1) memory per job.
        self._compact_events(job, EVENTS_KEEP_TERMINAL)
        self._evict_finished()

    def _evict_finished(self) -> None:
        """Drop the oldest terminal jobs past the retention bound."""
        terminal = [j for j in self._jobs.values() if j.terminal]
        for job in terminal[: max(0, len(terminal) - self.keep_finished)]:
            del self._jobs[job.id]

    def _on_shard(self, job: Job, done: int, total: int, payload: Any) -> None:
        """Runs on the event loop (scheduled from the job's thread)."""
        progress = job.progress
        progress.shards_done = done
        progress.shards_total = total
        if isinstance(payload, VerificationResult):
            progress.checked += payload.checked
            progress.failure_count += payload.failure_count
            for message in payload.failures:
                self._publish(job, {"event": "failure", "message": message})
        else:
            progress.items_done += len(payload)
        self._publish(job, {"event": "progress", **progress.to_dict()})

    async def _drive(self, job: Job) -> None:
        async with self._sem:
            if job.terminal or job._cancel.is_set():
                if not job.terminal:
                    self._finish(job, JobState.CANCELLED)
                return
            loop = asyncio.get_running_loop()
            job.state = JobState.RUNNING
            job.started = time.time()
            self._publish(
                job, {"event": "state", "state": JobState.RUNNING.value}
            )

            def on_shard(done: int, total: int, payload: Any) -> None:
                loop.call_soon_threadsafe(
                    self._on_shard, job, done, total, payload
                )

            body = partial(
                job.request.run,
                on_shard=on_shard,
                should_stop=job._cancel.is_set,
                cache=self.store,
            )
            try:
                result = await loop.run_in_executor(self._pool, body)
            except SweepCancelled:
                self._finish(job, JobState.CANCELLED)
            except Exception as exc:  # surfaced to the client, not the loop
                job.error = f"{type(exc).__name__}: {exc}"
                self._finish(job, JobState.FAILED)
            else:
                job.result = result
                if isinstance(result, VerificationResult) and job.started:
                    result.elapsed = time.time() - job.started
                self._finish(job, JobState.DONE)

    async def aclose(self) -> None:
        """Cancel whatever is still running and release the thread pool."""
        for job in self._jobs.values():
            if not job.terminal:
                job._cancel.set()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        self._pool.shutdown(wait=True)
