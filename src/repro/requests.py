"""Typed verification and sort requests: one code path for every caller.

:class:`VerifyRequest` / :class:`SortRequest` are the typed,
JSON-round-trippable request dataclasses.  Their ``run()`` method is
the one synchronous code path -- the CLI calls it directly, the
service's :class:`~repro.service.jobs.JobManager` calls it on a worker
thread -- so a served job and a one-shot CLI run are the same
computation by construction.

This module deliberately sits outside :mod:`repro.service`: it imports
neither asyncio nor the server, so ``python -m repro verify`` loads
only the sweep it runs.  :data:`DEFAULT_HOST`/:data:`DEFAULT_PORT`
(where the service listens unless told otherwise) live here for the
same reason: the CLI's connection options default to them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

from .backends import known_backend_names
from .core.two_sort import build_two_sort
from .graycode.valid import validate
from .networks.simulate import ENGINES, sort_words_batch
from .networks.topologies import best_known
from .ternary.word import Word
from .verify.exhaustive import VerificationResult
from .verify.parallel import available_executors, verify_two_sort_sharded

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .service.cache import ShardCache

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "MAX_VERIFY_WIDTH",
    "Request",
    "SortRequest",
    "VerifyRequest",
    "request_from_dict",
]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7421

#: Exhaustive verification stays tractable up to B=13 (268M pairs);
#: beyond that 4^B outgrows any single job.
MAX_VERIFY_WIDTH = 13

#: ``on_shard`` as seen by requests (done, total, shard payload).
OnShard = Callable[[int, int, Any], None]
ShouldStop = Callable[[], bool]


def _validate_sharding(
    jobs: Optional[int],
    shard_size: Optional[int],
    executor: Optional[str],
    backend: Optional[str],
) -> None:
    if jobs is not None and jobs < 0:
        raise ValueError(
            f"jobs must be >= 0 (0 = one worker per core), got {jobs}"
        )
    if shard_size is not None and shard_size <= 0:
        raise ValueError(
            f"shard_size must be a positive lane count, got {shard_size}"
        )
    if executor is not None and executor not in available_executors():
        raise ValueError(
            f"unknown executor {executor!r}; "
            f"available: {available_executors()}"
        )
    if backend is not None and backend not in known_backend_names():
        raise ValueError(
            f"unknown plane backend {backend!r}; "
            f"available: {known_backend_names()}"
        )


@dataclass(frozen=True)
class VerifyRequest:
    """Exhaustively verify 2-sort(``width``) against the closure spec.

    The service twin of ``python -m repro verify``: same parameters,
    same semantics (``jobs=0`` means one worker per core), same result.

    ``checkpoint`` names a durable shard journal
    (:class:`repro.distributed.checkpoint.SweepCheckpoint`) on the
    *executing* host: shards already journaled there are skipped, fresh
    ones are appended as they complete, so a killed job resubmitted
    with the same checkpoint resumes instead of restarting.

    ``store`` names a unified result store (a
    :func:`repro.store.open_store` spec, e.g. ``sqlite:results.db``) on
    the executing host.  Unlike a checkpoint it keys results per
    output-cone *region*, so re-verifying after a circuit edit only
    executes the shards of the cones the edit touched, and every
    completed sweep appends an audit record.  Mutually exclusive with
    ``checkpoint`` (the journal alias of the same machinery).
    """

    width: int
    jobs: int = 1
    shard_size: Optional[int] = None
    executor: Optional[str] = None
    backend: Optional[str] = None
    checkpoint: Optional[str] = None
    store: Optional[str] = None

    kind: ClassVar[str] = "verify"

    def validate(self) -> None:
        if not 1 <= self.width <= MAX_VERIFY_WIDTH:
            raise ValueError(
                f"width must be in 1..{MAX_VERIFY_WIDTH}, got {self.width} "
                f"(beyond B={MAX_VERIFY_WIDTH} the 4^B pair domain outgrows "
                f"exhaustive verification)"
            )
        if self.checkpoint is not None and (
            not isinstance(self.checkpoint, str) or not self.checkpoint
        ):
            raise ValueError(
                "checkpoint must be a non-empty journal path"
            )
        if self.store is not None and (
            not isinstance(self.store, str) or not self.store
        ):
            raise ValueError("store must be a non-empty store spec")
        if self.store is not None and self.checkpoint is not None:
            raise ValueError(
                "checkpoint and store are mutually exclusive "
                "(a checkpoint is the journal store; pass one or the other)"
            )
        _validate_sharding(self.jobs, self.shard_size, self.executor, self.backend)

    def describe(self) -> str:
        return f"verify 2-sort({self.width})"

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "width": self.width}
        if self.jobs != 1:
            out["jobs"] = self.jobs
        for name in ("shard_size", "executor", "backend", "checkpoint", "store"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def run(
        self,
        on_shard: Optional[OnShard] = None,
        should_stop: Optional[ShouldStop] = None,
        cache: Optional[ShardCache] = None,
        store: Optional[Any] = None,
    ) -> VerificationResult:
        """The single synchronous code path (CLI, service, and tests).

        ``store`` is an already-open :class:`repro.store.base.ResultStore`
        handle (the CLI opens ``--store`` itself so it can report the
        handle's counters afterwards); when it is None but the request
        carries a ``store`` spec, the store is opened -- and closed --
        here.  A caller-provided ``cache`` (the server-wide memory
        store) is layered behind the per-request store so jobs on one
        server still share warm results.
        """
        self.validate()
        circuit = build_two_sort(self.width)
        opened = None
        journal = None
        if store is None and self.store is not None:
            from .store import open_store

            store = opened = open_store(self.store)
        if self.checkpoint is not None:
            # Imported lazily: the checkpoint layer must not make every
            # service import pay for repro.distributed.
            from .distributed.checkpoint import StackedCache, SweepCheckpoint

            journal = SweepCheckpoint(self.checkpoint)
            cache = (
                StackedCache(journal, cache) if cache is not None else journal
            )
        if store is not None and cache is not None:
            from .store import StackedStore

            store = StackedStore(store, cache)
            cache = None
        try:
            return verify_two_sort_sharded(
                circuit,
                self.width,
                jobs=self.jobs or None,
                shard_size=self.shard_size,
                executor=self.executor,
                backend=self.backend,
                on_shard=on_shard,
                should_stop=should_stop,
                cache=cache,
                store=store,
            )
        finally:
            if journal is not None:
                journal.close()
            if opened is not None:
                opened.close()

    def result_to_dict(self, result: VerificationResult) -> Dict[str, Any]:
        return result.to_dict()


@dataclass(frozen=True)
class SortRequest:
    """Sort batches of valid Gray-code words through the paper's network.

    ``vectors`` carries words as plain strings (the JSON interchange
    form); each inner tuple is one measurement vector.  All vectors
    must have the same channel count and word width.
    """

    vectors: Tuple[Tuple[str, ...], ...]
    engine: str = "compiled"
    jobs: int = 1
    shard_size: Optional[int] = None
    executor: Optional[str] = None
    backend: Optional[str] = None

    kind: ClassVar[str] = "sort"

    @classmethod
    def single(cls, values: List[str], **kwargs: Any) -> "SortRequest":
        """One measurement vector (the CLI ``sort`` form)."""
        return cls(vectors=(tuple(values),), **kwargs)

    def validate(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown simulation engine {self.engine!r}; "
                f"available: {sorted(ENGINES)}"
            )
        if self.backend is not None and self.engine != "compiled":
            raise ValueError(
                "backend selects a plane representation, which only the "
                f"compiled engine uses (got engine={self.engine!r})"
            )
        _validate_sharding(self.jobs, self.shard_size, self.executor, self.backend)
        if not self.vectors:
            raise ValueError("sort request needs at least one vector")
        channels = {len(v) for v in self.vectors}
        if len(channels) != 1:
            raise ValueError(
                f"all vectors must have the same channel count, got {sorted(channels)}"
            )
        widths = {len(s) for v in self.vectors for s in v}
        if len(widths) > 1:
            raise ValueError("all inputs must share one width")

    def describe(self) -> str:
        n = len(self.vectors)
        ch = len(self.vectors[0]) if self.vectors else 0
        return f"sort {n} vector(s) x {ch} channel(s)"

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "vectors": [list(v) for v in self.vectors],
            "engine": self.engine,
        }
        if self.jobs != 1:
            out["jobs"] = self.jobs
        for name in ("shard_size", "executor", "backend"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def run(
        self,
        on_shard: Optional[OnShard] = None,
        should_stop: Optional[ShouldStop] = None,
        cache: Optional[ShardCache] = None,
    ) -> List[List[Word]]:
        """Sort every vector; identical to the CLI ``sort`` semantics.

        ``cache`` is accepted for interface uniformity and ignored --
        sort workloads have no shard-stable key to cache on.
        """
        self.validate()
        words = [[validate(Word(s)) for s in vec] for vec in self.vectors]
        network = best_known(len(words[0]))
        return sort_words_batch(
            network,
            words,
            engine=self.engine,
            jobs=self.jobs,
            shard_size=self.shard_size,
            executor=self.executor,
            backend=self.backend,
            on_shard=on_shard,
            should_stop=should_stop,
        )

    def result_to_dict(self, result: List[List[Word]]) -> Dict[str, Any]:
        return {"vectors": [[str(w) for w in row] for row in result]}


Request = Union[VerifyRequest, SortRequest]

_REQUEST_KINDS: Dict[str, type] = {
    VerifyRequest.kind: VerifyRequest,
    SortRequest.kind: SortRequest,
}


def request_from_dict(data: Dict[str, Any]) -> Request:
    """Rebuild a typed request from its wire form (strict on fields)."""
    if not isinstance(data, dict):
        raise ValueError(f"request must be a JSON object, got {type(data).__name__}")
    data = dict(data)
    kind = data.pop("kind", None)
    try:
        cls = _REQUEST_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown request kind {kind!r}; available: {sorted(_REQUEST_KINDS)}"
        ) from None
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - fields
    if unknown:
        raise ValueError(
            f"unknown {kind} request field(s): {sorted(unknown)}"
        )
    if cls is SortRequest and "vectors" in data:
        vectors = data["vectors"]
        # A flat ["0110", ...] would iterate char-by-char into width-1
        # words and "succeed" with garbage -- demand the nested shape.
        if not isinstance(vectors, (list, tuple)) or any(
            not isinstance(v, (list, tuple)) for v in vectors
        ):
            raise ValueError(
                "vectors must be a list of lists of strings "
                "(one inner list per measurement vector)"
            )
        data["vectors"] = tuple(tuple(str(s) for s in v) for v in vectors)
    request = cls(**data)
    request.validate()
    return request
