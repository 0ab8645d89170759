"""In-memory span tracer that wraps the program's public entry points.

The benchmark measures every layer from outside: during a traced run it
replaces a public function (in every ``repro`` module that bound it by
name) or a public method (on its class) with a wrapper that records a
span, and :meth:`Tracer.uninstall` puts the originals back.  Nothing is
wrapped in an untraced run.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (``-1`` for a top-level span) and ``op`` the id of the
benchmark operation it belongs to.  Spans stay in memory until the run
ends; :func:`layer_totals` turns them into per-name total time, self
time (the span minus its direct children) and call counts.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.op = 0
        #: Wrappers record only while this is true (the timed part of an
        #: op); outside it they call straight through.
        self.active = True
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn: Callable):
        """A wrapper around ``fn`` that records one span per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return traced

    # -- installing wrappers ----------------------------------------
    def wrap_function(self, module_name: str, attr: str, name: str) -> None:
        """Wrap ``module.attr`` wherever a loaded ``repro`` module bound it."""
        original = getattr(sys.modules[module_name], attr)
        traced = self.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append(
                        functools.partial(setattr, mod, key, original)
                    )

    def wrap_method(self, cls: type, attr: str, name: str) -> None:
        """Wrap a method (plain or classmethod) defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            traced: Any = classmethod(self.wrap(name, raw.__func__))
        else:
            traced = self.wrap(name, raw)
        setattr(cls, attr, traced)
        self._undo.append(functools.partial(setattr, cls, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def export(self) -> List[Span]:
        return [tuple(s) for s in self.spans]  # type: ignore[misc]


def span(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or nothing when the op runs untraced."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


@contextlib.contextmanager
def recording(tracer: Optional[Tracer]):
    """Let the wrappers record for the duration of the ``with`` block."""
    if tracer is None:
        yield
        return
    tracer.active = True
    try:
        yield
    finally:
        tracer.active = False


def layer_totals(spans: List[Span]) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Per-name ``{"total", "self", "count"}`` and the top-level span sum.

    Self time is a span's duration minus the durations of its direct
    children; spans on one thread nest, so the children never overlap
    and the self times of all spans add up to the top-level sum.
    """
    child_time = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent, _op in spans:
        if parent < 0:
            top += end - start
        else:
            child_time[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        row = out.setdefault(name, {"total": 0.0, "self": 0.0, "count": 0})
        row["total"] += end - start
        row["self"] += end - start - child_time[i]
        row["count"] += 1
    return out, top


def install_program_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the benchmark reports.

    The ``repro`` modules must already be imported.  Layers that a
    workload never enters simply record no spans.
    """
    from repro.circuits.compiled import CompiledCircuit, TritVec
    from repro.circuits.netlist import Circuit
    from repro.store.sqlite_store import SqliteStore

    functions = [
        ("repro.graycode", "all_valid_strings", "graycode.all_valid_strings"),
        ("repro.backends", "resolve_backend_name", "backends.resolve"),
        ("repro.backends._kernel", "load_kernel", "backends.load_kernel"),
        ("repro.core", "build_two_sort", "core.build_two_sort"),
        ("repro.circuits", "compile_circuit", "circuits.compile"),
        ("repro.verify.exhaustive", "verify_two_sort_shard", "verify.shard"),
        (
            "repro.verify.exhaustive", "verify_two_sort_region_shard",
            "verify.region_shard",
        ),
        ("repro.verify.parallel", "verify_two_sort_sharded", "parallel.sweep"),
    ]
    for module_name, attr, name in functions:
        tracer.wrap_function(module_name, attr, name)
    tracer.wrap_method(
        CompiledCircuit, "run_select_diff", "circuits.run_select_diff"
    )
    tracer.wrap_method(CompiledCircuit, "run_tritvecs", "networks.run_tritvecs")
    tracer.wrap_method(TritVec, "from_trits", "networks.from_trits")
    tracer.wrap_method(TritVec, "to_trits", "networks.to_trits")
    tracer.wrap_method(Circuit, "region_hashes", "store.region_hashes")
    tracer.wrap_method(SqliteStore, "get", "store.get")
    tracer.wrap_method(SqliteStore, "put", "store.put")
    tracer.wrap_method(SqliteStore, "claim", "store.claim")
