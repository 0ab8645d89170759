"""The ``stacked`` combinator: layered stores with backfill.

A general combinator over any number of
:class:`~repro.store.base.ResultStore` layers.  The canonical uses:

* service layer: ``StackedStore(sqlite_or_journal, memory_lru)`` --
  durable ground truth in front, memory speed on repeat sweeps;
* a request-scoped store in front of the server-wide one.

Lookups try layers in order; a hit at any layer is backfilled into
every *other* layer, so all layers converge on everything any of them
knows.  Batched lookups do the same a layer at a time: each
layer sees one ``get_many`` of the keys still missing.  Writes (single
or batched), epoch records, and audit records go to every layer;
claims go to the one shareable layer.
Duck-typed layers with only ``get``/``put`` (the test spies) still
work: optional protocol methods are forwarded only where present.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..verify.exhaustive import SweepEpoch
from .base import ResultStore, RunRecord

__all__ = ["StackedStore"]


class StackedStore(ResultStore):
    """Check layers in order, backfill on hit, write through to all.

    The stack does not own its layers: :meth:`close` is a no-op so a
    caller may stack a request-scoped store over a long-lived
    server-wide one without the request tearing the server store down.
    """

    backend_name = "stacked"

    def __init__(self, *layers: Any):
        layers = tuple(layer for layer in layers if layer is not None)
        if not layers:
            raise ValueError("StackedStore needs at least one layer")
        super().__init__(
            spec="stacked(%s)"
            % ",".join(getattr(l, "spec", None) or "?" for l in layers)
        )
        self.layers = layers

    @property
    def shareable(self) -> bool:  # type: ignore[override]
        return any(getattr(l, "shareable", False) for l in self.layers)

    def share_spec(self) -> Optional[str]:
        for layer in self.layers:
            spec = None
            if hasattr(layer, "share_spec"):
                spec = layer.share_spec()
            if spec is not None:
                return spec
        return None

    # -- keyed results -------------------------------------------------
    def get(self, key: Tuple) -> Optional[Any]:
        for i, layer in enumerate(self.layers):
            hit = layer.get(key)
            if hit is not None:
                self.hits += 1
                for j, other in enumerate(self.layers):
                    if j != i:
                        other.put(key, hit)
                return hit
        self.misses += 1
        return None

    def put(self, key: Tuple, value: Any) -> None:
        self.puts += 1
        for layer in self.layers:
            layer.put(key, value)

    def get_many(self, keys: Sequence[Tuple]) -> List[Optional[Any]]:
        # Like get, a layer at a time: each layer sees one batch of the
        # keys still missing, and the hits are backfilled in one batch
        # per other layer.
        keys = list(keys)
        out: List[Optional[Any]] = [None] * len(keys)
        found_at: List[Optional[int]] = [None] * len(keys)
        missing = list(range(len(keys)))
        for i, layer in enumerate(self.layers):
            if not missing:
                break
            wanted = [keys[k] for k in missing]
            if hasattr(layer, "get_many"):
                values = layer.get_many(wanted)
            else:
                values = [layer.get(key) for key in wanted]
            still = []
            for k, value in zip(missing, values):
                if value is None:
                    still.append(k)
                else:
                    out[k] = value
                    found_at[k] = i
            missing = still
        for j, other in enumerate(self.layers):
            _put_into(other, [
                (keys[k], out[k])
                for k, i in enumerate(found_at)
                if i is not None and i != j
            ])
        self.hits += len(keys) - len(missing)
        self.misses += len(missing)
        return out

    def put_many(self, items: Sequence[Tuple[Tuple, Any]]) -> None:
        items = list(items)
        self.puts += len(items)
        for layer in self.layers:
            _put_into(layer, items)

    def scan(self, prefix: Tuple = ()) -> Iterator[Tuple[Tuple, Any]]:
        seen = set()
        for layer in self.layers:
            if not hasattr(layer, "scan"):
                continue
            for key, value in layer.scan(prefix):
                if key not in seen:
                    seen.add(key)
                    yield key, value

    def claim(self, key: Tuple, ttl: Optional[float] = None) -> bool:
        # Arbitration belongs to the shared layer (there is at most one
        # that other processes can see); local-only stacks grant all.
        for layer in self.layers:
            if getattr(layer, "shareable", False):
                return layer.claim(key, ttl=ttl)
        return True

    def claim_many(
        self, keys: Sequence[Tuple], ttl: Optional[float] = None
    ) -> List[bool]:
        for layer in self.layers:
            if getattr(layer, "shareable", False):
                return layer.claim_many(keys, ttl=ttl)
        return [True] * len(keys)

    # -- epochs / audit ------------------------------------------------
    def record_epoch(
        self,
        epoch: SweepEpoch,
        shards: Optional[int] = None,
        shard_size: Optional[int] = None,
    ) -> None:
        for layer in self.layers:
            if hasattr(layer, "record_epoch"):
                layer.record_epoch(epoch, shards=shards, shard_size=shard_size)

    def epochs(self) -> List[SweepEpoch]:
        seen: Dict[str, SweepEpoch] = {}
        for layer in self.layers:
            if hasattr(layer, "epochs"):
                for epoch in layer.epochs():
                    seen.setdefault(epoch.fingerprint(), epoch)
        return list(seen.values())

    def record_run(self, run: RunRecord) -> None:
        for layer in self.layers:
            if hasattr(layer, "record_run"):
                layer.record_run(run)

    def runs(self, limit: Optional[int] = None) -> List[RunRecord]:
        # The front layer is ground truth for the audit trail (every
        # record_run reached all layers anyway).
        for layer in self.layers:
            if hasattr(layer, "runs"):
                return layer.runs(limit)
        return []

    # -- introspection -------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        out = self.counters()
        out["layers"] = [
            layer.stats() if hasattr(layer, "stats") else {}
            for layer in self.layers
        ]
        return out

    def close(self) -> None:
        pass  # layers are owned by their creators


def _put_into(layer: Any, items: List[Tuple[Tuple, Any]]) -> None:
    """Write ``items`` to one layer, batched where the layer batches."""
    if not items:
        return
    if hasattr(layer, "put_many"):
        layer.put_many(items)
    else:
        for key, value in items:
            layer.put(key, value)
