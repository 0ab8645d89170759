"""Exhaustive verification of MC properties over the valid-string domain.

The paper validates by proof + spot simulation; these routines check
every claim *exhaustively* at small widths (|S^B_rg|² pairs -- e.g.
261k pairs at B = 8 for the containment lint, 3.8k at B = 5 for full
closure equality), giving the reproduction its ground truth.

Since the bit-parallel engine landed, both circuit-level sweeps run the
whole pair domain as a handful of two-plane batches
(:mod:`repro.circuits.compiled`):

* the valid strings are never enumerated on the happy path: ``S^B_rg``
  is closed-form (rank ``2x`` is ``rg(x)``, rank ``2x+1`` is ``rg(x)``
  with ``M`` on the bit where it differs from ``rg(x+1)``), so the
  per-bit masks over all strings come from rank arithmetic
  (:func:`_string_bit_masks`);
* a shard is a *rank range* of g rows against every h column, handed to
  the backend as masks plus ``(g_lo, g_hi)``
  (:meth:`~repro.circuits.compiled.CompiledCircuit.run_rank_range_diff`):
  the g-side planes smear each string's bit over its S-wide lane row,
  the h-side planes tile the mask once per row.  The bigint reference
  builds those planes with the structured-packing primitives; the
  native kernel generates them per tile inside its sweep, so no input
  plane ever exists in Python;
* the expected ``(max, min)`` planes come from the total order of
  Table 2 (strings are enumerated in ascending rank, so "max = g iff
  h-index <= g-index" is one block-triangular select mask).  On valid
  strings the order max/min *is* the closure ``max_rg_M``/``min_rg_M``
  (Lemma 2.9; checked exhaustively in ``tests/test_graycode_ops.py``),
  so comparing planes against it verifies Definition 2.8 exactly;
* only mismatching lanes -- none, for a correct circuit -- are decoded
  back to words for the failure report, and only as many as the report
  keeps.

Throughput on the full B = 8 domain improves by three orders of
magnitude over the scalar interpreter (``benchmarks/bench_engines.py``
tracks the exact ratio).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..backends import PlaneBackend, get_backend
from ..backends.base import pair_product_planes
from ..circuits.compiled import BackendLike, compile_circuit
from ..circuits.netlist import Circuit
from ..graycode.ops import two_sort_closure
from ..graycode.valid import all_valid_strings, is_valid
from ..ternary.word import Word

#: Default lanes per batch.  2^14 lanes keep each plane integer ~2 KB,
#: so the whole slot file of a 2-sort program stays cache-resident
#: during the op sweep -- measured 2-10x faster at B >= 8 than the old
#: 2^22 budget, whose 0.5 MB planes thrashed cache across ~200 slots.
_MAX_LANES = 1 << 14

#: Hard ceiling on lanes per shard, whatever the caller requests
#: (0.5 MB plane integers -- the pre-sharding memory bound).  Without it
#: a huge --shard-size would materialise every program slot as a
#: multi-GB integer at B = 13.
_MAX_SHARD_LANES = 1 << 22


@dataclass(frozen=True)
class SweepEpoch:
    """Self-describing setup phase of one sharded sweep.

    Every shard of a sweep shares one expensive preparation step --
    compile ``circuit`` for ``backend`` at ``width`` -- and a worker
    (local pool worker or remote :mod:`repro.distributed` agent) must
    perform it exactly once before executing any of that sweep's
    shards.  The epoch names that unit of setup: workers key their
    compile caches on it, and ``circuit_hash``
    (:meth:`~repro.circuits.netlist.Circuit.content_hash`) lets a
    remote worker verify the netlist it deserialized is the one the
    coordinator is sweeping before results ever merge.
    """

    kind: str
    circuit_name: str
    circuit_hash: str
    width: int
    backend: Optional[str] = None

    def key(self) -> Tuple[str, str, int, Optional[str]]:
        """Compile-cache key: two epochs with equal keys share setup."""
        return (self.kind, self.circuit_hash, self.width, self.backend)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "circuit_name": self.circuit_name,
            "circuit_hash": self.circuit_hash,
            "width": self.width,
            "backend": self.backend,
        }

    def fingerprint(self) -> str:
        """Stable short digest of the whole descriptor.

        Content-addressed identity for an epoch *as serialized* -- the
        checkpoint journal (:mod:`repro.distributed.checkpoint`) dedups
        its epoch records on it, and audits can match a journal to a
        sweep without comparing field by field.
        """
        blob = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepEpoch":
        return cls(
            kind=data["kind"],
            circuit_name=data["circuit_name"],
            circuit_hash=data["circuit_hash"],
            width=data["width"],
            backend=data.get("backend"),
        )


#: How many counterexample messages a report keeps (see
#: :class:`VerificationResult`); shards decode only this many lanes.
_FAILURE_LIMIT = 20


@dataclass
class VerificationResult:
    """Outcome of one exhaustive sweep (or one shard of it).

    ``failures`` holds at most the first ``limit`` (default
    :data:`_FAILURE_LIMIT`) counterexample messages; ``truncated`` is
    set whenever at least one message was dropped, so no consumer can mistake the capped list for the full
    report (``failure_count`` always has the true total).  ``elapsed``
    is optional wall-clock seconds, set by timing-aware callers (the
    CLI ``--json`` path); it is *not* merged across shards, since
    summing parallel wall times would be meaningless.
    """

    checked: int = 0
    failure_count: int = 0
    failures: List[str] = field(default_factory=list)
    truncated: bool = False
    elapsed: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.failure_count == 0

    def record(self, message: str, limit: int = _FAILURE_LIMIT) -> None:
        self.failure_count += 1
        if len(self.failures) < limit:
            self.failures.append(message)
        else:
            self.truncated = True

    def summary(self) -> str:
        if self.ok:
            return f"{self.checked} cases checked: OK"
        status = f"{self.failure_count} FAILURES"
        if self.truncated:
            status += f" (first {len(self.failures)} shown)"
        return f"{self.checked} cases checked: {status}"

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable form (the CLI ``--json`` / service payload)."""
        out: Dict[str, Any] = {
            "checked": self.checked,
            "ok": self.ok,
            "failure_count": self.failure_count,
            "failures": list(self.failures),
            "truncated": self.truncated,
        }
        if self.elapsed is not None:
            out["elapsed_s"] = round(self.elapsed, 6)
        return out

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def merge(
        cls,
        results: Iterable["VerificationResult"],
        limit: int = _FAILURE_LIMIT,
    ) -> "VerificationResult":
        """Combine per-shard results deterministically.

        Counts are summed; failure messages are concatenated in shard
        order and capped at ``limit``, so a sharded sweep reports exactly
        what the equivalent single sweep over the same shard order would.
        ``truncated`` is propagated from any input and also set when the
        cap drops messages here.
        """
        merged = cls()
        for r in results:
            merged.checked += r.checked
            merged.failure_count += r.failure_count
            merged.truncated = merged.truncated or r.truncated
            for message in r.failures:
                if len(merged.failures) < limit:
                    merged.failures.append(message)
                else:
                    merged.truncated = True
        return merged


def valid_pairs(width: int) -> Iterable[Tuple[Word, Word]]:
    """All ordered pairs of valid strings of the given width."""
    strings = all_valid_strings(width)
    return itertools.product(strings, strings)


# ----------------------------------------------------------------------
# Plane-space construction of the pair product
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _string_bit_masks(width: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Per-bit-position masks over the valid strings of ``width``.

    ``m0[b]`` (resp. ``m1[b]``) has bit ``i`` set iff bit ``b`` of
    ``all_valid_strings(width)[i]`` can resolve to 0 (resp. 1).

    Closed form, from rank arithmetic alone: rank ``2x`` is
    ``gray(x) = x ^ (x >> 1)``, and rank ``2x + 1`` is ``gray(x)`` with
    ``M`` on the set bit of ``gray(x) ^ gray(x + 1)``.  Gray bit ``p``
    (string position ``b = width - 1 - p``) is 1 for ``x`` in
    ``[2^p, 3 * 2^p)`` modulo ``2^(p+2)`` and flips exactly at the ends
    of that run, so with ``half = 2^(p+1)`` ranks, every period of
    ``4 * half`` ranks reads: can-be-1 on ``[half - 1, 3 * half)`` (the
    run plus its two M strings), can-be-0 everywhere but
    ``[half, 3 * half - 1)``.  Each mask is that period tiled by one
    multiply and cut to ``S = 2^(width+1) - 1`` ranks -- no ``Word`` or
    ``Trit`` is built (``tests/test_rank_range.py`` checks the result
    against the enumerated strings).
    """
    S = (1 << (width + 1)) - 1  # |S^B_rg|
    full = (1 << S) - 1
    m0 = []
    m1 = []
    for b in range(width):
        half = 1 << (width - b)  # 2^(p+1) for gray bit p = width - 1 - b
        period = 4 * half
        reps = -(-S // period)
        tile = ((1 << (period * reps)) - 1) // ((1 << period) - 1)
        can1 = ((1 << (2 * half + 1)) - 1) << (half - 1)
        can0 = ((1 << period) - 1) ^ (((1 << (2 * half - 1)) - 1) << half)
        m0.append(can0 * tile & full)
        m1.append(can1 * tile & full)
    return tuple(m0), tuple(m1)


def _shard_input_planes(be: PlaneBackend, width: int, g_lo: int, g_hi: int):
    """Backend-native input planes for one g-row shard.

    Covers ``gi`` in ``[g_lo, g_hi)`` against *all* ``hi``; lane index
    is ``(gi - g_lo) * S + hi`` (h fastest).  Returns the 2*width input
    planes (g bits then h bits) and the lane count, built from the
    closed-form masks by :func:`~repro.backends.base.pair_product_planes`
    -- the same planes :meth:`PlaneBackend.run_ops_rank_range` sweeps.

    Only the paths that need every slot plane use it: the failure
    decode of :func:`verify_two_sort_shard` and
    :func:`verify_containment`.
    """
    S = (1 << (width + 1)) - 1
    return pair_product_planes(be, _string_bit_masks(width), S, g_lo, g_hi)


@lru_cache(maxsize=None)
def _two_sort_select_pairs(width: int) -> Tuple[Tuple[int, int, int], ...]:
    """``(out, a, b)`` mux triples for every 2-sort output.

    Output ``b < width`` (bit ``b`` of the order max) expects g-input
    ``b`` where ``sel``, h-input ``width + b`` elsewhere; output
    ``width + b`` (order min) is the complementary selection.
    """
    return tuple((b, b, width + b) for b in range(width)) + tuple(
        (width + b, width + b, b) for b in range(width)
    )


def check_two_sort_shape(circuit: Circuit, width: int) -> None:
    if len(circuit.inputs) != 2 * width or len(circuit.outputs) != 2 * width:
        raise ValueError(
            f"{circuit.name}: a 2-sort({width}) circuit needs {2 * width} "
            f"inputs and outputs, got {len(circuit.inputs)}/"
            f"{len(circuit.outputs)}"
        )


def pair_shards(
    width: int, shard_size: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Split the pair domain into independent g-row blocks.

    Each shard ``(g_lo, g_hi)`` covers the pairs ``(strings[gi], *)``
    for ``gi`` in ``[g_lo, g_hi)`` -- ``(g_hi - g_lo) * S`` lanes of the
    plane-space pair product.  ``shard_size`` is the approximate lane
    budget per shard (default :data:`_MAX_LANES`, clamped to
    :data:`_MAX_SHARD_LANES` so a huge request cannot blow the memory
    bound); shards are disjoint, cover the domain exactly, and can be
    verified in any order -- the unit of work for
    :mod:`repro.verify.parallel`.
    """
    S = (1 << (width + 1)) - 1  # |S^B_rg|
    if shard_size is None:
        size = _MAX_LANES
    else:
        size = min(max(1, shard_size), _MAX_SHARD_LANES)
    step = max(1, size // S)
    return [(g_lo, min(S, g_lo + step)) for g_lo in range(0, S, step)]


def verify_two_sort_shard(
    program, width: int, g_lo: int, g_hi: int
) -> VerificationResult:
    """Verify one g-row shard of the pair domain against the closure.

    ``program`` is the :class:`~repro.circuits.compiled.CompiledCircuit`
    of a shape-checked 2-sort(``width``) netlist; the sweep runs on the
    program's plane backend, so results are bit-identical for any
    backend choice.  Pure function of its arguments, so shards can run
    in any process and their results merge deterministically
    (:meth:`VerificationResult.merge`).  The report keeps the messages
    of the first :data:`_FAILURE_LIMIT` mismatching lanes, as
    :meth:`VerificationResult.record` would; ``failure_count`` is the
    kernel's popcount of the mismatch plane.
    """
    S = (1 << (width + 1)) - 1  # |S^B_rg|
    diff, mismatches = program.run_rank_range_diff(
        _string_bit_masks(width), S, g_lo, g_hi, _two_sort_select_pairs(width)
    )
    lanes = (g_hi - g_lo) * S
    result = VerificationResult(
        checked=lanes,
        failure_count=mismatches,
        truncated=mismatches > _FAILURE_LIMIT,
    )
    if mismatches:
        # Failures are rare: only then enumerate the strings and re-run
        # the program for the full slot planes the per-lane decode
        # needs -- for the first _FAILURE_LIMIT lanes, all the report
        # keeps.
        be: PlaneBackend = program.backend
        strings = all_valid_strings(width)
        p0, p1 = program.run_planes(
            _shard_input_planes(be, width, g_lo, g_hi)[0], lanes
        )
        for lane in itertools.islice(
            be.iter_set_lanes(diff, lanes), _FAILURE_LIMIT
        ):
            g = strings[g_lo + lane // S]
            h = strings[lane % S]
            out = program.decode_lane(p0, p1, lane)
            want = two_sort_closure(g, h)
            result.failures.append(
                f"({g}, {h}): got {out[:width]}/{out[width:]}, "
                f"want {want[0]}/{want[1]}"
            )
    return result


def verify_two_sort_region_shard(
    program, width: int, output_index: int, g_lo: int, g_hi: int
) -> Dict[str, int]:
    """Verify one output cone over one g-row shard.

    ``program`` is the compiled *cone extraction* of output
    ``output_index`` (see :meth:`Circuit.extract_cone`): all ``2*width``
    primary inputs in their original order, a single output.  The
    expected planes are the one bit of the Table 2 order max
    (``output_index < width``, bit ``output_index``) or order min
    (bit ``output_index - width``) this cone computes.  Returns a plain
    JSON value -- ``{"lanes": L, "mismatches": N}`` -- because a region
    shard is a store entry, not a user-facing report: the region sweep
    aggregates these and, only when a cone actually mismatches, re-runs
    the canonical full-circuit shard to produce the usual
    :class:`VerificationResult` failure messages byte-for-byte.
    """
    if output_index < width:  # a max bit: g where sel, else h
        b = output_index
        pair = (0, b, width + b)
    else:  # a min bit: the complementary selection
        b = output_index - width
        pair = (0, width + b, b)
    S = (1 << (width + 1)) - 1
    _diff, mismatches = program.run_rank_range_diff(
        _string_bit_masks(width), S, g_lo, g_hi, (pair,)
    )
    return {"lanes": (g_hi - g_lo) * S, "mismatches": mismatches}


def verify_two_sort_circuit(
    circuit: Circuit, width: int, backend: BackendLike = None
) -> VerificationResult:
    """Circuit output == ``(max_rg_M, min_rg_M)`` on *all* valid pairs.

    Fully batched: the whole ``|S^B_rg|^2`` pair domain is evaluated as
    a few bit-parallel sweeps and compared against the Table 2 order
    max/min in plane space (equal to the Definition 2.8 closure on valid
    strings).  Failure messages still quote the closure spec per pair.
    ``backend`` picks the plane representation
    (:mod:`repro.backends`; default: the process default) -- the result
    is bit-identical for every backend.

    Single-process; :func:`repro.verify.parallel.verify_two_sort_sharded`
    runs the same shards across a worker pool.
    """
    check_two_sort_shape(circuit, width)
    program = compile_circuit(circuit, get_backend(backend))
    return VerificationResult.merge(
        verify_two_sort_shard(program, width, g_lo, g_hi)
        for g_lo, g_hi in pair_shards(
            width, program.backend.preferred_shard_lanes
        )
    )


def verify_containment(
    circuit: Circuit, width: int, backend: BackendLike = None
) -> VerificationResult:
    """Weaker property: outputs are valid strings for all valid inputs.

    This is the "containment" contract on its own, checkable even for
    designs that are not closure-exact.  Circuit evaluation is batched
    (on the selected plane backend); validity is then checked per
    decoded output pair.
    """
    check_two_sort_shape(circuit, width)
    strings = all_valid_strings(width)
    S = len(strings)
    program = compile_circuit(circuit, get_backend(backend))
    result = VerificationResult()

    for g_lo, g_hi in pair_shards(
        width, program.backend.preferred_shard_lanes
    ):
        planes, lanes = _shard_input_planes(
            program.backend, width, g_lo, g_hi
        )
        p0, p1 = program.run_planes(planes, lanes)
        outputs = program.decode_outputs(p0, p1, lanes)
        for lane, out in enumerate(outputs):
            result.checked += 1
            parts = ((out[:width], "max"), (out[width:], "min"))
            for part, name in parts:
                if not is_valid(part):
                    g = strings[g_lo + lane // S]
                    h = strings[lane % S]
                    result.record(
                        f"({g}, {h}): {name} output {part} invalid"
                    )
    return result


def verify_function_agreement(
    f: Callable[[Word, Word], Tuple[Word, Word]],
    g_fn: Callable[[Word, Word], Tuple[Word, Word]],
    width: int,
) -> VerificationResult:
    """Two value-level 2-sort implementations agree on all valid pairs."""
    result = VerificationResult()
    for g, h in valid_pairs(width):
        a = f(g, h)
        b = g_fn(g, h)
        result.checked += 1
        if a != b:
            result.record(f"({g}, {h}): {a} vs {b}")
    return result
