"""The plane-backend interface: pluggable storage for two-plane batches.

Everything hot in this codebase runs on **planes** -- bitmaps with one
bit per *lane* (batch vector), two per net (:mod:`repro.circuits.compiled`).
Until this package existed the plane representation was hardcoded as
arbitrary-precision Python ints; a :class:`PlaneBackend` abstracts that
choice so the same compiled programs, verification sweeps, and batch
simulations can run on fixed-width word arrays (numpy, stdlib
``array("Q")`` buffers, optionally driven by a C kernel) -- the
bit-slicing-over-words layout that trades big-int carry chains for
word ops.

A backend owns four concerns:

* **allocation / packing** -- :meth:`~PlaneBackend.zeros`,
  :meth:`~PlaneBackend.ones`, :meth:`~PlaneBackend.from_int`,
  :meth:`~PlaneBackend.from_bytes`, and the inverse conversions
  (:meth:`~PlaneBackend.to_int`, :meth:`~PlaneBackend.to_bytes`, both
  little-endian in lane order so every backend round-trips through the
  same canonical byte form);
* **plane ops** -- the bitwise AND/OR/XOR/NOT that the two-plane Kleene
  connectives are built from (``band``/``bor``/``bxor``/``bnot``);
* **lane addressing** -- :meth:`~PlaneBackend.get_lane`,
  :meth:`~PlaneBackend.iter_set_lanes` (mismatch-lane extraction for
  failure reports), :meth:`~PlaneBackend.popcount`;
* **program execution** -- :meth:`~PlaneBackend.run_ops`, the compiled
  op sweep over plane slots.  This is *the* hot loop, so each backend
  specializes it (big-int: inline int operators; numpy: ufuncs into a
  preallocated slab; native: one C call for the whole program) instead
  of paying a virtual call per gate.
  :meth:`~PlaneBackend.run_ops_rank_range` runs one whole verification
  shard from a rank range, so a native backend can build its inputs
  inside the sweep.

Invariant: every plane is **tail-masked** -- bits at lane indices
``>= lanes`` are zero.  Constructors enforce it, ``bnot`` re-masks, and
the structural ops (AND/OR/XOR) preserve it, so queries like
``popcount`` and ``iter_set_lanes`` never see garbage lanes.
"""

from __future__ import annotations

import abc
from functools import lru_cache
from typing import Any, Iterator, List, Sequence, Tuple

__all__ = ["Plane", "PlaneBackend", "pair_product_planes"]

#: A backend-native plane object (int, numpy array, ``array.array`` ...).
Plane = Any

#: Compiled-program opcodes (shared with repro.circuits.compiled; defined
#: here so backends can specialize run_ops without a circular import).
OP_AND = 0
OP_OR = 1
OP_INV = 2
OP_XOR = 3
OP_BUF = 4


class PlaneBackend(abc.ABC):
    """Strategy object for one plane representation.

    Subclasses are stateless (safe to share across threads/processes and
    to key compile caches on ``name``); all methods are pure functions
    of their arguments.  ``word_bits`` is the preferred lane-word
    granularity: shard planners align lane budgets to it so no shard
    ends mid-word (:func:`repro.verify.parallel._default_pair_shard_size`).
    """

    #: Registry name; also the compile-cache key component.
    name: str = "abstract"
    #: Preferred lane-word size in bits (1 bigint byte-walks at 8; word
    #: backends use their machine word).
    word_bits: int = 8
    #: Preferred lanes per verification shard: the batch size at which
    #: this representation's op sweep runs best (big ints like planes
    #: that keep the whole slot file cache-resident; word-array backends
    #: want more lanes per op to amortize per-call overhead).
    preferred_shard_lanes: int = 1 << 14

    # ------------------------------------------------------------------
    # Allocation / packing
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def zeros(self, lanes: int) -> Plane:
        """The all-zero plane over ``lanes`` lanes."""

    @abc.abstractmethod
    def ones(self, lanes: int) -> Plane:
        """The all-ones (full mask) plane over ``lanes`` lanes."""

    @abc.abstractmethod
    def from_int(self, value: int, lanes: int) -> Plane:
        """Pack a non-negative int (bit ``j`` = lane ``j``) into a plane."""

    @abc.abstractmethod
    def from_bytes(self, data: bytes, lanes: int) -> Plane:
        """Pack little-endian lane bytes (``ceil(lanes/8)`` of them)."""

    def coerce(self, plane: Plane, lanes: int) -> Plane:
        """Accept a native plane as-is; convert a plain int.

        The compiled executor takes input planes from both int-space
        constructions (pair products, encoders) and native
        :class:`~repro.circuits.compiled.TritVec` planes; this is the
        single adapter between the two.
        """
        if isinstance(plane, int):
            return self.from_int(plane, lanes)
        return plane

    # ------------------------------------------------------------------
    # Structured packing
    #
    # The exhaustive pair product is built from three bit-layout shapes
    # (repro.verify.exhaustive): a per-string pattern tiled across
    # g-row blocks, single bits smeared into row-wide runs, and a
    # block-triangular prefix mask.  They are representation-level
    # constructions (ints -> planes), so backends may build them
    # natively instead of routing ~lanes-bit ints through from_int --
    # the defaults below are the reference semantics every override
    # must match bit-for-bit.
    # ------------------------------------------------------------------
    def from_pattern(self, value: int, period: int, lanes: int) -> Plane:
        """``value`` (a ``period``-bit pattern) tiled every ``period`` bits.

        Replicated ``ceil(lanes / period)`` times and tail-masked to
        ``lanes``.
        """
        reps = -(-lanes // period) if lanes else 0
        if not reps:
            return self.zeros(lanes)
        # 1 bit at the base of each block: replicates the pattern across
        # the whole plane with one multiply.
        rep = ((1 << (period * reps)) - 1) // ((1 << period) - 1)
        return self.from_int(value * rep, lanes)

    def expand_bits(self, value: int, run: int, lanes: int) -> Plane:
        """Bit ``k`` of ``value`` smeared into a ``run``-wide block.

        Block ``k`` covers bits ``[k * run, (k + 1) * run)``; the result
        is tail-masked to ``lanes``.
        """
        count = -(-lanes // run) if lanes else 0
        block = (1 << run) - 1
        out = 0
        for k in range(count):
            if (value >> k) & 1:
                out |= block << (k * run)
        return self.from_int(out, lanes)

    def from_prefix_runs(self, first: int, period: int, lanes: int) -> Plane:
        """Row ``k`` (one ``period``-bit block) gets ``first + k`` low ones.

        The block-triangular select mask of the pair sweep; rows are
        clipped to ``period`` bits and the plane to ``lanes``.
        """
        count = -(-lanes // period) if lanes else 0
        out = 0
        for k in range(count):
            out |= ((1 << min(first + k, period)) - 1) << (k * period)
        return self.from_int(out, lanes)

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def to_int(self, plane: Plane, lanes: int) -> int:
        """The plane as a Python int (bit ``j`` = lane ``j``)."""

    @abc.abstractmethod
    def to_bytes(self, plane: Plane, lanes: int) -> bytes:
        """Exactly ``ceil(lanes/8)`` little-endian lane bytes.

        The canonical form: equal planes on *any* backend produce equal
        byte strings, which is what cross-backend ``TritVec`` equality
        and hashing compare.
        """

    # ------------------------------------------------------------------
    # Bitwise plane ops
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def band(self, a: Plane, b: Plane) -> Plane:
        """Bitwise AND."""

    @abc.abstractmethod
    def bor(self, a: Plane, b: Plane) -> Plane:
        """Bitwise OR."""

    @abc.abstractmethod
    def bxor(self, a: Plane, b: Plane) -> Plane:
        """Bitwise XOR."""

    @abc.abstractmethod
    def bnot(self, a: Plane, lanes: int) -> Plane:
        """Bitwise complement, re-masked to ``lanes`` lanes."""

    # ------------------------------------------------------------------
    # Queries / lane addressing
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def eq(self, a: Plane, b: Plane) -> bool:
        """True iff the planes are bit-identical."""

    @abc.abstractmethod
    def any(self, a: Plane) -> bool:
        """True iff any lane bit is set."""

    @abc.abstractmethod
    def popcount(self, a: Plane) -> int:
        """Number of set lane bits."""

    @abc.abstractmethod
    def get_lane(self, a: Plane, lane: int) -> int:
        """Bit of one lane (0 or 1)."""

    def detach(self, a: Plane) -> Plane:
        """A self-contained copy of a plane that may alias shared storage.

        ``run_ops`` implementations are free to hand back views into a
        per-run scratch slab; callers that *retain* planes beyond the
        run (e.g. wrapping output slots in TritVecs) detach them so one
        kept output does not pin the whole slab.  Default: planes are
        already self-contained.
        """
        return a

    def iter_set_lanes(self, a: Plane, lanes: int) -> Iterator[int]:
        """Ascending indices of set lanes (mismatch-lane extraction).

        Default: byte-walk over the canonical form -- O(1) per probed
        byte, and only failure reporting ever calls it.
        """
        raw = self.to_bytes(a, lanes)
        for byte_index, byte in enumerate(raw):
            if byte:
                base = byte_index << 3
                for bit in range(8):
                    if byte & (1 << bit):
                        yield base + bit

    # ------------------------------------------------------------------
    # Compiled-program execution
    # ------------------------------------------------------------------
    def run_ops(
        self,
        ops: Sequence[Tuple[int, int, int, int]],
        p0: List[Plane],
        p1: List[Plane],
    ) -> None:
        """Execute a compiled op list over the slot planes, in place.

        ``ops`` entries are ``(opcode, dst, a, b)`` over slot indices
        (two-plane Kleene semantics, :mod:`repro.circuits.compiled`);
        input and constant slots of ``p0``/``p1`` are pre-filled, every
        ``dst`` slot is written exactly once, and planes already stored
        in slots are never mutated (aliasing buffered copies is safe).

        This generic version is built from the primitive ops; concrete
        backends override it with a specialized loop.
        """
        band, bor, bxor = self.band, self.bor, self.bxor
        for op, d, a, b in ops:
            if op == OP_AND:
                p1[d] = band(p1[a], p1[b])
                p0[d] = bor(p0[a], p0[b])
            elif op == OP_OR:
                p0[d] = band(p0[a], p0[b])
                p1[d] = bor(p1[a], p1[b])
            elif op == OP_INV:
                p0[d] = p1[a]
                p1[d] = p0[a]
            elif op == OP_XOR:
                a0, a1, b0, b1 = p0[a], p1[a], p0[b], p1[b]
                p0[d] = bor(band(a0, b0), band(a1, b1))
                p1[d] = bor(band(a0, b1), band(a1, b0))
            else:  # OP_BUF
                p0[d] = p0[a]
                p1[d] = p1[a]

    def run_ops_select_diff(
        self,
        ops: Sequence[Tuple[int, int, int, int]],
        n_slots: int,
        inputs: Sequence[Tuple[int, Plane, Plane]],
        cmp: Sequence[Tuple[int, int, int]],
        sel: Plane,
        nsel: Plane,
        lanes: int,
    ) -> Tuple[Plane, int]:
        """Run a program and reduce it to a mismatch plane in one step.

        ``inputs`` presets slots (``(slot, p0, p1)``, already
        backend-native); every other slot starts all-zero.  Each
        ``cmp`` triple ``(slot, a_slot, b_slot)`` checks ``slot``
        against the lane-wise mux of two other slots,

            ``expected = (sel & a_slot) | (nsel & b_slot)``

        on both planes (``nsel`` is the tail-masked complement of
        ``sel``).  The result is ``(diff, mismatches)`` where ``diff``
        ORs ``(got0 ^ exp0) | (got1 ^ exp1)`` over all triples and
        ``mismatches`` is its popcount -- the whole-shard compare of
        :mod:`repro.verify.exhaustive`, whose expected outputs are
        exactly ``sel``-muxes of the input planes.  Backends that
        execute programs natively can fuse the compare into the sweep
        so neither the intermediate slot planes nor the expected planes
        ever materialize; this generic version just runs
        :meth:`run_ops` and folds with the primitive ops, which is the
        reference semantics every override must match bit-for-bit.
        """
        zero = self.zeros(lanes)
        p0: List[Plane] = [zero] * n_slots
        p1: List[Plane] = [zero] * n_slots
        for slot, a0, a1 in inputs:
            p0[slot] = a0
            p1[slot] = a1
        self.run_ops(ops, p0, p1)
        band, bor, bxor = self.band, self.bor, self.bxor
        diff = self.zeros(lanes)
        for slot, a, b in cmp:
            e0 = bor(band(sel, p0[a]), band(nsel, p0[b]))
            e1 = bor(band(sel, p1[a]), band(nsel, p1[b]))
            diff = bor(diff, bor(bxor(p0[slot], e0), bxor(p1[slot], e1)))
        return diff, self.popcount(diff)

    def run_ops_rank_range(
        self,
        ops: Sequence[Tuple[int, int, int, int]],
        n_slots: int,
        in_slots: Sequence[int],
        consts: Sequence[Tuple[int, int]],
        cmp: Sequence[Tuple[int, int, int]],
        masks: Tuple[Sequence[int], Sequence[int]],
        period: int,
        g_lo: int,
        g_hi: int,
    ) -> Tuple[Plane, int]:
        """One verification shard of a pair product, rank range in.

        The shard covers rows ``g`` in ``[g_lo, g_hi)`` against every
        column ``h < period`` (lane ``(g - g_lo) * period + h``, see
        :func:`pair_product_planes`); ``masks`` holds the per-bit masks
        over the ``period`` strings and ``in_slots`` the ``2 * width``
        input slots (g bits, then h bits).  ``consts`` presets
        ``(slot, bit)`` constant slots, and the compare is
        :meth:`run_ops_select_diff` with ``sel`` set on the lanes where
        ``h <= g`` -- the block-triangular prefix mask.  Returns
        ``(diff, mismatches)``.

        This default builds the planes with the structured-packing
        primitives and runs :meth:`run_ops_select_diff`: the reference
        semantics.  A native override generates the input rows, ``sel``
        and the constants per tile inside its sweep, so only ``diff``
        is ever full-width.
        """
        planes, lanes = pair_product_planes(self, masks, period, g_lo, g_hi)
        inputs = [(slot, p0, p1) for slot, (p0, p1) in zip(in_slots, planes)]
        if consts:
            zero, full = self.zeros(lanes), self.ones(lanes)
            for slot, bit in consts:
                inputs.append((slot, zero, full) if bit else (slot, full, zero))
        sel = self.from_prefix_runs(g_lo + 1, period, lanes)
        return self.run_ops_select_diff(
            ops, n_slots, inputs, cmp, sel, self.bnot(sel, lanes), lanes
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PlaneBackend {self.name!r}>"


@lru_cache(maxsize=8)
def pair_product_planes(
    be: PlaneBackend,
    masks: Tuple[Sequence[int], Sequence[int]],
    period: int,
    g_lo: int,
    g_hi: int,
) -> Tuple[Tuple[Tuple[Plane, Plane], ...], int]:
    """Input planes of rows ``[g_lo, g_hi)`` of a pair product.

    ``masks = (m0, m1)``: bit ``i`` of ``m0[b]`` (resp. ``m1[b]``) is set
    iff bit ``b`` of string ``i`` can resolve to 0 (resp. 1), over
    ``period`` strings.  Lane ``(g - g_lo) * period + h`` pairs string
    ``g`` with string ``h`` (h fastest).  Returns the ``2 * width``
    ``(p0, p1)`` planes -- g bits (each string's bit smeared over its
    row), then h bits (the mask tiled once per row) -- and the lane
    count.

    Memoized: the planes depend only on the shard, not the circuit, and
    no sweep mutates them; a region sweep verifies every output cone
    over the same shard, so a small LRU turns its packing into a lookup
    (backends hash by identity, and masks are built once per width).
    """
    m0, m1 = masks
    count = g_hi - g_lo
    lanes = count * period
    row_bits = (1 << count) - 1
    planes = [
        (
            be.expand_bits((m0[b] >> g_lo) & row_bits, period, lanes),
            be.expand_bits((m1[b] >> g_lo) & row_bits, period, lanes),
        )
        for b in range(len(m0))
    ]
    planes += [
        (
            be.from_pattern(m0[b], period, lanes),
            be.from_pattern(m1[b], period, lanes),
        )
        for b in range(len(m0))
    ]
    return tuple(planes), lanes
