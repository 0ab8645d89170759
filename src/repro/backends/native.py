"""Native plane backend: the whole compiled sweep in one C call.

``NativeBackend`` is a self-resolving proxy registered as ``"native"``.
On first use it tries to build/load the C kernel in
:mod:`repro.backends._kernel`; when that works it becomes a
:class:`_KernelBackend`, whose planes are stdlib ``array("Q")`` buffers
of uint64 lane words (the same canonical bytes as bigint planes) and
whose every op runs in the kernel -- no third-party package is
involved.  :meth:`~_KernelBackend.run_ops` lowers the compiled op list
to a flat int32 program once, packs the slot planes into two
contiguous slabs, and executes the entire program (all gates, both
planes, tail masking) in a single ``repro_run_program`` call per
shard, never re-entering Python between ops.  A verification shard
goes further: :meth:`~_KernelBackend.run_ops_rank_range` passes only
the rank range and the cached string-mask rows, and the kernel
generates the input rows, the select row and any constant slots per
tile before sweeping, so the mismatch plane is the only full-width
buffer.  When the kernel is unavailable (no compiler, build failure,
``REPRO_NO_NATIVE=1``) the proxy degrades to the registered ``bigint``
backend with a one-time stderr notice, so hosts without a toolchain see
identical behavior to ``--backend bigint``.

The proxy shape matters for distribution: pool and distributed-worker
initializers forward the backend *name*, so every worker process
resolves ``"native"`` independently -- building the kernel where it can,
falling back where it cannot -- while compile caches and sweep-epoch
keys stay consistent because they key on the name, not the variant.
"""

from __future__ import annotations

import ctypes
import sys
import threading
from array import array
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from . import _kernel
from .base import Plane, PlaneBackend

__all__ = ["NativeBackend"]

_WORD_BITS = 64
_FULL_WORD = (1 << _WORD_BITS) - 1
#: Lowered programs cached per op-list identity; cleared wholesale past
#: this many entries (each sweep reuses one program thousands of times,
#: so eviction policy is irrelevant -- this is just a leak bound).
_PROGRAM_CACHE_CAP = 32


def _qptr(plane: array) -> int:
    # Raw buffer address: every kernel pointer parameter is bound as
    # c_void_p, so plain ints cross the FFI without a ctypes cast.
    return plane.buffer_info()[0]


def _zero_words(words: int) -> array:
    return array("Q", [0]) * words


def _int32s(values) -> ctypes.Array:
    values = list(values)
    return (ctypes.c_int32 * len(values))(*values)


class _KernelBackend(PlaneBackend):
    """The built variant: ``array("Q")`` lane-word planes, C-kernel ops.

    A plane is a sequence of unsigned 64-bit **lane words**; lane ``j``
    lives at bit ``j & 63`` of word ``j >> 6`` (little-endian lane
    order, so the canonical byte form matches the big-int backend
    exactly).  Planes are stdlib ``array("Q")`` buffers whose addresses
    cross the FFI as plain ints, so the backend needs no third-party
    package.
    """

    name = "native"
    word_bits = _WORD_BITS
    #: The fused one-call sweep tiles the word axis internally
    #: (cache-resident scratch), so the only per-shard costs left are
    #: Python crossings -- fewer, wider shards win.  1<<18 runs the
    #: whole B=8 pair domain as one shard.
    preferred_shard_lanes = 1 << 18

    def __init__(self, lib):
        self._lib = lib
        self._programs: dict = {}
        self._marshal: dict = {}
        self._mask_rows: dict = {}
        self._tile = int(lib.repro_tile_words())
        self._local = threading.local()

    # ctypes handles and caches stay behind: the receiving process
    # loads its own kernel.  (A non-empty state, so __setstate__ runs.)
    def __getstate__(self):
        return {"name": self.name}

    def __setstate__(self, state):
        lib = _kernel.load_kernel()
        if lib is None:  # pragma: no cover - host lost its compiler
            raise RuntimeError(
                "native plane kernel unavailable after unpickling; "
                "forward the backend name instead of the instance"
            )
        self.__init__(lib)
        self.name = state["name"]

    # ------------------------------------------------------------------
    # Layout helpers
    # ------------------------------------------------------------------
    @staticmethod
    def words_for(lanes: int) -> int:
        """Lane words needed for ``lanes`` lanes (explicit addressing)."""
        return (lanes + _WORD_BITS - 1) >> 6

    @staticmethod
    def lane_address(lane: int) -> Tuple[int, int]:
        """``(word_index, bit_index)`` of a lane -- the layout contract."""
        return lane >> 6, lane & 63

    @staticmethod
    def _tail_mask(lanes: int) -> int:
        tail = lanes & 63
        return (1 << tail) - 1 if tail else _FULL_WORD

    # ------------------------------------------------------------------
    # Allocation / packing / conversion
    # ------------------------------------------------------------------
    def zeros(self, lanes: int) -> array:
        return _zero_words(self.words_for(lanes))

    def ones(self, lanes: int) -> array:
        words = self.words_for(lanes)
        plane = array("Q", [_FULL_WORD]) * words
        if words:
            plane[-1] = self._tail_mask(lanes)
        return plane

    def from_int(self, value: int, lanes: int) -> array:
        words = self.words_for(lanes)
        value &= (1 << lanes) - 1  # enforce the tail-mask invariant
        return self.from_bytes(value.to_bytes(words * 8, "little"), lanes)

    def from_bytes(self, data: bytes, lanes: int) -> array:
        words = self.words_for(lanes)
        if len(data) < words * 8:
            data = data + bytes(words * 8 - len(data))
        plane = array("Q")
        plane.frombytes(data[: words * 8])
        if sys.byteorder == "big":
            plane.byteswap()
        if words:
            plane[-1] &= self._tail_mask(lanes)
        return plane

    def coerce(self, plane, lanes: int) -> array:
        if isinstance(plane, int):
            return self.from_int(plane, lanes)
        if isinstance(plane, array):
            return plane
        raise TypeError(f"native backend got a {type(plane).__name__} plane")

    def to_int(self, plane: array, lanes: int) -> int:
        return int.from_bytes(self.to_bytes(plane, lanes), "little")

    def to_bytes(self, plane: array, lanes: int) -> bytes:
        if sys.byteorder == "big":
            plane = array("Q", plane)
            plane.byteswap()
        return plane.tobytes()[: (lanes + 7) >> 3]

    # ------------------------------------------------------------------
    # Bitwise plane ops and queries, in the kernel
    # ------------------------------------------------------------------
    def _bitwise(self, op: int, a: array, b: array) -> array:
        out = _zero_words(len(a))
        self._lib.repro_bitwise(op, _qptr(a), _qptr(b), _qptr(out), len(a))
        return out

    def band(self, a: array, b: array) -> array:
        return self._bitwise(0, a, b)

    def bor(self, a: array, b: array) -> array:
        return self._bitwise(1, a, b)

    def bxor(self, a: array, b: array) -> array:
        return self._bitwise(2, a, b)

    def bnot(self, a: array, lanes: int) -> array:
        out = _zero_words(len(a))
        self._lib.repro_not_masked(
            _qptr(a), _qptr(out), len(a), self._tail_mask(lanes)
        )
        return out

    def eq(self, a: array, b: array) -> bool:
        return a == b

    def any(self, a: array) -> bool:
        return any(a)

    def popcount(self, a: array) -> int:
        return int(self._lib.repro_popcount(_qptr(a), len(a)))

    def get_lane(self, a: array, lane: int) -> int:
        word, bit = self.lane_address(lane)
        return (a[word] >> bit) & 1

    def iter_set_lanes(self, a: array, lanes: int) -> Iterator[int]:
        n = self.popcount(a)
        if not n:
            return iter(())
        out = (ctypes.c_int32 * n)()
        got = self._lib.repro_extract_lanes(_qptr(a), len(a), out, n)
        return iter(out[:got])

    def _scratch_addr(self, n_slots: int) -> int:
        """Address of a reusable per-thread tile slab (one C call at a time).

        The buffer (2 * n_slots * tile words) and its base address are
        cached together so the hot path pays no per-call address
        extraction.
        """
        nwords = 2 * n_slots * self._tile
        cached = getattr(self._local, "scratch", None)
        if cached is None or cached[1] < nwords:
            buf = _zero_words(nwords)
            cached = (buf, nwords, _qptr(buf))
            self._local.scratch = cached
        return cached[2]

    # ------------------------------------------------------------------
    # Program lowering
    # ------------------------------------------------------------------
    def _lower(self, ops: Sequence[Tuple[int, int, int, int]]):
        """Flat int32 program + slab preload/copy-out slot lists.

        Keyed on the op list's identity (compiled programs are built once
        per circuit epoch and reused across shards); ``ops`` itself is
        retained in the entry so the id stays valid.
        """
        key = id(ops)
        cached = self._programs.get(key)
        if cached is not None and cached[0] is ops:
            return cached[1], cached[2], cached[3]
        prog = _int32s(v for quad in ops for v in quad)
        # Only slots read before any write (inputs, constants, unwired
        # defaults) need copying into the slab; every dst is written
        # before it is read (topological order), and only dsts need
        # copying back out.
        written: set = set()
        preloaded: set = set()
        preload: List[int] = []
        dsts: List[int] = []
        for _op, d, a, b in ops:
            for s in (a, b):
                if s not in written and s not in preloaded:
                    preloaded.add(s)
                    preload.append(s)
            if d not in written:
                written.add(d)
                dsts.append(d)
        if len(self._programs) >= _PROGRAM_CACHE_CAP:
            self._programs.clear()
        entry = (ops, prog, tuple(preload), tuple(dsts))
        self._programs[key] = entry
        return prog, entry[2], entry[3]

    # ------------------------------------------------------------------
    # Compiled-program execution: one C call for the whole sweep
    # ------------------------------------------------------------------
    def run_ops(
        self,
        ops: Sequence[Tuple[int, int, int, int]],
        p0: List[Any],
        p1: List[Any],
    ) -> None:
        words = len(p0[0]) if p0 else 0
        if not ops or words == 0:
            super().run_ops(ops, p0, p1)
            return
        prog, preload, dsts = self._lower(ops)
        n_slots = len(p0)
        slab0 = _zero_words(n_slots * words)
        slab1 = _zero_words(n_slots * words)
        for s in preload:
            slab0[s * words : (s + 1) * words] = p0[s]
            slab1[s * words : (s + 1) * words] = p1[s]
        self._lib.repro_run_program(
            prog, len(ops), _qptr(slab0), _qptr(slab1), words, _FULL_WORD
        )
        for d in dsts:
            p0[d] = slab0[d * words : (d + 1) * words]
            p1[d] = slab1[d * words : (d + 1) * words]

    def _rank_range_marshal(self, ops, preload, dsts, in_t, consts_t, cmp_t):
        """Cached per-(program, slot layout) ctypes arrays for the C call.

        One verification sweep makes thousands of calls with identical
        slot structure, so the int32 arrays (g/h input slots, fills,
        compare triples) are built once and revalidated by tuple
        compare; only the rank range changes per shard.
        """
        key = id(ops)
        layout = (in_t, consts_t, cmp_t)
        cached = self._marshal.get(key)
        if cached is not None and cached[0] is ops and cached[1] == layout:
            return cached[2]
        provided = set(in_t)
        provided.update(slot for slot, _ in consts_t)
        written = set(dsts)
        # Slots the C sweep reads (or compares) without anyone having
        # written them get zero rows, matching the all-zero slot fill of
        # the generic path; constant slots get fill kinds 1 (the
        # constant 0: p0 ones) and 2 (the constant 1).
        zero_slots = [s for s in preload if s not in provided]
        seen = set(zero_slots)
        for triple in cmp_t:
            for s in triple:
                if s not in written and s not in provided and s not in seen:
                    seen.add(s)
                    zero_slots.append(s)
        fills = [(s, 0) for s in zero_slots]
        fills += [(slot, 1 + bit) for slot, bit in consts_t]
        # Inputs the program never reads (most of them, in an output
        # cone) are passed as -1: the kernel skips generating them.
        read = set(preload).union(*cmp_t)
        slots = [s if s in read else -1 for s in in_t]
        width = len(in_t) // 2
        entry = (
            _int32s(slots[:width]),
            _int32s(slots[width:]),
            _int32s(v for pair in fills for v in pair),
            len(fills),
            _int32s(s for triple in cmp_t for s in triple),
        )
        if len(self._marshal) >= _PROGRAM_CACHE_CAP:
            self._marshal.clear()
        self._marshal[key] = (ops, layout, entry)
        return entry

    def _rank_range_masks(self, masks, period: int) -> Tuple[int, int, int]:
        """Addresses of the two mask-row buffers, and words per row.

        ``width`` rows of ``ceil(period / 64) + 1`` words per plane (the
        spare word lets the kernel read any 64-bit window of a row);
        cached on the identity of ``masks``, which callers build once
        per width.
        """
        key = id(masks)
        cached = self._mask_rows.get(key)
        if cached is not None and cached[0] is masks:
            return cached[2]
        row = self.words_for(period) + 1
        planes = [
            self.from_bytes(
                b"".join(m.to_bytes(8 * row, "little") for m in side),
                64 * row * len(side),
            )
            for side in masks
        ]
        if len(self._mask_rows) >= _PROGRAM_CACHE_CAP:
            self._mask_rows.clear()
        addrs = (_qptr(planes[0]), _qptr(planes[1]), row)
        self._mask_rows[key] = (masks, planes, addrs)
        return addrs

    def run_ops_rank_range(
        self,
        ops: Sequence[Tuple[int, int, int, int]],
        n_slots: int,
        in_slots: Sequence[int],
        consts: Sequence[Tuple[int, int]],
        cmp: Sequence[Tuple[int, int, int]],
        masks,
        period: int,
        g_lo: int,
        g_hi: int,
    ):
        prog, preload, dsts = self._lower(ops)
        cmp_t = tuple(cmp)
        g_arr, h_arr, fill_arr, n_fill, cmp_arr = self._rank_range_marshal(
            ops, preload, dsts, tuple(in_slots), tuple(consts), cmp_t
        )
        m0, m1, row = self._rank_range_masks(masks, period)
        diff = _zero_words(self.words_for((g_hi - g_lo) * period))
        mismatches = self._lib.repro_rank_range_select_diff(
            prog,
            len(ops),
            g_arr,
            h_arr,
            m0,
            m1,
            len(masks[0]),
            row,
            period,
            g_lo,
            g_hi,
            fill_arr,
            n_fill,
            cmp_arr,
            len(cmp_t),
            # One extra tile row per plane holds the generated sel row.
            self._scratch_addr(n_slots + 1),
            n_slots,
            _qptr(diff),
        )
        return diff, int(mismatches)

    # ------------------------------------------------------------------
    # Structured packing in C: the pair-product planes are built without
    # routing ~lanes-bit ints through Python (semantics: base.py).
    # ------------------------------------------------------------------
    def _int_plane(self, value: int, words: int):
        """`value` as a `words`-long lane-word buffer (little-endian)."""
        return self.from_bytes(value.to_bytes(words * 8, "little"), words * 64)

    def from_pattern(self, value: int, period: int, lanes: int):
        words = self.words_for(lanes)
        if not words:
            return self.zeros(lanes)
        dst = _zero_words(words)
        # One spare word: the kernel reads the pattern in 64-bit windows.
        pat = self._int_plane(value, self.words_for(period) + 1)
        self._lib.repro_fill_pattern(
            _qptr(dst), words, _qptr(pat), period, lanes
        )
        return dst

    def expand_bits(self, value: int, run: int, lanes: int):
        words = self.words_for(lanes)
        if not words:
            return self.zeros(lanes)
        dst = _zero_words(words)
        count = -(-lanes // run)
        bits = self._int_plane(value & ((1 << count) - 1), self.words_for(count))
        self._lib.repro_fill_expand(
            _qptr(dst), words, _qptr(bits), run, lanes
        )
        return dst

    def from_prefix_runs(self, first: int, period: int, lanes: int):
        words = self.words_for(lanes)
        if not words:
            return self.zeros(lanes)
        dst = _zero_words(words)
        self._lib.repro_fill_prefix(_qptr(dst), words, first, period, lanes)
        return dst


class NativeBackend(PlaneBackend):
    """Registry proxy: kernel-built planes when possible, bigint otherwise.

    Resolution is lazy (first plane operation or attribute that needs the
    implementation), so importing the package never forks a compiler; it
    is also sticky for the life of the instance.
    """

    name = "native"

    def __init__(self):
        self._impl: Optional[PlaneBackend] = None

    def _resolve(self) -> PlaneBackend:
        impl = self._impl
        if impl is None:
            lib = _kernel.load_kernel()
            if lib is not None:
                impl = _KernelBackend(lib)
                impl.name = self.name
            else:
                _kernel.emit_fallback_notice()
                from . import get_backend

                impl = get_backend("bigint")
            self._impl = impl
        return impl

    # Proxies cross process boundaries stripped to their name, the same
    # way initializers forward backends: the receiving side re-resolves
    # (and builds or falls back) locally.
    def __getstate__(self):
        return {"name": self.name}

    def __setstate__(self, state):
        self.name = state["name"]
        self._impl = None

    @property
    def built(self) -> bool:
        """True when the C kernel is loaded (not the bigint fallback)."""
        return isinstance(self._resolve(), _KernelBackend)

    @property
    def variant(self) -> str:
        """``"built"`` or ``"fallback"`` -- recorded by bench/CLI."""
        return "built" if self.built else "fallback"

    @property
    def word_bits(self) -> int:  # type: ignore[override]
        return self._resolve().word_bits

    @property
    def preferred_shard_lanes(self) -> int:  # type: ignore[override]
        return self._resolve().preferred_shard_lanes

    # ------------------------------------------------------------------
    # PlaneBackend surface: pure forwarders
    # ------------------------------------------------------------------
    def zeros(self, lanes: int) -> Plane:
        return self._resolve().zeros(lanes)

    def ones(self, lanes: int) -> Plane:
        return self._resolve().ones(lanes)

    def from_int(self, value: int, lanes: int) -> Plane:
        return self._resolve().from_int(value, lanes)

    def from_bytes(self, data: bytes, lanes: int) -> Plane:
        return self._resolve().from_bytes(data, lanes)

    def from_pattern(self, value: int, period: int, lanes: int) -> Plane:
        return self._resolve().from_pattern(value, period, lanes)

    def expand_bits(self, value: int, run: int, lanes: int) -> Plane:
        return self._resolve().expand_bits(value, run, lanes)

    def from_prefix_runs(self, first: int, period: int, lanes: int) -> Plane:
        return self._resolve().from_prefix_runs(first, period, lanes)

    def coerce(self, plane: Plane, lanes: int) -> Plane:
        return self._resolve().coerce(plane, lanes)

    def to_int(self, plane: Plane, lanes: int) -> int:
        return self._resolve().to_int(plane, lanes)

    def to_bytes(self, plane: Plane, lanes: int) -> bytes:
        return self._resolve().to_bytes(plane, lanes)

    def band(self, a: Plane, b: Plane) -> Plane:
        return self._resolve().band(a, b)

    def bor(self, a: Plane, b: Plane) -> Plane:
        return self._resolve().bor(a, b)

    def bxor(self, a: Plane, b: Plane) -> Plane:
        return self._resolve().bxor(a, b)

    def bnot(self, a: Plane, lanes: int) -> Plane:
        return self._resolve().bnot(a, lanes)

    def eq(self, a: Plane, b: Plane) -> bool:
        return self._resolve().eq(a, b)

    def any(self, a: Plane) -> bool:
        return self._resolve().any(a)

    def popcount(self, a: Plane) -> int:
        return self._resolve().popcount(a)

    def get_lane(self, a: Plane, lane: int) -> int:
        return self._resolve().get_lane(a, lane)

    def detach(self, a: Plane) -> Plane:
        return self._resolve().detach(a)

    def iter_set_lanes(self, a: Plane, lanes: int) -> Iterator[int]:
        return self._resolve().iter_set_lanes(a, lanes)

    def run_ops(
        self,
        ops: Sequence[Tuple[int, int, int, int]],
        p0: List[Plane],
        p1: List[Plane],
    ) -> None:
        self._resolve().run_ops(ops, p0, p1)

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
        return self._resolve().run_ops_select_diff(
            ops, n_slots, inputs, cmp, sel, nsel, lanes
        )

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
        return self._resolve().run_ops_rank_range(
            ops, n_slots, in_slots, consts, cmp, masks, period, g_lo, g_hi
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "unresolved" if self._impl is None else self.variant
        return f"<NativeBackend {self.name!r} ({state})>"
