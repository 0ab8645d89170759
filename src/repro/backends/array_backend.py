"""Fixed-width word-array planes: numpy when importable, stdlib fallback.

A plane is a sequence of unsigned 64-bit **lane words**; lane ``j``
lives at bit ``j & 63`` of word ``j >> 6`` (little-endian lane order, so
the canonical byte form matches the big-int backend exactly).  This is
the classic bit-slicing-over-words layout: instead of one
carry-normalized big int per plane, ops run over flat machine words --
vectorized by numpy ufuncs when numpy is importable, by a pure-python
word loop over :class:`array.array` otherwise.

* **numpy variant** -- planes are ``uint64`` ndarrays;
  :meth:`ArrayBackend.run_ops` executes the compiled program with
  bitwise ufuncs writing into one preallocated slab (two rows per op),
  so the sweep does no per-op allocation.
* **fallback variant** -- planes are ``array("Q")`` word arrays and the
  ops are ``map``-based word loops.  Slow, but dependency-free and
  bit-identical; it is what CI runs with numpy uninstalled.

Variant selection is automatic at first use: numpy is used when
importable unless the ``REPRO_NO_NUMPY`` environment variable is set to
a non-empty value other than ``0`` (the tested escape hatch for forcing
the fallback).  Deferring the choice keeps the registered instance
free to build: importing :mod:`repro.backends` never imports numpy, so
processes that run ``bigint`` or ``native`` planes never pay for it.
Pass ``use_numpy=True/False`` to pin a variant explicitly at
construction (``True`` raises if numpy is missing).

Known small-B regression (documented, gated)
--------------------------------------------
Below ~B=8 the numpy variant is *slower* than the big-int backend: a
shard is then only a handful of words wide, so each per-op ufunc call
is ~0.5 us of Python/numpy dispatch wrapped around ~50 ns of actual
word work, while a big-int op on the same lanes is a single ~100 ns
int operation.  Fusing independent same-opcode ops into batched
fancy-indexed calls does NOT fix this: a level-scheduled slab
implementation was measured at 3-4x *slower* than the per-op loop,
because one fancy gather costs ~1.3 us and one fancy scatter ~2.4-3 us
-- a fused group of 8 ANDs breaks even with 8 per-op calls at best and
loses on XOR.  The regression is therefore accepted and gated instead:
the engine benchmark pins ``array`` near parity with ``bigint`` at
B>=10 (where slab width amortizes dispatch) and the ``auto`` backend
never selects ``array``, so small-B sweeps always get ``bigint`` or
the native kernel.
"""

from __future__ import annotations

import os
import sys
from array import array
from functools import cached_property
from operator import and_, or_, xor
from typing import Any, List, Optional, Sequence, Tuple

from .base import OP_AND, OP_BUF, OP_INV, OP_OR, PlaneBackend

__all__ = ["ArrayBackend", "numpy_disabled_by_env"]

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


def numpy_disabled_by_env() -> bool:
    """True when ``REPRO_NO_NUMPY`` forces the stdlib-array fallback."""
    return os.environ.get("REPRO_NO_NUMPY", "") not in ("", "0")


def _import_numpy() -> Optional[Any]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy


class ArrayBackend(PlaneBackend):
    """Planes as uint64 lane-word arrays (numpy or stdlib ``array``)."""

    name = "array"
    word_bits = _WORD_BITS
    #: 2x the bigint budget: measured fastest at B=8 -- numpy's per-call
    #: overhead amortizes over more words per op before cache pressure
    #: takes over (the fallback variant shares it; word loops are
    #: shard-size-insensitive).
    preferred_shard_lanes = 1 << 15

    def __init__(self, use_numpy: Optional[bool] = None):
        if use_numpy is None:
            return  # variant picked on first use, see _np
        if use_numpy:
            np = _import_numpy()
            if np is None:
                raise ImportError(
                    "ArrayBackend(use_numpy=True) requires numpy; install it "
                    "or use the stdlib fallback (use_numpy=False)"
                )
            self._np = np
        else:
            self._np = None

    @cached_property
    def _np(self) -> Optional[Any]:
        """numpy for the numpy variant, ``None`` for the fallback.

        Only consulted when the variant was not pinned at construction;
        the first access caches the choice on the instance, so hot loops
        read a plain attribute.
        """
        if numpy_disabled_by_env():
            return None
        return _import_numpy()

    @property
    def uses_numpy(self) -> bool:
        return self._np is not None

    # Module objects cannot be pickled, but backends ride along whenever
    # a compiled circuit crosses a process boundary (pool initargs on
    # spawn-start platforms): serialize the variant choice, re-import on
    # the other side.
    def __getstate__(self):
        return {"use_numpy": self._np is not None}

    def __setstate__(self, state):
        self._np = _import_numpy() if state["use_numpy"] else None

    @property
    def variant(self) -> str:
        """``"numpy"`` or ``"fallback"`` -- recorded by the benchmarks."""
        return "numpy" if self._np is not None else "fallback"

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
        return (1 << tail) - 1 if tail else _WORD_MASK

    # ------------------------------------------------------------------
    # Allocation / packing
    # ------------------------------------------------------------------
    def zeros(self, lanes: int):
        words = self.words_for(lanes)
        if self._np is not None:
            return self._np.zeros(words, dtype=self._np.uint64)
        return array("Q", bytes(8 * words))

    def ones(self, lanes: int):
        words = self.words_for(lanes)
        if self._np is not None:
            plane = self._np.full(words, _WORD_MASK, dtype=self._np.uint64)
            if words:
                plane[-1] = self._tail_mask(lanes)
            return plane
        plane = array("Q", [_WORD_MASK] * words)
        if words:
            plane[-1] = self._tail_mask(lanes)
        return plane

    def from_int(self, value: int, lanes: int):
        words = self.words_for(lanes)
        value &= (1 << lanes) - 1  # enforce the tail-mask invariant
        return self.from_bytes(value.to_bytes(words * 8, "little"), lanes)

    def from_bytes(self, data: bytes, lanes: int):
        words = self.words_for(lanes)
        if len(data) < words * 8:
            data = data + bytes(words * 8 - len(data))
        if self._np is not None:
            np = self._np
            # '<u8' pins the little-endian lane layout; astype normalizes
            # to the native dtype (a byteswap only on big-endian hosts).
            plane = np.frombuffer(data, dtype="<u8", count=words).astype(
                np.uint64, copy=True
            )
            if words:
                plane[-1] &= np.uint64(self._tail_mask(lanes))
            return plane
        plane = array("Q")
        plane.frombytes(data[: words * 8])
        if sys.byteorder == "big":
            plane.byteswap()
        if words:
            plane[-1] &= self._tail_mask(lanes)
        return plane

    def coerce(self, plane, lanes: int):
        if isinstance(plane, int):
            return self.from_int(plane, lanes)
        if self._np is not None:
            if isinstance(plane, self._np.ndarray):
                return plane
        elif isinstance(plane, array):
            return plane
        raise TypeError(
            f"array backend ({self.variant}) got a "
            f"{type(plane).__name__} plane"
        )

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_int(self, plane, lanes: int) -> int:
        return int.from_bytes(self.to_bytes(plane, lanes), "little")

    def to_bytes(self, plane, lanes: int) -> bytes:
        nbytes = (lanes + 7) >> 3
        if self._np is not None:
            return plane.astype("<u8", copy=False).tobytes()[:nbytes]
        if sys.byteorder == "big":
            plane = array("Q", plane)
            plane.byteswap()
        return plane.tobytes()[:nbytes]

    # ------------------------------------------------------------------
    # Bitwise plane ops
    # ------------------------------------------------------------------
    def band(self, a, b):
        if self._np is not None:
            return self._np.bitwise_and(a, b)
        return array("Q", map(and_, a, b))

    def bor(self, a, b):
        if self._np is not None:
            return self._np.bitwise_or(a, b)
        return array("Q", map(or_, a, b))

    def bxor(self, a, b):
        if self._np is not None:
            return self._np.bitwise_xor(a, b)
        return array("Q", map(xor, a, b))

    def bnot(self, a, lanes: int):
        if self._np is not None:
            plane = self._np.bitwise_not(a)
            if len(plane):
                plane[-1] &= self._np.uint64(self._tail_mask(lanes))
            return plane
        plane = array("Q", (w ^ _WORD_MASK for w in a))
        if len(plane):
            plane[-1] &= self._tail_mask(lanes)
        return plane

    # ------------------------------------------------------------------
    # Queries / lane addressing
    # ------------------------------------------------------------------
    def eq(self, a, b) -> bool:
        if self._np is not None:
            return bool(self._np.array_equal(a, b))
        return a == b

    def any(self, a) -> bool:
        if self._np is not None:
            return bool(a.any())
        return any(a)

    def popcount(self, a) -> int:
        if self._np is not None:
            np = self._np
            return int(np.unpackbits(a.view(np.uint8)).sum())
        return sum(bin(w).count("1") for w in a)

    def get_lane(self, a, lane: int) -> int:
        word, bit = self.lane_address(lane)
        return (int(a[word]) >> bit) & 1

    def detach(self, a):
        # Numpy run_ops returns slab rows; copy them so a retained
        # output plane does not keep the whole 2*|ops| x words slab
        # alive through ndarray.base.
        if self._np is not None and a.base is not None:
            return a.copy()
        return a

    # ------------------------------------------------------------------
    # Compiled-program execution
    # ------------------------------------------------------------------
    def run_ops(
        self,
        ops: Sequence[Tuple[int, int, int, int]],
        p0: List[Any],
        p1: List[Any],
    ) -> None:
        if self._np is None:
            # Pure-python word loops: the generic primitive-op sweep.
            super().run_ops(ops, p0, p1)
            return
        if not ops:
            return
        np = self._np
        words = len(p0[0]) if p0 else 0
        # One preallocated slab, two fresh rows per op: ufuncs write
        # straight into it, so the sweep allocates nothing per gate.
        # Rows are written once and never mutated after being stored in
        # a slot, which makes the INV/BUF alias-copies safe.
        buf = np.empty((2 * len(ops), words), dtype=np.uint64)
        t0 = np.empty(words, dtype=np.uint64)
        t1 = np.empty(words, dtype=np.uint64)
        band, bor = np.bitwise_and, np.bitwise_or
        i = 0
        for op, d, a, b in ops:
            if op == OP_AND:
                p1[d] = band(p1[a], p1[b], out=buf[i])
                p0[d] = bor(p0[a], p0[b], out=buf[i + 1])
                i += 2
            elif op == OP_OR:
                p0[d] = band(p0[a], p0[b], out=buf[i])
                p1[d] = bor(p1[a], p1[b], out=buf[i + 1])
                i += 2
            elif op == OP_INV:
                p0[d] = p1[a]
                p1[d] = p0[a]
            elif op == OP_BUF:
                p0[d] = p0[a]
                p1[d] = p1[a]
            else:  # OP_XOR
                a0, a1, b0, b1 = p0[a], p1[a], p0[b], p1[b]
                band(a0, b0, out=t0)
                band(a1, b1, out=t1)
                p0[d] = bor(t0, t1, out=buf[i])
                band(a0, b1, out=t0)
                band(a1, b0, out=t1)
                p1[d] = bor(t0, t1, out=buf[i + 1])
                i += 2
