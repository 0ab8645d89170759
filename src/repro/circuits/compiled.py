"""Bit-parallel batch simulation: two-plane compiled netlist programs.

The scalar simulator in :mod:`repro.circuits.evaluate` visits every gate
once *per input vector*, paying Python's interpretation overhead per
trit.  This module applies classic **bit-slicing** from logic simulation
to the three-valued domain: a batch of ``n`` ternary values occupying
one net is packed into **two bit-planes** whose bit (lane) ``j``
describes vector ``j``:

* plane ``p0``: bit set iff the net *can resolve to 0* in vector ``j``,
* plane ``p1``: bit set iff the net *can resolve to 1* in vector ``j``.

So ``0 = (1, 0)``, ``1 = (0, 1)``, and ``M = (1, 1)`` -- the encoding of
a trit is exactly its resolution set (Definition 2.5).  Under this
encoding the strong-Kleene connectives of the paper's gate model
(Table 3) become plain bitwise operations evaluated for *all* vectors
at once, at C speed:

* ``AND``:  ``c1 = a1 & b1``,  ``c0 = a0 | b0``
  (the output can be 1 only if both inputs can; it can be 0 if either
  input can),
* ``OR`` is the plane-dual:  ``c0 = a0 & b0``,  ``c1 = a1 | b1``,
* ``INV`` swaps the planes,
* ``XOR``: ``c1 = (a0 & b1) | (a1 & b0)``, ``c0 = (a0 & b0) | (a1 & b1)``
  (a resolution-level case split; matches the closure of XOR for
  independent inputs, hence the Kleene table),
* composite cells (NAND/NOR/XNOR/AOI21/OAI21/MUX2) are lowered to
  sequences of the primitives above, mirroring exactly how their scalar
  evaluation functions are defined in :mod:`repro.ternary.kleene` -- so
  batch and scalar semantics agree *by construction* (and the test
  suite re-checks every gate kind over its full ternary truth table).

**Plane storage is pluggable.**  How a plane is represented -- one
arbitrary-precision int, a numpy ``uint64`` array, a stdlib word array
-- is owned by a :class:`~repro.backends.PlaneBackend`
(:mod:`repro.backends`); :class:`TritVec` and :class:`CompiledCircuit`
are parameterized by one.  The default (``"bigint"``) reproduces the
original behavior exactly; the ``"array"`` and ``"native"`` backends
trade big-int carry chains for fixed-width word ops (numpy ufuncs, or
one C-kernel call per program).  The backend also owns the
compiled-op sweep (``run_ops``), so each representation keeps a
specialized hot loop.

:class:`CompiledCircuit` lowers a :class:`~repro.circuits.netlist.Circuit`
once into a flat program over integer net slots; :func:`compile_circuit`
caches the program per netlist identity, keyed on the circuit's mutation
``version`` *and* the backend name.  :class:`TritVec` is the
user-facing batch value type.

Throughput: one gate visit now processes thousands of vectors, which is
what makes exhaustive verification over all ``|S^B_rg|^2`` valid pairs
(261k pairs at B = 8) and large measurement-sorting workloads run in
milliseconds instead of minutes (see ``benchmarks/bench_engines.py``).
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..backends import Plane, PlaneBackend, get_backend
from ..ternary.trit import Trit, TritLike
from ..ternary.word import Word
from .netlist import Circuit, CircuitError, Gate
from .wire import NetId

__all__ = ["TritVec", "CompiledCircuit", "compile_circuit"]

#: Backend selector accepted by every public entry point: a registry
#: name, a resolved instance, or None for the process default.
BackendLike = Union[str, PlaneBackend, None]


# ----------------------------------------------------------------------
# TritVec: a batch of trits in two-plane encoding
# ----------------------------------------------------------------------
class TritVec:
    """An immutable batch of ``n`` trits in two-plane encoding.

    Lane ``j`` holds one ternary value; ``p0``/``p1`` are the
    can-be-0 / can-be-1 planes over all lanes, stored in the
    representation of ``backend`` (plain ints on the default ``bigint``
    backend -- plane ints passed to the constructor are validated and
    packed for whichever backend is selected).  Kleene connectives are
    provided as operators so a :class:`TritVec` behaves like ``n``
    trits evaluated simultaneously::

        >>> a = TritVec.from_trits("01M")
        >>> b = TritVec.broadcast("M", 3)
        >>> (a & b).to_str()
        '0MM'

    Equality and hashing are *content*-based across backends: the same
    trits on ``bigint`` and ``native`` planes compare equal.
    """

    __slots__ = ("n", "p0", "p1", "backend")

    def __init__(self, n: int, p0, p1, backend: BackendLike = None):
        be = get_backend(backend)
        if n < 0:
            raise ValueError("TritVec length must be >= 0")
        if isinstance(p0, int) and isinstance(p1, int):
            mask = (1 << n) - 1
            if not (0 <= p0 <= mask and 0 <= p1 <= mask):
                raise ValueError(f"planes out of range for {n} lanes")
            if p0 | p1 != mask:
                raise ValueError(
                    "every lane must encode a trit: plane union must be "
                    "all-ones"
                )
            p0 = be.from_int(p0, n)
            p1 = be.from_int(p1, n)
        else:
            p0 = be.coerce(p0, n)
            p1 = be.coerce(p1, n)
            if not be.eq(be.bor(p0, p1), be.ones(n)):
                raise ValueError(
                    "every lane must encode a trit: plane union must be "
                    "all-ones"
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "backend", be)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("TritVec is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_trits(
        cls,
        values: Union[str, Iterable[TritLike]],
        backend: BackendLike = None,
    ) -> "TritVec":
        """Pack a sequence of trit-likes; lane ``j`` is ``values[j]``."""
        if isinstance(values, str):
            trits = [Trit.from_char(c) for c in values]
        else:
            trits = [
                v if isinstance(v, Trit) else Trit.coerce(v) for v in values
            ]
        n = len(trits)
        b0 = bytearray((n + 7) >> 3)
        b1 = bytearray((n + 7) >> 3)
        for j, t in enumerate(trits):
            bit = 1 << (j & 7)
            if t is not Trit.ONE:
                b0[j >> 3] |= bit
            if t is not Trit.ZERO:
                b1[j >> 3] |= bit
        be = get_backend(backend)
        vec = object.__new__(cls)
        object.__setattr__(vec, "n", n)
        object.__setattr__(vec, "p0", be.from_bytes(bytes(b0), n))
        object.__setattr__(vec, "p1", be.from_bytes(bytes(b1), n))
        object.__setattr__(vec, "backend", be)
        return vec

    @classmethod
    def broadcast(
        cls, value: TritLike, n: int, backend: BackendLike = None
    ) -> "TritVec":
        """All ``n`` lanes hold the same trit."""
        t = Trit.coerce(value)
        be = get_backend(backend)
        vec = object.__new__(cls)
        ones, zeros = be.ones(n), be.zeros(n)
        object.__setattr__(vec, "n", n)
        object.__setattr__(vec, "p0", zeros if t is Trit.ONE else ones)
        object.__setattr__(vec, "p1", zeros if t is Trit.ZERO else ones)
        object.__setattr__(vec, "backend", be)
        return vec

    @classmethod
    def _wrap(cls, n: int, p0: Plane, p1: Plane, be: PlaneBackend) -> "TritVec":
        """Internal: adopt already-valid native planes without rechecking."""
        vec = object.__new__(cls)
        object.__setattr__(vec, "n", n)
        object.__setattr__(vec, "p0", p0)
        object.__setattr__(vec, "p1", p1)
        object.__setattr__(vec, "backend", be)
        return vec

    # ------------------------------------------------------------------
    # Sequence-ish access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __getitem__(self, j: int) -> Trit:
        if j < 0:
            j += self.n
        if not 0 <= j < self.n:
            raise IndexError(f"lane {j} out of range for {self.n} lanes")
        be = self.backend
        z = be.get_lane(self.p0, j)
        o = be.get_lane(self.p1, j)
        if z and o:
            return Trit.META
        return Trit.ZERO if z else Trit.ONE

    def to_trits(self) -> List[Trit]:
        """All lanes as a list (bulk path; O(1) per lane via bytes)."""
        n = self.n
        be = self.backend
        b0 = be.to_bytes(self.p0, n)
        b1 = be.to_bytes(self.p1, n)
        out: List[Trit] = []
        for j in range(n):
            bit = 1 << (j & 7)
            z = b0[j >> 3] & bit
            o = b1[j >> 3] & bit
            out.append(Trit.META if (z and o) else (Trit.ZERO if z else Trit.ONE))
        return out

    def to_word(self) -> Word:
        return Word(self.to_trits())

    def to_str(self) -> str:
        return "".join(t.to_char() for t in self.to_trits())

    @property
    def metastable_lanes(self) -> int:
        """Number of lanes holding ``M`` (popcount of the plane overlap)."""
        be = self.backend
        return be.popcount(be.band(self.p0, self.p1))

    # ------------------------------------------------------------------
    # Kleene connectives (Table 3, batched)
    # ------------------------------------------------------------------
    def _check(self, other: "TritVec") -> "PlaneBackend":
        if self.n != other.n:
            raise ValueError(f"lane-count mismatch: {self.n} vs {other.n}")
        if self.backend is not other.backend:
            raise ValueError(
                f"plane-backend mismatch: {self.backend.name} vs "
                f"{other.backend.name}"
            )
        return self.backend

    def __and__(self, other: "TritVec") -> "TritVec":
        be = self._check(other)
        return TritVec._wrap(
            self.n,
            be.bor(self.p0, other.p0),
            be.band(self.p1, other.p1),
            be,
        )

    def __or__(self, other: "TritVec") -> "TritVec":
        be = self._check(other)
        return TritVec._wrap(
            self.n,
            be.band(self.p0, other.p0),
            be.bor(self.p1, other.p1),
            be,
        )

    def __invert__(self) -> "TritVec":
        return TritVec._wrap(self.n, self.p1, self.p0, self.backend)

    def xor(self, other: "TritVec") -> "TritVec":
        be = self._check(other)
        a0, a1, b0, b1 = self.p0, self.p1, other.p0, other.p1
        return TritVec._wrap(
            self.n,
            be.bor(be.band(a0, b0), be.band(a1, b1)),
            be.bor(be.band(a0, b1), be.band(a1, b0)),
            be,
        )

    # ------------------------------------------------------------------
    def _canonical(self) -> Tuple[int, bytes, bytes]:
        be = self.backend
        return (
            self.n,
            be.to_bytes(self.p0, self.n),
            be.to_bytes(self.p1, self.n),
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TritVec):
            if self.backend is other.backend and self.n == other.n:
                return self.backend.eq(self.p0, other.p0) and self.backend.eq(
                    self.p1, other.p1
                )
            return self._canonical() == other._canonical()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __repr__(self) -> str:
        if self.n <= 64:
            return f"TritVec('{self.to_str()}')"
        return f"TritVec(n={self.n})"


# ----------------------------------------------------------------------
# The compiled program
# ----------------------------------------------------------------------
# Primitive opcodes over (p0, p1) slot pairs.  Mirrored in
# repro.backends.base so backends can specialize the op sweep.
_OP_AND = 0
_OP_OR = 1
_OP_INV = 2
_OP_XOR = 3
_OP_BUF = 4

#: Single-lane plane encodings, for scalar wrappers.
_TRIT_PLANES = {
    Trit.ZERO: (1, 0),
    Trit.ONE: (0, 1),
    Trit.META: (1, 1),
}


def trit_from_planes(can0: int, can1: int) -> Trit:
    """The trit whose resolution set is described by the plane flags.

    Arguments are truthy/falsy (a masked bit or an any-lane reduction
    works directly).  The single place the inverse encoding lives.
    """
    if can0:
        return Trit.META if can1 else Trit.ZERO
    return Trit.ONE


class CompiledCircuit:
    """A :class:`Circuit` lowered to a flat two-plane bitwise program.

    Compilation walks the topological gate order once and emits a list
    of primitive ops over integer *slots* (one slot per net, plus
    temporaries for composite cells).  :meth:`evaluate_batch` then runs
    the whole program over a batch of input vectors, each bitwise op
    processing every vector simultaneously.  Plane storage and the op
    sweep belong to the program's ``backend``
    (:class:`~repro.backends.PlaneBackend`).

    Instances are immutable snapshots: they record the circuit's
    mutation ``version`` at compile time, and :func:`compile_circuit`
    recompiles automatically when the netlist changes.
    """

    def __init__(self, circuit: Circuit, backend: BackendLike = None):
        self.backend: PlaneBackend = get_backend(backend)
        self.name = circuit.name
        self.version = circuit.version
        order = circuit.topological_gates()  # validates structure

        slot_of: Dict[NetId, int] = {}
        for net in circuit.inputs:
            slot_of[net] = len(slot_of)
        self.n_inputs = len(slot_of)
        self.input_slots: Tuple[int, ...] = tuple(range(self.n_inputs))

        const_slots: List[Tuple[int, Trit]] = []
        for net, value in circuit.const_nets.items():
            slot_of[net] = len(slot_of)
            const_slots.append((slot_of[net], value))

        n_slots = len(slot_of)
        ops: List[Tuple[int, int, int, int]] = []

        def temp() -> int:
            nonlocal n_slots
            n_slots += 1
            return n_slots - 1

        def emit(op: int, dst: int, a: int, b: int = 0) -> int:
            ops.append((op, dst, a, b))
            return dst

        for gate in order:
            kind = gate.kind.name
            src = [slot_of[n] for n in gate.inputs]
            dst = n_slots
            n_slots += 1
            slot_of[gate.output] = dst
            if kind == "AND2":
                emit(_OP_AND, dst, src[0], src[1])
            elif kind == "OR2":
                emit(_OP_OR, dst, src[0], src[1])
            elif kind == "INV":
                emit(_OP_INV, dst, src[0])
            elif kind == "BUF":
                emit(_OP_BUF, dst, src[0])
            elif kind == "XOR2":
                emit(_OP_XOR, dst, src[0], src[1])
            elif kind == "NAND2":
                t = emit(_OP_AND, temp(), src[0], src[1])
                emit(_OP_INV, dst, t)
            elif kind == "NOR2":
                t = emit(_OP_OR, temp(), src[0], src[1])
                emit(_OP_INV, dst, t)
            elif kind == "XNOR2":
                t = emit(_OP_XOR, temp(), src[0], src[1])
                emit(_OP_INV, dst, t)
            elif kind == "AOI21":
                t1 = emit(_OP_AND, temp(), src[0], src[1])
                t2 = emit(_OP_OR, temp(), t1, src[2])
                emit(_OP_INV, dst, t2)
            elif kind == "OAI21":
                t1 = emit(_OP_OR, temp(), src[0], src[1])
                t2 = emit(_OP_AND, temp(), t1, src[2])
                emit(_OP_INV, dst, t2)
            elif kind == "MUX2":
                # (sel, a, b) -> (~sel & a) | (sel & b), as in kleene_mux.
                ns = emit(_OP_INV, temp(), src[0])
                t1 = emit(_OP_AND, temp(), ns, src[1])
                t2 = emit(_OP_AND, temp(), src[0], src[2])
                emit(_OP_OR, dst, t1, t2)
            elif kind in ("CONST0", "CONST1"):
                const_slots.append(
                    (dst, Trit.ONE if kind == "CONST1" else Trit.ZERO)
                )
            else:
                raise CircuitError(
                    f"{circuit.name}: cannot compile gate kind {kind!r}"
                )
        self.const_slots: Tuple[Tuple[int, Trit], ...] = tuple(const_slots)

        self.ops: Tuple[Tuple[int, int, int, int], ...] = tuple(ops)
        self.n_slots = n_slots
        self.output_slots: Tuple[int, ...] = tuple(
            slot_of[n] for n in circuit.outputs
        )
        self.n_outputs = len(self.output_slots)
        #: slot of every *named* net (inputs, constants, gate outputs) --
        #: temporaries introduced by composite-cell lowering are excluded.
        self.net_slot: Dict[NetId, int] = dict(slot_of)
        self.gate_count = sum(1 for g in order if g.kind.arity > 0)

    # ------------------------------------------------------------------
    # Core executor
    # ------------------------------------------------------------------
    def run_planes(
        self, input_planes: Sequence[Tuple[Plane, Plane]], n_vectors: int
    ) -> Tuple[List[Plane], List[Plane]]:
        """Execute the program on raw planes; returns all slot planes.

        ``input_planes[i]`` is the ``(p0, p1)`` pair for primary input
        ``i`` over ``n_vectors`` lanes -- plain ints and backend-native
        planes are both accepted (``backend.coerce``).  Callers project
        the returned per-slot plane lists through :attr:`output_slots`
        or :attr:`net_slot`; the planes are native to :attr:`backend`.
        """
        if len(input_planes) != self.n_inputs:
            raise ValueError(
                f"{self.name}: expected planes for {self.n_inputs} inputs, "
                f"got {len(input_planes)}"
            )
        be = self.backend
        zero = be.zeros(n_vectors)
        p0: List[Plane] = [zero] * self.n_slots
        p1: List[Plane] = [zero] * self.n_slots
        for slot, (a0, a1) in zip(self.input_slots, input_planes):
            p0[slot] = be.coerce(a0, n_vectors)
            p1[slot] = be.coerce(a1, n_vectors)
        if self.const_slots:
            full = be.ones(n_vectors)
            for slot, value in self.const_slots:
                if value is Trit.ONE:
                    p1[slot] = full
                else:
                    p0[slot] = full
        be.run_ops(self.ops, p0, p1)
        return p0, p1

    def run_select_diff(
        self,
        input_planes: Sequence[Tuple[Plane, Plane]],
        n_vectors: int,
        sel: Plane,
        nsel: Plane,
        pairs: Sequence[Tuple[int, int, int]],
    ) -> Tuple[Plane, int]:
        """Execute and compare outputs against input muxes in one call.

        Each ``pairs`` triple ``(out, a, b)`` names an *output index*
        and two *primary input indices*: output ``out`` is expected to
        equal ``(sel & input a) | (nsel & input b)`` lane-wise on both
        planes, where ``nsel`` is the tail-masked complement of ``sel``
        (both backend-native).  Returns the backend's
        ``(diff, mismatches)`` -- the OR over pairs of
        ``(got ^ expected)`` on both planes, plus its popcount
        (:meth:`PlaneBackend.run_ops_select_diff`).  Every expected
        two-sort output *is* such a mux; the verification sweeps use
        :meth:`run_rank_range_diff`, which also leaves building the
        input planes to the backend.  Results are bit-identical across
        backends.
        """
        if len(input_planes) != self.n_inputs:
            raise ValueError(
                f"{self.name}: expected planes for {self.n_inputs} inputs, "
                f"got {len(input_planes)}"
            )
        be = self.backend
        inputs = [
            (slot, be.coerce(a0, n_vectors), be.coerce(a1, n_vectors))
            for slot, (a0, a1) in zip(self.input_slots, input_planes)
        ]
        if self.const_slots:
            zero = be.zeros(n_vectors)
            full = be.ones(n_vectors)
            for slot, value in self.const_slots:
                if value is Trit.ONE:
                    inputs.append((slot, zero, full))
                else:
                    inputs.append((slot, full, zero))
        cmp = [
            (self.output_slots[out], self.input_slots[a], self.input_slots[b])
            for out, a, b in pairs
        ]
        return be.run_ops_select_diff(
            self.ops,
            self.n_slots,
            inputs,
            cmp,
            be.coerce(sel, n_vectors),
            be.coerce(nsel, n_vectors),
            n_vectors,
        )

    def run_rank_range_diff(
        self,
        masks: Tuple[Sequence[int], Sequence[int]],
        period: int,
        g_lo: int,
        g_hi: int,
        pairs: Sequence[Tuple[int, int, int]],
    ) -> Tuple[Plane, int]:
        """:meth:`run_select_diff` over rows ``[g_lo, g_hi)`` of a pair product.

        The program must have ``2 * width`` inputs: inputs ``0..width-1``
        take string ``g`` and the rest string ``h`` of each lane
        ``(g - g_lo) * period + h``, where ``masks = (m0, m1)`` holds the
        per-bit masks over the ``period`` strings.  ``pairs`` is as in
        :meth:`run_select_diff`, with ``sel`` set on the lanes where
        ``h <= g``.  No input plane is built here: the backend's
        :meth:`~repro.backends.PlaneBackend.run_ops_rank_range` owns the
        whole shard, so a native backend makes one call that returns
        only the mismatch plane.
        """
        if self.n_inputs != 2 * len(masks[0]):
            raise ValueError(
                f"{self.name}: {self.n_inputs} inputs cannot take pairs of "
                f"{len(masks[0])}-bit strings"
            )
        consts = [
            (slot, 1 if value is Trit.ONE else 0)
            for slot, value in self.const_slots
        ]
        cmp = [
            (self.output_slots[out], self.input_slots[a], self.input_slots[b])
            for out, a, b in pairs
        ]
        return self.backend.run_ops_rank_range(
            self.ops,
            self.n_slots,
            self.input_slots,
            consts,
            cmp,
            masks,
            period,
            g_lo,
            g_hi,
        )

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------
    def encode_inputs(
        self, input_vectors: Sequence[Sequence[TritLike]]
    ) -> Tuple[List[Tuple[int, int]], int]:
        """Pack input vectors into per-input planes.

        Each vector supplies all primary inputs for one lane, in the
        circuit's input order (a :class:`Word` works directly).  Planes
        are returned as plain ints -- the backend-agnostic interchange
        form that :meth:`run_planes` coerces on entry.
        """
        n = len(input_vectors)
        ni = self.n_inputs
        nbytes = (n + 7) >> 3
        b0 = [bytearray(nbytes) for _ in range(ni)]
        b1 = [bytearray(nbytes) for _ in range(ni)]
        for j, vec in enumerate(input_vectors):
            if len(vec) != ni:
                raise ValueError(
                    f"{self.name}: expected {ni} input bits, got {len(vec)}"
                )
            byte = j >> 3
            bit = 1 << (j & 7)
            for i, t in enumerate(vec):
                if not isinstance(t, Trit):
                    t = Trit.coerce(t)
                if t is not Trit.ONE:
                    b0[i][byte] |= bit
                if t is not Trit.ZERO:
                    b1[i][byte] |= bit
        planes = [
            (int.from_bytes(b0[i], "little"), int.from_bytes(b1[i], "little"))
            for i in range(ni)
        ]
        return planes, n

    def decode_outputs(
        self, p0: Sequence[Plane], p1: Sequence[Plane], n_vectors: int
    ) -> List[Word]:
        """Unpack output planes into one :class:`Word` per lane."""
        be = self.backend
        outs = [
            (be.to_bytes(p0[s], n_vectors), be.to_bytes(p1[s], n_vectors))
            for s in self.output_slots
        ]
        meta, zero, one = Trit.META, Trit.ZERO, Trit.ONE
        words: List[Word] = []
        for j in range(n_vectors):
            byte = j >> 3
            bit = 1 << (j & 7)
            row = []
            for zb, ob in outs:
                if zb[byte] & bit:
                    row.append(meta if ob[byte] & bit else zero)
                else:
                    row.append(one)
            words.append(Word(row))
        return words

    def decode_lane(
        self, p0: Sequence[Plane], p1: Sequence[Plane], lane: int
    ) -> Word:
        """Output word of a single lane (per-lane slow path)."""
        be = self.backend
        return Word(
            trit_from_planes(be.get_lane(p0[s], lane), be.get_lane(p1[s], lane))
            for s in self.output_slots
        )

    # ------------------------------------------------------------------
    # Public batch APIs
    # ------------------------------------------------------------------
    def evaluate_batch(
        self, input_vectors: Sequence[Sequence[TritLike]]
    ) -> List[Word]:
        """Simulate all vectors at once; one output :class:`Word` each.

        ``input_vectors[j]`` covers the primary inputs (in order) for
        lane ``j``; the result's ``j``-th element is the full output
        vector of that lane.  Semantics are identical to calling the
        scalar :func:`repro.circuits.evaluate.evaluate_words` per
        vector, at a fraction of the cost.
        """
        planes, n = self.encode_inputs(input_vectors)
        p0, p1 = self.run_planes(planes, n)
        return self.decode_outputs(p0, p1, n)

    def run_tritvecs(self, inputs: Sequence[TritVec]) -> List[TritVec]:
        """Batch-evaluate with :class:`TritVec` per input net.

        ``inputs[i]`` carries input ``i`` across all lanes and must live
        on this program's backend; returns one :class:`TritVec` per
        primary output.  This is the zero-copy path used by the batched
        sorting-network simulator.
        """
        if not inputs and self.n_inputs:
            raise ValueError(f"{self.name}: expected {self.n_inputs} inputs")
        be = self.backend
        n = inputs[0].n if inputs else 0
        for tv in inputs:
            if tv.n != n:
                raise ValueError("all input TritVecs must have equal lanes")
            if tv.backend is not be:
                raise ValueError(
                    f"{self.name}: input TritVec on backend "
                    f"{tv.backend.name!r}, program compiled for {be.name!r}"
                )
        planes = [(tv.p0, tv.p1) for tv in inputs]
        p0, p1 = self.run_planes(planes, n)
        # detach: keep only the output planes alive, not the whole
        # per-run scratch storage some backends return views into.
        return [
            TritVec._wrap(n, be.detach(p0[s]), be.detach(p1[s]), be)
            for s in self.output_slots
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledCircuit({self.name!r}, inputs={self.n_inputs}, "
            f"outputs={self.n_outputs}, ops={len(self.ops)}, "
            f"backend={self.backend.name!r})"
        )


def compile_circuit(
    circuit: Circuit, backend: BackendLike = None
) -> CompiledCircuit:
    """Compile ``circuit``, caching the program on the netlist itself.

    The cache is keyed on ``(circuit.version, backend.name)``: adding a
    gate, input, output, or constant invalidates every entry and the
    next call recompiles; requesting a different plane backend compiles
    a sibling program without evicting the others.  Identity-keyed
    caching means independent circuits never share programs even when
    structurally equal.
    """
    be = get_backend(backend)
    cache: Optional[Dict[str, CompiledCircuit]] = getattr(
        circuit, "_compiled_cache", None
    )
    if not isinstance(cache, dict) or any(
        p.version != circuit.version for p in cache.values()
    ):
        cache = {}
        circuit._compiled_cache = cache
    program = cache.get(be.name)
    # `backend is not be` catches a re-registered backend instance under
    # the same name (tests register fresh instances under a name).
    if program is None or program.backend is not be:
        program = CompiledCircuit(circuit, be)
        cache[be.name] = program
    return program
