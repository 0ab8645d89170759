"""Flat gate-level netlists with named nets.

A :class:`Circuit` is a DAG of gate instances over string-named nets,
with ordered primary inputs and outputs.  Generators (the 2-sort
builders, the PPC template, sorting-network composition) create fresh
nets through a :class:`~repro.circuits.wire.NameScope` and may
*instantiate* one circuit inside another, which copies gates under a
renamed hierarchy -- the Python analogue of flattening a structural VHDL
design before hand-mapping (paper Section 6).
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..ternary.trit import Trit
from .gates import ALL_GATE_KINDS, CONST0, CONST1, GateKind
from .wire import NameScope, NetId


@dataclass(frozen=True)
class Gate:
    """One gate instance: ``output = kind(*inputs)``."""

    kind: GateKind
    inputs: Tuple[NetId, ...]
    output: NetId

    def __post_init__(self):
        if len(self.inputs) != self.kind.arity:
            raise ValueError(
                f"{self.kind.name} expects {self.kind.arity} inputs, "
                f"got {len(self.inputs)}"
            )


class CircuitError(ValueError):
    """Structural problem in a netlist (multiple drivers, cycles, ...)."""


class Circuit:
    """A combinational netlist.

    Nets are created implicitly by driving or reading them; every net
    must have exactly one driver (a gate, a primary input, or a
    constant).  Primary outputs are an ordered list of nets.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self.scope = NameScope()
        self._gates: List[Gate] = []
        self._driver: Dict[NetId, Gate] = {}
        self._inputs: List[NetId] = []
        self._input_set: set = set()
        self._outputs: List[NetId] = []
        self._const_nets: Dict[NetId, Trit] = {}
        self._topo_cache: Optional[List[Gate]] = None
        self._input_frozen: Optional[frozenset] = None
        self._version = 0
        self._hash_cache: Optional[Tuple[int, str]] = None

    def __getstate__(self):
        # Compiled programs (repro.circuits.compiled attaches them as
        # `_compiled_cache`) are per-process artifacts: pool workers
        # recompile in their initializer, and shipping them would drag
        # the plane backend across the pickle boundary.
        state = self.__dict__.copy()
        state.pop("_compiled_cache", None)
        return state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, net: Optional[NetId] = None, base: str = "in") -> NetId:
        """Declare a primary input; returns its net id."""
        if net is None:
            net = self.scope.net(base)
        if net in self._input_set:
            raise CircuitError(f"duplicate primary input {net!r}")
        if net in self._driver or net in self._const_nets:
            raise CircuitError(f"net {net!r} already driven")
        self._inputs.append(net)
        self._input_set.add(net)
        self._topo_cache = None
        self._input_frozen = None
        self._version += 1
        return net

    def add_inputs(self, count: int, base: str = "in") -> List[NetId]:
        """Declare ``count`` primary inputs with a shared base name."""
        return [self.add_input(base=base) for _ in range(count)]

    def add_output(self, net: NetId) -> NetId:
        """Mark an existing net as a primary output (order preserved)."""
        self._outputs.append(net)
        self._version += 1
        return net

    def add_outputs(self, nets: Iterable[NetId]) -> List[NetId]:
        return [self.add_output(n) for n in nets]

    def const(self, value: Trit) -> NetId:
        """A net tied to a constant 0 or 1 (shared per circuit)."""
        if value is Trit.META:
            raise CircuitError("cannot tie a net to constant M")
        kind = CONST1 if value is Trit.ONE else CONST0
        for net, v in self._const_nets.items():
            if v is value:
                return net
        net = self.scope.net(f"const{value.to_int()}")
        self._const_nets[net] = value
        self._topo_cache = None
        self._version += 1
        return net

    def add_gate(
        self,
        kind: GateKind,
        inputs: Sequence[NetId],
        output: Optional[NetId] = None,
    ) -> NetId:
        """Instantiate a gate; returns (and possibly creates) its output net."""
        if output is None:
            output = self.scope.net(kind.name.lower())
        if output in self._driver or output in self._input_set or output in self._const_nets:
            raise CircuitError(f"net {output!r} already driven")
        gate = Gate(kind, tuple(inputs), output)
        self._gates.append(gate)
        self._driver[output] = gate
        self._topo_cache = None
        self._version += 1
        return output

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> Tuple[NetId, ...]:
        return tuple(self._inputs)

    @property
    def input_set(self) -> frozenset:
        """The primary inputs as a set (membership tests in hot loops).

        Cached; rebuilt only after :meth:`add_input`.
        """
        if self._input_frozen is None:
            self._input_frozen = frozenset(self._input_set)
        return self._input_frozen

    @property
    def version(self) -> int:
        """Mutation counter; bumps on every structural change.

        Consumers that cache derived artefacts (e.g. the bit-parallel
        compiler in :mod:`repro.circuits.compiled`) key their caches on
        this value so a mutated netlist is never served stale results.
        """
        return self._version

    def content_hash(self) -> str:
        """Stable digest of the netlist *structure* (hex, 16 chars).

        Covers exactly what determines behaviour: input order, output
        order, constant ties, and every gate as ``kind(inputs)->output``
        in insertion order.  Unlike :attr:`version` -- an in-process
        mutation counter that two different circuits can coincidentally
        share -- the content hash identifies the circuit itself, so it
        is safe as a cache key across processes and hosts: a rebuilt
        identical netlist hashes the same, any structural edit hashes
        differently, and a distributed worker can check that the
        circuit it unpickled is the one the coordinator is sweeping.
        Cached per :attr:`version`, so repeated calls on an unmutated
        circuit are O(1).
        """
        cached = getattr(self, "_hash_cache", None)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        h = hashlib.sha256()

        def feed(tag: bytes, *parts: str) -> None:
            # Length-prefixed fields: no delimiter a net name could
            # contain can make two different structures hash the same.
            h.update(tag)
            for part in parts:
                data = part.encode()
                h.update(len(data).to_bytes(4, "little"))
                h.update(data)

        for net in self._inputs:
            feed(b"i", net)
        for net, value in sorted(self._const_nets.items()):
            feed(b"c", net, value.to_char())
        for gate in self._gates:
            feed(b"g", gate.kind.name, str(len(gate.inputs)), *gate.inputs)
            feed(b">", gate.output)
        for net in self._outputs:
            feed(b"o", net)
        digest = h.hexdigest()[:16]
        self._hash_cache = (self._version, digest)
        return digest

    # ------------------------------------------------------------------
    # Per-region (output-cone) structure
    # ------------------------------------------------------------------
    def _cone(self, output_index: int) -> Tuple[List[Gate], Dict[NetId, Trit]]:
        """Gates and constants feeding primary output ``output_index``.

        Backward reachability over the driver map from the output's
        root net; gates come back in insertion order so two circuits
        built the same way produce identical cones.
        """
        if not 0 <= output_index < len(self._outputs):
            raise CircuitError(
                f"output index {output_index} out of range "
                f"(circuit has {len(self._outputs)} outputs)"
            )
        root = self._outputs[output_index]
        seen: set = set()
        stack = [root]
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            gate = self._driver.get(net)
            if gate is not None:
                stack.extend(gate.inputs)
        cone_gates = [g for g in self._gates if g.output in seen]
        cone_consts = {
            net: v for net, v in self._const_nets.items() if net in seen
        }
        return cone_gates, cone_consts

    def region_hashes(self) -> Tuple[str, ...]:
        """One structural digest per primary output's fan-in cone.

        A region is everything that determines one output: the primary
        inputs (all of them, in order -- lane semantics depend on input
        positions), the constants and gates reachable backward from the
        output, and the output's root net.  Hashed with the same
        length-prefixed scheme as :meth:`content_hash`, so a structural
        edit changes exactly the digests of the outputs whose cones
        contain the edited gate.  That is what makes per-region result
        keys incremental: re-verification after an edit only misses on
        the affected cones.  Cached per :attr:`version`.
        """
        cached = getattr(self, "_region_hash_cache", None)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        digests = []
        for idx in range(len(self._outputs)):
            cone_gates, cone_consts = self._cone(idx)
            h = hashlib.sha256()

            def feed(tag: bytes, *parts: str) -> None:
                h.update(tag)
                for part in parts:
                    data = part.encode()
                    h.update(len(data).to_bytes(4, "little"))
                    h.update(data)

            for net in self._inputs:
                feed(b"i", net)
            for net, value in sorted(cone_consts.items()):
                feed(b"c", net, value.to_char())
            for gate in cone_gates:
                feed(b"g", gate.kind.name, str(len(gate.inputs)),
                     *gate.inputs)
                feed(b">", gate.output)
            feed(b"o", self._outputs[idx])
            digests.append(h.hexdigest()[:16])
        result = tuple(digests)
        self._region_hash_cache = (self._version, result)
        return result

    def cone_sizes(self) -> Tuple[int, ...]:
        """Gate count of each primary output's fan-in cone.

        What running one output's cone program costs next to the whole
        circuit's ``len(gates)``; cones share gates, so the sizes may
        sum to several times that.  Cached per :attr:`version`.
        """
        cached = getattr(self, "_cone_size_cache", None)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        result = tuple(
            len(self._cone(idx)[0]) for idx in range(len(self._outputs))
        )
        self._cone_size_cache = (self._version, result)
        return result

    def extract_cone(self, output_index: int) -> "Circuit":
        """A standalone circuit computing just one primary output.

        The extracted circuit keeps *all* primary inputs in their
        original order (so input-lane encodings line up with the parent
        sweep), the cone's constants and gates under their original net
        names, and exposes a single output: the requested one.  Used by
        the region sweep to verify one output cone at a time.
        """
        cone_gates, cone_consts = self._cone(output_index)
        sub = Circuit(name=f"{self.name}#o{output_index}")
        for net in self._inputs:
            sub.add_input(net=net)
        # Copy constants under their original names: Circuit.const()
        # would mint fresh names, breaking gate input references.
        # Direct private access is why this lives in netlist.py.
        for net, value in cone_consts.items():
            sub._const_nets[net] = value
            sub._version += 1
        for gate in cone_gates:
            sub.add_gate(gate.kind, gate.inputs, output=gate.output)
        sub.add_output(self._outputs[output_index])
        return sub

    def copy(self) -> "Circuit":
        """A structurally identical, name-preserving, independent copy.

        All net names are kept verbatim (the copy hashes identically to
        the original), so the copy is the right starting point for a
        controlled structural edit -- e.g. the incremental
        re-verification demo splices gates into one output cone of a
        copy and checks that only that region's digest changes.
        """
        dup = Circuit(name=self.name)
        for net in self._inputs:
            dup.add_input(net=net)
        for net, value in self._const_nets.items():
            dup._const_nets[net] = value
            dup._version += 1
        for gate in self._gates:
            dup.add_gate(gate.kind, gate.inputs, output=gate.output)
        for net in self._outputs:
            dup.add_output(net)
        return dup

    def replace_output(self, index: int, net: NetId) -> None:
        """Re-point primary output ``index`` at a different net."""
        if not 0 <= index < len(self._outputs):
            raise CircuitError(
                f"output index {index} out of range "
                f"(circuit has {len(self._outputs)} outputs)"
            )
        self._outputs[index] = net
        self._topo_cache = None
        self._version += 1

    @property
    def outputs(self) -> Tuple[NetId, ...]:
        return tuple(self._outputs)

    @property
    def gates(self) -> Tuple[Gate, ...]:
        return tuple(self._gates)

    @property
    def const_nets(self) -> Mapping[NetId, Trit]:
        return dict(self._const_nets)

    def gate_count(self, logic_only: bool = True) -> int:
        """Number of gates; constants excluded when ``logic_only``."""
        if logic_only:
            return sum(1 for g in self._gates if g.kind.arity > 0)
        return len(self._gates)

    def gate_histogram(self) -> Dict[str, int]:
        """Gate count per kind name (logic gates only)."""
        hist: Dict[str, int] = {}
        for g in self._gates:
            if g.kind.arity == 0:
                continue
            hist[g.kind.name] = hist.get(g.kind.name, 0) + 1
        return hist

    def fanout(self) -> Dict[NetId, int]:
        """Downstream pin count per net (primary outputs count as 1 pin)."""
        counts: Dict[NetId, int] = {}
        for g in self._gates:
            for net in g.inputs:
                counts[net] = counts.get(net, 0) + 1
        for net in self._outputs:
            counts[net] = counts.get(net, 0) + 1
        return counts

    def driver_of(self, net: NetId) -> Optional[Gate]:
        return self._driver.get(net)

    def is_mc_safe(self) -> bool:
        """True iff only AND2/OR2/INV cells are used (paper's restriction)."""
        return all(g.kind.mc_safe for g in self._gates if g.kind.arity > 0)

    # ------------------------------------------------------------------
    # Topological order
    # ------------------------------------------------------------------
    def topological_gates(self) -> List[Gate]:
        """Gates in dependency order; raises :class:`CircuitError` on cycles
        or undriven nets.

        Single-pass Kahn's algorithm with an index-ordered ready-queue:
        each gate tracks how many of its input nets are not yet driven;
        a min-heap over gate indices releases gates as their last
        dependency resolves.  O((gates + pins) log gates) total, versus
        the O(gates^2) worst case of a repeated-scan sort, and the
        index-ordered queue keeps the emitted order deterministic.
        """
        if self._topo_cache is not None:
            return self._topo_cache

        ready = set(self._input_set)
        ready.update(self._const_nets)
        waiting_on: Dict[NetId, List[int]] = {}
        missing: List[int] = [0] * len(self._gates)
        heap: List[int] = []
        for idx, gate in enumerate(self._gates):
            need = 0
            for net in gate.inputs:
                if net not in ready:
                    need += 1
                    waiting_on.setdefault(net, []).append(idx)
            missing[idx] = need
            if need == 0:
                heap.append(idx)
        heapq.heapify(heap)

        order: List[Gate] = []
        while heap:
            idx = heapq.heappop(heap)
            gate = self._gates[idx]
            order.append(gate)
            ready.add(gate.output)
            for waiter in waiting_on.pop(gate.output, ()):
                missing[waiter] -= 1
                if missing[waiter] == 0:
                    heapq.heappush(heap, waiter)

        if len(order) != len(self._gates):
            stuck = [g for i, g in enumerate(self._gates) if missing[i] > 0]
            undriven = {
                net
                for gate in stuck
                for net in gate.inputs
                if net not in ready and net not in self._driver
            }
            if undriven:
                raise CircuitError(f"undriven nets: {sorted(undriven)[:5]}")
            raise CircuitError("combinational cycle detected")
        for net in self._outputs:
            if net not in ready:
                raise CircuitError(f"primary output {net!r} is undriven")
        self._topo_cache = order
        return order

    # ------------------------------------------------------------------
    # Hierarchy: instantiate a subcircuit into this one
    # ------------------------------------------------------------------
    def instantiate(
        self,
        sub: "Circuit",
        input_nets: Sequence[NetId],
        instance_base: str = "u",
    ) -> List[NetId]:
        """Copy ``sub`` into this circuit, binding its primary inputs.

        ``input_nets[i]`` drives ``sub.inputs[i]``.  Returns the nets in
        this circuit corresponding to ``sub.outputs`` (in order).
        """
        if len(input_nets) != len(sub.inputs):
            raise CircuitError(
                f"instance of {sub.name!r} expects {len(sub.inputs)} inputs, "
                f"got {len(input_nets)}"
            )
        inst = self.scope.child(instance_base)
        mapping: Dict[NetId, NetId] = dict(zip(sub.inputs, input_nets))
        for net, value in sub.const_nets.items():
            mapping[net] = self.const(value)
        for gate in sub.topological_gates():
            new_inputs = tuple(mapping[n] for n in gate.inputs)
            new_output = inst.net("n")
            self.add_gate(gate.kind, new_inputs, new_output)
            mapping[gate.output] = new_output
        return [mapping[n] for n in sub.outputs]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Circuit({self.name!r}, inputs={len(self._inputs)}, "
            f"outputs={len(self._outputs)}, gates={self.gate_count()})"
        )
