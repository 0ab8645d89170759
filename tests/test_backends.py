"""Tests for the pluggable plane-backend subsystem (repro.backends).

The load-bearing property is that every backend is a *drop-in*
representation: identical TritVec semantics, identical compiled-program
results, identical (bit-for-bit) verification reports -- big-int planes,
numpy lane-word planes, and the dependency-free stdlib ``array``
fallback must be indistinguishable except in wall-clock time.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import (
    AUTO_BACKEND,
    ArrayBackend,
    BigIntBackend,
    NativeBackend,
    available_backends,
    default_backend_name,
    get_backend,
    known_backend_names,
    numpy_disabled_by_env,
    register_backend,
    resolve_backend_name,
    set_default_backend,
    use_backend,
)
from repro.circuits.compiled import TritVec, compile_circuit
from repro.circuits.netlist import Circuit
from repro.circuits.gates import AND2, OR2
from repro.core.two_sort import build_two_sort
from repro.networks.comparator import from_comparator_list
from repro.networks.simulate import sort_words, sort_words_batch
from repro.ternary.trit import ALL_TRITS, Trit
from repro.ternary.word import Word
from repro.verify.exhaustive import verify_two_sort_circuit
from repro.verify.parallel import (
    _default_pair_shard_size,
    verify_two_sort_sharded,
)
from repro.graycode.valid import from_rank


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _backend_params():
    """Every representation under test, fallback variant included.

    ``native`` is the registry proxy: on hosts with a C compiler it
    resolves to the kernel-backed word-array representation, elsewhere
    to the bigint fallback -- either way it must be a drop-in.
    """
    params = [
        pytest.param(BigIntBackend(), id="bigint"),
        pytest.param(ArrayBackend(use_numpy=False), id="array-fallback"),
        pytest.param(get_backend("native"), id="native"),
    ]
    if _numpy_available():
        params.append(pytest.param(ArrayBackend(use_numpy=True), id="array-numpy"))
    return params


@pytest.fixture(params=_backend_params())
def backend(request):
    return request.param


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_backends_present(self):
        assert {"bigint", "array"} <= set(available_backends())

    def test_get_backend_by_name_and_instance(self):
        be = get_backend("bigint")
        assert be.name == "bigint"
        assert get_backend(be) is be

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="unknown plane backend"):
            get_backend("gpu")

    def test_default_is_bigint(self):
        assert default_backend_name() == "bigint"
        assert get_backend(None).name == "bigint"

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLANE_BACKEND", "array")
        assert default_backend_name() == "array"
        assert get_backend(None).name == "array"

    def test_use_backend_scopes_default(self):
        assert default_backend_name() == "bigint"
        with use_backend("array") as be:
            assert be.name == "array"
            assert default_backend_name() == "array"
            assert get_backend(None) is be
        assert default_backend_name() == "bigint"

    def test_set_default_backend_validates(self):
        with pytest.raises(KeyError, match="unknown plane backend"):
            set_default_backend("gpu")

    def test_numpy_force_disable_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert numpy_disabled_by_env()
        assert ArrayBackend().variant == "fallback"
        monkeypatch.setenv("REPRO_NO_NUMPY", "0")
        assert not numpy_disabled_by_env()

    def test_native_registered(self):
        assert "native" in available_backends()
        be = get_backend("native")
        assert be.name == "native"
        assert be.variant in ("built", "fallback")
        assert be.built == (be.variant == "built")

    def test_known_names_include_auto_alias(self):
        names = known_backend_names()
        assert set(names) == set(available_backends()) | {AUTO_BACKEND}
        assert names == sorted(names)

    def test_auto_resolves_to_native_or_bigint(self):
        resolved = resolve_backend_name(AUTO_BACKEND)
        expect = "native" if get_backend("native").built else "bigint"
        assert resolved == expect
        assert get_backend(AUTO_BACKEND).name == resolved
        # concrete names resolve to themselves; the default is unchanged
        assert resolve_backend_name("array") == "array"
        assert default_backend_name() == "bigint"

    def test_use_backend_accepts_auto(self):
        with use_backend(AUTO_BACKEND) as be:
            assert be.name == resolve_backend_name(AUTO_BACKEND)
            assert get_backend(None) is be
        assert default_backend_name() == "bigint"


# ----------------------------------------------------------------------
# Native backend: forced fallback (REPRO_NO_NATIVE=1)
# ----------------------------------------------------------------------
class TestNativeFallback:
    """The graceful-degradation contract: no kernel, same behavior.

    These construct *fresh* proxies after resetting the kernel loader,
    so they exercise the fallback resolution path regardless of whether
    this host built the kernel; the registry's own native instance is
    left untouched (its resolution is cached per instance).
    """

    @pytest.fixture
    def no_native(self, monkeypatch):
        from repro.backends import _kernel

        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        _kernel._reset_for_tests()
        yield
        _kernel._reset_for_tests()

    def test_fresh_proxy_reports_fallback(self, no_native):
        be = NativeBackend()
        assert be.variant == "fallback"
        assert not be.built
        assert be.word_bits == BigIntBackend.word_bits

    def test_auto_resolves_to_bigint_without_kernel(self, no_native):
        original = get_backend("native")
        try:
            register_backend("native", NativeBackend())
            assert resolve_backend_name(AUTO_BACKEND) == "bigint"
            assert get_backend(AUTO_BACKEND).name == "bigint"
        finally:
            register_backend("native", original)

    def test_fallback_verification_matches_bigint(self, no_native):
        be = NativeBackend()
        circuit = build_two_sort(3)
        out = verify_two_sort_circuit(circuit, 3, backend=be)
        ref = verify_two_sort_circuit(circuit, 3, backend="bigint")
        assert out.ok and out.summary() == ref.summary()
        broken = _broken_two_sort(2)
        out = verify_two_sort_circuit(broken, 2, backend=NativeBackend())
        ref = verify_two_sort_circuit(broken, 2, backend="bigint")
        assert not out.ok and out.failures == ref.failures

    def test_one_time_stderr_notice(self, no_native, capsys):
        first = NativeBackend()
        first.zeros(8)  # forces resolution
        err = capsys.readouterr().err
        assert "native plane kernel unavailable" in err
        assert "falling back to bigint planes" in err
        second = NativeBackend()
        second.zeros(8)
        assert capsys.readouterr().err == ""  # emitted once per process

    def test_forced_fallback_sharded_sweep(self, no_native):
        original = get_backend("native")
        try:
            register_backend("native", NativeBackend())
            circuit = build_two_sort(4)
            out = verify_two_sort_sharded(circuit, 4, jobs=1, backend="native")
            ref = verify_two_sort_sharded(circuit, 4, jobs=1, backend="bigint")
            assert out.ok and out.to_json() == ref.to_json()
        finally:
            register_backend("native", original)


# ----------------------------------------------------------------------
# Plane-op contract, per backend
# ----------------------------------------------------------------------
class TestPlaneOps:
    LANES = [0, 1, 7, 8, 63, 64, 65, 200]

    def test_int_round_trip(self, backend):
        rng = random.Random(20180319)
        for lanes in self.LANES:
            for _ in range(5):
                value = rng.getrandbits(lanes) if lanes else 0
                plane = backend.from_int(value, lanes)
                assert backend.to_int(plane, lanes) == value

    def test_to_bytes_is_canonical(self, backend):
        ref = BigIntBackend()
        rng = random.Random(7)
        for lanes in self.LANES:
            value = rng.getrandbits(lanes) if lanes else 0
            assert backend.to_bytes(
                backend.from_int(value, lanes), lanes
            ) == ref.to_bytes(value, lanes)

    def test_zeros_ones(self, backend):
        for lanes in self.LANES:
            assert backend.to_int(backend.zeros(lanes), lanes) == 0
            assert backend.to_int(backend.ones(lanes), lanes) == (1 << lanes) - 1

    def test_bitwise_ops_match_int_reference(self, backend):
        rng = random.Random(99)
        for lanes in self.LANES:
            a = rng.getrandbits(lanes) if lanes else 0
            b = rng.getrandbits(lanes) if lanes else 0
            pa, pb = backend.from_int(a, lanes), backend.from_int(b, lanes)
            assert backend.to_int(backend.band(pa, pb), lanes) == a & b
            assert backend.to_int(backend.bor(pa, pb), lanes) == a | b
            assert backend.to_int(backend.bxor(pa, pb), lanes) == a ^ b

    def test_bnot_masks_tail(self, backend):
        for lanes in self.LANES:
            inv = backend.bnot(backend.zeros(lanes), lanes)
            assert backend.to_int(inv, lanes) == (1 << lanes) - 1
            # bits beyond the lane count never leak into the byte form
            raw = backend.to_bytes(inv, lanes)
            assert len(raw) == (lanes + 7) >> 3
            if lanes & 7:
                assert raw[-1] >> (lanes & 7) == 0

    def test_popcount_and_queries(self, backend):
        rng = random.Random(5)
        for lanes in self.LANES:
            value = rng.getrandbits(lanes) if lanes else 0
            plane = backend.from_int(value, lanes)
            assert backend.popcount(plane) == bin(value).count("1")
            assert backend.any(plane) == (value != 0)
            assert backend.eq(plane, backend.from_int(value, lanes))

    def test_lane_addressing(self, backend):
        lanes = 130
        value = (1 << 0) | (1 << 63) | (1 << 64) | (1 << 129)
        plane = backend.from_int(value, lanes)
        for j in range(lanes):
            assert backend.get_lane(plane, j) == (value >> j) & 1
        assert list(backend.iter_set_lanes(plane, lanes)) == [0, 63, 64, 129]

    def test_array_lane_word_addressing(self):
        """The explicit lane -> (word, bit) contract of the array layout."""
        assert ArrayBackend.lane_address(0) == (0, 0)
        assert ArrayBackend.lane_address(63) == (0, 63)
        assert ArrayBackend.lane_address(64) == (1, 0)
        assert ArrayBackend.words_for(0) == 0
        assert ArrayBackend.words_for(64) == 1
        assert ArrayBackend.words_for(65) == 2

    def test_coerce_rejects_foreign_planes(self, backend):
        with pytest.raises(TypeError):
            backend.coerce("not a plane", 8)

    def test_from_bytes_masks_tail(self, backend):
        """Regression: from_bytes is a public constructor and must
        enforce the tail-mask invariant like every other one."""
        plane = backend.from_bytes(b"\xff", 5)
        assert backend.to_int(plane, 5) == 0b11111
        assert backend.popcount(plane) == 5
        assert backend.eq(plane, backend.ones(5))
        assert list(backend.iter_set_lanes(plane, 5)) == [0, 1, 2, 3, 4]

    def test_backend_picklable(self, backend):
        """Regression: backends ride along with compiled circuits into
        pool initargs; spawn-start platforms pickle them (the numpy
        module reference used to make that crash)."""
        import pickle

        clone = pickle.loads(pickle.dumps(backend))
        assert clone.name == backend.name
        if isinstance(backend, ArrayBackend):
            assert clone.variant == backend.variant
        assert clone.to_int(clone.from_int(0b101, 3), 3) == 0b101

    def test_circuit_pickle_drops_compile_cache(self, backend):
        """A circuit compiled on any backend must still pickle (pool
        initargs on spawn platforms) -- the per-process program cache is
        rebuilt by workers, not shipped."""
        import pickle

        circuit = build_two_sort(2)
        compile_circuit(circuit, backend)
        clone = pickle.loads(pickle.dumps(circuit))
        assert not hasattr(clone, "_compiled_cache")
        out = verify_two_sort_circuit(clone, 2, backend=backend)
        assert out.ok and out.checked == 49


# ----------------------------------------------------------------------
# Structured packing + fused select-diff, per backend
# ----------------------------------------------------------------------
#: Tail-mask edge widths: single lane, one bit short of a word, exactly
#: one word, one bit into the second word, and a multi-word interior.
EDGE_LANES = [1, 63, 64, 65, 130]


class TestStructuredPacking:
    """from_pattern / expand_bits / from_prefix_runs must agree with the
    bigint reference bit-for-bit at every word boundary (the native
    backend builds these planes in C)."""

    @pytest.mark.parametrize("lanes", EDGE_LANES)
    def test_from_pattern(self, lanes, backend):
        ref = BigIntBackend()
        rng = random.Random(lanes)
        for period in (1, 2, 7, 63, 64, 65):
            value = rng.getrandbits(period)
            want = ref.to_bytes(ref.from_pattern(value, period, lanes), lanes)
            got = backend.from_pattern(value, period, lanes)
            assert backend.to_bytes(got, lanes) == want, (value, period)

    @pytest.mark.parametrize("lanes", EDGE_LANES)
    def test_expand_bits(self, lanes, backend):
        ref = BigIntBackend()
        rng = random.Random(lanes)
        for run in (1, 3, 64, 65):
            bits = rng.getrandbits(-(-lanes // run))
            want = ref.to_bytes(ref.expand_bits(bits, run, lanes), lanes)
            got = backend.expand_bits(bits, run, lanes)
            assert backend.to_bytes(got, lanes) == want, run

    @pytest.mark.parametrize("lanes", EDGE_LANES)
    def test_from_prefix_runs(self, lanes, backend):
        ref = BigIntBackend()
        for first, period in [(1, 1), (1, 2), (3, 7), (63, 64), (64, 65), (65, 66)]:
            want = ref.to_bytes(ref.from_prefix_runs(first, period, lanes), lanes)
            got = backend.from_prefix_runs(first, period, lanes)
            assert backend.to_bytes(got, lanes) == want, (first, period)


def _random_select_diff_case(rng, n_inputs=4, n_ops=15, n_cmp=3):
    """A random SSA program + input/cmp/sel marshalling for the fused
    select-diff entry point (same shape the verifier produces)."""
    from repro.backends.base import OP_AND, OP_BUF, OP_INV, OP_OR, OP_XOR

    ops = []
    written = n_inputs
    for _ in range(n_ops):
        op = rng.choice([OP_AND, OP_OR, OP_INV, OP_XOR, OP_BUF])
        a = rng.randrange(written)
        b = rng.randrange(written) if op not in (OP_INV, OP_BUF) else 0
        ops.append((op, written, a, b))
        written += 1
    cmp = [
        (
            rng.randrange(n_inputs, written),
            rng.randrange(n_inputs),
            rng.randrange(n_inputs),
        )
        for _ in range(n_cmp)
    ]
    # One cmp slot that no op ever writes and no input provides: it must
    # read as all-zero planes.
    cmp.append((written, 0, 1))
    return ops, written + 1, cmp


class TestSelectDiffContract:
    """run_ops_select_diff: every backend must match the bigint
    reference semantics bit-for-bit, including the tail-mask edges
    (~sel's tail bits must never leak into the diff)."""

    @pytest.mark.parametrize("lanes", EDGE_LANES)
    def test_matches_bigint_reference(self, lanes, backend):
        ref = BigIntBackend()
        rng = random.Random(20180000 + lanes)
        for trial in range(5):
            ops, n_slots, cmp = _random_select_diff_case(rng)
            in_vals = [
                (slot, rng.getrandbits(lanes), rng.getrandbits(lanes))
                for slot in range(4)
            ]
            sel_int = rng.getrandbits(lanes)
            nsel_int = ((1 << lanes) - 1) ^ sel_int

            def run(be):
                inputs = [
                    (s, be.from_int(v0, lanes), be.from_int(v1, lanes))
                    for s, v0, v1 in in_vals
                ]
                diff, count = be.run_ops_select_diff(
                    ops,
                    n_slots,
                    inputs,
                    cmp,
                    be.from_int(sel_int, lanes),
                    be.from_int(nsel_int, lanes),
                    lanes,
                )
                return be.to_int(diff, lanes), count

            want = run(ref)
            got = run(backend)
            assert got == want, (trial, lanes)
            assert got[1] == bin(want[0]).count("1")


# ----------------------------------------------------------------------
# TritVec across backends
# ----------------------------------------------------------------------
class TestTritVecBackends:
    def test_from_trits_equal_across_backends(self, backend):
        tv = TritVec.from_trits("01M10M", backend=backend)
        ref = TritVec.from_trits("01M10M")
        assert tv.to_str() == "01M10M"
        assert tv == ref and ref == tv
        assert hash(tv) == hash(ref)

    def test_kleene_ops_match_bigint(self, backend):
        pairs = list(itertools.product(ALL_TRITS, repeat=2))
        a = TritVec.from_trits([p[0] for p in pairs], backend=backend)
        b = TritVec.from_trits([p[1] for p in pairs], backend=backend)
        ra = TritVec.from_trits([p[0] for p in pairs])
        rb = TritVec.from_trits([p[1] for p in pairs])
        assert (a & b) == (ra & rb)
        assert (a | b) == (ra | rb)
        assert a.xor(b) == ra.xor(rb)
        assert ~a == ~ra
        assert a.metastable_lanes == ra.metastable_lanes

    def test_int_plane_constructor_validates(self, backend):
        with pytest.raises(ValueError, match="encode a trit"):
            TritVec(2, 0b01, 0b00, backend=backend)
        tv = TritVec(2, 0b01, 0b10, backend=backend)
        assert tv.to_str() == "01"

    def test_mixed_backend_ops_rejected(self):
        a = TritVec.from_trits("0M", backend="bigint")
        b = TritVec.from_trits("0M", backend="array")
        with pytest.raises(ValueError, match="backend mismatch"):
            a & b

    def test_broadcast(self, backend):
        assert TritVec.broadcast("M", 70, backend=backend).to_str() == "M" * 70
        assert TritVec.broadcast(1, 3, backend=backend).metastable_lanes == 0


# ----------------------------------------------------------------------
# Compiled programs across backends
# ----------------------------------------------------------------------
class TestCompiledBackends:
    def test_cache_keyed_per_backend(self):
        c = build_two_sort(2)
        big = compile_circuit(c, "bigint")
        arr = compile_circuit(c, "array")
        assert big is not arr
        assert compile_circuit(c, "bigint") is big
        assert compile_circuit(c, "array") is arr

    def test_cache_invalidated_on_mutation_for_all_backends(self):
        c = Circuit("grow")
        a, b = c.add_input("a"), c.add_input("b")
        c.add_output(c.add_gate(AND2, [a, b]))
        first_big = compile_circuit(c, "bigint")
        first_arr = compile_circuit(c, "array")
        c.add_output(c.add_gate(OR2, [a, b]))
        assert compile_circuit(c, "bigint") is not first_big
        assert compile_circuit(c, "array") is not first_arr

    def test_cache_detects_reregistered_backend(self):
        c = build_two_sort(2)
        original = get_backend("array")
        stale = compile_circuit(c, "array")
        try:
            register_backend("array", ArrayBackend(use_numpy=False))
            fresh = compile_circuit(c, "array")
            assert fresh is not stale
            assert fresh.backend.variant == "fallback"
        finally:
            register_backend("array", original)

    def test_evaluate_batch_matches_bigint(self, backend):
        circuit = build_two_sort(3)
        rng = random.Random(2018)
        vectors = [
            [rng.choice(ALL_TRITS) for _ in range(6)] for _ in range(100)
        ]
        ref = compile_circuit(circuit, "bigint").evaluate_batch(vectors)
        out = compile_circuit(circuit, backend).evaluate_batch(vectors)
        assert out == ref

    def test_scalar_wrappers_honor_default_backend(self, backend):
        """Regression: evaluate()/evaluate_all_resolutions() decode
        backend-native planes -- under the array backend they used to
        see truthy word-arrays and return M for every net (or crash on
        multi-word planes)."""
        from repro.circuits.evaluate import (
            evaluate,
            evaluate_all_resolutions,
            evaluate_interpreted,
            evaluate_words,
        )

        circuit = build_two_sort(2)
        stable = {n: Trit.ZERO for n in circuit.inputs}
        ref = evaluate_interpreted(circuit, stable)
        big = build_two_sort(4)
        ref_words = evaluate_words(circuit, Word("0M"), Word("01"))
        ref_res = evaluate_all_resolutions(big, Word("MMMM"), Word("0MMM"))
        original = get_backend("array")
        try:
            register_backend("array", backend)
            with use_backend("array"):
                assert evaluate(circuit, stable) == ref
                assert evaluate_words(circuit, Word("0M"), Word("01")) == ref_words
                # 7 M bits -> 128 resolution lanes: two words per plane,
                # exercising the multi-word any-lane reduction.
                assert (
                    evaluate_all_resolutions(big, Word("MMMM"), Word("0MMM"))
                    == ref_res
                )
        finally:
            register_backend("array", original)

    def test_run_tritvecs_outputs_detached_from_run_storage(self):
        """Retained batch outputs must not alias per-run scratch
        storage (numpy run_ops writes into one slab per call)."""
        if not _numpy_available():
            pytest.skip("numpy-specific storage concern")
        program = compile_circuit(build_two_sort(2), ArrayBackend(use_numpy=True))
        ins = [
            TritVec.from_trits("0M10", backend=program.backend)
            for _ in range(4)
        ]
        outs = program.run_tritvecs(ins)
        for tv in outs:
            assert tv.p0.base is None and tv.p1.base is None

    def test_run_tritvecs_rejects_foreign_backend(self):
        circuit = build_two_sort(1)
        program = compile_circuit(circuit, "array")
        ins = [TritVec.from_trits("01", backend="bigint") for _ in range(2)]
        with pytest.raises(ValueError, match="backend"):
            program.run_tritvecs(ins)


# ----------------------------------------------------------------------
# Verification equivalence
# ----------------------------------------------------------------------
def _broken_two_sort(width):
    good = build_two_sort(width)
    broken = Circuit("broken")
    ins = [broken.add_input(n) for n in good.inputs]
    outs = broken.instantiate(good, ins)
    broken.add_outputs(outs[width:] + outs[:width])
    return broken


class TestVerifyBackends:
    @pytest.mark.parametrize("width", [2, 4, 5])
    def test_identical_summaries(self, width, backend):
        circuit = build_two_sort(width)
        ref = verify_two_sort_circuit(circuit, width, backend="bigint")
        out = verify_two_sort_circuit(circuit, width, backend=backend)
        assert out.summary() == ref.summary()
        assert out.ok

    def test_identical_failure_reports(self, backend):
        """Mismatch-lane extraction and per-lane decode must agree
        bit-for-bit: same failing pairs, same messages, same order."""
        broken = _broken_two_sort(3)
        ref = verify_two_sort_circuit(broken, 3, backend="bigint")
        out = verify_two_sort_circuit(broken, 3, backend=backend)
        assert not out.ok
        assert out.failure_count == ref.failure_count
        assert out.failures == ref.failures

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", ["array", "native", "auto"])
    def test_sharded_identical_across_backends(self, jobs, name):
        """Sharded reports byte-identical to bigint for every registered
        backend and the auto alias (whatever it resolves to here)."""
        circuit = build_two_sort(5)
        ref = verify_two_sort_sharded(circuit, 5, jobs=jobs, backend="bigint")
        out = verify_two_sort_sharded(circuit, 5, jobs=jobs, backend=name)
        assert out.to_json() == ref.to_json()
        assert out.checked == 3969

    def test_sharded_failure_reports_identical_native(self):
        """Mismatch extraction through the fused kernel select-diff must
        reproduce bigint's failure tuples byte-for-byte."""
        broken = _broken_two_sort(3)
        ref = verify_two_sort_sharded(broken, 3, jobs=2, backend="bigint")
        out = verify_two_sort_sharded(broken, 3, jobs=2, backend="native")
        assert not out.ok
        assert out.to_json() == ref.to_json()

    def test_process_pool_forwards_backend_name(self):
        """--backend array across a real pool: workers compile on the
        named backend and counts stay bit-identical."""
        circuit = build_two_sort(4)
        out = verify_two_sort_sharded(
            circuit, 4, jobs=2, executor="process", backend="array"
        )
        ref = verify_two_sort_circuit(circuit, 4)
        assert (out.checked, out.failure_count) == (ref.checked, 0)

    def test_fallback_via_registry_monkeypatch(self):
        """Numpy-absent path through the public name-based selection."""
        original = get_backend("array")
        try:
            register_backend("array", ArrayBackend(use_numpy=False))
            assert get_backend("array").variant == "fallback"
            circuit = build_two_sort(4)
            out = verify_two_sort_circuit(circuit, 4, backend="array")
            ref = verify_two_sort_circuit(circuit, 4, backend="bigint")
            assert out.summary() == ref.summary()
        finally:
            register_backend("array", original)


# ----------------------------------------------------------------------
# Width-adaptive default shard sizing (pinned)
# ----------------------------------------------------------------------
class TestDefaultShardSize:
    def test_pinned_sizes_bigint(self):
        # (width, jobs) -> lanes; B<10 balances ~4 shards/worker within
        # the backend budget, B>=10 spends the budget on whole g-rows.
        expected = {
            (5, 1): 1000,   # ceil(S*S/4) = 993 lanes, word-aligned up
            (8, 1): 16384,
            (8, 4): 16328,
            (9, 4): 16384,  # the value recorded in BENCH_engines.json
            (10, 1): 16376,  # 8 whole g-rows of S=2047
            (11, 1): 16384,  # 4 rows of 4095 = 16380, word-aligned up
            (12, 1): 16384,  # 2 rows of 8191 = 16382, word-aligned up
            (13, 1): 16384,  # 1 row of 16383, word-aligned up
        }
        for (width, jobs), want in expected.items():
            got = _default_pair_shard_size(width, jobs, "bigint")
            assert got == want, (width, jobs, got, want)

    def test_pinned_sizes_array(self):
        expected = {
            (8, 1): 32768,   # array budget is 2x: amortizes ufunc calls
            (8, 4): 16384,
            (10, 1): 32768,  # 16 rows of 2047 = 32752, word-aligned up
            (13, 1): 32768,  # 2 rows of 16383, word-aligned up
        }
        for (width, jobs), want in expected.items():
            got = _default_pair_shard_size(width, jobs, "array")
            assert got == want, (width, jobs, got, want)

    def test_pinned_sizes_native(self):
        if not get_backend("native").built:
            pytest.skip("native kernel not built: proxy sizes as bigint")
        # The native budget (1<<18 lanes) runs the whole B=8 pair domain
        # as one shard when serial; B>=10 spends it on whole g-rows.
        expected = {
            (5, 1): 1024,
            (8, 1): 65344,   # ceil(S*S/4) word-aligned: one real shard
            (8, 4): 16384,
            (10, 1): 262016,  # 128 whole g-rows of S=2047
            (12, 1): 262144,  # 32 rows of 8191, word-aligned up
            (13, 1): 262144,  # 16 rows of 16383, word-aligned up
        }
        for (width, jobs), want in expected.items():
            got = _default_pair_shard_size(width, jobs, "native")
            assert got == want, (width, jobs, got, want)

    def test_word_alignment(self):
        # The native proxy sizes with its resolved representation's word
        # width: 64-bit lane words when built, bigint bytes on fallback.
        native_word = 64 if get_backend("native").built else 8
        for width in range(4, 14):
            for jobs in (1, 2, 8):
                assert _default_pair_shard_size(width, jobs, "array") % 64 == 0
                assert _default_pair_shard_size(width, jobs, "bigint") % 8 == 0
                assert (
                    _default_pair_shard_size(width, jobs, "native")
                    % native_word == 0
                )

    def test_whole_rows_at_wide_widths(self):
        for width in (10, 11, 12, 13):
            S = (1 << (width + 1)) - 1
            size = _default_pair_shard_size(width, 1, "bigint")
            # aligned up from a whole-row budget: never more than one
            # word short of covering the rounded row count
            assert size >= (size // S) * S
            assert size // S >= 1


# ----------------------------------------------------------------------
# Batched network simulation across backends
# ----------------------------------------------------------------------
class TestBatchSimulationBackends:
    def test_sort_words_batch_backend_arg(self, backend):
        from repro.networks.topologies import best_known

        net = best_known(4)
        rng = random.Random(11)
        vectors = [
            [from_rank(rng.randrange(31), 4) for _ in range(4)]
            for _ in range(12)
        ]
        ref = sort_words_batch(net, vectors)
        out = sort_words_batch(net, vectors, backend=backend)
        assert out == ref

    def test_sharded_batch_forwards_backend(self):
        from repro.networks.topologies import best_known

        net = best_known(4)
        rng = random.Random(13)
        vectors = [
            [from_rank(rng.randrange(31), 4) for _ in range(4)]
            for _ in range(9)
        ]
        ref = sort_words_batch(net, vectors)
        out = sort_words_batch(
            net, vectors, jobs=2, shard_size=3, executor="serial",
            backend="array",
        )
        assert out == ref


# ----------------------------------------------------------------------
# Property-based equivalence (hypothesis)
# ----------------------------------------------------------------------
trits = st.sampled_from(list(ALL_TRITS))


def valid_strings(width):
    n_ranks = (1 << (width + 1)) - 1
    return st.integers(min_value=0, max_value=n_ranks - 1).map(
        lambda r: from_rank(r, width)
    )


def layered_networks(max_channels=5, max_comparators=8):
    def build(spec):
        channels, raw = spec
        comps = []
        for a, b in raw:
            lo, hi = sorted((a % channels, b % channels))
            if lo != hi:
                comps.append((lo, hi))
        return from_comparator_list(channels, comps, name="random")

    return st.tuples(
        st.integers(min_value=2, max_value=max_channels),
        st.lists(
            st.tuples(st.integers(0, 31), st.integers(0, 31)),
            max_size=max_comparators,
        ),
    ).map(build)


_PROPERTY_BACKENDS = [
    "bigint",
    ArrayBackend(use_numpy=False),
    get_backend("native"),
] + ([ArrayBackend(use_numpy=True)] if _numpy_available() else [])


@settings(max_examples=30, deadline=None)
@given(st.lists(trits, max_size=80))
def test_tritvec_semantics_identical_across_backends(batch):
    """Same trits in, same trits out, every backend, every connective."""
    vecs = [TritVec.from_trits(batch, backend=be) for be in _PROPERTY_BACKENDS]
    ref = vecs[0]
    rev = list(reversed(batch))
    for be, tv in zip(_PROPERTY_BACKENDS, vecs):
        other = TritVec.from_trits(rev, backend=be)
        assert tv == ref and hash(tv) == hash(ref)
        assert tv.to_trits() == batch
        assert (tv & other) == (ref & TritVec.from_trits(rev))
        assert (tv | other).to_trits() == (
            ref | TritVec.from_trits(rev)
        ).to_trits()
        assert tv.xor(other) == vecs[0].xor(TritVec.from_trits(rev))
        assert (~tv).to_trits() == (~ref).to_trits()


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_batch_identical_across_backends_on_random_networks(data):
    """bigint and array (numpy + fallback) sort identically through
    random layered networks, including the sharded dispatch path."""
    width = data.draw(st.integers(min_value=1, max_value=3))
    net = data.draw(layered_networks())
    vectors = data.draw(
        st.lists(
            st.lists(
                valid_strings(width),
                min_size=net.channels,
                max_size=net.channels,
            ),
            max_size=5,
        )
    )
    reference = sort_words_batch(net, vectors, backend="bigint")
    assert reference == [sort_words(net, v, engine="fsm") for v in vectors]
    for be in _PROPERTY_BACKENDS[1:]:
        assert sort_words_batch(net, vectors, backend=be) == reference
    sharded = sort_words_batch(
        net, vectors, jobs=2, shard_size=2, executor="serial",
        backend="array",
    )
    assert sharded == reference


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
def test_sharded_verification_identical_across_backends(width, jobs):
    """Sharded VerificationResults are bit-identical across backends
    on every width/job combination hypothesis throws at them."""
    circuit = build_two_sort(width)
    ref = verify_two_sort_sharded(
        circuit, width, jobs=jobs, executor="serial", backend="bigint"
    )
    original = get_backend("array")
    for be in _PROPERTY_BACKENDS[1:]:
        # Instances are forwarded to workers by *name*, so exercise each
        # variant by temporarily registering it under "array".
        try:
            register_backend("array", be)
            out = verify_two_sort_sharded(
                circuit, width, jobs=jobs, executor="serial", backend="array"
            )
        finally:
            register_backend("array", original)
        assert (out.checked, out.failure_count, out.failures) == (
            ref.checked,
            ref.failure_count,
            ref.failures,
        )
