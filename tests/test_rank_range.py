"""Rank-range verification shards (PlaneBackend.run_ops_rank_range).

A shard hands the backend a g-row range of the valid-string pair
product plus the closed-form per-bit masks; the native kernel builds
every input row, the select row and the constant slots per tile inside
its sweep.  The bigint default -- structured packing plus
``run_ops_select_diff`` -- is the reference, and every report must stay
byte-identical to it.
"""

import ctypes
import os
import random
import shutil
import subprocess
import time

import pytest

from repro.backends import BigIntBackend, get_backend
from repro.backends import _kernel
from repro.backends.base import PlaneBackend
from repro.circuits.compiled import compile_circuit
from repro.circuits.gates import AND2, INV, OR2
from repro.circuits.netlist import Circuit
from repro.core.two_sort import build_two_sort
from repro.graycode.ops import two_sort_closure
from repro.graycode.valid import all_valid_strings
from repro.store import open_store
from repro.ternary.trit import Trit
from repro.verify.exhaustive import (
    VerificationResult,
    _string_bit_masks,
    _two_sort_select_pairs,
    pair_shards,
    valid_pairs,
    verify_two_sort_circuit,
)
from repro.verify.parallel import verify_two_sort_sharded

NATIVE = get_backend("native")

needs_kernel = pytest.mark.skipif(
    not NATIVE.built, reason="native kernel not built on this host"
)


# ----------------------------------------------------------------------
# Circuits: passing, mutated, and with constant slots
# ----------------------------------------------------------------------
def _inverted_output(width):
    """2-sort with output 0 inverted: fails on every lane but M ones."""
    circuit = build_two_sort(width).copy()
    net = circuit.add_gate(INV, [circuit.outputs[0]], output="__inv0")
    circuit.replace_output(0, net)
    return circuit


def _swapped_outputs(width):
    good = build_two_sort(width)
    broken = Circuit("swapped")
    ins = [broken.add_input(n) for n in good.inputs]
    outs = broken.instantiate(good, ins)
    broken.add_outputs(outs[width:] + outs[:width])
    return broken


def _const_passing(width):
    """OR with constant 0 on output 0: still a correct 2-sort."""
    circuit = build_two_sort(width).copy()
    net = circuit.add_gate(
        OR2, [circuit.outputs[0], circuit.const(Trit.ZERO)], output="__c0"
    )
    circuit.replace_output(0, net)
    return circuit


def _const_failing(width):
    """AND with constant 0 on the min's top bit: fails where it is 1/M."""
    circuit = build_two_sort(width).copy()
    net = circuit.add_gate(
        AND2, [circuit.outputs[width], circuit.const(Trit.ZERO)], output="__c1"
    )
    circuit.replace_output(width, net)
    return circuit


def _one_gate_edit(circuit):
    """Functionally identical, structurally new output cone 1."""
    edited = circuit.copy()
    root = edited.outputs[1]
    n1 = edited.add_gate(INV, [root], output="__edit0")
    edited.replace_output(1, edited.add_gate(INV, [n1], output="__edit1"))
    return edited


CIRCUITS = {
    "passing": build_two_sort,
    "inverted": _inverted_output,
    "swapped": _swapped_outputs,
    "const-passing": _const_passing,
    "const-failing": _const_failing,
}


# ----------------------------------------------------------------------
# Closed-form masks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("width", range(1, 13))
def test_closed_form_masks_match_enumerated_strings(width):
    m0 = [0] * width
    m1 = [0] * width
    for i, word in enumerate(all_valid_strings(width)):
        for b, t in enumerate(word):
            if t is not Trit.ONE:
                m0[b] |= 1 << i
            if t is not Trit.ZERO:
                m1[b] |= 1 << i
    assert _string_bit_masks(width) == (tuple(m0), tuple(m1))


# ----------------------------------------------------------------------
# The primitive: native against the bigint default
# ----------------------------------------------------------------------
def _sample_shards(width, size):
    shards = pair_shards(width, size)
    if len(shards) <= 6:
        return shards
    mid = len(shards) // 2
    return shards[:2] + shards[mid : mid + 2] + shards[-2:]


@needs_kernel
@pytest.mark.parametrize("width", range(1, 11))
@pytest.mark.parametrize("name", ["passing", "inverted", "const-failing"])
def test_primitive_matches_bigint_default(width, name):
    """Diff planes and counts equal the reference on sampled shards of
    every size, B <= 4 included (one lane word spans several g rows)."""
    circuit = CIRCUITS[name](width)
    ref = compile_circuit(circuit, BigIntBackend())
    prog = compile_circuit(circuit, NATIVE)
    masks = _string_bit_masks(width)
    S = (1 << (width + 1)) - 1
    pairs = _two_sort_select_pairs(width)
    sizes = (1, 63, 64, 4099, NATIVE.preferred_shard_lanes)
    total = 0
    for g_lo, g_hi in {s for size in sizes for s in _sample_shards(width, size)}:
        lanes = (g_hi - g_lo) * S
        want_diff, want = ref.run_rank_range_diff(masks, S, g_lo, g_hi, pairs)
        got_diff, got = prog.run_rank_range_diff(masks, S, g_lo, g_hi, pairs)
        assert got == want, (g_lo, g_hi)
        assert NATIVE.to_bytes(got_diff, lanes) == ref.backend.to_bytes(
            want_diff, lanes
        ), (g_lo, g_hi)
        total += want
    assert (total == 0) == (name == "passing")


@needs_kernel
def test_primitive_single_output_compare():
    """The region-shard shape: one compared output, min-side selection."""
    width = 5
    circuit = _const_failing(width)
    S = (1 << (width + 1)) - 1
    masks = _string_bit_masks(width)
    for out in range(2 * width):
        cone = circuit.extract_cone(out)
        b = out % width
        pair = ((0, b, width + b) if out < width else (0, width + b, b),)
        want = compile_circuit(cone, "bigint").run_rank_range_diff(
            masks, S, 3, 17, pair
        )[1]
        got = compile_circuit(cone, NATIVE).run_rank_range_diff(
            masks, S, 3, 17, pair
        )[1]
        assert got == want, out


def _random_rank_range_case(rng, width, n_ops=20):
    """A random SSA program over 2*width input slots and two constant
    slots, compared on random slots -- one of them never written, which
    must read as all-zero planes.  Most programs leave some inputs
    unread."""
    from repro.backends.base import OP_AND, OP_BUF, OP_INV, OP_OR, OP_XOR

    n_in = 2 * width
    consts = [(n_in, 0), (n_in + 1, 1)]
    ops = []
    written = n_in + 2
    for _ in range(n_ops):
        op = rng.choice([OP_AND, OP_OR, OP_INV, OP_XOR, OP_BUF])
        a = rng.randrange(written)
        b = rng.randrange(written) if op not in (OP_INV, OP_BUF) else 0
        ops.append((op, written, a, b))
        written += 1
    cmp = [
        (rng.randrange(n_in + 2, written), rng.randrange(n_in), rng.randrange(n_in))
        for _ in range(3)
    ]
    cmp.append((written, 0, n_in - 1))
    return tuple(ops), written + 1, consts, cmp


@needs_kernel
@pytest.mark.parametrize("width", [1, 2, 3, 6])
def test_random_programs_match_bigint_default(width):
    """Constant slots, zero-filled slots and unread inputs, handled in
    the kernel, against the reference semantics."""
    rng = random.Random(20180 + width)
    masks = _string_bit_masks(width)
    S = (1 << (width + 1)) - 1
    ref = BigIntBackend()
    for trial in range(8):
        ops, n_slots, consts, cmp = _random_rank_range_case(rng, width)
        g_lo = rng.randrange(S)
        g_hi = rng.randrange(g_lo, S) + 1
        lanes = (g_hi - g_lo) * S
        args = (ops, n_slots, range(2 * width), consts, cmp, masks, S, g_lo, g_hi)
        want_diff, want = ref.run_ops_rank_range(*args)
        got_diff, got = NATIVE.run_ops_rank_range(*args)
        assert got == want, trial
        assert NATIVE.to_bytes(got_diff, lanes) == ref.to_bytes(
            want_diff, lanes
        ), trial


def test_base_default_is_the_select_diff_path():
    """The default primitive equals structured packing + select-diff."""
    from repro.backends.base import pair_product_planes

    width, g_lo, g_hi = 3, 2, 9
    be = BigIntBackend()
    program = compile_circuit(_inverted_output(width), be)
    masks = _string_bit_masks(width)
    S = (1 << (width + 1)) - 1
    planes, lanes = pair_product_planes(be, masks, S, g_lo, g_hi)
    sel = be.from_prefix_runs(g_lo + 1, S, lanes)
    want = program.run_select_diff(
        planes, lanes, sel, be.bnot(sel, lanes), _two_sort_select_pairs(width)
    )
    got = PlaneBackend.run_ops_rank_range(
        be,
        program.ops,
        program.n_slots,
        program.input_slots,
        [],
        [
            (program.output_slots[o], a, b)
            for o, a, b in _two_sort_select_pairs(width)
        ],
        masks,
        S,
        g_lo,
        g_hi,
    )
    assert got == want


def test_rank_range_rejects_wrong_width():
    program = compile_circuit(build_two_sort(3), "bigint")
    with pytest.raises(ValueError, match="inputs"):
        program.run_rank_range_diff(_string_bit_masks(4), 31, 0, 1, ())


# ----------------------------------------------------------------------
# Full and region sweeps: byte-identical reports
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(CIRCUITS))
@pytest.mark.parametrize("width", [1, 2, 4, 5])
def test_full_sweep_reports_identical(name, width):
    circuit = CIRCUITS[name](width)
    ref = verify_two_sort_sharded(circuit, width, jobs=1, backend="bigint")
    for shard_size in (None, 1, 63, 64, 4099):
        out = verify_two_sort_sharded(
            circuit, width, jobs=1, shard_size=shard_size, backend="native"
        )
        assert out.to_json() == ref.to_json(), shard_size
    assert ref.ok == name.endswith("passing")
    if not ref.ok and width >= 4:
        assert ref.truncated and len(ref.failures) == 20


@pytest.mark.parametrize("name", ["passing", "inverted"])
def test_full_sweep_reports_identical_across_jobs(name):
    circuit = CIRCUITS[name](5)
    ref = verify_two_sort_sharded(circuit, 5, jobs=1, backend="bigint")
    out = verify_two_sort_sharded(
        circuit, 5, jobs=2, executor="process", backend="native"
    )
    assert out.to_json() == ref.to_json()


@pytest.mark.parametrize("name", ["passing", "const-failing"])
def test_region_sweeps_identical_on_sqlite(tmp_path, name):
    """Cold, warm and one-gate-edit sweeps through a sqlite store."""
    width = 4
    circuit = CIRCUITS[name](width)
    edited = _one_gate_edit(circuit)
    reports = {}
    for backend in ("bigint", "native"):
        store = open_store("sqlite:" + str(tmp_path / f"{backend}.db"))
        try:
            reports[backend] = [
                verify_two_sort_sharded(
                    c, width, jobs=1, shard_size=64, backend=backend, store=store
                ).to_json()
                for c in (circuit, circuit, edited)
            ]
        finally:
            store.close()
    assert reports["native"] == reports["bigint"]
    bare = verify_two_sort_sharded(circuit, width, jobs=1, backend="bigint")
    assert reports["bigint"][:2] == [bare.to_json()] * 2


@needs_kernel
def test_passing_sweep_builds_no_word_and_packs_nothing(monkeypatch):
    """The happy path: no valid-string enumeration, no Word, and no
    input, select or mismatch-expectation plane built in Python."""
    import repro.verify.exhaustive as exhaustive
    from repro.ternary.word import Word

    width = 7
    circuit = build_two_sort(width)
    compile_circuit(circuit, NATIVE)
    exhaustive._string_bit_masks.cache_clear()

    def forbidden(*args, **kwargs):
        raise AssertionError("reached on the happy path")

    monkeypatch.setattr(exhaustive, "all_valid_strings", forbidden)
    monkeypatch.setattr(exhaustive, "_shard_input_planes", forbidden)
    monkeypatch.setattr(Word, "__init__", forbidden)
    impl = type(NATIVE._resolve())
    for name in (
        "from_pattern",
        "expand_bits",
        "from_prefix_runs",
        "from_int",
        "run_ops_select_diff",
    ):
        monkeypatch.setattr(impl, name, forbidden)
    result = verify_two_sort_sharded(circuit, width, jobs=1, backend="native")
    assert result.ok and result.checked == ((1 << (width + 1)) - 1) ** 2


# ----------------------------------------------------------------------
# Failing sweeps decode only the lanes the report keeps
# ----------------------------------------------------------------------
def _decode_every_lane(circuit, width):
    """The report built by decoding every pair against the closure."""
    program = compile_circuit(circuit, "bigint")
    pairs = list(valid_pairs(width))
    outputs = program.evaluate_batch([list(g) + list(h) for g, h in pairs])
    result = VerificationResult(checked=len(pairs))
    for (g, h), out in zip(pairs, outputs):
        want = two_sort_closure(g, h)
        if (out[:width], out[width:]) != want:
            result.record(
                f"({g}, {h}): got {out[:width]}/{out[width:]}, "
                f"want {want[0]}/{want[1]}"
            )
    return result


@pytest.mark.parametrize(
    "name, width",
    [
        (name, width)
        for name in ("inverted", "swapped", "const-failing")
        for width in (2, 4)
    ]
    + [("inverted", 6)],
)
def test_failing_report_equals_full_decode(name, width):
    circuit = CIRCUITS[name](width)
    want = _decode_every_lane(circuit, width).to_json()
    assert verify_two_sort_circuit(circuit, width).to_json() == want
    for backend in ("bigint", "native"):
        got = verify_two_sort_sharded(circuit, width, jobs=1, backend=backend)
        assert got.to_json() == want, backend


@pytest.mark.parametrize("backend", ["bigint", "native"])
def test_broken_b8_sweep_is_fast(backend):
    """260k mismatching lanes cost one popcount, not 260k decodes."""
    circuit = _inverted_output(8)
    start = time.perf_counter()
    result = verify_two_sort_sharded(circuit, 8, jobs=1, backend=backend)
    elapsed = time.perf_counter() - start
    assert result.failure_count == 260610
    assert result.truncated and len(result.failures) == 20
    assert elapsed < 2.0, elapsed


# ----------------------------------------------------------------------
# Kernel ABI
# ----------------------------------------------------------------------
def _abi_of(path):
    return ctypes.CDLL(path).repro_kernel_abi()


@needs_kernel
def test_cached_build_of_another_abi_is_refused_and_rebuilt(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    cc = _kernel._find_compiler()
    with open(_kernel._SOURCE_PATH, encoding="utf-8") as fh:
        source = fh.read()
    cached = _kernel._artifact_path(source, cc)
    os.makedirs(os.path.dirname(cached))
    stale_src = tmp_path / "stale.c"
    stale_src.write_text("int repro_kernel_abi(void) { return 2; }\n")
    subprocess.run(
        [cc, "-shared", "-fPIC", "-o", cached, str(stale_src)], check=True
    )
    # Read the planted build's ABI through a copy: the loader must be
    # the first to dlopen the cached path itself.
    probe = str(tmp_path / "probe-stale.so")
    shutil.copyfile(cached, probe)
    assert _abi_of(probe) == 2
    _kernel._reset_for_tests()
    try:
        lib = _kernel.load_kernel()
        assert lib is not None, _kernel.load_failure_reason()
        assert lib.repro_kernel_abi() == _kernel._KERNEL_ABI == 3
        healed = str(tmp_path / "probe-healed.so")
        shutil.copyfile(cached, healed)
        assert _abi_of(healed) == 3
    finally:
        _kernel._reset_for_tests()


def _fake_compiler(path, body):
    path.write_text(body)
    path.chmod(0o755)
    return str(path)


def test_compiler_identity_keys_on_the_compiler_file(tmp_path):
    """Different compiler files -- a switch, an upgrade in place, or a
    $CC wrapper -- get different artifact paths."""
    source = "int x;\n"
    a = _fake_compiler(tmp_path / "cc-a", "#!/bin/sh\nexec cc \"$@\"\n")
    b = _fake_compiler(tmp_path / "cc-b", "#!/bin/sh\nexec cc -g \"$@\"\n")
    path_a = _kernel._artifact_path(source, a)
    assert _kernel._artifact_path(source, a) == path_a  # stable
    assert _kernel._artifact_path(source, b) != path_a
    # Same path, new contents and mtime: an upgraded compiler rebuilds.
    _fake_compiler(tmp_path / "cc-a", "#!/bin/sh\nexec cc -O0 \"$@\"\n")
    os.utime(a, ns=(1, 1))
    assert _kernel._artifact_path(source, a) != path_a
    # A symlink to a compiler is that compiler.
    link = tmp_path / "cc-link"
    link.symlink_to(b)
    assert _kernel._artifact_path(source, str(link)) == _kernel._artifact_path(
        source, b
    )


@needs_kernel
def test_warm_kernel_load_starts_no_subprocess(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    _kernel._reset_for_tests()
    try:
        assert _kernel.load_kernel() is not None  # cold: builds
        _kernel._reset_for_tests()

        def no_subprocess(*args, **kwargs):
            raise AssertionError(f"subprocess started: {args!r}")

        monkeypatch.setattr(subprocess, "run", no_subprocess)
        monkeypatch.setattr(subprocess, "Popen", no_subprocess)
        lib = _kernel.load_kernel()
        assert lib is not None, _kernel.load_failure_reason()
    finally:
        _kernel._reset_for_tests()
