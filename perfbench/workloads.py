"""The benchmark's workloads: what one op is, how it is checked, and why.

Every workload is a closed loop with one client: the next op starts
only after the previous one finished and was checked.  An op that
raises, exits non-zero or returns a wrong answer counts as failed; the
loop goes on.

``cli_verify_b8`` / ``cli_verify_b12``
    One op is a fresh ``python -m repro verify --width B`` process with
    default flags, started through ``clicall.py`` so the calibration
    passes run in that process (their time is taken out of the op's).
    Checked: exit code 0 and the exact stdout line.
``store_edit_b11``
    One op is a store cycle in this process: a fresh ``sqlite:`` store,
    then a cold, a warm and an edit sweep of 2-sort(11), each with
    ``jobs=1`` (the CLI default) so every layer runs in the traced
    process.  Checked: each
    report is byte-identical to the sweep without a store, the warm
    sweep writes nothing, and the edit sweep re-executes exactly the
    shards of output cone 3.
``sort_batch_b16``
    One op is ``sort_words_batch(SORT10_SIZE, batch, backend="auto")``
    on 512 vectors of ten 16-bit readings made from the seed (a ~0.2 s
    op, short enough that the calibration passes around it see the same
    host speed it did; see ``calibration.py``).
    Checked against ``sort_words(..., engine="rank")``, computed once
    per run before timing.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

import calibration
import tracing

WHY = {
    "cli_verify_b8": (
        "the common user call: a fresh CLI process per request, where "
        "importing repro dominates and the ~1 ms kernel does not"
    ),
    "cli_verify_b12": (
        "67M pairs per CLI call: valid strings, plane packing and the "
        "kernel dominate; the only workload where kernel speed shows"
    ),
    "store_edit_b11": (
        "cold/warm/edit sweeps on one sqlite store: writes, then reads, "
        "then an incremental cone re-run through many small programs"
    ),
    "sort_batch_b16": (
        "the paper's 10-channel 16-bit sorting network on 512 vectors, "
        "~40% metastable: TritVec pack/unpack and Word building dominate"
    ),
}


def pairs(width: int) -> int:
    """Number of valid-string pairs a 2-sort(width) sweep checks."""
    return ((1 << (width + 1)) - 1) ** 2


def expected_cli_line(width: int) -> str:
    return f"2-sort({width}) vs closure spec: {pairs(width)} cases checked: OK\n"


def check_cli_output(width: int, code: int, stdout: str) -> bool:
    return code == 0 and stdout == expected_cli_line(width)


class Context:
    """What every workload needs: paths, run length, and the child env."""

    def __init__(self, root: str, workdir: str, native_cache: str) -> None:
        self.root = root
        self.workdir = workdir
        self.native_cache = native_cache
        self.probe = os.path.join(root, "perfbench", "probe.py")
        self.clicall = os.path.join(root, "perfbench", "clicall.py")

    def child_env(self, native_cache: Optional[str] = None) -> Dict[str, str]:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        old = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        env["REPRO_NATIVE_CACHE"] = native_cache or self.native_cache
        # Users' repeated CLI calls reuse cached bytecode; so do ours.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        return env


#: A child still running after this many seconds is killed (a failed op),
#: so a hung program cannot keep the run from ending.
CHILD_TIMEOUT_S = 120.0


def run_child(ctx: Context, cmd: List[str], env: Dict[str, str]) -> Dict[str, Any]:
    """Run one child to completion; wall time, exit code, output, rusage."""
    err_path = os.path.join(ctx.workdir, "child.stderr")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ctx.root
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _pid, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
            watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return {
        "seconds": end - start,
        "code": proc.returncode,
        "stdout": out.decode("utf-8", "replace"),
        "stderr": stderr,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def child_calibration(res: Dict[str, Any]) -> None:
    """Move the calibration passes a ``clicall.py`` child reported out of
    its wall time and into ``cal_s`` (their mean).

    A child that died before reporting them gets no ``cal_s``; the
    harness then uses its own passes around the op.
    """
    for line in res["stderr"].splitlines():
        if line.startswith(calibration.MARK + " "):
            passes = [float(x) for x in line.split()[1:3]]
            res["seconds"] -= sum(passes)
            res["cal_s"] = sum(passes) / 2.0


# ----------------------------------------------------------------------
# CLI workloads
# ----------------------------------------------------------------------
class CliVerify:
    kind = "cli"
    item = "pairs"

    def __init__(self, name: str, width: int) -> None:
        self.name = name
        self.width = width
        self.items_per_op = pairs(width)

    def prepare(self, ctx: Context, seed: int) -> None:
        self.ctx = ctx

    def op(self, tracer=None) -> Dict[str, Any]:
        ctx = self.ctx
        if tracer is None:
            cmd = [sys.executable, ctx.clicall, "verify", "--width", str(self.width)]
            res = run_child(ctx, cmd, ctx.child_env())
            res["ok"] = check_cli_output(self.width, res["code"], res["stdout"])
            child_calibration(res)
            return res
        cmd = [sys.executable, ctx.probe, "cli", "--width", str(self.width)]
        res = run_child(ctx, cmd, ctx.child_env())
        report = json.loads(res["stdout"].splitlines()[-1])
        res.update(
            ok=check_cli_output(self.width, res["code"], report["stdout"])
            and report["exit"] == res["code"],
            spans=report["spans"],
            modules=report["modules"],
            numpy=report["numpy"],
        )
        return res


# ----------------------------------------------------------------------
# Store re-verification
# ----------------------------------------------------------------------
EDITED_OUTPUT = 3


def splice_identity(circuit):
    """A copy of ``circuit`` with a double inverter on output 3.

    Functionally the identity, structurally a new netlist whose only
    changed region is output cone 3.
    """
    from repro.circuits.gates import INV

    edited = circuit.copy()
    root = edited.outputs[EDITED_OUTPUT]
    n1 = edited.add_gate(INV, [root], output="__perfbench_inv0")
    n2 = edited.add_gate(INV, [n1], output="__perfbench_inv1")
    edited.replace_output(EDITED_OUTPUT, n2)
    return edited


class StoreEdit:
    kind = "inproc"
    item = "pairs"
    width = 11
    name = "store_edit_b11"
    phases = ("cold", "warm", "edit")

    def __init__(self) -> None:
        # Three sweeps of the full pair domain per cycle.
        self.items_per_op = 3 * pairs(self.width)

    def prepare(self, ctx: Context, seed: int) -> None:
        from repro import build_two_sort, compile_circuit
        from repro.verify.parallel import verify_two_sort_sharded

        self.ctx = ctx
        self.base = build_two_sort(self.width)
        compile_circuit(self.base, "auto")
        bare = verify_two_sort_sharded(
            self.base, self.width, jobs=1, backend="auto"
        )
        self.reference = bare.to_json()
        bare_edit = verify_two_sort_sharded(
            splice_identity(self.base), self.width, jobs=1, backend="auto"
        )
        self.reference_edit = bare_edit.to_json()
        self.outputs = len(self.base.outputs)

    def op(self, tracer=None) -> Dict[str, Any]:
        from repro.store import open_store
        from repro.verify.parallel import verify_two_sort_sharded

        edited = splice_identity(self.base)
        cycle_dir = tempfile.mkdtemp(prefix="store-", dir=self.ctx.workdir)
        spec = "sqlite:" + os.path.join(cycle_dir, "store.db")
        reports, deltas, times = [], [], []
        store = None
        try:
            with tracing.recording(tracer):
                start = time.perf_counter()
                with tracing.span(tracer, "store.open"):
                    store = open_store(spec)
                for circuit in (self.base, self.base, edited):
                    before = store.counters()
                    t0 = time.perf_counter()
                    reports.append(verify_two_sort_sharded(
                        circuit, self.width, jobs=1, backend="auto",
                        store=store,
                    ))
                    times.append(time.perf_counter() - t0)
                    after = store.counters()
                    deltas.append({
                        k: after[k] - before[k] for k in ("hits", "misses", "puts")
                    })
                seconds = time.perf_counter() - start
            ok = self.check(store, edited, reports, deltas)
        finally:
            if store is not None:
                store.close()
            shutil.rmtree(cycle_dir, ignore_errors=True)
        res: Dict[str, Any] = {"seconds": seconds, "ok": ok}
        res.update({f"{p}_s": t for p, t in zip(self.phases, times)})
        res["keys"] = deltas[0]["misses"]
        res["executed"] = sum(d["misses"] for d in deltas)
        res["hits"] = sum(d["hits"] for d in deltas)
        return res

    def check(self, store, edited, reports, deltas) -> bool:
        cold, warm, edit = deltas
        keys = cold["misses"]
        shards, rem = divmod(keys, self.outputs)
        edited_keys = list(
            store.scan((edited.name, edited.region_hashes()[EDITED_OUTPUT]))
        )
        return (
            [r.to_json() for r in reports]
            == [self.reference, self.reference, self.reference_edit]
            and keys > 0 and rem == 0
            and cold == {"hits": 0, "misses": keys, "puts": keys}
            and warm == {"hits": keys, "misses": 0, "puts": 0}
            and edit == {"hits": keys - shards, "misses": shards, "puts": shards}
            and len(edited_keys) == shards
        )


# ----------------------------------------------------------------------
# Batched sorting
# ----------------------------------------------------------------------
SORT_WIDTH = 16
SORT_CHANNELS = 10
SORT_VECTORS = 512
METASTABLE_SHARE = 0.4


def reading(value: int, metastable: bool, width: int = SORT_WIDTH) -> str:
    """The valid string of ``value``, or of ``value * value+1`` if in flight.

    Reflected Gray code, most significant bit first; a reading caught
    mid-tick has ``M`` on the one bit where ``rg(value)`` and
    ``rg(value + 1)`` differ.
    """
    gray = value ^ (value >> 1)
    flip = gray ^ ((value + 1) ^ ((value + 1) >> 1)) if metastable else 0
    return "".join(
        "M" if (flip >> (width - 1 - i)) & 1 else str((gray >> (width - 1 - i)) & 1)
        for i in range(width)
    )


def make_batch(seed: int) -> List[List[str]]:
    """512 rounds of 10 TDC readings around a per-round event time.

    As in ``examples/tdc_measurement_sorting.py``: each channel reads the
    true time plus jitter in [-2, 2], and ~40% are caught mid-tick.
    """
    rng = random.Random(seed)
    top = (1 << SORT_WIDTH) - 2  # the last value with a successor
    batch = []
    for _ in range(SORT_VECTORS):
        true_time = rng.randint(0, top)
        batch.append([
            reading(
                max(0, min(top, true_time + rng.randint(-2, 2))),
                rng.random() < METASTABLE_SHARE,
            )
            for _ in range(SORT_CHANNELS)
        ])
    return batch


class SortBatch:
    kind = "inproc"
    item = "vectors"
    width = SORT_WIDTH
    name = "sort_batch_b16"
    items_per_op = SORT_VECTORS

    def prepare(self, ctx: Context, seed: int) -> None:
        from repro import SORT10_SIZE, Word, sort_words

        self.network = SORT10_SIZE
        strings = make_batch(seed)
        self.batch = [[Word(s) for s in vec] for vec in strings]
        self.reference = [
            [str(w) for w in sort_words(SORT10_SIZE, vec, engine="rank")]
            for vec in self.batch
        ]

    def op(self, tracer=None) -> Dict[str, Any]:
        from repro import sort_words_batch

        with tracing.recording(tracer):
            start = time.perf_counter()
            with tracing.span(tracer, "networks.sort_batch"):
                out = sort_words_batch(self.network, self.batch, backend="auto")
            seconds = time.perf_counter() - start
        return {"seconds": seconds, "ok": self.check(out)}

    def check(self, out) -> bool:
        return [[str(w) for w in vec] for vec in out] == self.reference


def make(name: str):
    if name == "cli_verify_b8":
        return CliVerify(name, 8)
    if name == "cli_verify_b12":
        return CliVerify(name, 12)
    if name == "store_edit_b11":
        return StoreEdit()
    if name == "sort_batch_b16":
        return SortBatch()
    raise KeyError(name)
