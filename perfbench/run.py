"""End-to-end benchmark of the repro CLI, result store and sorting network.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/workloads.py`` for what one op is and how its
output is checked): ``cli_verify_b8``, ``cli_verify_b12``,
``store_edit_b11``, ``sort_batch_b16``.

Each run first measures set-up (``setup_s``: a fresh process that imports
``repro``, resolves the ``auto`` plane backend against an empty private
kernel cache, and builds and compiles 2-sort(B)) several times, prepares
and checks one warm-up op, then loops ops for ``--seconds`` (and at least
until the tail percentile exists).  The gated op time, ``op_p50_cal``, is
the median over ops of the op's wall time divided by a fixed calibration
loop timed in the op's own process just before and just after it
(``calibration.py``); the wall time itself is a printed line.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half with the layer entry points wrapped, and reports
the per-layer split (see ``perfbench/tracing.py``).  Human-readable lines
with units and sample counts come first; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The spans of a
traced run are written to ``.perfbench_work/trace-<workload>.json``.

Everything the run writes (bytecode aside) lives under ``.perfbench_work``
in the repository root and is removed at exit, except the trace file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibration  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(workloads.WHY)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Environment variables that change which program runs.
ISOLATED_ENV = ("REPRO_PLANE_BACKEND", "REPRO_NO_NATIVE")

#: Minimum ops in each half of a traced run.
TRACE_MIN_OPS = 3

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("op_p50_cal", "cal"),
    ("peak_rss_mb", "MB"),
]

#: Per-layer metrics and their units.  Setup-scoped ones (kernel build,
#: resolve, build_two_sort, compile, program ops, ``import.repro_s``) come
#: from a traced set-up probe; ``*_op_s`` and the rest are per-op means
#: over the traced ops; ``store.*_sweep_p50_s`` and ``cli.child_cpu_s``
#: come from the untraced half of the run.
PER_LAYER: List[Tuple[str, str]] = [
    ("import.repro_s", "s"),
    ("import.modules", "count"),
    ("import.numpy_loaded", "flag"),
    ("import.repro_main_s", "s"),
    ("import.main_modules", "count"),
    ("graycode.valid_strings_s", "s"),
    ("backends.kernel_build_s", "s"),
    ("backends.resolve_s", "s"),
    ("backends.auto_is_native", "flag"),
    ("backends.resolve_op_s", "s"),
    ("core.build_two_sort_s", "s"),
    ("core.build_two_sort_op_s", "s"),
    ("circuits.compile_s", "s"),
    ("circuits.compile_op_s", "s"),
    ("circuits.program_ops", "count"),
    ("circuits.run_select_diff_s", "s"),
    ("circuits.run_select_diff_calls", "count"),
    ("verify.shard_s", "s"),
    ("verify.shard_self_s", "s"),
    ("verify.shards", "count"),
    ("verify.region_shard_s", "s"),
    ("verify.region_shards", "count"),
    ("parallel.sweep_s", "s"),
    ("parallel.self_s", "s"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.claim_s", "s"),
    ("store.gets", "count"),
    ("store.puts", "count"),
    ("store.claims", "count"),
    ("store.hits", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.executed_shards", "count"),
    ("store.total_shards", "count"),
    ("store.region_hash_s", "s"),
    ("store.cold_sweep_p50_s", "s"),
    ("store.warm_sweep_p50_s", "s"),
    ("store.edit_sweep_p50_s", "s"),
    ("networks.pack_s", "s"),
    ("networks.kernel_s", "s"),
    ("networks.kernel_calls", "count"),
    ("networks.unpack_s", "s"),
    ("networks.self_s", "s"),
    ("cli.child_cpu_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
]

#: Per-op span aggregates: metric -> (span name, "total" | "self" | "count").
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "graycode.valid_strings_s": ("graycode.all_valid_strings", "total"),
    "backends.resolve_op_s": ("backends.resolve", "total"),
    "core.build_two_sort_op_s": ("core.build_two_sort", "total"),
    "circuits.compile_op_s": ("circuits.compile", "total"),
    "circuits.run_select_diff_s": ("circuits.run_select_diff", "total"),
    "circuits.run_select_diff_calls": ("circuits.run_select_diff", "count"),
    "verify.shard_s": ("verify.shard", "total"),
    "verify.shard_self_s": ("verify.shard", "self"),
    "verify.shards": ("verify.shard", "count"),
    "verify.region_shard_s": ("verify.region_shard", "total"),
    "verify.region_shards": ("verify.region_shard", "count"),
    "parallel.sweep_s": ("parallel.sweep", "total"),
    "parallel.self_s": ("parallel.sweep", "self"),
    "store.get_s": ("store.get", "total"),
    "store.put_s": ("store.put", "total"),
    "store.claim_s": ("store.claim", "total"),
    "store.gets": ("store.get", "count"),
    "store.puts": ("store.put", "count"),
    "store.claims": ("store.claim", "count"),
    "store.region_hash_s": ("store.region_hashes", "total"),
    "networks.pack_s": ("networks.from_trits", "total"),
    "networks.kernel_s": ("networks.run_tritvecs", "total"),
    "networks.kernel_calls": ("networks.run_tritvecs", "count"),
    "networks.unpack_s": ("networks.to_trits", "total"),
    "networks.self_s": ("networks.sort_batch", "self"),
    "import.repro_main_s": ("import.repro_main", "total"),
}


class Tally:
    """Attempted and failed ops; a failure never aborts the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, op: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
        self.attempted += 1
        start = time.perf_counter()
        try:
            res = op()
        except Exception:  # the loop must go on; the failure is counted
            traceback.print_exc(file=sys.stderr)
            res = {"seconds": time.perf_counter() - start, "ok": False}
        if not res["ok"]:
            self.failed += 1
            print(f"perfbench: op {self.attempted} failed its check",
                  file=sys.stderr)
        return res

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def loop(
    tally: Tally, op: Callable[[], Dict[str, Any]], seconds: float,
    min_ops: int, calibrate: bool = False,
) -> List[Dict[str, Any]]:
    """Closed loop: ops back to back for ``seconds`` and ``min_ops``.

    With ``calibrate``, the calibration loop runs before the first op and
    after every op, and each result's ``cal_s`` is the mean of the two
    passes around it, unless the op timed its own (a CLI child does, in
    its own process; see ``clicall.py``).
    """
    results: List[Dict[str, Any]] = []
    start = time.perf_counter()
    if calibrate:
        calibration.loop_seconds()  # the first pass after a pause runs slow
        before = calibration.loop_seconds()
    while time.perf_counter() - start < seconds or len(results) < min_ops:
        res = tally.run(op)
        if calibrate:
            after = calibration.loop_seconds()
            res.setdefault("cal_s", (before + after) / 2.0)
            before = after
        results.append(res)
    return results


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def measure_setup(
    ctx: workloads.Context, width: int, cache: str, trace: bool
) -> Tuple[float, Dict[str, Any]]:
    """One fresh-process set-up with an empty kernel cache at ``cache``."""
    os.makedirs(cache)
    cmd = [sys.executable, ctx.probe, "setup", "--width", str(width)]
    if trace:
        cmd.append("--trace")
    err_path = os.path.join(ctx.workdir, "setup.stderr")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err,
            env=ctx.child_env(cache), cwd=ctx.root, text=True,
        )
        with proc:
            first = proc.stdout.readline()
            seconds = time.perf_counter() - start
            rest = proc.stdout.read()
        code = proc.returncode
    if code != 0 or not first.startswith("READY "):
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read())
        raise RuntimeError(f"set-up probe exited {code}")
    return seconds, json.loads(rest.splitlines()[-1])


def warm_bytecode(ctx: workloads.Context) -> None:
    """Import everything once so no timed process compiles bytecode."""
    subprocess.run(
        [sys.executable, "-c", "import repro.__main__, repro.store"],
        env=ctx.child_env(), cwd=ctx.root, check=True,
        stdout=subprocess.DEVNULL,
    )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(
    setup_times: List[float], ops: List[Dict[str, Any]], peak_rss_mb: float
) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_cal": statistics.median(r["seconds"] / r["cal_s"] for r in ops),
        "peak_rss_mb": peak_rss_mb,
    }


def span_metrics(
    span_lists: List[List[tracing.Span]], op_seconds: List[float]
) -> Dict[str, float]:
    """Per-op means of the span aggregates, and ``trace.unaccounted_s``."""
    totals: Dict[str, Dict[str, float]] = {}
    top = 0.0
    for spans in span_lists:
        rows, t = tracing.layer_totals(spans)
        top += t
        for name, row in rows.items():
            acc = totals.setdefault(name, {"total": 0.0, "self": 0.0, "count": 0})
            for key in acc:
                acc[key] += row[key]
    n = len(op_seconds)
    out = {
        metric: totals.get(span, {}).get(field, 0.0) / n
        for metric, (span, field) in SPAN_METRICS.items()
    }
    out["trace.unaccounted_s"] = (sum(op_seconds) - top) / n
    return out


def per_layer(
    wl, setup_info: Dict[str, Any], untraced: List[Dict[str, Any]],
    traced: List[Dict[str, Any]], tracer: Optional[tracing.Tracer],
) -> Dict[str, float]:
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    setup_rows, _top = tracing.layer_totals(setup_info["spans"])
    metrics.update({
        "import.repro_s": setup_info["import_s"],
        "import.modules": setup_info["modules"],
        "import.numpy_loaded": float(setup_info["numpy"]),
        "backends.kernel_build_s": setup_rows["backends.load_kernel"]["total"],
        "backends.resolve_s": setup_rows["backends.resolve"]["total"],
        "backends.auto_is_native": float(setup_info["auto"] == "native"),
        "core.build_two_sort_s": setup_rows["core.build_two_sort"]["total"],
        "circuits.compile_s": setup_rows["circuits.compile"]["total"],
        "circuits.program_ops": setup_info["program_ops"],
    })
    # Only checked-good ops count: a failed op may lack its spans.
    traced = [r for r in traced if r["ok"]]
    untraced = [r for r in untraced if r["ok"]]
    if not traced or not untraced:
        return metrics
    op_seconds = [r["seconds"] for r in traced]
    if wl.kind == "cli":
        metrics.update(span_metrics([r["spans"] for r in traced], op_seconds))
        metrics["import.main_modules"] = statistics.mean(
            r["modules"] for r in traced
        )
        metrics["cli.child_cpu_s"] = statistics.mean(r["cpu_s"] for r in untraced)
    else:
        good = {r["op"] for r in traced}
        spans = [sp for sp in tracer.export() if sp[4] in good]
        metrics.update(span_metrics([spans], op_seconds))
    if isinstance(wl, workloads.StoreEdit):
        # Hits as the store itself counts them (its counters() deltas).
        metrics["store.hits"] = statistics.mean(r["hits"] for r in traced)
        if metrics["store.gets"]:
            metrics["store.hit_ratio"] = (
                metrics["store.hits"] / metrics["store.gets"]
            )
        # Every missed key is one executed region shard.
        metrics["store.executed_shards"] = statistics.median(
            [r["executed"] for r in untraced]
        )
        metrics["store.total_shards"] = 3 * statistics.median(
            [r["keys"] for r in untraced]
        )
        for phase in wl.phases:
            metrics[f"store.{phase}_sweep_p50_s"] = statistics.median(
                [r[f"{phase}_s"] for r in untraced]
            )
    metrics["trace.overhead_s"] = statistics.median(op_seconds) - statistics.median(
        [r["seconds"] for r in untraced]
    )
    return metrics


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def peak_rss_reset() -> None:
    """Reset this process's peak-RSS mark where the kernel allows it."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def proc_status_mb(field: str) -> Optional[float]:
    """``VmHWM`` (peak) or ``VmRSS`` (current) of this process, in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    peak = proc_status_mb("VmHWM")
    if peak is not None:
        return peak
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, root: str, workdir: str) -> Dict[str, Any]:
    wl = workloads.make(args.workload)
    caches = [os.path.join(workdir, f"kernel-cache-{i}") for i in range(SETUP_REPEATS)]
    ctx = workloads.Context(root, workdir, native_cache=caches[-1])
    warm_bytecode(ctx)

    setup_times = []
    setup_info: Dict[str, Any] = {}
    for cache in caches[-1:] if args.trace else caches:
        seconds, setup_info = measure_setup(ctx, wl.width, cache, args.trace)
        setup_times.append(seconds)

    if wl.kind == "inproc":
        # The op runs in this process, on the kernel the last set-up built.
        os.environ["REPRO_NATIVE_CACHE"] = ctx.native_cache
        sys.path.insert(0, os.path.join(root, "src"))
    wl.prepare(ctx, args.seed)
    tally = Tally()
    tally.run(wl.op)  # warm-up: fills caches, checked like any op

    info = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "why": workloads.WHY[wl.name],
        "auto_backend": setup_info["auto"],
        "fallback_reason": setup_info["fallback_reason"],
        "compiler": setup_info["compiler"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    if not args.trace:
        peak_rss_reset()
        # In-process workloads: what the harness and the prepared inputs
        # and references already hold, before the first timed op.
        info["rss_floor_mb"] = proc_status_mb("VmRSS")
        ops = loop(
            tally, wl.op, args.seconds, stats.MIN_SAMPLES, calibrate=True
        )
        if wl.kind == "cli":
            rss = max(r.get("rss_mb", 0.0) for r in ops)
        else:
            rss = peak_rss_mb()
        metrics = end_to_end(setup_times, ops, rss)
        report_end_to_end(info, wl, metrics, setup_times, ops, tally)
        units = dict(END_TO_END)
    else:
        half = args.seconds / 2.0
        untraced = loop(tally, wl.op, half, TRACE_MIN_OPS)
        tracer = None
        if wl.kind == "cli":
            traced = loop(tally, lambda: wl.op(tracer=True), half, TRACE_MIN_OPS)
        else:
            tracer = tracing.Tracer()
            tracing.install_program_wrappers(tracer)
            tracer.active = False
            def traced_op() -> Dict[str, Any]:
                tracer.op += 1
                res = wl.op(tracer=tracer)
                res["op"] = tracer.op
                return res

            try:
                traced = loop(tally, traced_op, half, TRACE_MIN_OPS)
            finally:
                tracer.uninstall()
        metrics = per_layer(wl, setup_info, untraced, traced, tracer)
        write_trace(root, wl, setup_info, traced, tracer)
        report_per_layer(info, metrics, len(untraced), len(traced))
        units = dict(PER_LAYER)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def write_trace(root, wl, setup_info, traced, tracer) -> None:
    if wl.kind == "cli":
        ops = [r["spans"] for r in traced if "spans" in r]
    else:
        ops = [tracer.export()]
    path = os.path.join(root, ".perfbench_work", f"trace-{wl.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"setup": setup_info["spans"], "ops": ops,
             "op_seconds": [r["seconds"] for r in traced]},
            fh,
        )


# ----------------------------------------------------------------------
# Human-readable report (everything before the final JSON line)
# ----------------------------------------------------------------------
def header(info: Dict[str, Any]) -> None:
    print(f"# workload {info['workload']} seed {info['seed']} "
          f"trace {info['trace']}: {info['why']}")
    backend = info["auto_backend"]
    if info["fallback_reason"]:
        backend += f" (FALLBACK: {info['fallback_reason']})"
    print(f"# auto backend -> {backend}; compiler {info['compiler']}; "
          f"nproc {info['nproc']}; python {info['python']}")


def report_end_to_end(info, wl, metrics, setup_times, ops, tally) -> None:
    header(info)
    n = len(ops)
    op_p50_s = statistics.median(r["seconds"] for r in ops)
    tail, pct = stats.tail([r["seconds"] for r in ops])
    tail_note = f"p{pct:.1f}, n={n}, {stats.TAIL_BEYOND} samples beyond"
    if n < stats.TAIL_MIN_SAMPLES:
        tail_note += (f"; below the median, not a tail: needs "
                      f"{stats.TAIL_MIN_SAMPLES} ops")
    if wl.kind == "cli":
        rss_note = "CLI child"
    else:
        floor = info["rss_floor_mb"]
        rss_note = "workload process, peak since the first timed op; " + (
            "resident before it: n/a" if floor is None else
            f"{floor:.1f} MB resident before it (harness, inputs, references)"
        )
    rows = [
        ("setup_s", metrics["setup_s"], "s",
         f"median of {len(setup_times)} set-ups"),
        ("op_p50_cal", metrics["op_p50_cal"], "cal",
         f"n={n} ops; each op / mean calibration loop around it"),
        # Printed only, not in BENCHMARK.json: wall times move with the
        # host's speed (see calibration.py).  A heavy workload fits ~12
        # ops in a run, so its "tail" is the second-fastest op: gating it
        # would follow the best case.  Items per second and the error rate
        # restate op_p50_s and the result line.
        ("op_p50_s", op_p50_s, "s", f"n={n} ops, wall time"),
        ("cal_p50_ms", 1000.0 * statistics.median(r["cal_s"] for r in ops),
         "ms", f"calibration loop, mean of the passes around each op, n={n}"),
        ("op_tail_s", tail, "s", tail_note),
        (f"{wl.item}_per_s", wl.items_per_op / op_p50_s, "1/s",
         f"{wl.items_per_op} {wl.item} per op / op_p50_s"),
        ("error_rate", tally.error_rate, "ratio",
         f"{tally.failed}/{tally.attempted} ops failed (warm-up included)"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", rss_note),
    ]
    if isinstance(wl, workloads.StoreEdit):
        # A failed op may have stopped before it timed every phase.
        good = [r for r in ops if r["ok"]]
        for phase in wl.phases:
            rows.append((
                f"{phase}_sweep_p50_s",
                statistics.median([r[f"{phase}_s"] for r in good])
                if good else None,
                "s", f"n={len(good)} checked-good ops",
            ))
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<22} {shown:>14} {unit:<6} {note}")


def report_per_layer(info, metrics, n_untraced, n_traced) -> None:
    header(info)
    print(f"# {n_untraced} untraced then {n_traced} traced ops; "
          "per-op means unless named p50")
    for name, unit in PER_LAYER:
        print(f"{name:<32} {metrics[name]:>14.6g} {unit}")


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    bad = [var for var in ISOLATED_ENV if var in os.environ]
    if bad:
        print(f"perfbench: unset {', '.join(bad)}: they change which "
              "program is measured", file=sys.stderr)
        return 2

    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        result = run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
