"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]

Runs ``BENCHMARK.json``'s command once per seed with ``--trace 0`` and
its ``run_seconds``, then prints, per metric, the median of the per-run
values and their interquartile range as a share of that median next to
the metric's bound; the printed, ungated wall time ``op_p50_s`` comes
last.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def seeds(text: str) -> List[int]:
    lo, _sep, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seeds)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: Dict[str, List[float]] = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        line = " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
        )
        print(f"seed {seed}: correct={result['correct']} "
              f"{result['failed']}/{result['attempted']} failed; {line}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        # The raw wall time is a printed line, not a gated metric; its
        # spread shows what the calibration ratio takes out.
        for row in proc.stdout.splitlines():
            if row.startswith("op_p50_s "):
                values.setdefault("op_p50_s", []).append(float(row.split()[1]))
    print(f"{'metric':<24} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        share = stats.spread(vals) if len(vals) > 1 else 0.0
        bound = bounds.get(name)
        print(f"{name:<24} {statistics.median(vals):>12.6g} {share:>8.4f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
