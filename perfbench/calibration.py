"""A fixed pure-Python loop that measures how fast the host runs right now.

On a shared virtual machine the same code runs up to twice as slow from
one second to the next (other tenants on the same cores), and neither
longer runs nor medians of whole runs remove that.  The harness therefore
times this loop between ops, and the gated op time is each op's wall
time divided by the mean of the loop times just before and just after it
(``op_p50_cal``, in units of one loop).  The raw wall time is still
printed.

The loop never changes, so a change to the program moves the ratio only
through the op.  It allocates nothing: a loop that allocates runs slower
right after a CLI child exits (fresh pages), which the op never saw.
"""

from __future__ import annotations

import time

#: Starts the stderr line on which a ``clicall.py`` child reports its passes.
MARK = "perfbench-calibration"

#: Passes over the table; one loop takes ~7 ms on a 2-vCPU Xeon VM.
ROUNDS = 120

_KEYS = [str(i) for i in range(512)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def loop_seconds() -> float:
    """Wall time of one pass of the calibration loop."""
    keys, table = _KEYS, _TABLE
    start = time.perf_counter()
    acc = 0
    for _ in range(ROUNDS):
        for key in keys:
            acc += table[key] ^ (acc & 255)
    return time.perf_counter() - start
