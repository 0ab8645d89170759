"""``python -m repro ARGS...`` between two calibration passes, in one process.

    python3 perfbench/clicall.py verify --width 12

Runs the ``repro`` package as ``__main__`` as ``python -m repro`` does,
with the calibration loop (``calibration.py``) timed once before and once
after it in the same process, so the passes see the vCPU the CLI ran on.
The CLI's stdout and exit code are passed through; stderr gets one more
line, ``perfbench-calibration <first_s> <last_s>``.
"""

import os
import sys

import calibration  # sys.path[0] is this directory

# From here on, the import path is the one ``python -m`` gives.
sys.path[0] = os.getcwd()

import runpy  # noqa: E402


def main() -> int:
    first = calibration.loop_seconds()
    sys.argv = ["repro"] + sys.argv[1:]
    code = 0
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        last = calibration.loop_seconds()
        print(f"{calibration.MARK} {first!r} {last!r}", file=sys.stderr,
              flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
