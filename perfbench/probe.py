"""Child-process entry points of the benchmark.

``python3 perfbench/probe.py setup --width B [--trace]``
    One set-up from a fresh process: ``import repro``, resolve the
    ``auto`` plane backend (with ``REPRO_NATIVE_CACHE`` pointing at an
    empty directory, this builds the C kernel), then ``build_two_sort(B)``
    and ``compile_circuit``.  Prints ``READY <json>`` the moment set-up is
    done -- the parent stops its clock on that line -- and then one more
    JSON line describing the host (backend, compiler, module counts,
    spans when traced).

``python3 perfbench/probe.py cli --width B``
    One traced ``python -m repro verify --width B``: the same ``main()``
    the CLI runs, with the layer entry points wrapped.  The last stdout
    line is JSON with the exit code, the CLI's stdout, and the spans.

Both need ``PYTHONPATH`` to reach the repository's ``src``.  Only ``sys``
and ``time`` are imported before the timed ``repro`` import, so module
counts are the program's own.
"""

import sys
import time


def _timed_import(module: str):
    before = set(sys.modules)
    start = time.perf_counter()
    __import__(module)
    end = time.perf_counter()
    loaded = len(set(sys.modules) - before)
    return start, end, loaded, "numpy" in sys.modules


def setup(width: int, trace: bool) -> int:
    start, end, loaded, numpy_loaded = _timed_import("repro")
    import repro
    from repro.backends import resolve_backend_name

    tracer = None
    if trace:
        from tracing import Tracer, install_program_wrappers

        tracer = Tracer()
        tracer.spans.append(["import.repro", start, end, -1, 0])
        install_program_wrappers(tracer)
        resolve_backend_name = sys.modules["repro.backends"].resolve_backend_name
    target = resolve_backend_name("auto")
    circuit = repro.build_two_sort(width)
    program = repro.compile_circuit(circuit, "auto")
    print("READY " + str(len(program.ops)), flush=True)

    import json

    from repro.backends import _kernel

    info = {
        "auto": target,
        "fallback_reason": _kernel.load_failure_reason(),
        "compiler": _compiler(_kernel),
        "program_ops": len(program.ops),
        "import_s": end - start,
        "modules": loaded,
        "numpy": numpy_loaded,
    }
    if tracer is not None:
        tracer.uninstall()
        info["spans"] = tracer.export()
    print(json.dumps(info), flush=True)
    return 0


def _compiler(kernel_module) -> str:
    # The kernel loader's own compiler lookup; the helpers are private,
    # so a host where they moved reports "unknown" instead of failing.
    find = getattr(kernel_module, "_find_compiler", None)
    ident = getattr(kernel_module, "_compiler_id", None)
    if find is None or ident is None:
        return "unknown"
    cc = find()
    return ident(cc) if cc else "none"


def cli(width: int) -> int:
    start, end, loaded, numpy_loaded = _timed_import("repro.__main__")
    import contextlib
    import io
    import json

    from tracing import Tracer, install_program_wrappers

    tracer = Tracer()
    tracer.spans.append(["import.repro_main", start, end, -1, 0])
    install_program_wrappers(tracer)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sys.modules["repro.__main__"].main(
            ["verify", "--width", str(width)]
        )
    tracer.uninstall()
    print(json.dumps({
        "exit": code,
        "stdout": out.getvalue(),
        "modules": loaded,
        "numpy": numpy_loaded,
        "spans": tracer.export(),
    }), flush=True)
    return code


def main(argv) -> int:
    # No argparse: it would load modules before the timed import.
    if len(argv) < 3 or argv[0] not in ("setup", "cli") or argv[1] != "--width":
        print(__doc__, file=sys.stderr)
        return 2
    width = int(argv[2])
    if argv[0] == "setup":
        return setup(width, "--trace" in argv[3:])
    return cli(width)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
