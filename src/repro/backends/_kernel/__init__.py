"""Build-on-first-use loader for the native plane kernel.

The kernel is a single C file (``kernel.c``) compiled to a shared library
with whatever C compiler the host has, then loaded through :mod:`ctypes`
(no third-party build dependency).  Builds are cached per host under
``$REPRO_NATIVE_CACHE`` (default ``~/.cache/repro/native``) in a file
keyed on the SHA-256 of the kernel source, the compiler identity (the
resolved compiler file's path, size and mtime), and the flags, so
upgrading the source or switching compilers rebuilds while repeat
imports just ``dlopen`` the cached artifact -- without starting any
subprocess.

Everything degrades gracefully: no compiler, a failed build, a bad cached
artifact, or ``REPRO_NO_NATIVE=1`` all make :func:`load_kernel` return
``None``, and the native backend falls back to bigint planes with a
one-time stderr notice.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

_KERNEL_ABI = 3
_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "kernel.c")
#: -O2: the sweep loops are simple enough that -O3 buys nothing measurable,
#: while it costs every first run ~0.2 s more compile time.
_CFLAGS = ["-O2", "-shared", "-fPIC", "-std=c99"]

_load_attempted = False
_loaded_kernel = None
_load_error: str | None = None
_notice_emitted = False


def native_disabled_by_env() -> bool:
    return os.environ.get("REPRO_NO_NATIVE", "") not in ("", "0")


def _find_compiler() -> str | None:
    # An explicit $CC wins exclusively: if it is set but broken the build
    # fails and the backend falls back, which is how CI's no-compiler job
    # poisons the toolchain without uninstalling gcc.
    cc = os.environ.get("CC")
    if cc is not None:
        return cc if shutil.which(cc) else None
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def _compiler_id(cc: str) -> str:
    """Identity of the compiler file ``cc`` resolves to.

    Its real path, size and mtime: a stat instead of ``cc --version``,
    so a warm start forks nothing, while switching or upgrading the
    compiler (or pointing ``$CC`` at a wrapper script, a different
    file) still changes the key and rebuilds.
    """
    path = os.path.realpath(shutil.which(cc) or cc)
    try:
        st = os.stat(path)
    except OSError:
        return path
    return f"{path} {st.st_size} {st.st_mtime_ns}"


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "native")


def _artifact_path(source: str, cc: str) -> str:
    """Cache location of the build of ``source`` with ``cc``."""
    key = hashlib.sha256(
        "\x00".join([source, _compiler_id(cc), " ".join(_CFLAGS)]).encode()
    ).hexdigest()[:16]
    return os.path.join(_cache_dir(), f"repro_kernel_{key}.so")


def _build(cc: str, source: str, out_path: str) -> None:
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        suffix=".so", dir=os.path.dirname(out_path), prefix=".build-"
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, _SOURCE_PATH],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip().splitlines()
            raise RuntimeError(
                f"{cc} exited {proc.returncode}"
                + (f": {detail[-1]}" if detail else "")
            )
        os.replace(tmp, out_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    # All pointer parameters are declared c_void_p so callers can pass raw
    # integer addresses (an array's buffer_info()[0]) without building
    # ctypes pointer objects -- that per-call marshalling is measurable on
    # the hot verification path.  c_void_p also accepts ctypes arrays
    # directly, so cached int32 slot/program arrays pass as-is.
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    u64 = ctypes.c_uint64
    lib.repro_kernel_abi.argtypes = []
    lib.repro_kernel_abi.restype = ctypes.c_int32
    lib.repro_run_program.argtypes = [ptr, i64, ptr, ptr, i64, u64]
    lib.repro_run_program.restype = None
    lib.repro_popcount.argtypes = [ptr, i64]
    lib.repro_popcount.restype = i64
    lib.repro_extract_lanes.argtypes = [ptr, i64, ptr, i64]
    lib.repro_extract_lanes.restype = i64
    lib.repro_bitwise.argtypes = [ctypes.c_int32, ptr, ptr, ptr, i64]
    lib.repro_bitwise.restype = None
    lib.repro_not_masked.argtypes = [ptr, ptr, i64, u64]
    lib.repro_not_masked.restype = None
    lib.repro_fill_pattern.argtypes = [ptr, i64, ptr, i64, i64]
    lib.repro_fill_pattern.restype = None
    lib.repro_fill_expand.argtypes = [ptr, i64, ptr, i64, i64]
    lib.repro_fill_expand.restype = None
    lib.repro_fill_prefix.argtypes = [ptr, i64, i64, i64, i64]
    lib.repro_fill_prefix.restype = None
    lib.repro_tile_words.argtypes = []
    lib.repro_tile_words.restype = i64
    lib.repro_rank_range_select_diff.argtypes = [
        ptr, i64,            # prog
        ptr, ptr,            # g-side / h-side input slots (width each)
        ptr, ptr, i64, i64,  # mask rows m0, m1, width, words per row
        i64, i64, i64,       # period, g_lo, g_hi
        ptr, i64,            # [slot, kind] fills
        ptr, i64,            # [slot, a_slot, b_slot] compare triples
        ptr, i64,            # scratch, n_slots
        ptr,                 # diff
    ]
    lib.repro_rank_range_select_diff.restype = i64
    return lib


def _open(so_path: str) -> ctypes.CDLL:
    """dlopen a build and bind it, refusing one built for another ABI."""
    lib = ctypes.CDLL(so_path)
    try:
        abi = lib.repro_kernel_abi()
    except AttributeError:
        abi = None
    if abi != _KERNEL_ABI:
        raise RuntimeError(f"kernel ABI {abi} != expected {_KERNEL_ABI}")
    try:
        return _bind(lib)
    except AttributeError as exc:
        raise RuntimeError(f"kernel is missing an entry point: {exc}")


def _load_uncached() -> tuple[ctypes.CDLL | None, str | None]:
    if native_disabled_by_env():
        return None, "REPRO_NO_NATIVE is set"
    try:
        with open(_SOURCE_PATH, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        return None, f"kernel source unreadable: {exc}"
    cc = _find_compiler()
    if cc is None:
        return None, "no C compiler found (checked $CC, cc, gcc, clang)"
    so_path = _artifact_path(source, cc)
    try:
        if not os.path.exists(so_path):
            _build(cc, source, so_path)
        return _open(so_path), None
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        first_error = exc
    # A stale, foreign or wrong-ABI cached artifact, or an unwritable
    # cache dir: rebuild in a throwaway location (this process cannot
    # re-dlopen a path it already loaded), then rebuild the cached
    # artifact too so the next process finds a good one.
    try:
        fresh = os.path.join(
            tempfile.mkdtemp(prefix="repro-native-"), os.path.basename(so_path)
        )
        _build(cc, source, fresh)
        lib = _open(fresh)
    except (OSError, RuntimeError, subprocess.SubprocessError):
        return None, f"kernel build failed with {cc}: {first_error}"
    try:
        _build(cc, source, so_path)
    except (OSError, RuntimeError, subprocess.SubprocessError):
        pass
    return lib, None


def load_kernel():
    """Return the bound :class:`ctypes.CDLL` for the kernel, or ``None``.

    The result (including failure) is cached for the life of the process;
    the failure reason is available via :func:`load_failure_reason`.
    """
    global _load_attempted, _loaded_kernel, _load_error
    if not _load_attempted:
        _load_attempted = True
        _loaded_kernel, _load_error = _load_uncached()
    return _loaded_kernel


def load_failure_reason() -> str | None:
    load_kernel()
    return _load_error


def emit_fallback_notice() -> None:
    """Print the one-time stderr notice for the bigint fallback path."""
    global _notice_emitted
    if _notice_emitted:
        return
    _notice_emitted = True
    reason = load_failure_reason() or "kernel unavailable"
    print(
        f"repro: native plane kernel unavailable ({reason}); "
        "falling back to bigint planes",
        file=sys.stderr,
    )


def _reset_for_tests() -> None:
    global _load_attempted, _loaded_kernel, _load_error, _notice_emitted
    _load_attempted = False
    _loaded_kernel = None
    _load_error = None
    _notice_emitted = False
