"""On-demand build of the compiled event core (``_ccore.c``).

No build system, no ``pip install``: the extension is a single C file
compiled straight with the system compiler against the running
interpreter's headers the first time the compiled tier is requested,
and cached next to the source.  A stamp (source mtime/size, the
compiler flags, ``$CC`` and the interpreter version) triggers a rebuild
when any of them changes.  The build is concurrency-safe for forked
sweep workers: each builder writes to a unique temporary file and
``os.replace``s it into place atomically, so concurrent importers see
either the old or the new extension, never a partial one.

Raises on any failure — the caller (``engine.py``) decides whether
that is fatal (``REPRO_ENGINE=compiled``) or a silent fallback to the
pure tier (``auto``).
"""

from __future__ import annotations

import importlib
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

__all__ = ["load_ccore", "compiler_available"]

_PKG = Path(__file__).resolve().parent
_SRC = _PKG / "_ccore.c"


def _ext_path() -> Path:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return _PKG / f"_ccore{suffix}"


def _stamp_path() -> Path:
    return _PKG / "_ccore.stamp"


def _signature() -> str:
    # $CC as given, never resolved: loading a built extension needs no
    # compiler.
    st = _SRC.stat()
    return (f"{st.st_mtime_ns}:{st.st_size}:{' '.join(_CFLAGS)}:"
            f"{os.environ.get('CC', '')}:"
            f"{sys.version_info[0]}.{sys.version_info[1]}:{sys.platform}")


def compiler_available() -> bool:
    """True when a C compiler is on PATH (cc, gcc, or clang, or $CC)."""
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return True
    return any(shutil.which(c) for c in ("cc", "gcc", "clang"))


def _find_compiler() -> str:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")


#: -ffp-contract=off: sweep_phase must round ``keep*x`` before adding,
#: as numpy does; an FMA-capable target may otherwise fuse the two.  It
#: guards each of the kernel's three loops: the scalar one, and the SSE2
#: and AVX2 ones, whose ``_mm*_mul_ps``/``_mm*_add_ps`` GCC lowers to
#: plain vector arithmetic that it would contract the same way (the AVX2
#: loop's ``target("avx2")`` does not enable FMA, but the flag does not
#: rely on that).
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _build() -> None:
    cc = _find_compiler()
    include = sysconfig.get_paths()["include"]
    out = _ext_path()
    tmp = out.with_name(f"{out.stem}.build{os.getpid()}{out.suffix}")
    cmd = [cc, *_CFLAGS, f"-I{include}", str(_SRC), "-o", str(tmp)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"compiling _ccore.c failed ({' '.join(cmd)}):\n"
                f"{proc.stderr.strip()[-2000:]}")
        os.replace(tmp, out)
    finally:
        if tmp.exists():
            tmp.unlink()
    _stamp_path().write_text(_signature())


def load_ccore():
    """Build (if stale or missing) and import ``repro.sim._ccore``."""
    out = _ext_path()
    stamp = _stamp_path()
    sig = _signature()
    fresh = (out.exists() and stamp.exists()
             and stamp.read_text() == sig)
    if not fresh:
        _build()
    return importlib.import_module("repro.sim._ccore")
