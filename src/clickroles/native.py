"""Inner loops compiled from the C source beside this module.

`load` compiles `_sweep.c` with the system C compiler unless a build is
cached, and loads it with ctypes. The library is cached as
``<XDG_CACHE_HOME or ~/.cache>/clickroles/_sweep-<SHA-256 of the
source>.so``, so later runs load it without compiling and an edited
source gets a file of its own; where that directory cannot be written,
it is built in a private temporary directory for this process alone.
Without a compiler, or when the build or the load fails, `load` raises
DataError (exit 1) naming the compiler, the source or the library. Only
a caller that runs a loop imports this module.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from .errors import DataError

SOURCE = Path(__file__).with_name("_sweep.c")
# never -ffast-math or -march=native: a fused multiply-add rounds once
# where the test oracle's Python loop rounds twice, and changes the draws
CC_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _array(dtype: type, *flags: str) -> type:
    return np.ctypeslib.ndpointer(dtype, flags=("C_CONTIGUOUS", *flags))


# each function of SOURCE and its argument types; every one returns void.
# An array argument takes only a C-contiguous numpy array of its dtype,
# and one the function writes only a writeable one.
PROTOTYPES = {
    "lda_sweep": (
        ctypes.c_int64, _array(np.int64), _array(np.int32), _array(np.int32, "WRITEABLE"),
        ctypes.c_int64, _array(np.int64, "WRITEABLE"), _array(np.int64, "WRITEABLE"),
        _array(np.int64, "WRITEABLE"), _array(np.float64), ctypes.c_double, ctypes.c_double,
        ctypes.c_double, _array(np.float64, "WRITEABLE"),
    ),
}


def load() -> ctypes.CDLL:
    """The compiled library, its functions declared; DataError if no C
    compiler is found, the build fails or the library does not load."""
    source = SOURCE.read_bytes()
    name = f"{SOURCE.stem}-{hashlib.sha256(source).hexdigest()}.so"
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache", "clickroles")
    if not (cache / name).exists():
        cc = shutil.which("cc")
        if cc is None:
            raise DataError(f"no C compiler: cc is not on PATH to build {SOURCE} into {cache}")
        try:
            cache.mkdir(parents=True, exist_ok=True)
            # built beside its final name and renamed into place, so a
            # process that loads it never sees a partly written file
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                _compile(cc, Path(tmp, name))
                os.replace(Path(tmp, name), cache / name)
        except OSError:  # the cache cannot be written
            with tempfile.TemporaryDirectory() as tmp:
                _compile(cc, Path(tmp, name))
                return _open(Path(tmp, name))
    return _open(cache / name)


def _compile(cc: str, target: Path) -> None:
    """Build SOURCE into `target` with the compiler `cc`; DataError with
    the last line the compiler printed if it fails."""
    import subprocess  # here, not at the top: only a process that builds pays for it

    try:
        done = subprocess.run(
            [cc, *CC_FLAGS, "-o", str(target), str(SOURCE)],
            stdin=subprocess.DEVNULL, capture_output=True, check=False,
        )
    except OSError as exc:
        raise DataError(f"cannot run {cc}: {exc}") from None
    if done.returncode != 0:
        said = done.stderr.decode(errors="replace").strip().rpartition("\n")[2]
        raise DataError(f"{cc} failed to build {SOURCE} (exit {done.returncode}): {said}")


def _open(path: Path) -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:  # a library built for another machine, say, in a shared home
        raise DataError(f"cannot load {path}: {exc}") from None
    for name, argtypes in PROTOTYPES.items():
        function = getattr(lib, name)
        function.argtypes = argtypes
        function.restype = None
    return lib
