"""Inner loops compiled from the C source beside this module, and their
Python twins.

`load` compiles `_sweep.c` with the system C compiler unless a build is
cached, and loads it with ctypes. The library is cached as
``<XDG_CACHE_HOME or ~/.cache>/clickroles/_sweep-<SHA-256 of the
source>.so``, so later runs load it without compiling and an edited
source gets a file of its own; where that directory cannot be written,
it is built in a private temporary directory for this process alone.
Without a compiler `load` returns None and the caller runs the Python
twin, python_<name>, which takes the same arguments and gives the same
bytes. Only a caller that runs a loop imports this module.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
from bisect import bisect_left
from itertools import accumulate
from operator import mul, truediv
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_sweep.c")
# never -ffast-math or -march=native: a fused multiply-add rounds once
# where the Python loop rounds twice, and changes the draws
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


def load() -> ctypes.CDLL | None:
    """The compiled library, its functions declared, or None when no C
    compiler is found, the build fails or the library does not load."""
    source = SOURCE.read_bytes()
    name = f"{SOURCE.stem}-{hashlib.sha256(source).hexdigest()}.so"
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache", "clickroles")
    if not (cache / name).exists():
        cc = shutil.which("cc")
        if cc is None:
            return None
        try:
            cache.mkdir(parents=True, exist_ok=True)
            # built beside its final name and renamed into place, so a
            # process that loads it never sees a partly written file
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                if not _compile(cc, Path(tmp, name)):
                    return None
                os.replace(Path(tmp, name), cache / name)
        except OSError:  # the cache cannot be written
            with tempfile.TemporaryDirectory() as tmp:
                return _open(Path(tmp, name)) if _compile(cc, Path(tmp, name)) else None
    return _open(cache / name)


def _compile(cc: str, target: Path) -> bool:
    """Build SOURCE into `target` with the compiler `cc`; False if it fails."""
    import subprocess  # here, not at the top: only a process that builds pays for it

    try:
        done = subprocess.run(
            [cc, *CC_FLAGS, "-o", str(target), str(SOURCE)],
            stdin=subprocess.DEVNULL, capture_output=True, check=False,
        )
    except OSError:
        return False
    return done.returncode == 0


def _open(path: Path) -> ctypes.CDLL | None:
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:  # a library built for another machine, say, in a shared home
        return None
    for name, argtypes in PROTOTYPES.items():
        function = getattr(lib, name)
        function.argtypes = argtypes
        function.restype = None
    return lib


def python_lda_sweep(
    _n_docs: int, offsets: np.ndarray, tokens: np.ndarray, z: np.ndarray, _k: int,
    n_dk: np.ndarray, n_wk: np.ndarray, n_k: np.ndarray, u: np.ndarray,
    alpha: float, beta: float, vbeta: float, _cum: np.ndarray,
) -> None:
    """lda_sweep of _sweep.c in Python, for a machine without a C
    compiler: the same arguments, and the same draws and counts bit for
    bit.

    The sweep copies the counts into plain lists and keeps three float
    factor caches beside them, each cell reset from its count whenever
    that count changes: a_d[k] = n_dk + alpha (built once per document
    visit), b_wk[w][k] = n_kw + beta and den[k] = n_k + V*beta; a and b
    come from tables indexed by count, so equal counts share one float.
    A token's draw is then C-level iteration over the caches,

        weights = accumulate(map(truediv, map(mul, a_d, b_w), den))
        t = bisect_left(weights, u * weights[-1])

    which forms each weight on the same operands in the same order as
    the C loop, starts the running totals from the first weight and,
    the totals never decreasing, returns the first topic whose total is
    >= u * total. The lists are copied back into the arrays at the end.
    """
    ids, bounds, zs, u_iter = tokens.tolist(), offsets.tolist(), z.tolist(), iter(u.tolist())
    counts_dk, counts_wk, counts_k = n_dk.tolist(), n_wk.tolist(), n_k.tolist()
    # a count never exceeds its document's length or its word's frequency
    a_of = [c + alpha for c in range(int(n_dk.sum(axis=1).max()) + 1)]
    b_of = [c + beta for c in range(int(n_wk.sum(axis=1).max()) + 1)]
    b_wk = [[b_of[c] for c in row] for row in counts_wk]
    den = [c + vbeta for c in counts_k]
    for d, nd in enumerate(counts_dk):
        a_d = [a_of[c] for c in nd]
        for i, u_i in zip(range(bounds[d], bounds[d + 1]), u_iter):
            t = zs[i]
            nw = counts_wk[ids[i]]
            b_w = b_wk[ids[i]]
            c = nd[t] - 1
            nd[t] = c
            a_d[t] = a_of[c]
            c = nw[t] - 1
            nw[t] = c
            b_w[t] = b_of[c]
            c = counts_k[t] - 1
            counts_k[t] = c
            den[t] = c + vbeta

            weights = list(accumulate(map(truediv, map(mul, a_d, b_w), den)))
            t = bisect_left(weights, u_i * weights[-1])

            zs[i] = t
            c = nd[t] + 1
            nd[t] = c
            a_d[t] = a_of[c]
            c = nw[t] + 1
            nw[t] = c
            b_w[t] = b_of[c]
            c = counts_k[t] + 1
            counts_k[t] = c
            den[t] = c + vbeta
    z[:] = zs
    n_dk[:] = counts_dk
    n_wk[:] = counts_wk
    n_k[:] = counts_k
