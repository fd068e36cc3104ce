"""One BLAS thread in every process that imports dmil.

numpy's matrix products run in the OpenBLAS bundled with its wheel, which
splits large products over threads.  The split changes the order of the
partial sums, so results differ in the last bits between thread counts, and
over a training run those bits decide which inner adaptations diverge.
Importing the package therefore pins one thread (dmil/__init__.py).
OPENBLAS_NUM_THREADS is read only when numpy is first imported, so the
thread count is set through the library's own functions (via ctypes).
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

_NAMES = [p + "{}" + s for p in ("scipy_openblas_", "openblas_") for s in ("64_", "")]


def _function(name: str, argtypes: list, restype):
    """openblas_<name> from numpy's bundled OpenBLAS under whichever symbol
    prefix and suffix the wheel uses, with its C signature declared; None
    when numpy has no bundled OpenBLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for pattern in _NAMES:
            fn = getattr(lib, pattern.format(name), None)
            if fn is not None:
                fn.argtypes, fn.restype = argtypes, restype
                return fn
    return None


def threads() -> int | None:
    """The bundled OpenBLAS's thread count, or None without one."""
    fn = _function("get_num_threads", [], ctypes.c_int)
    return None if fn is None else fn()


def _text(name: str) -> str | None:
    """openblas_<name>() for a function that returns a C string."""
    fn = _function(name, [], ctypes.c_char_p)
    return None if fn is None else fn().decode()


def describe() -> dict:
    """The bundled OpenBLAS's core type, build config string and thread
    count, each None without one."""
    return {"corename": _text("get_corename"), "config": _text("get_config"), "threads": threads()}


def pin_one_thread() -> int | None:
    """Run every later BLAS call on one thread; returns the effective count
    (None when numpy has no bundled OpenBLAS to pin)."""
    fn = _function("set_num_threads", [ctypes.c_int], None)
    if fn is not None:
        fn(1)
    return threads()
