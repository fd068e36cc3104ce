"""Fixed glibc malloc thresholds, so that pool-sized temporaries are reused.

By default glibc serves a block above its mmap threshold (128 KiB, raised
as larger blocks are freed) with a fresh mmap and unmaps it on free, and it
returns the top of the heap to the system once more than its trim threshold
is free.  A hard-EM epoch makes and frees temporaries the size of its pool
(2,400 rows of 32 float64 values are 0.6 MB), so every epoch of the warm
start faulted in fresh pages for them, which took about half its time.
With the mmap threshold at 64 MiB and the trim threshold at 128 MiB the
freed blocks stay in the heap for the next epoch.  Where a block comes from
never changes what is computed in it.  The settings are made through
ctypes; without glibc's mallopt they are not made, and nothing else changes.
"""

from __future__ import annotations

import ctypes

M_TRIM_THRESHOLD = -1  # mallopt parameter numbers, from glibc's malloc.h
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 64 << 20
TRIM_THRESHOLD = 128 << 20


def _libc():
    """The C library of this process (its global symbol namespace)."""
    return ctypes.CDLL(None)


def set_thresholds() -> bool:
    """Set the mmap and trim thresholds; True when mallopt accepted both,
    False where there is no mallopt or it refused a setting."""
    try:
        fn = getattr(_libc(), "mallopt", None)
    except OSError:
        return False
    if fn is None:
        return False
    fn.argtypes, fn.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return bool(fn(M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(fn(M_TRIM_THRESHOLD, TRIM_THRESHOLD))
