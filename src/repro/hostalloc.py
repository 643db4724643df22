"""The host process's C allocator, held to one mmap threshold.

The simulator's arrays live in the host process's C heap, and how much
of that heap stays resident decides the process's peak RSS.  glibc
starts its mmap threshold at 128 KB and raises it to the size of each
mapped block freed, up to 32 MB.  Building a dataset frees stream-sized
arrays, so from then on they come from the heap, and how much freed
heap stays resident depends on the order in which a sweep runs its
cells: the same tournament sweep peaked anywhere from ~156 to ~176 MB
depending only on the order of its policies.  A fixed threshold keeps
stream-sized arrays out of the heap, so freeing one returns it to the
system.  :mod:`repro` fixes it on import, before any dataset is built.
"""

from __future__ import annotations

import ctypes
import functools
import sys

HOST_MMAP_THRESHOLD = 8 << 20
"""Bytes from which the C allocator gives a block its own mapping.

It is not lower because arrays below it that a sweep allocates over
and over, such as the 1 MB per-chunk temporaries of translation, would
each get a fresh mapping: at 1-4 MB a tournament sweep ran about 25%
slower.  At 16 MB the peak spread again."""

_M_MMAP_THRESHOLD = -3
"""glibc's ``mallopt`` parameter number for the mmap threshold."""


@functools.cache
def pin_mmap_threshold() -> bool:
    """Fix the C allocator's mmap threshold at
    :data:`HOST_MMAP_THRESHOLD` for the rest of the process, once;
    whether the allocator took it.  A no-op (``False``) where the C
    library has no ``mallopt``."""
    if not sys.platform.startswith("linux"):
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_MMAP_THRESHOLD, HOST_MMAP_THRESHOLD) == 1
