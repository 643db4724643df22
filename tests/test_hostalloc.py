"""Tests for the host allocator setting that importing repro makes."""

import ctypes

import numpy as np
import pytest

import repro  # noqa: F401  (the import fixes the threshold)
from repro.hostalloc import HOST_MMAP_THRESHOLD


class _MallInfo2(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_size_t)
        for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd",
            "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost",
        )
    ]


def test_import_maps_stream_sized_blocks_after_a_larger_free():
    """glibc's dynamic threshold would serve the second block from the
    heap once the larger first one is freed; under the fixed threshold
    it gets its own mapping."""
    libc = ctypes.CDLL(None)
    mallinfo2 = getattr(libc, "mallinfo2", None)
    if mallinfo2 is None or not hasattr(libc, "mallopt"):
        pytest.skip("needs glibc's mallopt and mallinfo2")
    mallinfo2.restype = _MallInfo2
    larger = np.ones(3 * HOST_MMAP_THRESHOLD, dtype=np.uint8)
    del larger
    mapped = mallinfo2().hblkhd
    block = np.ones(2 * HOST_MMAP_THRESHOLD, dtype=np.uint8)
    assert mallinfo2().hblkhd - mapped >= block.nbytes
