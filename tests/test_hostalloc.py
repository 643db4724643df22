"""Tests for the host allocator setting that importing repro makes.

The check runs in a fresh interpreter, where only the import has used
the heap.  In the test process, what earlier tests leave free in the
heap can serve the block whatever the threshold: after the batch engine
tests, tens of MB lie free there in chunks of several MB.
"""

import ctypes
import os
import subprocess
import sys

import pytest

import repro

_CHECK = """
import ctypes

import numpy as np

import repro  # noqa: F401  (the import fixes the threshold)
from repro.hostalloc import HOST_MMAP_THRESHOLD


class MallInfo2(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_size_t)
        for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd",
            "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost",
        )
    ]


mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = MallInfo2
larger = np.ones(3 * HOST_MMAP_THRESHOLD, dtype=np.uint8)
del larger
mapped = mallinfo2().hblkhd
block = np.ones(2 * HOST_MMAP_THRESHOLD, dtype=np.uint8)
print(mallinfo2().hblkhd - mapped, block.nbytes)
"""


def test_import_maps_stream_sized_blocks_after_a_larger_free():
    """glibc's dynamic threshold would serve the second block from the
    heap once the larger first one is freed; under the fixed threshold
    it gets its own mapping."""
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallinfo2") or not hasattr(libc, "mallopt"):
        pytest.skip("needs glibc's mallopt and mallinfo2")
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root, env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    out = subprocess.run(
        [sys.executable, "-c", _CHECK],
        env=env, capture_output=True, text=True, check=True,
    )
    grown, size = map(int, out.stdout.split())
    assert grown >= size
