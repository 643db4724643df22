"""Stable integer ordering by LSD radix over 16-bit digits.

NumPy's ``kind="stable"`` sort is a radix sort for 16-bit integers
(O(n)) but a comparison sort for wider types.  Sorting 16 bits at a
time, least-significant digit first, gives the same permutation as
``np.argsort(keys, kind="stable")`` in linear time.  The CSR build
(:meth:`repro.graph.csr.CsrGraph.from_edges`) and the batch TLB engine
(:mod:`repro.tlb.engine`) both order by it.
"""

from __future__ import annotations

import numpy as np


def stable_order(keys: np.ndarray) -> np.ndarray:
    """Stable ascending argsort of non-negative integer keys.

    >>> stable_order(np.array([70000, 3, 70000, 1])).tolist()
    [3, 1, 0, 2]
    """
    if keys.size == 0:
        return np.empty(0, dtype=np.intp)
    if keys.dtype == np.uint16:
        return np.argsort(keys, kind="stable")
    hi = int(keys.max())
    if hi < (1 << 16):
        return np.argsort(keys.astype(np.uint16), kind="stable")
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while (hi >> shift) > 0:
        digit = ((keys >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
        shift += 16
    return order
