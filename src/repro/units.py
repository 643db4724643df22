"""Byte-size units and human-readable formatting helpers.

The simulator configures memory sizes in bytes everywhere.  These helpers
keep call sites readable (``64 * MiB`` instead of ``67108864``) and render
metric tables with compact size strings.
"""

from __future__ import annotations

KiB = 1024
"""One kibibyte in bytes."""

MiB = 1024 * KiB
"""One mebibyte in bytes."""

GiB = 1024 * MiB
"""One gibibyte in bytes."""


def format_bytes(num_bytes: int | float) -> str:
    """Render a byte count with a binary-prefix unit.

    >>> format_bytes(4096)
    '4.0KiB'
    >>> format_bytes(3 * MiB + 512 * KiB)
    '3.5MiB'
    """
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            return f"{value:.1f}{unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def bytes_to_frames(num_bytes: int, frame_bytes: int) -> int:
    """Frames needed to hold ``num_bytes`` (ceiling division).

    The blessed way to cross the bytes→frames unit boundary; the REP003
    lint flags ad-hoc arithmetic mixing ``*_bytes`` and ``*_frames``
    identifiers that does not go through a helper like this.
    """
    return -(-num_bytes // frame_bytes)


def frames_to_bytes(num_frames: int, frame_bytes: int) -> int:
    """Bytes covered by ``num_frames`` frames of ``frame_bytes`` each."""
    return num_frames * frame_bytes


def bytes_to_pages(num_bytes: int, page_bytes: int) -> int:
    """Pages needed to hold ``num_bytes`` (ceiling division)."""
    return -(-num_bytes // page_bytes)


def pages_to_bytes(num_pages: int, page_bytes: int) -> int:
    """Bytes covered by ``num_pages`` pages of ``page_bytes`` each."""
    return num_pages * page_bytes


def frames_to_regions(num_frames: int, frames_per_region: int) -> int:
    """Huge regions needed to hold ``num_frames`` (ceiling division)."""
    return -(-num_frames // frames_per_region)


def regions_to_frames(num_regions: int, frames_per_region: int) -> int:
    """Frames covered by ``num_regions`` whole huge regions."""
    return num_regions * frames_per_region


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of ``alignment`` (a power of two)."""
    return value & ~(alignment - 1)


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to a multiple of ``alignment`` (a power of two)."""
    return (value + alignment - 1) & ~(alignment - 1)
