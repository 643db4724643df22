"""Unit tests for byte-unit helpers."""

from repro.units import (
    GiB,
    KiB,
    MiB,
    align_down,
    align_up,
    format_bytes,
    is_power_of_two,
)


def test_constants():
    assert KiB == 1024
    assert MiB == 1024 * KiB
    assert GiB == 1024 * MiB


def test_format_bytes():
    assert format_bytes(0) == "0.0B"
    assert format_bytes(4096) == "4.0KiB"
    assert format_bytes(3 * MiB + 512 * KiB) == "3.5MiB"
    assert format_bytes(2 * GiB) == "2.0GiB"


def test_is_power_of_two():
    assert is_power_of_two(1)
    assert is_power_of_two(4096)
    assert not is_power_of_two(0)
    assert not is_power_of_two(3)
    assert not is_power_of_two(-4)


def test_align():
    assert align_down(4097, 4096) == 4096
    assert align_up(4097, 4096) == 8192
    assert align_up(4096, 4096) == 4096
    assert align_down(4096, 4096) == 4096
