"""The memory policy: its two budgets, the row rule and the mmap pin's fallback."""

import ctypes

import pytest

from mmclab import memory


def test_pass_budget_stays_below_the_pin():
    assert memory.PASS_BYTES == memory.MMAP_THRESHOLD - (8 << 10) == 120 << 10


@pytest.mark.parametrize("budget, row_bytes, rows", [(100, 10, 10), (109, 10, 10),
                                                     (9, 10, 1), (1, 1 << 30, 1)])
def test_rows_within_takes_at_least_one_row(budget, row_bytes, rows):
    assert memory.rows_within(budget, row_bytes) == rows


class NoMallopt:
    """A C library without ``mallopt``."""


def no_c_library(_name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [no_c_library, lambda _name: NoMallopt()],
                         ids=["no-c-library", "no-mallopt"])
def test_pin_without_glibc_does_nothing(monkeypatch, cdll):
    # the lookup is cached per process: look up again under the stand-in
    # library, and again after it, under the real one
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    memory._mallopt.cache_clear()
    try:
        assert memory.pin_mmap_threshold() is None
        assert memory._mallopt() is None
    finally:
        monkeypatch.undo()
        memory._mallopt.cache_clear()
