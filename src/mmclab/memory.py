"""The memory policy: how freed memory goes back to the system, and how
much a buffered pass may hold.

glibc raises its mmap threshold to the size of each large block it frees
(up to 32 MiB), so after one sweep point the heap holds arrays that it
gives back or not depending on which small object sits at its top: a
``wide`` point's peak RSS read 222 or 244 MB from run to run.
``pin_mmap_threshold``, run by ``cli.main`` and by each ``sweep --jobs``
worker, holds it at MMAP_THRESHOLD, so every array that large gets a
mapping of its own, returned when freed. Other C libraries keep theirs.

A buffered pass takes ``rows_within(budget, row_bytes)`` rows (or steps, or
matrices) at a time, so no pass buffer grows with T. PASS_BYTES, below the
pin by construction so that its buffers reuse heap memory, sizes the small
passes that run hundreds of times a point: counting and pooling a cluster's
counts. BLOCK_BYTES sizes dense operands, large enough that a block's
Python overhead is small against its arithmetic: stage 1's blocks, the gap
terms' stacked eigensolve and the visitation weights' settled steps. The
counts, kernels, visitation weights and gap terms do not depend on either
budget; stage 1's blocks can move the last bits of its floats.
"""

import ctypes
import functools

_M_MMAP_THRESHOLD = -3      # glibc's mallopt parameter number
MMAP_THRESHOLD = 128 << 10  # glibc's initial value, held from here on
PASS_BYTES = MMAP_THRESHOLD - (8 << 10)
BLOCK_BYTES = 2 << 20


@functools.cache
def _mallopt():
    """The C library's ``mallopt``, or None. Looked up once per process: each
    ``CDLL`` builds a function-pointer class of its own, cyclic garbage."""
    try:
        return ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no C library, or one without mallopt
        return None


def pin_mmap_threshold() -> None:
    """Hold glibc's mmap threshold at MMAP_THRESHOLD; without glibc, do nothing."""
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def rows_within(budget: int, row_bytes: int) -> int:
    """Rows of ``row_bytes`` each that fit ``budget`` bytes, and at least one."""
    return max(1, budget // row_bytes)
