"""Page protection bits.

There is no page-table class: each :class:`~repro.vm.addrspace.Mapping`
is the table entry for its whole range.
"""

from __future__ import annotations

import enum

__all__ = ["Protection"]


class Protection(enum.Flag):
    """Page protection bits (a subset of mmap's PROT_*)."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXEC = enum.auto()
    #: Convenience combination used by almost every data mapping.
    RW = READ | WRITE
    #: Convenience combination for text segments.
    RX = READ | EXEC
