"""Probing practical flow-count limits (paper Table 2).

The probe *executes* creation until the OS model (or the memory system)
refuses — the same experiment the paper ran on stock systems — rather than
reading a configuration constant.  Entries that reach the probe cap without
failing are reported with a trailing ``+``, matching the paper's "90000+"
notation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (OSLimitError, OutOfPhysicalMemory,
                          OutOfVirtualAddressSpace)
from repro.flows.base import FlowMechanism

__all__ = ["LimitProbe", "probe_limit"]


@dataclass(frozen=True)
class LimitProbe:
    """Result of one limit probe."""

    mechanism: str
    platform: str
    count: int
    hit_limit: bool
    limiting_factor: str

    def display(self) -> str:
        """Table 2 cell text: a number, or 'N+' when the cap was reached."""
        return str(self.count) if self.hit_limit else f"{self.count}+"


def probe_limit(mechanism: FlowMechanism, cap: int,
                chunk: int = 1) -> LimitProbe:
    """Create flows until refusal or ``cap``; returns what happened.

    Parameters
    ----------
    mechanism:
        A fresh flow mechanism on the platform under test.
    cap:
        Stop probing after this many successful creations (the paper's
        experiments also stopped somewhere, hence "90000+").
    chunk:
        Create in batches of this size (probe speed knob; the limit is
        still located exactly because refusals are per-creation).
    """
    count = 0
    factor = mechanism.limiting_factor
    hit = False
    try:
        while count < cap:
            for _ in range(min(chunk, cap - count)):
                mechanism.create_flow()
                count += 1
    except OSLimitError:
        hit = True
    except (OutOfPhysicalMemory, OutOfVirtualAddressSpace):
        hit = True
        factor = "memory"
    finally:
        mechanism.destroy_all()
    return LimitProbe(mechanism.label, mechanism.profile.name,
                      count, hit, factor)
