"""Counting quiescence detection, factored out of the charm runtime.

Quiescence = no counted messages outstanding.  The classic two-wave
protocol: a detector timer snapshots the ``(created, processed)``
counters; when two consecutive waves observe identical, balanced
counters, no counted message can be in flight, and the callback fires.

The counter is deliberately passive about *time*: the owner supplies a
``schedule_after(delay_ns, fn, *args)`` function (the charm runtime
passes the cluster's PE-0 timer), so the waves ride the same kernel as
everything else and the protocol's timing is exactly what the inlined
pre-kernel implementation produced.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["QuiescenceCounter"]


class QuiescenceCounter:
    """Created/processed counters plus the two-wave detector."""

    __slots__ = ("created", "processed")

    def __init__(self) -> None:
        self.created = 0
        self.processed = 0

    def note_created(self) -> None:
        """Count one message entering flight."""
        self.created += 1

    def note_processed(self) -> None:
        """Count one message leaving flight."""
        self.processed += 1

    @property
    def balanced(self) -> bool:
        """True when every created message has been processed."""
        return self.created == self.processed

    def snapshot(self) -> tuple:
        return (self.created, self.processed)

    def detect(self, schedule_after: Callable[..., Any],
               callback: Callable[[], None],
               check_ns: float = 50_000.0) -> None:
        """Fire ``callback`` once the counters are stably balanced.

        ``schedule_after(delay_ns, fn, *args)`` schedules a wave; each
        wave compares the previous snapshot with the current one and
        either declares quiescence or re-arms.
        """

        def wave(prev):
            snap = self.snapshot()
            if prev == snap and snap[0] == snap[1]:
                callback()
            else:
                schedule_after(check_ns, wave, snap)

        schedule_after(check_ns, wave, None)
