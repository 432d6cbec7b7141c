"""Chare base class: a migratable event-driven object."""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.runtime import ArrayProxy, CharmRuntime

__all__ = ["Chare"]


class Chare:
    """An event-driven object living in a chare array.

    Subclasses define entry methods (plain methods invoked by arriving
    messages) and may define SDAG methods (generator methods driven by
    :mod:`repro.charm.sdag`).  Chares that migrate should implement
    ``pup(p)`` for their application state; the runtime packs them with the
    PUP framework.

    Runtime-injected attributes (set before any entry method runs):

    ``thisIndex``
        This element's index in its array.
    ``thisProxy``
        An :class:`~repro.charm.runtime.ArrayProxy` for the whole array.
    ``runtime``
        The hosting :class:`~repro.charm.runtime.CharmRuntime`.
    """

    thisIndex: int = -1
    thisProxy: Optional["ArrayProxy"] = None
    runtime: Optional["CharmRuntime"] = None
    _pe: int = -1

    @property
    def my_pe(self) -> int:
        """The processor this chare currently lives on."""
        return self._pe

    def charge(self, ns: float) -> None:
        """Account ``ns`` of entry-method computation to the local processor."""
        assert self.runtime is not None
        self.runtime.cluster[self._pe].charge(ns)

    def contribute(self, value: Any, op: str, callback: str) -> None:
        """Join the array-wide reduction ``op``; the reduced value is
        delivered to entry method ``callback`` of element 0."""
        assert self.runtime is not None and self.thisProxy is not None
        self.runtime._contribute(self.thisProxy.aid, self.thisIndex,
                                 value, op, callback)

    def pup(self, p) -> None:
        """Pack/unpack application state; default packs nothing.

        Subclasses with state must override (and remember that the
        runtime re-injects ``thisIndex``/``thisProxy``/``runtime`` after
        unpacking, so only application fields belong here).
        """
