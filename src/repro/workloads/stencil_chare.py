"""The flows stencil, hand-inverted into a chare (paper Figure 1, §2.4).

:mod:`repro.flows.stencil` writes the relaxation as a blocking-receive
thread body and lets the compiler derive its event form.  This is the
same program inverted *by hand*: the step counter, the arrived ghosts
and a buffer for ghosts from neighbors a step ahead are explicit object
state, control flow is spread over entry methods.  That state is a few
numbers, so it "migrates by copying a data structure" (§3.2) — a
``pup_register``'ed chare on the unmodified ``CharmRuntime``.  It shares
``relax``, the seeded field and the per-cell cost with the thread form,
so results are float-exact equal.
"""

from __future__ import annotations

from typing import Dict, List

from repro.charm import ArrayProxy, Chare, CharmRuntime
from repro.core.pup import pup_register
from repro.errors import ReproError
from repro.flows.stencil import NS_PER_CELL, relax, stencil_field

__all__ = ["StencilChare", "start_stencil_chares", "stencil_chare_results"]


def _pup_ghosts(p, ghosts: Dict[int, float]) -> Dict[int, float]:
    held = sorted(ghosts)
    steps = p.list_int(held)
    values = p.list_double([ghosts[s] for s in held])
    return dict(zip(steps, values))


@pup_register
class StencilChare(Chare):
    """One strip of the stencil as an event-driven object."""

    def __init__(self) -> None:
        self.data: List[float] = []
        self.steps = 0
        self.step = 0
        self.started = False
        # step -> ghost value; may hold steps this element has not
        # reached yet (a fast neighbor runs ahead).
        self.above: Dict[int, float] = {}
        self.below: Dict[int, float] = {}

    def pup(self, p) -> None:
        self.data = p.list_double(self.data)
        self.steps = p.int(self.steps)
        self.step = p.int(self.step)
        self.started = p.bool(self.started)
        self.above = _pup_ghosts(p, self.above)
        self.below = _pup_ghosts(p, self.below)

    # -- entry methods ---------------------------------------------------

    def start(self, data: List[float], steps: int) -> None:
        self.data = list(data)
        self.steps = steps
        self.started = True
        if steps:
            self._send_ghosts()
        self._try_advance()

    def ghost(self, side: str, step: int, value: float) -> None:
        getattr(self, side)[step] = value
        self._try_advance()

    # -- the inverted control flow ---------------------------------------

    def _send_ghosts(self) -> None:
        i, proxy = self.thisIndex, self.thisProxy
        if i > 0:
            proxy[i - 1].send("ghost", "above", self.step, self.data[0])
        if i < len(proxy) - 1:
            proxy[i + 1].send("ghost", "below", self.step, self.data[-1])

    def _try_advance(self) -> None:
        # Loop: several steps may unblock at once when buffered ghosts
        # from a fast neighbor are already waiting.
        need_below = self.thisIndex > 0
        need_above = self.thisIndex < len(self.thisProxy) - 1
        while self.step < self.steps:
            if need_above and self.step not in self.above:
                return
            if need_below and self.step not in self.below:
                return
            above = self.above.pop(self.step) if need_above else self.data[-1]
            below = self.below.pop(self.step) if need_below else self.data[0]
            self.charge(NS_PER_CELL * len(self.data))
            self.data = relax(self.data, below, above)
            self.step += 1
            if self.step < self.steps:
                self._send_ghosts()

    @property
    def done(self) -> bool:
        """Started and relaxed through every step."""
        return self.started and self.step == self.steps


def start_stencil_chares(rt: CharmRuntime, ranks: int, cells: int = 8,
                         steps: int = 4, seed: int = 1) -> ArrayProxy:
    """Create one :class:`StencilChare` per rank and send each its strip
    of the seeded field; the caller runs (and may migrate) from there."""
    proxy = rt.create_array(StencilChare, ranks)
    for i, strip in enumerate(stencil_field(ranks, cells, seed)):
        proxy[i].send("start", strip, steps)
    return proxy


def stencil_chare_results(rt: CharmRuntime,
                          proxy: ArrayProxy) -> Dict[int, List[float]]:
    """``{rank: strip}`` once every element has run all its steps."""
    chares = [rt.element(proxy.aid, i) for i in range(len(proxy))]
    stuck = [c.thisIndex for c in chares if not c.done]
    if stuck:
        raise ReproError(f"stencil chares {stuck} have not finished")
    return {c.thisIndex: c.data for c in chares}
