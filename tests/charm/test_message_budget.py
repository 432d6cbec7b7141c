"""What one SDAG ``when`` message costs the host, as a call count.

``ElementProxy.send`` → ``send_invoke`` → the network or the local
queue → ``_execute`` → the element's one buffer → one turn of the
driver's one loop.  Calls per ``when`` message on the Figure 1 stencil
(8 elements in a ring on 2 processors, 50 iterations: 800 messages) is
the deterministic proxy: 62.14 while a live driver and an early-message
buffer were two roads and each satisfied ``when`` re-entered the driver
one frame deeper, 56.62 with one road, one buffer and one loop, 56.61
with the arguments frozen at ``send_invoke`` (the tuple argument costs
one ``freeze_value`` call; reading the current processor inline pays
for it).  The bound is the measured value rounded up, so a hop coming
back fails it.
"""

from repro.charm import Chare, CharmRuntime, Overlap, When
from repro.sim import Cluster
from tests.callcount import count_calls

CALLS_PER_WHEN = 57
ITER = 50


class Strip(Chare):
    """Figure 1's life cycle: send both boundaries, overlap both whens."""

    def __init__(self):
        self.history = []

    def lifecycle(self):
        n = self.thisProxy.n
        left = (self.thisIndex - 1) % n
        right = (self.thisIndex + 1) % n
        for i in range(ITER):
            self.thisProxy[left].send("strip_from_right", (self.thisIndex, i))
            self.thisProxy[right].send("strip_from_left", (self.thisIndex, i))
            l, r = yield Overlap(When("strip_from_left"),
                                 When("strip_from_right"))
            self.history.append((i, l, r))


def test_calls_per_sdag_when_message_stay_within_budget():
    def run():
        rt = CharmRuntime(Cluster(2))
        proxy = rt.create_array(Strip, 8)
        proxy.broadcast("lifecycle")
        rt.run()
        return rt, proxy

    run()                         # imports and per-process tables warm
    (rt, proxy), calls = count_calls(run)
    whens = 8 * 2 * ITER
    assert rt.entries_invoked == whens + 8
    assert rt.element(proxy.aid, 3).history[-1] == (ITER - 1, (2, ITER - 1),
                                                    (4, ITER - 1))
    assert calls.total / whens <= CALLS_PER_WHEN, calls.total / whens
