"""Count the objects CPython's cyclic collector tracks (a host-memory proxy).

Every container a call leaves alive — an instance, a list, a tuple that
holds one — is an object each full collection walks again, so a count
of them per flow is what a million flows cost the collector.  Bytes
move with the allocator; the count repeats exactly::

    def spawn(program):                 # counted; returns what it keeps
        world = FlowWorld(program.ranks)
        world.spawn("compiled", program)
        return world
    tracked_per_unit(lambda n: spin_program(n, 2), spawn)   # 3.0 per rank

The count is taken with ``gc`` disabled, so no collection untracks or
frees anything mid-call, and as the slope between two sizes, so what a
call allocates once whatever its size (compiled code, caches, the
containers that hold the units) cancels.
"""

import gc
from collections import Counter


def tracked_left_alive(prepare, act, n):
    """Tracked objects that ``act(prepare(n))`` leaves alive."""
    state = prepare(n)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        kept = act(state)
        after = len(gc.get_objects())
    finally:
        gc.enable()
    del kept, state
    return after - before


def tracked_per_unit(prepare, act, small=1000, large=3000):
    """Tracked objects ``act`` leaves alive per unit of ``n``: the slope
    of :func:`tracked_left_alive` between ``small`` and ``large``, after
    one unmeasured call so first-use imports and tables stay out."""
    tracked_left_alive(prepare, act, small)
    return ((tracked_left_alive(prepare, act, large)
             - tracked_left_alive(prepare, act, small)) / (large - small))


def cyclic_garbage(act, warm=True):
    """The objects only the cyclic collector would free after ``act()``,
    as a :class:`~collections.Counter` of type names.

    ``act`` builds a graph and drops it (returns nothing it keeps).  It
    runs with ``gc`` off, so nothing is collected behind it; one
    collection under ``DEBUG_SAVEALL`` then moves every unreachable
    object into ``gc.garbage`` instead of freeing it.  What reference
    counting freed when ``act``'s last reference went is not there —
    an empty counter means the graph freed itself.  With ``warm``, one
    unmeasured call first, so first-use imports and tables stay out.
    """
    if warm:
        act()
    gc.collect()
    gc.disable()
    try:
        act()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return found
