"""What a flow costs the host, counted: objects the cyclic GC tracks.

A compiled flow is "one small frame record — no stack, no kernel
object" (``repro.flows.compiled``), and the collector walks every
tracked object again at each full collection, so the count per flow is
a host cost of its own (on the 80 000-flow ``flows_drain`` it was a
third of the time when a flow held seven).  These pins keep the count
where the runtime's layout puts it (``tests/gccount.py`` explains the
slope); the values before the one-record layout are in brackets.

* a spawned rank is its task (a ``FlowContext`` subclass), the task's
  ``(task,)`` kernel args tuple, and its frame record or body
  generator — no separate context, no mailbox until a message
  arrives [5 per rank, both forms];
* a run of compiled flows (``create_flows``) allocates nothing per
  flow — each payload is ``None`` [1]; a Cth or AMPI flow is its stack
  mapping, the touched frame and the tuple that holds them [5, then 4
  while a one-frame list held the frame] — a run keeps no set of starts
  and no second copy of any start;
* seeding posts exactly one kernel slot per rank;
* a round of yields from the seeded slots leaves nothing tracked: each
  resume replaces its slot and re-posts the one ``FlowWorld._resume``
  function [1 per rank: a bound method per post].
"""

import pytest

from repro.flows import (AmpiThreadFlow, CompiledContinuationFlow,
                         UserThreadFlow)
from repro.flows.programs import spin_program
from repro.flows.runtime import FlowWorld
from repro.sim import Processor, get_platform
from tests.gccount import tracked_per_unit


def _proc():
    return Processor(0, get_platform("linux_x86"))


def _spawned(form):
    def spawn(program):
        world = FlowWorld(program.ranks)
        world.spawn(form, program)
        return world
    return tracked_per_unit(lambda n: spin_program(n, 2), spawn)


@pytest.mark.parametrize("form", ["compiled", "thread"])
def test_a_spawned_rank_is_at_most_three_tracked_objects(form):
    assert _spawned(form) <= 3


def _created(mechanism):
    def prepare(n):
        return mechanism(_proc()), n

    def create(state):
        mech, n = state
        mech.create_flows(n)
    return tracked_per_unit(prepare, create)


def test_creating_a_compiled_flow_allocates_nothing_tracked():
    assert _created(CompiledContinuationFlow) == 0


@pytest.mark.parametrize("mechanism", [UserThreadFlow, AmpiThreadFlow],
                         ids=["cth", "ampi"])
def test_creating_a_thread_flow_is_at_most_three_tracked_objects(mechanism):
    assert _created(mechanism) <= 3


def test_seeding_posts_exactly_one_slot_per_rank():
    def prepare(n):
        world = FlowWorld(n)
        world.spawn("compiled", spin_program(n, 2))
        return world
    assert tracked_per_unit(prepare, FlowWorld.seed) == 1


@pytest.mark.parametrize("form", ["compiled", "thread"])
def test_a_round_of_yields_leaves_nothing_tracked_per_rank(form):
    def prepare(n):
        world = FlowWorld(n)
        world.spawn(form, spin_program(n, 3))
        world.seed()
        return world

    def one_round(world):
        assert world.kernel.run_batch(max_events=world.ranks) == world.ranks
    assert tracked_per_unit(prepare, one_round) == 0
