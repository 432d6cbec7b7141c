"""What an AMPI rank costs the host, counted: objects the cyclic GC tracks.

The paper runs "much larger" numbers of virtual ranks than processors
(§4.5) and BigSim one thread per target processor (Figure 11), and every
full collection walks each tracked object a rank leaves alive again.
These pins keep the count where the runtime's layout puts it
(``tests/gccount.py`` explains the slope); the values before the
one-record rank are in brackets.

* a constructed rank (BigSim's 8 KB stack in a 64 KB isomalloc slot) is
  its thread, context, stack record and slot, the stack's mapping with
  its frame list and two frames, its message queue, its tid, its
  pending resumption with that slot's ``(thread,)`` args, and the
  region's free interval below its stack [22: also a heap with two
  lists, a posted-receive list, a body closure with its cell tuple and
  two cells, and a bound method per post];
* a rank that never mallocs has no heap, a rank that never irecvs no
  posted-receive list — migration included;
* a cross-processor message in flight is its ``AmpiMessage``, the
  network ``Message`` carrying it, its kernel slot and that slot's
  ``(msg, arrival)`` args tuple [5: also a ``Processor.deliver`` bound
  per send].
"""

from repro.ampi import AmpiRuntime
from repro.balance import RotateLB
from tests.gccount import tracked_per_unit

#: BigSim's per-rank sizes (``repro.bigsim.simulator``).
BIGSIM = dict(slot_bytes=64 * 1024, stack_bytes=8 * 1024)


def main(mpi):
    yield from mpi.barrier()


def test_a_constructed_rank_is_at_most_thirteen_tracked_objects():
    per_rank = tracked_per_unit(
        lambda n: n, lambda n: AmpiRuntime(4, n, main, **BIGSIM),
        small=200, large=600)
    assert per_rank <= 13, per_rank


def test_a_rank_carries_no_heap_or_posted_list_it_did_not_use():
    posted, has_heap = [], {}

    def body(mpi):
        if mpi.rank == 0:
            mpi.thread.malloc(64)
            req = mpi.irecv(source=1)
            posted.append(sorted(mpi.runtime._posted))
            yield from mpi.wait(req)
        elif mpi.rank == 1:
            mpi.send(0, "x")
        yield from mpi.migrate()          # RotateLB moves every rank
        has_heap[mpi.rank] = mpi.thread.stack.slot.heap is not None

    rt = AmpiRuntime(2, 4, body, strategy=RotateLB())
    assert [t.stack.slot.heap for t in rt.rank_thread] == [None] * 4
    assert rt._posted == {}
    rt.run()
    assert rt.migrator.migrations_completed == 4
    assert posted == [[0]] and rt._posted == {}
    assert has_heap == {0: True, 1: False, 2: False, 3: False}


def test_an_in_flight_message_is_at_most_four_tracked_objects():
    def prepare(n):
        rt = AmpiRuntime(2, 2, main)
        assert rt.rank_pe(0) != rt.rank_pe(1)
        return rt, n

    def send(state):
        rt, n = state
        ctx = rt.rank_ctx[0]
        for _ in range(n):
            ctx.send(1, None, size_bytes=8)
        assert len(rt.cluster.queue) >= n       # posted, none delivered
        return state

    per_message = tracked_per_unit(prepare, send)
    assert per_message <= 4, per_message
