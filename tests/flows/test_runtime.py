"""``FlowWorld``'s own failure reports, in both hosted forms.

A world that drains with unfinished flows says where each is stuck — in
a receive (``r<rank>(waiting=(source, tag))``) or at the barrier
(``k of n ranks at the barrier``) — and a ``send`` to something that is
not a rank of the world is a ``ReproError`` naming sender and value,
whatever the value's type.
"""

import pytest

from repro.errors import ReproError
from repro.flows.runtime import FlowProgram, FlowWorld

FORMS = ("thread", "compiled")


def _rank0_skips_the_barrier(mpi):
    if mpi.rank == 0:
        return
    yield from mpi.barrier()


def _one_waits_the_rest_reach_the_barrier(mpi):
    if mpi.rank == 0:
        return
    if mpi.rank == 1:
        yield from mpi.recv(source=0, tag="never")
    yield from mpi.barrier()


def _make_sender(dest):
    def main(mpi):
        mpi.send(dest, "payload")
        yield "exit"
    return main


def _run(form, ranks, body):
    world = FlowWorld(ranks)
    world.spawn(form, FlowProgram(body.__name__, ranks, body))
    return world.run()


@pytest.mark.parametrize("form", FORMS)
def test_deadlock_report_counts_the_ranks_at_the_barrier(form):
    with pytest.raises(ReproError) as exc:
        _run(form, 4, _rank0_skips_the_barrier)
    assert str(exc.value) == ("flow world drained with 3 unfinished flows: "
                              "3 of 4 ranks at the barrier")


@pytest.mark.parametrize("form", FORMS)
def test_deadlock_report_names_receive_waits_beside_the_barrier(form):
    with pytest.raises(ReproError) as exc:
        _run(form, 4, _one_waits_the_rest_reach_the_barrier)
    assert str(exc.value) == ("flow world drained with 3 unfinished flows: "
                              "r1(waiting=(0, 'never')), "
                              "2 of 4 ranks at the barrier")


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("dest", [-1, 3, 1.0, None],
                         ids=["negative", "too-large", "float", "none"])
def test_send_to_a_bad_destination_is_a_positioned_repro_error(form, dest):
    with pytest.raises(ReproError) as exc:
        _run(form, 3, _make_sender(dest))
    assert type(exc.value) is ReproError
    assert f"flow r0: bad destination rank {dest!r}" in str(exc.value)
    assert "ranks 0..2" in str(exc.value)


@pytest.mark.parametrize("form", FORMS)
def test_send_to_the_last_rank_is_delivered(form):
    world = FlowWorld(3)
    world.spawn(form, FlowProgram("edge", 3, _make_sender(2)))
    world.run()
    assert world._mailbox[2] == [(r, None, "payload") for r in range(3)]
