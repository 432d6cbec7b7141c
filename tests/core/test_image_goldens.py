"""A thread image is an on-disk format: its bytes and its wire size, pinned.

A checkpoint blob's length is simulated disk time and a migration's
``wire_bytes`` is simulated network time, so a key added, dropped or
reordered in any technique's image moves every pinned makespan.  The
digests and sizes below were captured from the tree before the stack
managers shared one ``pack``/``unpack`` (each technique then had its own
copy), for one fixed thread under each technique, with the register image
absent (``extra_live == 0``) and present (``emulate_swap``).
"""

import hashlib

import pytest

from repro.core import (CthScheduler, IsomallocArena, MultiSlotAliasStacks,
                        ThreadMigrator, make_stack_manager)
from repro.core.pup import pack_value
from repro.sim import Cluster

STACK = 16 * 1024

#: (technique, emulate_swap) -> (sha256 of the packed image, wire_bytes).
GOLDEN = {
    ("isomalloc", False): (
        "5b2e456760540c99007a91dd6368b5c222b57c3e92419588870671fbc88c66f0",
        17040),
    ("isomalloc", True): (
        "a29255b05183d93ad9ce4a8668591108dc96f3d1bf152cad208e09e27f8d266a",
        17040),
    ("stack_copy", False): (
        "71fa1e92221b7f34927868dfc64c58d44ee9bb4d86bbda263d9709a663f8cc91",
        16640),
    ("stack_copy", True): (
        "91e3d7ca8edcdf70b77e93226bf267dafe72310e9c45ef8c2d84e6b07a4b3a9a",
        16640),
    ("memory_alias", False): (
        "021fc74098e8cde773e6d04068ef2aa07836f4b71f915e3299b18fcbaea91369",
        16640),
    ("memory_alias", True): (
        "aa514ddcffbe17516715bfc59b6a82d14536db3fd8c9096bd019743289ddac0f",
        16640),
    ("memory_alias_k", False): (
        "f3576896dd61faa33f6f246049bef409878bf8086141d321756126032080a81a",
        16640),
    ("memory_alias_k", True): (
        "2e0719a06c1da4112b125da1072244cfb09c7fd8a7d664eaac558cca0c50a302",
        16640),
}


def make_world(technique, emulate_swap):
    cluster = Cluster(2)
    arena = IsomallocArena(cluster.platform.layout(), 2,
                           slot_bytes=256 * 1024)
    scheds = []
    for pe in range(2):
        proc = cluster[pe]
        if technique == "memory_alias_k":
            mgr = MultiSlotAliasStacks(proc.space, cluster.platform,
                                       stack_bytes=STACK, slots=2)
        else:
            mgr = make_stack_manager(technique, proc.space, cluster.platform,
                                     STACK, arena, pe)
        scheds.append(CthScheduler(proc, mgr, emulate_swap=emulate_swap))
    return cluster, scheds, ThreadMigrator(cluster, scheds)


def fixed_thread(sched, technique):
    """Two threads (so the second lands in alias slot 1); the second
    fills some stack — and, under isomalloc, a heap with a hole in it —
    then suspends."""
    def body(th):
        cell = th.alloca(96)
        th.write(cell, bytes(range(96)))
        th.write_word(cell + 8, cell)           # a pointer into the stack
        if technique == "isomalloc":
            blocks = [th.malloc(n) for n in (48, 200, 16)]
            th.write(blocks[0], b"heap-data" * 5)
            th.free(blocks[1])                  # a free-list entry ships too
        yield "suspend"

    sched.create(lambda th: iter(()), name="filler")
    thread = sched.create(body, name="golden")
    sched.run()
    return thread


@pytest.mark.parametrize("technique,emulate_swap", sorted(GOLDEN))
def test_image_bytes_and_wire_size_are_the_pinned_ones(technique,
                                                       emulate_swap):
    cluster, scheds, migrator = make_world(technique, emulate_swap)
    thread = fixed_thread(scheds[0], technique)
    assert bool(thread.stack.extra_live) == emulate_swap
    blob = pack_value(migrator.pack(thread))
    migrator.migrate(thread, 1)
    cluster.run()
    assert (hashlib.sha256(blob).hexdigest(),
            migrator.bytes_shipped) == GOLDEN[technique, emulate_swap]
    # ... and the rebuilt thread packs to the same bytes on arrival.
    assert pack_value(migrator.pack(thread)) == blob
