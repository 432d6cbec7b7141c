"""Shared fixtures for core-package tests."""

import pytest

from repro.core import (CthScheduler, IsomallocArena, ThreadMigrator,
                        make_stack_manager)
from repro.sim import Cluster


STACK_BYTES = 16 * 1024


def make_cluster(n=2, platform="linux_x86", technique="isomalloc",
                 emulate_swap=False, stack_bytes=STACK_BYTES,
                 slot_bytes=256 * 1024, globals_decl=()):
    """Build a cluster with one scheduler per PE using one technique."""
    from repro.core.swapglobal import GlobalRegistry

    cl = Cluster(n, platform=platform)
    arena = IsomallocArena(cl.platform.layout(), n, slot_bytes=slot_bytes)
    scheds = []
    for pe in range(n):
        mgr = make_stack_manager(technique, cl[pe].space, cl.platform,
                                 stack_bytes, arena, pe)
        registry = None
        if globals_decl:
            registry = GlobalRegistry(cl[pe].space)
            for name, size in globals_decl:
                registry.declare(name, size)
            registry.build()
        scheds.append(CthScheduler(cl[pe], mgr, globals_registry=registry,
                                   emulate_swap=emulate_swap))
    migrator = ThreadMigrator(cl, scheds)
    return cl, scheds, migrator, arena


@pytest.fixture()
def iso_cluster():
    """Two-PE isomalloc cluster with swap emulation on."""
    return make_cluster(2, technique="isomalloc", emulate_swap=True)
