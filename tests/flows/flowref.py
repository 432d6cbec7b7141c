"""The flow mechanisms' creation road as it shipped before flows were
created a run at a time: one flow per call, all the way down.

Each flow paid its own uthread-cap check, isomalloc slot, first-fit
``mmap`` (the free-list scan included), one-frame allocation and clock
charge, and ``destroy_all`` popped and released one flow at a time.  It
is kept here as the differential oracle (the role
``tests/kernel/refkernel.py`` plays for the kernel and
``tests/core/pupref.py`` for the value codec): slow, and the definition
of what a run must leave behind — ``test_creation_runs.py`` holds
``create_flows``/``destroy_all``/``probe_limit`` to it in addresses,
frame indices, free intervals, slot order, counters, exception text and
the bits of the processor clock.

The primitives that changed with the run road (first fit, slot grants,
the stack reservation) are copied here; what did not change (``munmap``,
``allocate_frames``, ``charge``, the kernel model, the per-flow bodies of
processes and event objects) is called.
"""

import bisect

from repro.errors import (MapError, OSLimitError, OutOfPhysicalMemory,
                          OutOfVirtualAddressSpace, ThreadError,
                          ThreadLimitExceeded, VMError)
from repro.flows import (AmpiThreadFlow, CompiledContinuationFlow,
                         HybridThreadFlow, KernelThreadFlow, UserThreadFlow)
from repro.vm import Mapping, Protection


def _first_fit(free, length, align):
    for i, (lo, hi) in enumerate(free._intervals):
        base = -(-lo // align) * align
        if base + length <= hi:
            free._remove_range(i, lo, hi, base, base + length)
            return base
    raise OutOfVirtualAddressSpace(
        f"no free interval of {length} bytes (align {align})")


def _mmap_reserved(space, length, region, addr, tag):
    """``AddressSpace.mmap(length, region=region, addr=addr,
    reserve_only=True, tag=tag)``."""
    if length <= 0:
        raise MapError(f"mmap length must be positive, got {length}")
    page_size = space.layout.page_size
    npages = space.layout.pages_for(length)
    length = npages * page_size
    if addr is None:
        start = _first_fit(space._region_free(region), length, page_size)
    else:
        if addr % page_size:
            raise MapError(f"fixed mmap address {addr:#x} not page aligned")
        region = space.layout.region_of(addr).name
        space._region_free(region).allocate_fixed(addr, length)
        start = addr
    mapping = Mapping(start, length, Protection.RW, region, tag, None)
    starts = space._starts
    if not starts or starts[-1] < start:
        starts.append(start)
    else:
        bisect.insort(starts, start)
    space._mappings[start] = mapping
    space.mmap_calls += 1
    space.pages_mapped += npages
    return mapping


def _allocate_slot(arena, pe):
    arena._check_pe(pe)
    if arena._free_indices[pe]:
        index = arena._free_indices[pe].pop()
    else:
        index = arena._next_index[pe]
        if index >= arena.slots_per_pe:
            raise OutOfVirtualAddressSpace(
                f"processor {pe} exhausted its isomalloc range "
                f"({arena.slots_per_pe} slots of {arena.slot_bytes} bytes)")
        arena._next_index[pe] += 1
    start, _ = arena.pe_range(pe)
    base = start + index * arena.slot_bytes
    arena._owner[base] = pe
    return base


def _release_slot(arena, base):
    pe = arena._owner.pop(base, None)
    if pe is None:
        raise ThreadError(f"slot base {base:#x} was not allocated")
    start, _ = arena.pe_range(pe)
    arena._free_indices[pe].append((base - start) // arena.slot_bytes)


def _refuse_past_uthread_cap(mech):
    limit = mech.profile.max_uthreads
    if limit is not None and mech.n_flows >= limit:
        raise ThreadLimitExceeded(
            f"{mech.profile.name}: per-user memory cap reached at "
            f"{limit} user-level threads")


def _reserve_stack(mech, nbytes, tag, addr=None):
    space = mech.processor.space
    stack = _mmap_reserved(space, nbytes, "iso", addr, tag)
    try:
        touched = space.physical.allocate_frames(1)[0]
    except OutOfPhysicalMemory:
        space.munmap(stack)
        raise
    return stack, touched


def _release_stack(mech, payload):
    stack, touched = payload
    mech.processor.space.munmap(stack)
    mech.processor.space.physical.free_frames((touched,))


def _create(mech, index):
    """One flow, as the mechanism's per-flow ``_create`` made it."""
    proc, p = mech.processor, mech.profile
    if isinstance(mech, UserThreadFlow):
        _refuse_past_uthread_cap(mech)
        payload = _reserve_stack(mech, mech.stack_bytes, "cth-stack")
        proc.charge(p.uthread_create_ns)
        return payload
    if isinstance(mech, AmpiThreadFlow):
        _refuse_past_uthread_cap(mech)
        base = _allocate_slot(mech.arena, 0)
        try:
            payload = _reserve_stack(mech, mech.arena.slot_bytes,
                                     "ampi-slot", addr=base)
        except VMError:
            _release_slot(mech.arena, base)
            raise
        proc.charge(p.uthread_create_ns + p.ampi_overhead_ns)
        return payload
    if isinstance(mech, CompiledContinuationFlow):
        proc.charge(p.event_dispatch_ns + mech.continuation_ns)
        return None
    if isinstance(mech, KernelThreadFlow):
        proc.kernel.thread_create()
        try:
            payload = _reserve_stack(mech, mech.stack_bytes, "pthread-stack")
        except VMError:
            proc.kernel.thread_exit()
            raise
        proc.charge(p.pthread_create_ns)
        return payload
    if isinstance(mech, HybridThreadFlow):
        payload = _reserve_stack(mech, mech.stack_bytes, "nm-stack")
        proc.charge(p.uthread_create_ns + mech.coordination_ns)
        return payload
    return mech._create(index)          # processes, event objects


def _destroy(mech, payload):
    if isinstance(mech, (UserThreadFlow, HybridThreadFlow)):
        _release_stack(mech, payload)
    elif isinstance(mech, AmpiThreadFlow):
        _release_stack(mech, payload)
        _release_slot(mech.arena, payload[0].start)
    elif isinstance(mech, KernelThreadFlow):
        _release_stack(mech, payload)
        mech.processor.kernel.thread_exit()
    elif not isinstance(mech, CompiledContinuationFlow):
        mech._destroy(payload)


def create_flow(mech):
    payload = _create(mech, len(mech.flows))
    mech.flows.append(payload)
    return payload


def destroy_all(mech):
    while mech.flows:
        _destroy(mech, mech.flows.pop())


def grow_to(mech, n):
    """The creation loop of ``run_yield_benchmark`` and
    ``run_workload(real_flows=True)``."""
    while mech.n_flows < n:
        create_flow(mech)


def run_yield_benchmark(mech, n_flows, rounds=3, keep=False):
    """``FlowMechanism.run_yield_benchmark`` over the per-flow loop;
    returns ``(total_ns, ns_per_switch)``."""
    grow_to(mech, n_flows)
    start = mech.processor.now
    switches = n_flows * rounds
    mech.processor.charge(mech.switch_cost_ns(n_flows) * switches)
    total = mech.processor.now - start
    if not keep:
        destroy_all(mech)
    return total, total / switches


def probe_limit(mech, cap):
    """``probe_limit``'s loop; returns ``(count, hit_limit, factor)``."""
    count = 0
    factor = mech.limiting_factor
    hit = False
    try:
        while count < cap:
            create_flow(mech)
            count += 1
    except OSLimitError:
        hit = True
    except (OutOfPhysicalMemory, OutOfVirtualAddressSpace):
        hit = True
        factor = "memory"
    finally:
        destroy_all(mech)
    return count, hit, factor


def run_workload(mech, program):
    """``run_workload(program)``'s creation and teardown around the
    world it runs; returns the world's results."""
    from repro.flows import FlowWorld
    try:
        grow_to(mech, program.ranks)
        world = FlowWorld(program.ranks,
                          dispatch_cost_ns=mech.switch_cost_ns(program.ranks))
        world.spawn(mech.form, program)
        world.run()
    finally:
        destroy_all(mech)
    return world.results
