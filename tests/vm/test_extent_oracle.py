"""The extent-based ``AddressSpace`` against the per-page reference model.

A Hypothesis state machine drives random mmap / munmap / reserve_run /
release_run / mprotect / attach / detach / remap / fork / read / write /
memcpy sequences through a real ``AddressSpace`` and through
``pagemodel.PageModel`` (each on its own frame pool; the model replays a
run as one call per mapping) and demands, after every step: the same
exception type
and faulting address, the same bytes, the same counters, the same frame
index behind every page, the same ``frames_in_use``, and the same frames
materialized — a page nobody wrote holds no host buffer, and neither
does a whole page copied from one.  Loads, stores and copies also run
across the boundary of two adjacent fixed-address mappings and as whole
pages onto frames nobody wrote, the two shapes a per-mapping ``read``/
``write`` treats differently from a per-page one; copies also overlap
inside one mapping and land on pages shared copy-on-write.
"""

import tracemalloc

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.bench.figures import stack_size_series
from repro.core import IsomallocArena, make_stack_manager
from repro.errors import (MapError, OutOfPhysicalMemory,
                          OutOfVirtualAddressSpace, ReproError, VMError)
from repro.sim import Cluster
from repro.vm import (AddressSpace, AddressSpaceLayout, PhysicalMemory,
                      Protection, Region)

from .pagemodel import PageModel

PAGE = 256
REGION_PAGES = 24
REGIONS = ("text", "data", "heap", "iso", "stack")
#: Regions a gap apart, but for "stack", which starts where "iso" ends:
#: a run of fixed-base mappings may cross from one region into the next.
LAYOUT = AddressSpaceLayout(32, PAGE, [
    Region(name, (i + 1) * 0x10000, REGION_PAGES * PAGE)
    for i, name in enumerate(REGIONS[:-1])] + [
    Region("stack", 0x40000 + REGION_PAGES * PAGE, REGION_PAGES * PAGE)])
POOL_FRAMES = 40
COUNTERS = ("mmap_calls", "munmap_calls", "remap_calls", "pages_mapped",
            "page_faults", "cow_breaks", "bytes_copied", "bytes_read",
            "bytes_written")

prots = st.sampled_from([Protection.RW, Protection.RW, Protection.READ,
                         Protection.NONE, Protection.RX])
picks = st.integers(0, 63)


def indices(frames):
    return [None if f is None else f.index for f in frames]


def both(real, model):
    """Run one step in both worlds; the same exception (type and, for a
    fault, address) or both succeed."""
    results, raised = [], []
    for step in (real, model):
        try:
            results.append(step())
            raised.append(None)
        except ReproError as exc:
            results.append(None)
            raised.append((type(exc), getattr(exc, "address", None)))
    assert raised[0] == raised[1], raised
    return results[0], results[1], raised[0] is None


def first_fit(model, region, npages):
    """The lowest first page of ``npages`` free pages in ``region``."""
    lo = LAYOUT.regions[region].start // PAGE
    return next((v for v in range(lo, lo + REGION_PAGES - npages + 1)
                 if not any(v + i in model.pages for i in range(npages))),
                None)


def fixed_place(base, npages):
    """``mmap(addr=base)``'s checks, in its order: the first page of a
    mapping at ``base``, or the error that refuses it there."""
    if base % PAGE:
        raise MapError("model: not page aligned")
    region = next((r for r in LAYOUT.regions.values()
                   if r.start <= base < r.end), None)
    if region is None:
        raise VMError("model: in no region")
    if base + npages * PAGE > region.end:
        raise MapError("model: runs off the region")
    return base // PAGE


class World:
    """One address space in both forms, plus its live mapping handles."""

    def __init__(self, real, model):
        self.real, self.model = real, model
        self.live = real.mappings()
        assert [m.start // PAGE for m in self.live] == list(model.extents)


class ExtentsMatchPages(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.real_pool = PhysicalMemory(POOL_FRAMES * PAGE, PAGE)
        self.model_pool = PhysicalMemory(POOL_FRAMES * PAGE, PAGE)
        self.worlds = [World(AddressSpace(LAYOUT, self.real_pool, "root"),
                             PageModel(self.model_pool))]
        #: Frame lists the test owns, in both pools: ``(real, model)``.
        self.loose = []
        self.dead = []

    def _world(self, pick):
        return self.worlds[pick % len(self.worlds)]

    def _mapping(self, world, pick):
        return world.live[pick % len(world.live)] if world.live else None

    # -- mappings ------------------------------------------------------

    @rule(w=picks, npages=st.integers(1, 5), prot=prots,
          region=st.sampled_from(REGIONS), reserve=st.booleans(),
          fixed=st.none() | st.integers(0, REGION_PAGES - 1))
    def mmap(self, w, npages, prot, region, reserve, fixed):
        self._mmap(self._world(w), npages, prot, region, reserve, fixed)

    @rule(w=picks, pick=picks, npages=st.integers(1, 5), prot=prots,
          reserve=st.booleans())
    def mmap_adjacent(self, w, pick, npages, prot, reserve):
        """A fixed-address mapping starting where a live one ends."""
        world = self._world(w)
        m = self._mapping(world, pick)
        if m is None:
            return
        fixed = (m.end - LAYOUT.regions[m.region].start) // PAGE
        if fixed < REGION_PAGES:
            self._mmap(world, npages, prot, m.region, reserve, fixed)

    def _mmap(self, world, npages, prot, region, reserve, fixed):
        lo = LAYOUT.regions[region].start // PAGE
        if fixed is None:       # first fit, as _FreeList promises
            first = first_fit(world.model, region, npages)
        else:
            first = lo + fixed

        def model_mmap():
            if first is None:
                raise OutOfVirtualAddressSpace("model")
            if first + npages > lo + REGION_PAGES:
                raise MapError("model: runs off the region")
            world.model.mmap(first, npages, prot, reserve)

        m, _, ok = both(
            lambda: world.real.mmap(
                npages * PAGE - 7, prot, region=region, reserve_only=reserve,
                addr=None if fixed is None else first * PAGE),
            model_mmap)
        if ok:
            assert m.start == first * PAGE and m.length == npages * PAGE
            world.live.append(m)

    # -- runs: the model replays one as a call per mapping ----------------

    @rule(w=picks, count=st.integers(1, 6), npages=st.integers(1, 4),
          region=st.sampled_from(REGIONS))
    def reserve_run(self, w, count, npages, region):
        """First fit in ``region``: as ``count`` first-fit ``mmap`` calls
        would place them, or refused whole."""
        world = self._world(w)
        self._run(world, npages, [None] * count, lambda: world.real.reserve_run(
            count, npages * PAGE - 7, region=region), region)

    @rule(w=picks, npages=st.integers(1, 3),
          region=st.sampled_from(REGIONS), first=st.integers(0, REGION_PAGES),
          count=st.integers(1, 5), at=st.integers(1, 4),
          jump=st.integers(0, 2), reverse=st.booleans(),
          skew=st.none() | st.integers(0, 4), undo=st.booleans())
    def reserve_fixed_run(self, w, npages, region, first, count, at, jump,
                          reverse, skew, undo):
        """Adjacent fixed bases from page ``first`` of ``region``, ``jump``
        pages further on from base ``at`` (a second stretch), reversed or
        not (a stretch per base); the run may cross the region's end,
        into "stack" after "iso" or into no region, and base ``skew`` is
        8 bytes off its page.  With ``undo``, the run is released whole,
        in the order it was made."""
        lo = LAYOUT.regions[region].start
        bases = [lo + (first + i * npages + (jump if i >= at else 0)) * PAGE
                 for i in range(count)]
        if skew is not None and skew < count:
            bases[skew] += 8
        if reverse:
            bases.reverse()
        world = self._world(w)
        made = self._fixed_run(world, npages, bases)
        if undo and made:
            self._release(world, made)

    @rule(w=picks, npages=st.integers(1, 2), back=st.integers(1, 3),
          count=st.integers(2, 5), undo=st.booleans())
    def reserve_fixed_run_across_regions(self, w, npages, back, count, undo):
        """Adjacent fixed bases from ``back`` mappings before the end of
        "iso" on into "stack": one stretch of bases, two regions' free
        lists.  With ``undo``, the run is released whole."""
        world = self._world(w)
        start = LAYOUT.regions["stack"].start - back * npages * PAGE
        made = self._fixed_run(world, npages, [start + i * npages * PAGE
                                               for i in range(count)])
        if undo and made:
            self._release(world, made)

    @rule(w=picks, pick=picks, npages=st.integers(1, 3),
          count=st.integers(1, 4), back=st.integers(0, 3))
    def reserve_fixed_run_into_a_live_mapping(self, w, pick, npages, count,
                                              back):
        """Adjacent fixed bases from ``back`` mappings before a live
        mapping's start: a base already taken, unless the stretch stops
        short of it; with ``back`` 0, from the live mapping's end."""
        world = self._world(w)
        m = self._mapping(world, pick)
        if m is not None:
            start = m.start - back * npages * PAGE if back else m.end
            self._fixed_run(world, npages, [start + i * npages * PAGE
                                            for i in range(count)])

    def _fixed_run(self, world, npages, bases):
        return self._run(world, npages, bases, lambda: world.real.reserve_run(
            len(bases), npages * PAGE - 7, bases=bases))

    def _run(self, world, npages, bases, real_run, region=None):
        """Run ``real_run`` against one ``mmap`` per entry of ``bases`` (a
        fixed base, or ``None`` for first fit in ``region``) in the model,
        taking back the ones made before a refusal."""
        def model_run():
            made = []
            try:
                for base in bases:
                    if base is None:
                        first = first_fit(world.model, region, npages)
                        if first is None:
                            raise OutOfVirtualAddressSpace("model")
                    else:
                        first = fixed_place(base, npages)
                    world.model.mmap(first, npages, Protection.RW, True)
                    made.append(first)
            except ReproError:
                for first in made:
                    world.model.forget(first)
                raise
            return made

        run, firsts, ok = both(real_run, model_run)
        if ok:
            assert [m.start // PAGE for m in run] == firsts
            assert all(m.length == npages * PAGE and m.reserved
                       for m in run)
            world.live += run
        return run

    @rule(w=picks, picks_=st.lists(picks, max_size=6), stale=picks,
          with_stale=st.booleans())
    def release_run(self, w, picks_, stale, with_stale):
        """A random subset of the live mappings, in random order (a
        mapping picked twice is not live the second time), and maybe a
        dead handle among them: as one ``munmap`` per mapping, up to the
        first that is not live."""
        world = self._world(w)
        if not world.live:
            return
        victims = [world.live[p % len(world.live)] for p in picks_]
        if with_stale and self.dead:
            victims.insert(stale % (len(victims) + 1),
                           self.dead[stale % len(self.dead)][1])
        self._release(world, victims)

    def _release(self, world, victims):
        gone = []

        def model_run():
            for m in victims:
                if m in gone or m not in world.live:
                    raise MapError("model: not live")
                world.model.munmap(m.start // PAGE)
                gone.append(m)

        both(lambda: world.real.release_run(victims), model_run)
        for m in gone:
            world.live.remove(m)
            self.dead.append((world, m))

    @rule(w=picks, pick=picks)
    def munmap(self, w, pick):
        world = self._world(w)
        m = self._mapping(world, pick)
        if m is not None:
            both(lambda: world.real.munmap(m),
                 lambda: world.model.munmap(m.start // PAGE))
            world.live.remove(m)
            self.dead.append((world, m))

    @rule(w=picks, pick=picks, prot=prots)
    def mprotect(self, w, pick, prot):
        world = self._world(w)
        m = self._mapping(world, pick)
        if m is not None:
            both(lambda: world.real.mprotect(m, prot),
                 lambda: world.model.mprotect(m.start // PAGE, prot))

    @rule(pick=picks, op=st.sampled_from(
        ["munmap", "mprotect", "attach", "detach", "remap"]))
    def stale_handle_is_refused(self, pick, op):
        if not self.dead:
            return
        world, m = self.dead[pick % len(self.dead)]
        npages = m.length // PAGE
        call = {"munmap": lambda: world.real.munmap(m),
                "mprotect": lambda: world.real.mprotect(m, Protection.RW),
                "attach": lambda: world.real.attach_frames(m, [None] * npages),
                "detach": lambda: world.real.detach_frames(m),
                "remap": lambda: world.real.remap_frames(m, [None] * npages)}
        with pytest.raises(MapError):
            call[op]()

    # -- frames --------------------------------------------------------

    @rule(shape=st.lists(st.booleans(), min_size=1, max_size=5))
    def grab_frames(self, shape):
        """Loose frames (``None`` where ``shape`` says so), bulk vs one by
        one: the same indices in the same order."""
        want = sum(shape)

        def one_by_one():
            if want > self.model_pool.frames_free:
                raise OutOfPhysicalMemory("model")
            return [self.model_pool.allocate_frame() for _ in range(want)]

        real, model, ok = both(
            lambda: self.real_pool.allocate_frames(want), one_by_one)
        if ok:
            pair = tuple([frames.pop(0) if keep else None for keep in shape]
                         for frames in (real, model))
            self.loose.append(pair)

    @rule(w=picks, pick=picks, keep=st.integers(0, 3), kid=st.booleans(),
          fill=st.integers(0, 255))
    def cow_write_with_pool_exhausted(self, w, pick, keep, kid, fill):
        """Fork a world copy-on-write, take all but ``keep`` free frames,
        then write one shared mapping whole, in the parent or the child:
        a COW break may find no frame partway through."""
        world = self._world(w)
        m = self._mapping(world, pick)
        forks = len(self.worlds)
        if m is None or m.frames is None or forks == 4:
            return
        self.mprotect(w, pick, Protection.RW)
        self.fork(w, True)
        if len(self.worlds) == forks:
            return
        want = self.real_pool.frames_free - keep
        if want > 0:
            self.grab_frames([True] * want)
        target = self.worlds[-1] if kid else world
        self._write_whole(target, world.live.index(m), fill)

    @rule(w=picks, pick=picks, holes=st.lists(st.booleans(), min_size=5,
                                              max_size=5),
          fill=st.integers(0, 255))
    def remap_with_holes(self, w, pick, holes, fill):
        """Leave a writable mapping partly resident — a fresh frame under
        its first page and some others, none under the rest — then read
        and write all of it."""
        world = self._world(w)
        m = self._mapping(world, pick)
        if m is None:
            return
        self.mprotect(w, pick, Protection.RW)
        loose = len(self.loose)
        self.grab_frames([True] + [not hole for hole
                                   in holes[1:m.length // PAGE]])
        if len(self.loose) > loose:
            self.remap(w, pick, loose)
        real, model, _ = both(lambda: world.real.read(m.start, m.length),
                              lambda: world.model.read(m.start, m.length))
        assert real == model
        self._write_whole(world, pick, fill)

    def _write_whole(self, world, pick, fill):
        m = self._mapping(world, pick)
        if m is not None:
            payload = bytes([fill, 255 - fill]) * (m.length // 2)
            both(lambda: world.real.write(m.start, payload),
                 lambda: world.model.write(m.start, payload))

    @rule(pick=picks)
    def free_loose(self, pick):
        if self.loose:
            real, model = self.loose.pop(pick % len(self.loose))
            self.real_pool.free_frames([f for f in real if f is not None])
            for frame in model:
                if frame is not None:
                    self.model_pool.free_frame(frame)

    @rule(w=picks, pick=picks, lpick=picks)
    def attach(self, w, pick, lpick):
        world = self._world(w)
        m = self._mapping(world, pick)
        if m is None or not self.loose:
            return
        at = lpick % len(self.loose)
        real, model = self.loose[at]
        _, _, ok = both(
            lambda: world.real.attach_frames(m, real),
            lambda: world.model.swap(m.start // PAGE, model, "reserved"))
        if ok:
            del self.loose[at]
            real.clear()        # the mapping kept its own copy

    @rule(w=picks, pick=picks)
    def detach(self, w, pick):
        world = self._world(w)
        m = self._mapping(world, pick)
        if m is None:
            return
        real, model, ok = both(
            lambda: world.real.detach_frames(m),
            lambda: world.model.swap(m.start // PAGE, None, "resident"))
        if ok:
            assert indices(real) == indices(model)
            self.loose.append((real, model))

    @rule(w=picks, pick=picks, lpick=picks)
    def remap(self, w, pick, lpick):
        world = self._world(w)
        m = self._mapping(world, pick)
        if m is None or not self.loose:
            return
        at = lpick % len(self.loose)
        real, model = self.loose[at]
        old_real, old_model, ok = both(
            lambda: world.real.remap_frames(m, real),
            lambda: world.model.swap(m.start // PAGE, model))
        if ok:
            assert indices(old_real) == indices(old_model)
            self.loose[at] = (old_real, old_model)
            real.clear()        # the mapping kept its own copy

    @rule(w=picks, cow=st.booleans())
    def fork(self, w, cow):
        world = self._world(w)
        if len(self.worlds) < 4:
            real, model, ok = both(lambda: world.real.fork_copy("kid", cow),
                                   lambda: world.model.fork(cow))
            if ok:
                self.worlds.append(World(real, model))

    # -- loads and stores ------------------------------------------------

    def _address(self, world, pick, offset):
        m = self._mapping(world, pick)
        base = m.start if m is not None else LAYOUT.regions["heap"].start
        return base + offset

    @rule(w=picks, pick=picks, offset=st.integers(-8, 4 * PAGE),
          length=st.integers(-3, 3 * PAGE))
    def read(self, w, pick, offset, length):
        world = self._world(w)
        address = self._address(world, pick, offset)
        real, model, _ = both(lambda: world.real.read(address, length),
                              lambda: world.model.read(address, length))
        assert real == model

    @rule(w=picks, pick=picks, offset=st.integers(-8, 4 * PAGE),
          payload=st.binary(max_size=3 * PAGE))
    def write(self, w, pick, offset, payload):
        world = self._world(w)
        address = self._address(world, pick, offset)
        both(lambda: world.real.write(address, payload),
             lambda: world.model.write(address, payload))

    @rule(w=picks, pick=picks, back=st.integers(1, 2 * PAGE),
          ahead=st.integers(1, 2 * PAGE))
    def read_across(self, w, pick, back, ahead):
        """From ``back`` bytes before a mapping's end to ``ahead`` past
        it: into the adjacent mapping, if there is one."""
        world = self._world(w)
        m = self._mapping(world, pick)
        if m is not None:
            real, model, _ = both(
                lambda: world.real.read(m.end - back, back + ahead),
                lambda: world.model.read(m.end - back, back + ahead))
            assert real == model

    @rule(w=picks, pick=picks, back=st.integers(1, 2 * PAGE),
          payload=st.binary(min_size=1, max_size=3 * PAGE))
    def write_across(self, w, pick, back, payload):
        world = self._world(w)
        m = self._mapping(world, pick)
        if m is not None:
            both(lambda: world.real.write(m.end - back, payload),
                 lambda: world.model.write(m.end - back, payload))

    @rule(w=picks, pick=picks, page=st.integers(0, 4),
          npages=st.integers(1, 5), fill=st.integers(0, 255))
    def write_whole_pages(self, w, pick, page, npages, fill):
        """Page-aligned whole pages: onto a frame nobody wrote, each
        becomes the frame's buffer with no zero-fill first."""
        world = self._world(w)
        m = self._mapping(world, pick)
        if m is not None:
            payload = bytes([fill, 255 - fill]) * (npages * PAGE // 2)
            both(lambda: world.real.write(m.start + page * PAGE, payload),
                 lambda: world.model.write(m.start + page * PAGE, payload))

    # -- copies ------------------------------------------------------------

    def _memcpy(self, world, dst, src, length):
        both(lambda: world.real.memcpy_in(dst, src, length),
             lambda: world.model.memcpy(dst, src, length))

    @rule(w=picks, pick=picks, spick=picks, offset=st.integers(-8, 4 * PAGE),
          soffset=st.integers(-8, 4 * PAGE),
          length=st.integers(-3, 3 * PAGE))
    def memcpy(self, w, pick, spick, offset, soffset, length):
        """From anywhere to anywhere: ragged ends, across the boundary of
        two mappings, faulting on either side."""
        world = self._world(w)
        self._memcpy(world, self._address(world, pick, offset),
                     self._address(world, spick, soffset), length)

    @rule(w=picks, pick=picks, spick=picks, page=st.integers(0, 4),
          spage=st.integers(0, 4), npages=st.integers(1, 5))
    def memcpy_whole_pages(self, w, pick, spick, page, spage, npages):
        """Page-aligned whole pages: a page nobody wrote stays unwritten,
        a written one is one page-sized copy."""
        world = self._world(w)
        m, s = self._mapping(world, pick), self._mapping(world, spick)
        if m is not None and s is not None:
            self._memcpy(world, m.start + page * PAGE, s.start + spage * PAGE,
                         npages * PAGE)

    @rule(w=picks, pick=picks, at=st.integers(0, 5 * PAGE),
          shift=st.integers(-PAGE - 3, PAGE + 3),
          length=st.integers(0, 3 * PAGE),
          fill=st.none() | st.integers(0, 250))
    def memcpy_overlapping(self, w, pick, at, shift, length, fill):
        """Source and destination in one mapping, ``shift`` apart: the
        copy is ``memmove``'s.  With ``fill``, the mapping is first made
        writable and written with bytes no shift maps onto themselves."""
        world = self._world(w)
        m = self._mapping(world, pick)
        if m is None:
            return
        if fill is not None:
            self.mprotect(w, pick, Protection.RW)
            payload = bytes((fill + i) % 251 for i in range(m.length))
            both(lambda: world.real.write(m.start, payload),
                 lambda: world.model.write(m.start, payload))
        src = at % m.length
        dst = min(max(src + shift, 0), m.length - 1)
        length = min(length, m.length - max(src, dst))
        self._memcpy(world, m.start + dst, m.start + src, length)

    @rule(w=picks, pick=picks, spick=picks, keep=st.integers(0, 3),
          kid=st.booleans(), shift=st.integers(0, PAGE + 5))
    def memcpy_onto_cow_with_pool_exhausted(self, w, pick, spick, keep, kid,
                                            shift):
        """Fork a world copy-on-write, take all but ``keep`` free frames,
        then copy onto one shared mapping whole, in the parent or the
        child: each page's sharing breaks before it is stored, and a
        break may find no frame partway through."""
        world = self._world(w)
        m = self._mapping(world, pick)
        forks = len(self.worlds)
        if m is None or m.frames is None or forks == 4:
            return
        self.mprotect(w, pick, Protection.RW)
        self.fork(w, True)
        if len(self.worlds) == forks:
            return
        want = self.real_pool.frames_free - keep
        if want > 0:
            self.grab_frames([True] * want)
        target = self.worlds[-1] if kid else world
        dm = target.live[world.live.index(m)]
        sm = self._mapping(target, spick)
        self._memcpy(target, dm.start, sm.start + shift, dm.length)

    # -- what must agree after every step ----------------------------------

    @invariant()
    def pools_agree(self):
        real, model = self.real_pool, self.model_pool
        assert real.frames_in_use == model.frames_in_use
        assert real.frames_allocated_ever == model.frames_allocated_ever
        for a, b in zip(real._frames, model._frames, strict=True):
            assert (a.allocated, a.refcount, a.materialized) == \
                (b.allocated, b.refcount, b.materialized)
            assert a.read(0, PAGE) == b.read(0, PAGE)

    @invariant()
    def spaces_agree(self):
        for world in self.worlds:
            real, model = world.real, world.model
            assert {c: getattr(real, c) for c in COUNTERS} == \
                {c: model.n[c] for c in COUNTERS}
            assert real.mappings() == world.live
            assert [m.start // PAGE for m in world.live] == list(model.extents)
            assert real._starts == sorted(real._mappings)
            for name in REGIONS:
                # The free list is exactly the region's unmapped pages.
                region = LAYOUT.regions[name]
                free = real._free.get(name)
                intervals = free._intervals if free else [(region.start,
                                                           region.end)]
                pages = [p for lo, hi in intervals
                         for p in range(lo // PAGE, hi // PAGE)]
                assert pages == [p for p in range(region.start // PAGE,
                                                  region.end // PAGE)
                                 if p not in model.pages]
                assert all(hi < nlo for (_, hi), (nlo, _)
                           in zip(intervals, intervals[1:]))
            assert real.mapped_bytes == len(model.pages) * PAGE
            assert real.resident_bytes == PAGE * sum(
                pte[0] is not None for pte in model.pages.values())
            for m in world.live:
                for i in range(m.length // PAGE):
                    frame, prot, cow = model.pages[m.start // PAGE + i]
                    address = m.start + i * PAGE + 3
                    assert real.mapping_at(address) is m
                    assert real.is_resident(address) == (frame is not None)
                    held = m.frames[i] if m.frames is not None else None
                    assert (held and held.index) == (frame and frame.index)
                    assert m.prot == prot
                    assert (m.cow is not None and i in m.cow) == cow
                assert not real.is_mapped(m.end) or \
                    real.mapping_at(m.end) is not m
                if m.frames is not None and None not in m.frames:
                    # The pool's one load, whole and ragged at both ends,
                    # against the frames read one by one.
                    pages = b"".join(f.read(0, PAGE) for f in m.frames)
                    load = real.physical.load
                    assert load(m.frames, 0, m.length) == pages
                    assert load(m.frames, 5, m.length - 9) == pages[5:-4]


ExtentsMatchPages.TestCase.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None)
TestExtentsMatchPages = ExtentsMatchPages.TestCase


@pytest.mark.parametrize("technique", ["isomalloc", "stack_copy",
                                       "memory_alias"])
def test_packing_a_never_written_stack_materializes_no_frame(technique):
    """An 8-page stack nobody wrote packs to zeros without giving any
    frame a host buffer, under each technique's road to its bytes."""
    cluster = Cluster(1)
    proc = cluster[0]
    page = proc.space.layout.page_size
    arena = IsomallocArena(cluster.platform.layout(), 1,
                           slot_bytes=16 * page)
    mgr = make_stack_manager(technique, proc.space, cluster.platform,
                             8 * page, arena, 0)
    image = mgr.pack(mgr.create_stack())
    stack = image["slot"]["stack_contents"] if "slot" in image \
        else image["contents"]
    assert stack == bytes(8 * page)
    assert not any(f.materialized for f in proc.space.physical._frames)


def test_switching_a_never_written_stack_copy_thread_materializes_no_frame():
    """Switching an 8-page stack-copy thread nobody wrote in and out
    copies 16 pages, between its backing store and the common stack,
    without giving any frame a host buffer."""
    cluster = Cluster(1)
    proc = cluster[0]
    page = proc.space.layout.page_size
    mgr = make_stack_manager("stack_copy", proc.space, cluster.platform,
                             8 * page, None)
    rec = mgr.create_stack()
    rec.consume(8 * page)
    copied = proc.space.bytes_copied
    mgr.switch_in(rec)
    mgr.switch_out(rec)
    assert proc.space.bytes_copied - copied == 16 * page
    assert not any(f.materialized for f in proc.space.physical._frames)


def test_a_figure_9_point_at_8_mb_costs_the_host_under_4_mb():
    """One Figure 9 point — a switch cycle of two 8 MB stacks under each
    technique — holds no host buffer for stack bytes nobody wrote: stack
    copying moves frames, not two 8 MB byte strings and 24 MB of zero
    pages."""
    tracemalloc.start()
    try:
        stack_size_series(sizes=[8 << 20])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
