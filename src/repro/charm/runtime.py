"""The Charm-style runtime: chare arrays, routing, reductions, migration.

Location-independent messaging works as in the real system's array manager
(paper Section 3.1.2, reference [28]): every element has a *home* processor
(``index % P``) that always knows its authoritative location.  Senders use a
local location cache; a message reaching a processor the element has left
is forwarded — via the departure tombstone or the home — so "object or
thread migration with ongoing point-to-point communication" just works.

Every invocation takes one road, :meth:`CharmRuntime._execute`: a method of
the chare is called (a generator method starts the element's one SDAG
continuation); any other name is a ``when`` message for the element's one
buffer.  Both are the element's :class:`repro.charm.sdag.SdagDriver`.  The
processors' handler and the proxies hold the runtime weakly, so a finished
run is freed by reference counting.

Arguments and contributions are the receiver's own: ``send_invoke`` and
``_contribute`` freeze them (:func:`repro.core.pup.freeze_value`), and
``_execute`` and ``_on_reduce`` thaw a fresh copy per delivery.
"""

from __future__ import annotations

import inspect
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.errors import CommError, PupError, SdagError
from repro.charm.chare import Chare
from repro.charm.reduction import combine
from repro.charm.sdag import SdagDriver
from repro.core.pup import (FROZEN, Frozen, freeze_value, pack_value,
                             pup_pack, pup_registered, pup_unpack,
                             thaw_value, unpack_value)
from repro.kernel import QuiescenceCounter
from repro.sim.cluster import Cluster
from repro.sim.network import Message
from repro.sim.processor import weak_handler

__all__ = ["CharmRuntime", "ArrayProxy", "ElementProxy"]

_TAG = "charm"


class _Proxy:
    """A proxy's ``_runtime_ref`` is weak: the runtime holds the elements,
    which hold their proxies.  A proxy that outlives it refuses to send."""

    @property
    def runtime(self) -> "CharmRuntime":
        """The hosting runtime."""
        runtime = self._runtime_ref()
        if runtime is None:
            raise CommError(f"a proxy of array a{self.aid} outlived its "
                            f"runtime")
        return runtime


class ElementProxy(_Proxy):
    """Handle for sending messages to one array element."""

    def __init__(self, runtime_ref: "weakref.ref[CharmRuntime]", aid: int,
                 index: int):
        self._runtime_ref, self.aid, self.index = runtime_ref, aid, index

    def send(self, method: str, *args: Any, size_bytes: int = 64) -> None:
        """Asynchronously invoke ``method(*args)`` on the element, which
        gets its own copy of every mutable argument."""
        # Dereferenced inline on this hot path; ``runtime`` raises if freed.
        runtime = self._runtime_ref() or self.runtime
        runtime.send_invoke(self.aid, self.index, method, args, size_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ElementProxy a{self.aid}[{self.index}]>"


class ArrayProxy(_Proxy):
    """Handle for a whole chare array."""

    def __init__(self, runtime_ref: "weakref.ref[CharmRuntime]", aid: int,
                 n: int):
        self._runtime_ref, self.aid, self.n = runtime_ref, aid, n

    def __getitem__(self, index: int) -> ElementProxy:
        if not 0 <= index < self.n:
            raise CommError(f"array index {index} out of range [0,{self.n})")
        return ElementProxy(self._runtime_ref, self.aid, index)

    def __len__(self) -> int:
        return self.n

    def broadcast(self, method: str, *args: Any, size_bytes: int = 64) -> None:
        """Invoke ``method`` on every element."""
        for i in range(self.n):
            self[i].send(method, *args, size_bytes=size_bytes)


class SectionProxy(_Proxy):
    """Multicast handle over a subset of an array's elements."""

    def __init__(self, runtime_ref: "weakref.ref[CharmRuntime]", aid: int,
                 indices: list):
        self._runtime_ref, self.aid, self.indices = runtime_ref, aid, indices

    def __len__(self) -> int:
        return len(self.indices)

    def send(self, method: str, *args: Any, size_bytes: int = 64) -> None:
        """Invoke ``method`` on every element of the section."""
        runtime = self.runtime
        for i in self.indices:
            runtime.send_invoke(self.aid, i, method, args, size_bytes)


class _ArrayRecord:
    """Runtime bookkeeping for one chare array."""

    def __init__(self, n: int):
        self.n = n
        self.reductions: Dict[Tuple[str, str, int], List[Any]] = {}
        self.red_rounds: Dict[int, int] = {}     # per-element round counter


class CharmRuntime:
    """Per-cluster event-driven object runtime."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.nproc = len(cluster)
        self._arrays: Dict[int, _ArrayRecord] = {}
        self._next_aid = 0
        # per-PE state
        self._local: List[Dict[Tuple[int, int], Chare]] = [
            {} for _ in range(self.nproc)]
        self._home_loc: List[Dict[Tuple[int, int], int]] = [
            {} for _ in range(self.nproc)]
        self._tombstone: List[Dict[Tuple[int, int], int]] = [
            {} for _ in range(self.nproc)]
        #: Each element's SDAG record: its ``when`` buffer and live
        #: continuation, made by the first message or SDAG method it gets.
        self._sdag: Dict[Tuple[int, int], SdagDriver] = {}
        self._ref = weakref.ref(self)
        #: Processor considered "current" for sends made outside any entry
        #: method (the mainchare's processor).
        self._pe_stack: List[int] = [0]
        on_message = weak_handler(self._on_message, "runtime")
        for proc in cluster.processors:
            proc.register(_TAG, on_message)
        # -- statistics ------------------------------------------------------
        self.entries_invoked = 0
        self.messages_forwarded = 0
        self.migrations = 0
        # quiescence-detection counters (application messages only),
        # kept by the kernel's two-wave counting detector
        self._qd = QuiescenceCounter()

    # ------------------------------------------------------------------
    # array creation
    # ------------------------------------------------------------------

    def create_array(self, cls: Type[Chare], n: int,
                     placement: Optional[Callable[[int], int]] = None,
                     args: Tuple = ()) -> ArrayProxy:
        """Create an ``n``-element chare array of class ``cls``.

        ``placement(index) -> pe`` chooses initial processors (default:
        round-robin, which is also each element's *home*).
        """
        if n <= 0:
            raise CommError("array needs at least one element")
        aid = self._next_aid
        self._next_aid += 1
        rec = _ArrayRecord(n)
        self._arrays[aid] = rec
        proxy = ArrayProxy(self._ref, aid, n)
        for i in range(n):
            pe = placement(i) if placement else i % self.nproc
            self._install(cls(*args), proxy, i, pe)
            self._home_loc[self._home(i)][(aid, i)] = pe
            self.cluster[pe].charge(self.cluster.platform.event_dispatch_ns)
            rec.red_rounds[i] = 0
        return proxy

    def _install(self, chare: Chare, proxy: ArrayProxy, index: int,
                 pe: int) -> None:
        """Inject the runtime attributes and make ``chare`` local to ``pe``."""
        chare.thisIndex = index
        chare.thisProxy = proxy
        chare._pe = pe
        self._local[pe][(proxy.aid, index)] = chare

    def proxy(self, aid: int) -> ArrayProxy:
        """Re-obtain the proxy for an existing array."""
        return ArrayProxy(self._ref, aid, self._arrays[aid].n)

    def _home(self, index: int) -> int:
        return index % self.nproc

    @property
    def current_pe(self) -> int:
        """The processor whose entry method is currently executing."""
        return self._pe_stack[-1]

    def element(self, aid: int, index: int) -> Chare:
        """Direct (test/debug) access to an element object."""
        for pe in range(self.nproc):
            ch = self._local[pe].get((aid, index))
            if ch is not None:
                return ch
        raise CommError(f"element a{aid}[{index}] not found anywhere")

    def location_of(self, aid: int, index: int) -> int:
        """Authoritative current processor of an element (home's view)."""
        return self._home_loc[self._home(index)][(aid, index)]

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------

    def send_invoke(self, aid: int, index: int, method: str, args: Tuple,
                    size_bytes: int, src_pe: Optional[int] = None) -> None:
        """Send an entry-method invocation to an element, wherever it is."""
        # Ownership passes here: the element gets its own arguments,
        # however the sender writes to them next (thawed in ``_execute``).
        for arg in args:
            if arg.__class__ not in FROZEN:
                try:
                    args = freeze_value(args)
                except PupError as e:
                    raise CommError(f"a{aid}[{index}].{method}: {e}") \
                        from None
                break
        src = self._pe_stack[-1] if src_pe is None else src_pe
        self._qd.note_created()
        key = (aid, index)
        # Local fast path: same-processor invocations skip the network,
        # like Charm's in-process delivery.
        if key in self._local[src]:
            self.cluster.after(src, self.cluster.platform.event_dispatch_ns,
                               self._execute, src, aid, index, method, args,
                               size_bytes, category="charm.exec")
            return
        dst = self._believed_location(src, key)
        self.cluster.send(src, dst, ("invoke", aid, index, method, args),
                          size_bytes=size_bytes, tag=_TAG)

    def _believed_location(self, pe: int, key: Tuple[int, int]) -> int:
        tomb = self._tombstone[pe].get(key)
        if tomb is not None:
            return tomb
        home = self._home(key[1])
        if pe == home:
            return self._home_loc[home][key]
        # Reading the home map from afar models the sender's cached
        # location; staleness is handled by forwarding on arrival.
        return self._home_loc[home].get(key, home)

    def _on_message(self, msg: Message) -> None:
        kind = msg.payload[0]
        pe = msg.dst
        if kind == "invoke":
            _, aid, index, method, args = msg.payload
            key = (aid, index)
            if key in self._local[pe]:
                self._execute(pe, aid, index, method, args, msg.size_bytes)
            else:
                self._forward(pe, msg)
        elif kind == "migrate":
            self._arrive(pe, msg.payload)
        elif kind == "locupdate":
            _, aid, index, new_pe = msg.payload
            self._home_loc[pe][(aid, index)] = new_pe
        elif kind == "reduce":
            self._on_reduce(pe, msg.payload)
        else:
            raise CommError(f"unknown charm message kind {kind!r}")

    def _forward(self, pe: int, msg: Message) -> None:
        """The element is not here: follow tombstone or ask the home."""
        _, aid, index, method, args = msg.payload
        key = (aid, index)
        self.messages_forwarded += 1
        dst = self._tombstone[pe].get(key)
        if dst is None or dst == pe:
            dst = home = self._home(index)
            if pe == home:
                dst = self._home_loc[home].get(key)
                if dst is None or dst == pe:
                    raise CommError(f"home {home} has no live location "
                                    f"for a{aid}[{index}]")
        self.cluster.send(pe, dst, msg.payload, size_bytes=msg.size_bytes,
                          tag=_TAG)

    # ------------------------------------------------------------------
    # entry-method execution
    # ------------------------------------------------------------------

    def _execute(self, pe: int, aid: int, index: int, method: str,
                 args: Tuple, size_bytes: int) -> None:
        """Run one invocation (the one road; see the module docstring)."""
        if args.__class__ is Frozen:
            args = thaw_value(args)
        key = (aid, index)
        chare = self._local[pe].get(key)
        if chare is None:
            # Raced with a migration that happened after scheduling: send
            # it on at its own size, counted created again.
            self._qd.note_processed()
            self.messages_forwarded += 1
            self.send_invoke(aid, index, method, args, size_bytes, src_pe=pe)
            return
        self.cluster[pe].charge(self.cluster.platform.event_dispatch_ns)
        self.entries_invoked += 1
        self._qd.note_processed()
        fn = getattr(chare, method, None)
        self._pe_stack.append(pe)
        try:
            if fn is not None and not inspect.isgeneratorfunction(fn):
                fn(*args)
                return
            sdag = self._sdag.get(key)
            if sdag is None:
                sdag = self._sdag[key] = SdagDriver()
            if fn is not None and not sdag.finished:
                raise SdagError(
                    f"a{aid}[{index}] on processor {pe}: SDAG method "
                    f"{method!r} invoked while {sdag.gen.__name__!r} is live")
            try:
                if fn is None:
                    sdag.deliver(method, args[0] if len(args) == 1 else args)
                else:
                    sdag.start(fn(*args))
            except SdagError as e:
                raise SdagError(f"a{aid}[{index}] on processor {pe}: {e}") \
                    from e
        finally:
            self._pe_stack.pop()

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------

    def _contribute(self, aid: int, index: int, value: Any, op: str,
                    callback: str) -> None:
        if value.__class__ not in FROZEN:
            try:
                value = freeze_value(value)     # thawed in ``_on_reduce``
            except PupError as e:
                raise CommError(f"a{aid}[{index}] contribute({op!r}, "
                                f"{callback!r}): {e}") from None
        rec = self._arrays[aid]
        rnd = rec.red_rounds[index]
        rec.red_rounds[index] = rnd + 1
        pe = self.current_pe
        # Contributions stream to processor 0, which completes the round.
        if pe == 0:
            self._on_reduce(0, ("reduce", aid, rnd, op, callback, value))
        else:
            self.cluster.send(pe, 0, ("reduce", aid, rnd, op, callback, value),
                              size_bytes=64, tag=_TAG)

    def _on_reduce(self, pe: int, payload: Tuple) -> None:
        _, aid, rnd, op, callback, value = payload
        if value.__class__ is Frozen:
            value = thaw_value(value)
        rec = self._arrays[aid]
        bucket = rec.reductions.setdefault((op, callback, rnd), [])
        bucket.append(value)
        if len(bucket) == rec.n:
            result = combine(op, bucket)
            del rec.reductions[(op, callback, rnd)]
            self.send_invoke(aid, 0, callback, (result,), size_bytes=64,
                             src_pe=pe)

    # ------------------------------------------------------------------
    # migration (paper Section 3.2)
    # ------------------------------------------------------------------

    def migrate_element(self, aid: int, index: int, dst_pe: int) -> None:
        """Move an element to ``dst_pe``, packing its state with PUP."""
        key = (aid, index)
        chare = self.element(aid, index)
        src = chare.my_pe
        if src == dst_pe:
            return
        # Pack the application state for real when the class is puppable.
        # A registered class whose pup() fails must not degrade into a
        # by-reference move: its PupError propagates, element still home.
        blob: Optional[bytes] = None
        wire = 256
        if pup_registered(type(chare)):
            blob = pup_pack(chare)
            wire = len(blob)
        del self._local[src][key]
        self._tombstone[src][key] = dst_pe
        self.cluster[src].charge(self.cluster.platform.mem.memcpy_cost(wire))
        self.cluster.send(src, dst_pe,
                          ("migrate", aid, index, blob, chare, wire),
                          size_bytes=wire, tag=_TAG)
        self.migrations += 1

    def _arrive(self, pe: int, payload: Tuple) -> None:
        _, aid, index, blob, chare, wire = payload
        key = (aid, index)
        sdag = self._sdag.get(key)
        if blob is not None and (sdag is None or sdag.finished):
            # With no live SDAG continuation, the serialized image is the
            # whole object: rebuild from bytes (the real PUP path).  A live
            # continuation's generator closes over the original object, so
            # that object itself is kept (see DESIGN.md on generator state).
            chare = pup_unpack(blob)
        self._install(chare, self.proxy(aid), index, pe)
        self.cluster[pe].charge(self.cluster.platform.mem.memcpy_cost(wire))
        self._tombstone[pe].pop(key, None)
        home = self._home(index)
        if home == pe:
            self._home_loc[pe][key] = pe
        else:
            self.cluster.send(pe, home, ("locupdate", aid, index, pe),
                              size_bytes=32, tag=_TAG)

    # ------------------------------------------------------------------
    # quiescence detection
    # ------------------------------------------------------------------

    def detect_quiescence(self, aid: int, index: int, method: str,
                          check_ns: float = 50_000.0) -> None:
        """Invoke ``method`` on one element when the system is quiescent.

        Quiescence = no application entry-method messages outstanding.
        The kernel's :class:`~repro.kernel.QuiescenceCounter` runs the
        classic two-wave counting protocol: a detector timer snapshots
        the (created, processed) counters; when two consecutive waves see
        identical, balanced counters, no message can be in flight, and
        the callback fires.  Runtime-internal messages (location updates)
        are not counted — quiescence is an application-level property.
        """
        self._qd.detect(
            lambda delay, fn, *a: self.cluster.after(
                0, delay, fn, *a, category="charm.qd"),
            lambda: self.send_invoke(aid, index, method, (), size_bytes=32,
                                     src_pe=0),
            check_ns=check_ns)

    # ------------------------------------------------------------------
    # array sections (multicast to a subset)
    # ------------------------------------------------------------------

    def section(self, aid: int, indices) -> "SectionProxy":
        """Create a section proxy over a subset of an array's elements."""
        rec = self._arrays[aid]
        idx = list(indices)
        for i in idx:
            if not 0 <= i < rec.n:
                raise CommError(f"section index {i} out of range")
        return SectionProxy(self._ref, aid, idx)

    # ------------------------------------------------------------------
    # whole-array checkpointing (PUP to bytes)
    # ------------------------------------------------------------------

    def checkpoint_array(self, aid: int) -> bytes:
        """Serialize every element of an array (application state only).

        Elements must be ``pup_register``'ed.  Returns real bytes; restore
        with :meth:`restore_array`.  An element with a live SDAG
        continuation (generator state is process-local) or buffered
        ``when`` messages is refused: the image must be its whole state.
        """
        rec = self._arrays[aid]
        blobs = []
        for i in range(rec.n):
            sdag = self._sdag.get((aid, i))
            if sdag is not None and (not sdag.finished
                                     or any(sdag.buffers.values())):
                held = ("a live SDAG continuation" if not sdag.finished
                        else "buffered when messages")
                raise CommError(f"element a{aid}[{i}] has {held}; "
                                f"checkpoint at a quiescent point")
            chare = self.element(aid, i)
            blobs.append((i, chare.my_pe, pup_pack(chare)))
        return pack_value({"aid": aid, "n": rec.n,
                           "elements": [list(b) for b in blobs]})

    def restore_array(self, blob: bytes) -> ArrayProxy:
        """Rebuild a checkpointed array's elements at their saved places.

        The elements replace the current ones of the same array id (a
        restart-in-place model).
        """
        image = unpack_value(blob)
        aid = image["aid"]
        rec = self._arrays.get(aid)
        if rec is None or rec.n != image["n"]:
            raise CommError("restore_array: no matching live array")
        proxy = self.proxy(aid)
        for i, pe, data in image["elements"]:
            # Remove the old element and its SDAG record.
            for p in range(self.nproc):
                self._local[p].pop((aid, i), None)
            self._sdag.pop((aid, i), None)
            self._install(pup_unpack(data), proxy, i, pe)
            self._home_loc[self._home(i)][(aid, i)] = pe
        return proxy

    # ------------------------------------------------------------------

    def run(self, **kwargs) -> int:
        """Drain the cluster's event queue — the charm runtime has no run
        loop of its own; every entry-method delivery, SDAG continuation,
        and quiescence wave is an event on the cluster's
        :class:`~repro.kernel.EventKernel` (convenience passthrough,
        accepts ``until``/``max_events``/``policy``)."""
        return self.cluster.run(**kwargs)
