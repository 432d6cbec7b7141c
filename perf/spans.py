"""Span shim: per-layer host-time attribution from outside the program.

Nothing under ``src/`` knows about this file.  For one *traced*
repetition the shim wraps every public callable reachable from each
layer's ``__all__`` (module functions, and the public methods plus
``__init__`` of exported classes, all found by introspection), and
brackets kernel-dispatched callbacks through the public ``HookBus``:

* a wrapped call opens a span only when it **crosses a layer boundary**
  (callee layer != innermost open span's layer); same-layer calls just
  bump the per-target call count.  Each instant therefore belongs to the
  innermost open span's layer, and a layer's self time is its spans'
  durations minus the part their child spans cover;
* every ``EventKernel`` built while the shim is installed gets
  ``on_dispatch_begin``/``on_dispatch_end`` subscribers, so time inside a
  privately-named callback is billed by dispatch *category* to the layer
  that owns it (``flow.resume`` → ``flows``, ``cth.resume`` → ``core``,
  ``net.ampi`` → ``ampi`` …; unknown categories fall back to the
  callback's defining module) instead of to ``kernel``;
* callables handed to ``HookBus.subscribe`` (tracers, fault injectors,
  progress reporters) are bracketed the same way, billed to the layer
  that defines them;
* three pass-through taps on the sanctioned observability channels
  (``net.send``, ``migration.done``, ``checkpoint.write``) count traffic
  without changing any value.

A target that no longer exists is skipped and listed under
``unresolved`` — a PR that deletes a class must not break the
measurement of its own effect.

Invariant (checked by the harness and the self-tests):
``sum(self_s.values()) == root duration`` up to float rounding, where
the root span's own layer is ``harness``.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import pkgutil
import sys
import time
import types
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SpanRecorder", "Shim", "HARNESS", "LAYERS", "EXACT_COUNTS"]

#: Layer name of the root span: time no wrapped call or dispatch covers.
HARNESS = "harness"

#: The layers: ``src/repro`` sub-packages on a measured run path.
LAYERS = ("kernel", "sim", "vm", "core", "flows", "ampi", "balance",
          "bigsim", "workloads", "bench", "chaos", "exec", "serve", "obs",
          "query")

#: Dispatch-category prefix -> owning layer (longest prefix wins).
CATEGORY_LAYERS = {"flow.": "flows", "cth.": "core", "net.ampi": "ampi",
                   "net.bigsim": "bigsim", "net.": "sim"}

#: Individual deep spans kept for ``spans.jsonl``; the rest are counted.
SPAN_KEEP = 100_000

#: Count -> the wrapped targets (fnmatch patterns below the package)
#: whose calls it sums.
CALL_COUNTS = {
    "vm.mmaps": "vm.AddressSpace.mmap",
    "vm.pages_mapped": "vm.PageTable.map",
    "core.switches": "core.*.switch_in",
    "flows.created": "flows.FlowMechanism.create_flow",
    "ampi.sends": "ampi.AmpiContext.send",
    "balance.lb_steps": "balance.LBManager.rebalance",
}

#: ``vm.bytes_copied`` sums one argument of each of these targets:
#: target -> (argument name, take its ``len``).
COPY_ARGS = {"vm.AddressSpace.write": ("payload", True),
             "vm.AddressSpace.memcpy_in": ("length", False)}

#: Every exact count :meth:`Shim.exact_counts` reports, in print order.
EXACT_COUNTS = ("kernel.events", "sim.msgs", "sim.bytes", "vm.mmaps",
                "vm.pages_mapped", "vm.bytes_copied", "core.switches",
                "core.migrations", "core.pup_bytes", "core.checkpoints",
                "flows.created", "flows.dispatches", "ampi.sends",
                "balance.lb_steps")


class SpanRecorder:
    """In-memory span stack, per-layer self times, per-target counts.

    A frame on the stack is ``[layer, start, child_seconds, span_id,
    name]``.  Aggregates are exact whatever ``keep`` is; only the list of
    individual deep spans written to ``spans.jsonl`` is capped.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep: int = SPAN_KEEP) -> None:
        self.clock = clock
        self.keep = keep
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Every call of a wrapped target, boundary-crossing or not.
        self.target_calls: Dict[str, int] = {}
        #: Summed numeric arguments, keyed like ``target_calls``.
        self.arg_sums: Dict[str, int] = {}
        self.dispatches: Dict[str, int] = {}
        self.channels: Dict[str, int] = {}
        self.channel_sums: Dict[str, int] = {}
        #: ``(id, parent, name, layer, start, end)`` per closed span.
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self.dropped = 0
        self.stack: List[list] = []
        self._next_id = 0
        self.root_duration = 0.0

    # -- root -----------------------------------------------------------

    def begin_root(self, name: str) -> None:
        """Open the harness span everything else nests under."""
        self.stack.append([HARNESS, 0.0, 0.0, 0, name])
        self.stack[0][1] = self.clock()

    def end_root(self) -> float:
        """Close the harness span; returns the traced wall time.

        Spans an exception left open are closed first, so that the
        exception, not the bookkeeping, is what the caller sees.
        """
        while len(self.stack) > 1:
            self.pop()
        end = self.clock()
        frame = self.stack.pop()
        dur = end - frame[1]
        self.self_s[HARNESS] = (self.self_s.get(HARNESS, 0.0)
                                + dur - frame[2])
        self._keep(frame, end)
        self.root_duration = dur
        return dur

    # -- spans ----------------------------------------------------------

    def push(self, layer: str, name: str) -> None:
        self._next_id += 1
        frame = [layer, 0.0, 0.0, self._next_id, name]
        self.stack.append(frame)
        frame[1] = self.clock()

    def pop(self) -> None:
        end = self.clock()
        frame = self.stack.pop()
        dur = end - frame[1]
        layer = frame[0]
        self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - frame[2]
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.stack[-1][2] += dur
        self._keep(frame, end)

    def _keep(self, frame: list, end: float) -> None:
        # Shallow spans (the workload's own calls and their direct
        # children) are always kept: they close last, and without them
        # the file could not be read top-down.
        if len(self.stack) <= 2 or len(self.spans) < self.keep:
            parent = self.stack[-1][3] if self.stack else -1
            self.spans.append((frame[3], parent, frame[4], frame[0],
                               frame[1], end))
        else:
            self.dropped += 1

    def write_jsonl(self, path: str, rep: str) -> None:
        """One JSON object per span, times relative to the root start."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, parent, name, layer, start, end in self.spans:
                fh.write(f'{{"id": {sid}, "parent": {parent}, '
                         f'"name": "{name}", "layer": "{layer}", '
                         f'"start": {start - origin!r}, '
                         f'"end": {end - origin!r}, "rep": "{rep}"}}\n')
            if self.dropped:
                fh.write(f'{{"truncated": {self.dropped}}}\n')


def _span_wrapper(rec: SpanRecorder, fn: Callable, layer: str, name: str,
                  arg: Optional[Tuple[str, int, bool]]) -> Callable:
    """Wrap a plain callable: count it, span it on a layer crossing."""
    stack = rec.stack
    tcalls = rec.target_calls
    push, pop = rec.push, rec.pop
    if arg is not None:
        arg_name, arg_pos, use_len = arg
        sums = rec.arg_sums

        def note(args, kwargs):
            v = kwargs[arg_name] if arg_name in kwargs else args[arg_pos]
            sums[name] = sums.get(name, 0) + (len(v) if use_len else v)
    else:
        note = None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tcalls[name] = tcalls.get(name, 0) + 1
        if note is not None:
            note(args, kwargs)
        if not stack or stack[-1][0] == layer:
            return fn(*args, **kwargs)
        push(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            pop()

    return wrapper


class _SpanGenerator:
    """Delegating iterator that spans each resumption of a generator.

    ``yield from`` drives any object with ``__iter__``/``send``/
    ``throw``/``close`` exactly like a generator, so the body of a
    wrapped generator method (``AmpiContext.recv`` …) is billed to its
    own layer on every step rather than to whoever iterates it.
    """

    __slots__ = ("_gen", "_rec", "_layer", "_name")

    def __init__(self, gen, rec: SpanRecorder, layer: str, name: str):
        self._gen = gen
        self._rec = rec
        self._layer = layer
        self._name = name

    def __iter__(self):
        return self

    def _step(self, method, *args):
        rec = self._rec
        if not rec.stack or rec.stack[-1][0] == self._layer:
            return method(*args)
        rec.push(self._layer, self._name)
        try:
            return method(*args)
        finally:
            rec.pop()

    def __next__(self):
        return self._step(self._gen.send, None)

    def send(self, value):
        return self._step(self._gen.send, value)

    def throw(self, *exc):
        return self._step(self._gen.throw, *exc)

    def close(self):
        return self._gen.close()


def _generator_wrapper(rec: SpanRecorder, fn: Callable, layer: str,
                       name: str) -> Callable:
    tcalls = rec.target_calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tcalls[name] = tcalls.get(name, 0) + 1
        return _SpanGenerator(fn(*args, **kwargs), rec, layer, name)

    return wrapper


class Shim:
    """Discover targets, install the wrappers, restore them afterwards.

    ``layers`` are sub-package names of ``package``.
    """

    def __init__(self, layers=LAYERS,
                 recorder: Optional[SpanRecorder] = None,
                 package: str = "repro") -> None:
        self.layers = list(layers)
        self.package = package
        self.rec = recorder or SpanRecorder()
        self.unresolved: List[str] = []
        self._categories = sorted(CATEGORY_LAYERS.items(),
                                  key=lambda kv: -len(kv[0]))
        self._cat_cache: Dict[str, Optional[str]] = {}
        self._copy_args = {f"{package}.{target}": probe
                           for target, probe in COPY_ARGS.items()}
        #: ``(owner, attribute, original raw value, replacement)``.
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self._targets: Dict[str, Tuple[str, Callable]] = {}
        self._subscribed: Dict[tuple, Callable] = {}
        self._raw_subscribe: Optional[Callable] = None
        self._raw_unsubscribe: Optional[Callable] = None
        self._sites: Optional[Dict[int, List[Tuple[Any, str]]]] = None
        self._discovered = False

    # -- discovery ------------------------------------------------------

    def _layer_of(self, obj: Any) -> Optional[str]:
        """The layer whose package defines ``obj`` (None: not ours)."""
        while isinstance(obj, functools.partial):
            obj = obj.func
        obj = getattr(obj, "__func__", obj)
        parts = (getattr(obj, "__module__", None) or "").split(".")
        if (len(parts) >= 2 and parts[0] == self.package
                and parts[1] in self.layers):
            return parts[1]
        return None

    def _modules(self) -> List[types.ModuleType]:
        """Every layer package plus its direct submodules, imported now
        so that lazy imports during the repetition find wrapped names."""
        mods = []
        for layer in self.layers:
            qual = f"{self.package}.{layer}"
            try:
                pkg = importlib.import_module(qual)
            except ImportError:
                self.unresolved.append(qual)
                continue
            mods.append(pkg)
            for info in pkgutil.iter_modules(getattr(pkg, "__path__", ())):
                if info.name.startswith("__") or info.ispkg:
                    continue
                try:
                    mods.append(importlib.import_module(
                        f"{qual}.{info.name}"))
                except ImportError:
                    self.unresolved.append(f"{qual}.{info.name}")
        return mods

    def discover(self) -> Dict[str, Tuple[str, Callable]]:
        """Resolve every span target: ``{name: (layer, function)}``."""
        if self._discovered:
            return self._targets
        self._discovered = True
        seen = set()
        for mod in self._modules():
            for export in getattr(mod, "__all__", ()):
                obj = getattr(mod, export, None)
                if obj is None:
                    self.unresolved.append(f"{mod.__name__}.{export}")
                    continue
                if id(obj) in seen:
                    continue
                seen.add(id(obj))
                if isinstance(obj, types.FunctionType):
                    self._add_function(obj)
                elif inspect.isclass(obj):
                    self._add_class(obj)
        self._build_hook_patches()
        self.unresolved.extend(p for p in self._copy_args
                               if p not in self._targets)
        return self._targets

    def _add_function(self, fn: types.FunctionType) -> None:
        layer = self._layer_of(fn)
        if layer is None:
            return
        name = f"{self.package}.{layer}.{fn.__name__}"
        replacement = self._wrap(fn, layer, name)
        self._targets[name] = (layer, fn)
        for mod, key in self._function_sites().get(id(fn), ()):
            self._patches.append((mod, key, fn, replacement))

    def _function_sites(self) -> Dict[int, List[Tuple[Any, str]]]:
        """Every ``(module, global name)`` of the package that holds a
        function, by function identity: ``from x import f`` copies the
        reference, so each copy has to be swapped."""
        if self._sites is None:
            self._sites = {}
            prefix = self.package + "."
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == self.package
                                       or mod_name.startswith(prefix)):
                    continue
                for key, value in list(vars(mod).items()):
                    if isinstance(value, types.FunctionType):
                        self._sites.setdefault(id(value), []).append(
                            (mod, key))
        return self._sites

    def _add_class(self, cls: type) -> None:
        if issubclass(cls, (BaseException, Enum, tuple)):
            return
        for owner in cls.__mro__:
            layer = self._layer_of(owner)
            if layer is None:
                continue
            for attr, raw in list(vars(owner).items()):
                if attr.startswith("_") and attr != "__init__":
                    continue
                name = f"{self.package}.{layer}.{owner.__name__}.{attr}"
                if name in self._targets:
                    continue
                if isinstance(raw, types.FunctionType):
                    fn, rebuild = raw, (lambda w: w)
                elif isinstance(raw, (staticmethod, classmethod)):
                    fn, rebuild = raw.__func__, type(raw)
                    if not isinstance(fn, types.FunctionType):
                        continue
                else:
                    continue        # properties, constants, descriptors
                self._targets[name] = (layer, fn)
                self._patches.append(
                    (owner, attr, raw, rebuild(self._wrap(fn, layer, name))))

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return _generator_wrapper(self.rec, fn, layer, name)
        arg = None
        if name in self._copy_args:
            arg_name, use_len = self._copy_args[name]
            params = list(inspect.signature(fn).parameters)
            arg = (arg_name, params.index(arg_name), use_len)
        return _span_wrapper(self.rec, fn, layer, name, arg)

    # -- install / uninstall --------------------------------------------

    def install(self) -> None:
        """Swap every target for its wrapper and hook new kernels."""
        self.discover()
        for owner, attr, _raw, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, raw, _replacement in reversed(self._patches):
            setattr(owner, attr, raw)
        self._subscribed.clear()

    def _build_hook_patches(self) -> None:
        """Bracket dispatches and subscribers through the public HookBus.

        Appended after the generic patches, so on install these three
        replacements win; ``EventKernel.__init__`` keeps its generic
        span and additionally adopts the new kernel's bus.
        """
        try:
            kernel_pkg = importlib.import_module(f"{self.package}.kernel")
            kernel_cls = kernel_pkg.EventKernel
            bus_cls = kernel_pkg.HookBus
            raw_init = vars(kernel_cls)["__init__"]
            self._raw_subscribe = vars(bus_cls)["subscribe"]
            self._raw_unsubscribe = vars(bus_cls)["unsubscribe"]
        except (ImportError, AttributeError, KeyError):
            self._raw_subscribe = None
            self.unresolved.append("dispatch-bracket")
            return
        spanned_init = next(
            (rep for owner, attr, _raw, rep in self._patches
             if owner is kernel_cls and attr == "__init__"), raw_init)
        adopt = self._adopt_kernel

        @functools.wraps(raw_init)
        def init(kernel, *args, **kwargs):
            spanned_init(kernel, *args, **kwargs)
            adopt(kernel)

        @functools.wraps(self._raw_subscribe)
        def subscribe(bus, name, fn):
            return self._subscribe(bus, name, fn)

        @functools.wraps(self._raw_unsubscribe)
        def unsubscribe(bus, name, fn):
            return self._unsubscribe(bus, name, fn)

        self._patches.append((kernel_cls, "__init__", raw_init, init))
        self._patches.append((bus_cls, "subscribe", self._raw_subscribe,
                              subscribe))
        self._patches.append((bus_cls, "unsubscribe",
                              self._raw_unsubscribe, unsubscribe))

    def _adopt_kernel(self, kernel) -> None:
        bus = kernel.hooks
        sub = self._raw_subscribe
        sub(bus, "on_dispatch_begin", self._on_dispatch_begin)
        sub(bus, "on_dispatch_end", self._on_dispatch_end)
        sub(bus, "net.send", self._tap_net_send)
        sub(bus, "migration.done", self._tap_migration_done)
        sub(bus, "checkpoint.write", self._tap_checkpoint_write)

    def _subscribe(self, bus, name: str, fn: Callable) -> Callable:
        layer = self._layer_of(fn)
        bracket = fn
        if layer is not None:
            label = "hook:" + getattr(fn, "__qualname__", name)
            bracket = _span_wrapper(self.rec, fn, layer, label, None)
            self._subscribed[(id(bus), name, fn)] = bracket
        self._raw_subscribe(bus, name, bracket)
        return fn

    def _unsubscribe(self, bus, name: str, fn: Callable) -> None:
        bracket = self._subscribed.pop((id(bus), name, fn), fn)
        self._raw_unsubscribe(bus, name, bracket)

    # -- dispatch bracket and channel taps --------------------------------

    def _category_layer(self, category: str, fn: Callable) -> str:
        layer = self._cat_cache.get(category)
        if layer is None:
            for prefix, owner in self._categories:
                if category.startswith(prefix):
                    layer = owner
                    break
            if category:
                self._cat_cache[category] = layer
        return layer or self._layer_of(fn) or "kernel"

    def _on_dispatch_begin(self, kernel, ev) -> None:
        rec = self.rec
        if not rec.stack:
            return
        category = ev.category or ""
        rec.dispatches[category] = rec.dispatches.get(category, 0) + 1
        rec.push(self._category_layer(category, ev.fn),
                 "dispatch:" + (category or "uncategorized"))

    def _on_dispatch_end(self, kernel, ev) -> None:
        if len(self.rec.stack) > 1:
            self.rec.pop()

    def _bump(self, channel: str, amount: int) -> None:
        rec = self.rec
        rec.channels[channel] = rec.channels.get(channel, 0) + 1
        rec.channel_sums[channel] = rec.channel_sums.get(channel, 0) + amount

    def _tap_net_send(self, arrivals, msg=None, **ctx):
        self._bump("net.send", getattr(msg, "size_bytes", 0))
        return arrivals

    def _tap_migration_done(self, payload, **ctx):
        self._bump("migration.done", payload.get("bytes", 0))
        return payload

    def _tap_checkpoint_write(self, blob, **ctx):
        self._bump("checkpoint.write", len(blob))
        return blob

    # -- reading the counts ---------------------------------------------

    def exact_counts(self) -> Tuple[Dict[str, int], List[str]]:
        """The :data:`EXACT_COUNTS` of the traced repetition, and the
        names of those whose targets no longer exist."""
        rec = self.rec
        counts: Dict[str, int] = {}
        for name, pattern in CALL_COUNTS.items():
            targets = fnmatch.filter(self._targets,
                                     f"{self.package}.{pattern}")
            if targets:
                counts[name] = sum(rec.target_calls.get(t, 0)
                                   for t in targets)
        copies = [t for t in self._copy_args if t in self._targets]
        if copies:
            counts["vm.bytes_copied"] = sum(rec.arg_sums.get(t, 0)
                                            for t in copies)
        if self._raw_subscribe is not None:     # the HookBus is there
            counts["kernel.events"] = sum(rec.dispatches.values())
            counts["flows.dispatches"] = sum(
                n for cat, n in rec.dispatches.items()
                if cat.startswith("flow."))
            counts["sim.msgs"] = rec.channels.get("net.send", 0)
            counts["sim.bytes"] = rec.channel_sums.get("net.send", 0)
            counts["core.migrations"] = rec.channels.get("migration.done", 0)
            counts["core.pup_bytes"] = rec.channel_sums.get(
                "migration.done", 0)
            counts["core.checkpoints"] = rec.channels.get(
                "checkpoint.write", 0)
        return counts, [n for n in EXACT_COUNTS if n not in counts]
