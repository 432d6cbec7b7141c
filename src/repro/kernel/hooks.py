"""The kernel hook bus: the only sanctioned interception point.

Two kinds of subscription live here:

* **notification hooks** — the fixed kernel lifecycle points
  (:data:`NOTIFY_HOOKS`).  Subscribers observe but cannot change what the
  kernel does.  Tracing and profiling live on these.
* **named channels** — string-keyed *filter* and *decision* points that
  runtimes publish at their faultable/pluggable moments (``"net.send"``,
  ``"migration.start"``, ``"checkpoint.write"``, ...).  Subscribers can
  rewrite a value (:meth:`HookBus.filter`) or return a verdict
  (:meth:`HookBus.decide`).  Fault injection lives on these.

The bus is engineered for the common case of *no* subscribers: the
kernel's hot loop checks the single :attr:`HookBus.hot` flag (kept
current by subscribe/unsubscribe) before touching any hook list, and an
unused channel costs one dict lookup at its publish site.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.errors import ReproError

__all__ = ["NOTIFY_HOOKS", "HookBus"]

#: The kernel lifecycle notification hooks, in firing order over an
#: event's life: scheduled, dispatched (begin/end), or cancelled; plus
#: the queue-level ``on_idle`` (drained, may re-arm) and
#: ``on_quiescence`` (drained for good) points.
NOTIFY_HOOKS = (
    "on_schedule",
    "on_dispatch_begin",
    "on_dispatch_end",
    "on_cancel",
    "on_idle",
    "on_quiescence",
)


class HookBus:
    """Subscription registry for one :class:`~repro.kernel.EventKernel`."""

    __slots__ = NOTIFY_HOOKS + ("hot", "_channels")

    def __init__(self) -> None:
        for name in NOTIFY_HOOKS:
            setattr(self, name, [])
        #: True when any notification hook has a subscriber; the kernel's
        #: dispatch loop checks only this flag when nothing subscribes.
        self.hot = False
        self._channels: Dict[str, List[Callable]] = {}

    # -- subscription ---------------------------------------------------

    def subscribe(self, name: str, fn: Callable) -> Callable:
        """Attach ``fn`` to a notification hook or a named channel.

        Returns ``fn`` so the call can be used as a decorator.
        """
        if name in NOTIFY_HOOKS:
            getattr(self, name).append(fn)
            self.hot = True
        else:
            self._channels.setdefault(name, []).append(fn)
        return fn

    def unsubscribe(self, name: str, fn: Callable) -> None:
        """Detach ``fn``; unknown subscriptions are an error (they mean
        a tracer or injector believed it was attached when it was not)."""
        try:
            if name in NOTIFY_HOOKS:
                getattr(self, name).remove(fn)
                self.hot = any(getattr(self, n) for n in NOTIFY_HOOKS)
            else:
                self._channels[name].remove(fn)
                if not self._channels[name]:
                    del self._channels[name]
        except (KeyError, ValueError):
            raise ReproError(
                f"unsubscribe({name!r}): callable was not subscribed")

    def has(self, channel: str) -> bool:
        """Whether a named channel currently has subscribers."""
        return bool(self._channels.get(channel))

    # -- named channels -------------------------------------------------

    def filter(self, channel: str, value: Any, **ctx: Any) -> Any:
        """Pass ``value`` through every subscriber of ``channel``.

        Each subscriber is called ``fn(value, **ctx)`` and its return
        value replaces ``value``.  With no subscribers the input comes
        straight back (one dict lookup).
        """
        subs = self._channels.get(channel)
        if not subs:
            return value
        for fn in subs:
            value = fn(value, **ctx)
        return value

    def decide(self, channel: str, **ctx: Any) -> Any:
        """Ask ``channel``'s subscribers for a verdict.

        Subscribers are called ``fn(**ctx)`` in subscription order; the
        first non-``None`` return wins.  No subscribers (or all
        abstaining) → ``None``.
        """
        subs = self._channels.get(channel)
        if not subs:
            return None
        for fn in subs:
            verdict = fn(**ctx)
            if verdict is not None:
                return verdict
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        n = sum(len(getattr(self, name)) for name in NOTIFY_HOOKS)
        return (f"<HookBus {n} notify subscriber(s), "
                f"{sorted(self._channels)} channels>")
