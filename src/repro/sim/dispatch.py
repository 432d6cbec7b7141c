"""Tag-based message dispatch for simulated processors.

Several subsystems (the thread migrator, the Charm runtime, AMPI) need to
receive messages on the same processor.  :class:`TagDispatcher` installs
itself as the processor's message handler and routes each arriving message
to the handler registered for the message's tag prefix (the part of the tag
before the first ``:``).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import CommError
from repro.sim.network import Message
from repro.sim.processor import Processor

__all__ = ["TagDispatcher"]


class TagDispatcher:
    """Routes messages arriving at one processor by tag prefix."""

    def __init__(self, processor: Processor):
        #: The processor's id, for messages (the processor holds this
        #: dispatcher; a reference back would be a cycle).
        self.pe = processor.id
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        processor.set_message_handler(self._dispatch)

    def register(self, prefix: str, handler: Callable[[Message], None]) -> None:
        """Register ``handler`` for messages whose tag prefix is ``prefix``."""
        if prefix in self._handlers:
            raise CommError(f"tag prefix {prefix!r} already registered "
                            f"on processor {self.pe}")
        self._handlers[prefix] = handler

    def unregister(self, prefix: str) -> None:
        """Drop the handler for ``prefix`` (a runtime whose run is over
        lets go of the processors it was delivered on)."""
        if self._handlers.pop(prefix, None) is None:
            raise CommError(f"tag prefix {prefix!r} is not registered "
                            f"on processor {self.pe}")

    def _dispatch(self, msg: Message) -> None:
        # A tag without ":" is its own prefix (every "ampi" message):
        # split only when the whole tag is not a registered prefix.
        handlers = self._handlers
        handler = handlers.get(msg.tag)
        if handler is None:
            handler = handlers.get(msg.tag.split(":", 1)[0])
        if handler is None:
            raise CommError(
                f"no handler for tag {msg.tag!r} on processor "
                f"{self.pe} (registered: {sorted(self._handlers)})"
            )
        handler(msg)

    @staticmethod
    def of(processor: Processor) -> "TagDispatcher":
        """Get or create the dispatcher attached to ``processor``."""
        disp = getattr(processor, "_tag_dispatcher", None)
        if disp is None:
            disp = TagDispatcher(processor)
            processor._tag_dispatcher = disp  # type: ignore[attr-defined]
        return disp
