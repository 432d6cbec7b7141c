"""Swap-global: GOT-based privatization of global variables (Section 3.1.1).

Dynamically linked ELF executables reach global variables through the Global
Offset Table — one pointer per global.  The paper's swap-global scheme gives
each user-level thread a *private copy* of the GOT (and private storage for
the globals it points to); the thread scheduler swaps the GOT at each
context switch, so unmodified code that "dereferences the GOT" transparently
sees its own thread's globals.

We reproduce the same mechanism one level up: a :class:`GlobalRegistry`
owns the canonical GOT — a real table of pointers *in simulated memory* —
and every access to a global goes through that indirection.  A
:class:`GlobalOffsetTable` is one thread's private GOT image plus private
storage (allocated from the thread's migratable heap, so it travels with
the thread); ``swap_in`` writes the image over the canonical GOT, exactly
the scheduler-side operation the paper describes.

The observable consequences the tests check:

* without privatization, two threads incrementing global ``counter``
  race — each sees the other's writes;
* with privatization, each thread sees only its own ``counter``;
* a privatized thread's globals survive migration because their storage
  lives at isomalloc addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ThreadError
from repro.vm.addrspace import AddressSpace, Mapping

__all__ = ["GlobalVar", "GlobalRegistry", "GlobalOffsetTable"]


@dataclass(frozen=True)
class GlobalVar:
    """One declared global variable: name, byte size, slot index."""

    name: str
    size: int
    index: int


class GlobalRegistry:
    """The program's global variables and its canonical GOT.

    Usage::

        reg = GlobalRegistry(space)
        reg.declare("counter", 8)
        reg.declare("rank", 8)
        reg.build()
        reg.write_int("counter", 42)      # via GOT indirection
    """

    def __init__(self, space: AddressSpace):
        self.space = space
        self.word = space.layout.word_bytes
        self._vars: Dict[str, GlobalVar] = {}
        self._order: List[GlobalVar] = []
        self.got_mapping: Optional[Mapping] = None
        self.master_mapping: Optional[Mapping] = None
        self._built = False
        #: Number of GOT swaps performed (scheduler statistics).
        self.swap_count = 0

    # -- declaration -------------------------------------------------------

    def declare(self, name: str, size: int) -> GlobalVar:
        """Declare a global variable before :meth:`build`."""
        if self._built:
            raise ThreadError("cannot declare globals after build()")
        if name in self._vars:
            raise ThreadError(f"global {name!r} already declared")
        if size <= 0:
            raise ThreadError(f"global {name!r} has non-positive size")
        var = GlobalVar(name, size, len(self._order))
        self._vars[name] = var
        self._order.append(var)
        return var

    def build(self) -> None:
        """Allocate the GOT and master (shared) storage in the data region."""
        if self._built:
            raise ThreadError("registry already built")
        self._built = True
        n = len(self._order)
        if n == 0:
            return
        self.got_mapping = self.space.mmap(
            max(n * self.word, 1), region="data", tag="GOT")
        total = sum(v.size for v in self._order)
        self.master_mapping = self.space.mmap(
            max(total, 1), region="data", tag="globals-master")
        addr = self.master_mapping.start
        for var in self._order:
            self.space.write_word(self._slot_addr(var.index), addr)
            addr += var.size

    # -- access through the GOT ---------------------------------------------

    def _slot_addr(self, index: int) -> int:
        assert self.got_mapping is not None
        return self.got_mapping.start + index * self.word

    def var(self, name: str) -> GlobalVar:
        """Look up a declared global."""
        try:
            return self._vars[name]
        except KeyError:
            raise ThreadError(f"unknown global {name!r}") from None

    def addr_of(self, name: str) -> int:
        """Current address of a global — read through the GOT, like code does."""
        if not self._built:
            raise ThreadError("registry not built")
        return self.space.read_word(self._slot_addr(self.var(name).index))

    def read(self, name: str) -> bytes:
        """Read a global's full value via GOT indirection."""
        var = self.var(name)
        return self.space.read(self.addr_of(name), var.size)

    def write(self, name: str, payload: bytes) -> None:
        """Write a global's value via GOT indirection."""
        var = self.var(name)
        if len(payload) > var.size:
            raise ThreadError(
                f"value of {len(payload)} bytes overflows global "
                f"{name!r} ({var.size} bytes)")
        self.space.write(self.addr_of(name), payload)

    def read_int(self, name: str) -> int:
        """Read a global as a little-endian integer of its declared size."""
        return int.from_bytes(self.read(name), "little")

    def write_int(self, name: str, value: int) -> None:
        """Write a global as a little-endian integer of its declared size."""
        var = self.var(name)
        self.write(name, value.to_bytes(var.size, "little", signed=False))

    # -- GOT swapping --------------------------------------------------------

    @property
    def got_bytes(self) -> int:
        """Size of the GOT in bytes (what a swap copies)."""
        return len(self._order) * self.word

    def current_image(self) -> List[int]:
        """The pointer values currently installed in the GOT."""
        return [self.space.read_word(self._slot_addr(i))
                for i in range(len(self._order))]

    def install_image(self, image: List[int]) -> int:
        """Write a GOT image over the canonical GOT; returns bytes written."""
        if len(image) != len(self._order):
            raise ThreadError(
                f"GOT image has {len(image)} entries, expected {len(self._order)}")
        for i, ptr in enumerate(image):
            self.space.write_word(self._slot_addr(i), ptr)
        self.swap_count += 1
        return self.got_bytes


class GlobalOffsetTable:
    """One thread's private GOT image plus private global storage.

    Created by :meth:`privatize`, which copies the *current* values of all
    globals into freshly allocated private storage (normally the thread's
    isomalloc heap, so the storage migrates with the thread and its
    addresses never change).
    """

    def __init__(self, registry: GlobalRegistry, image: List[int],
                 storage_addrs: List[int]):
        self.registry = registry
        #: GOT pointer values for this thread (one per declared global).
        self.image = image
        #: Base addresses of this thread's private storage blocks.
        self.storage_addrs = storage_addrs

    @classmethod
    def privatize(cls, registry: GlobalRegistry,
                  alloc: Callable[[int], int]) -> "GlobalOffsetTable":
        """Build a private copy of every global using ``alloc`` for storage.

        ``alloc(nbytes) -> address`` is typically ``thread.malloc``.  The
        new storage is initialized from the globals' current values (the
        ELF-image values at thread creation time).
        """
        image: List[int] = []
        addrs: List[int] = []
        for var in registry._order:
            addr = alloc(var.size)
            current = registry.space.read(registry.addr_of(var.name), var.size)
            registry.space.write(addr, current)
            image.append(addr)
            addrs.append(addr)
        return cls(registry, image, addrs)

    def swap_in(self) -> int:
        """Install this thread's GOT image; returns bytes written.

        Called by the thread scheduler when switching this thread in —
        "The thread scheduler then swaps the GOT when switching threads."
        """
        return self.registry.install_image(self.image)
