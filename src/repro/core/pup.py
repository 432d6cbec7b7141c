"""The PUP (Pack/UnPack) framework (paper Section 3.1.1, reference [19]).

Charm++'s PUP framework lets one traversal routine serve three phases:
*sizing* (how many bytes will this object need?), *packing* (write the
object into a buffer), and *unpacking* (rebuild the object from a buffer).
A class participates by implementing a single ``pup(p)`` method that pipes
every field through the pupper ``p``; the same method runs in all three
phases.

Example
-------
>>> class Particle:
...     def __init__(self, x=0.0, v=0.0, tags=()):
...         self.x, self.v, self.tags = x, v, list(tags)
...     def pup(self, p):
...         self.x = p.double(self.x)
...         self.v = p.double(self.v)
...         self.tags = p.list_int(self.tags)
>>> pup_register(Particle)
>>> blob = pup_pack(Particle(1.5, -2.0, [1, 2, 3]))
>>> q = pup_unpack(blob)
>>> (q.x, q.v, q.tags)
(1.5, -2.0, [1, 2, 3])
"""

from __future__ import annotations

import struct
import sys
import zlib
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Protocol, Type,
                    runtime_checkable)

from repro.errors import PupError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Puppable",
    "SizingPupper",
    "PackingPupper",
    "UnpackingPupper",
    "pup_register",
    "pup_registered",
    "pup_pack",
    "pup_unpack",
    "pup_size",
    "pup_seal",
    "pup_unseal",
    "pup_pack_checked",
    "pup_unpack_checked",
]


@runtime_checkable
class Puppable(Protocol):
    """Anything with a ``pup(p)`` traversal method."""

    def pup(self, p: "BasePupper") -> None:  # pragma: no cover - protocol
        ...


#: Registry of puppable classes for polymorphic pack/unpack.  Write-once
#: per class at decoration (import) time, mapping stable wire names to
#: types; it holds no per-run state — re-registering the same name is
#: rejected — so identical runs see the identical registry.
_REGISTRY: Dict[str, Type[Any]] = {}


def _fresh_instance(cls: Type[Any]) -> Any:
    """Build the blank instance ``pup`` runs against when unpacking.

    Mirrors Charm++'s migration constructor: the class is default
    constructed if possible, so ``pup`` methods written in the natural
    ``self.x = p.double(self.x)`` style find their attributes initialized.
    Classes without a zero-argument constructor fall back to ``__new__``
    and must write a ``pup`` that tolerates missing attributes when
    ``p.is_unpacking``.
    """
    try:
        return cls()
    except TypeError:
        return cls.__new__(cls)


def pup_register(cls: Type[Any], name: Optional[str] = None) -> Type[Any]:
    """Register a puppable class (usable as a decorator).

    Registration gives the class a stable wire name so :func:`pup_unpack`
    can reconstruct the right type from a buffer.
    """
    key = name or cls.__qualname__
    existing = _REGISTRY.get(key)
    if existing is not None and existing is not cls:
        raise PupError(f"pup name {key!r} already registered to {existing}")
    _REGISTRY[key] = cls
    cls._pup_name = key
    return cls


def pup_registered(cls: Type[Any]) -> bool:
    """True when ``cls`` or a base is ``pup_register``'ed (packing still
    needs the class's *own* registration)."""
    return hasattr(cls, "_pup_name")


def _wire_name(obj: Any) -> str:
    """The wire name ``obj``'s own class registered; an inherited one
    would unpack as the base — silently the wrong type — so is refused."""
    cls = type(obj)
    name = vars(cls).get("_pup_name")
    if name is None:
        inherited = getattr(cls, "_pup_name", None)
        raise PupError(
            f"{cls.__name__} is not pup_register'ed"
            + (f" (its base {_REGISTRY[inherited].__name__} is)"
               if inherited else ""))
    return name


class BasePupper:
    """Shared primitive-dispatch plumbing for the three pupper phases.

    Subclasses override :meth:`_prim` (fixed-size primitives via
    :mod:`struct`) and :meth:`_blob` (length-prefixed byte strings); the
    typed convenience methods below are phase-independent.
    """

    #: Which phase this pupper runs ("sizing" | "packing" | "unpacking").
    phase = "?"

    # -- error context -------------------------------------------------------
    # The pupper tracks which registered class it is traversing (a stack,
    # for nested obj() fields) and a running field counter, so a mismatch
    # surfaces as "PupError: ... in Particle (field #3, unpacking)" instead
    # of a bare struct.error with no hint of the offending pup() method.

    def _enter(self, name: str) -> None:
        if not hasattr(self, "_ctx"):
            self._ctx: List[str] = []
        self._ctx.append(name)

    def _exit(self) -> None:
        self._ctx.pop()

    def _tick(self) -> None:
        self._fields = getattr(self, "_fields", 0) + 1

    def _where(self) -> str:
        stack = getattr(self, "_ctx", None)
        ctx = ".".join(stack) if stack else "<top-level value>"
        return f"in {ctx} (field #{getattr(self, '_fields', 0)}, {self.phase})"

    @property
    def is_sizing(self) -> bool:
        """True in the sizing phase."""
        return self.phase == "sizing"

    @property
    def is_packing(self) -> bool:
        """True in the packing phase."""
        return self.phase == "packing"

    @property
    def is_unpacking(self) -> bool:
        """True in the unpacking phase."""
        return self.phase == "unpacking"

    # -- to be provided by phase subclasses --------------------------------

    def _prim(self, fmt: str, value: Any) -> Any:
        raise NotImplementedError

    def _blob(self, value: Optional[bytes]) -> bytes:
        raise NotImplementedError

    # -- typed field methods -------------------------------------------------

    def int(self, v: int = 0) -> int:
        """A signed 64-bit integer field."""
        return self._prim("<q", v)

    def double(self, v: float = 0.0) -> float:
        """A 64-bit float field."""
        return self._prim("<d", v)

    def bool(self, v: bool = False) -> bool:
        """A boolean field."""
        return bool(self._prim("<B", 1 if v else 0))

    def bytes(self, v: bytes = b"") -> bytes:
        """A variable-length byte-string field."""
        return self._blob(v)

    def str(self, v: str = "") -> str:
        """A UTF-8 string field."""
        if self.is_unpacking:
            return self._blob(None).decode("utf-8")
        self._blob(v.encode("utf-8"))
        return v

    def list_int(self, v: Optional[List[int]] = None) -> List[int]:
        """A list of signed 64-bit integers."""
        v = v or []
        n = self.int(len(v))
        if self.is_unpacking:
            return [self.int() for _ in range(n)]
        for item in v:
            self.int(item)
        return v

    def list_double(self, v: Optional[List[float]] = None) -> List[float]:
        """A list of 64-bit floats."""
        v = v or []
        n = self.int(len(v))
        if self.is_unpacking:
            return [self.double() for _ in range(n)]
        for item in v:
            self.double(item)
        return v

    def array(self, v: Optional[np.ndarray] = None) -> np.ndarray:
        """A NumPy array field (dtype and shape preserved)."""
        import numpy as np
        if self.is_unpacking:
            dtype = np.dtype(self._blob(None).decode("ascii"))
            ndim = self.int()
            shape = tuple(self.int() for _ in range(ndim))
            raw = self._blob(None)
            return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        if v is None:
            raise PupError("array field requires a value when sizing/packing")
        self._blob(v.dtype.str.encode("ascii"))
        self.int(v.ndim)
        for dim in v.shape:
            self.int(dim)
        self._blob(np.ascontiguousarray(v).tobytes())
        return v

    def obj(self, v: Optional[Any] = None) -> Any:
        """A nested puppable object field (polymorphic via the registry)."""
        if self.is_unpacking:
            name = self._blob(None).decode("utf-8")
            cls = _REGISTRY.get(name)
            if cls is None:
                raise PupError(f"unpacking unknown pup class {name!r}")
            inst = _fresh_instance(cls)
            self._enter(name)
            try:
                inst.pup(self)
            finally:
                self._exit()
            return inst
        if v is None:
            raise PupError("obj field requires a value when sizing/packing")
        name = _wire_name(v)
        self._blob(name.encode("utf-8"))
        self._enter(name)
        try:
            v.pup(self)
        finally:
            self._exit()
        return v

    def list_obj(self, v: Optional[List[Any]] = None) -> List[Any]:
        """A list of nested puppable objects."""
        v = v or []
        n = self.int(len(v))
        if self.is_unpacking:
            return [self.obj() for _ in range(n)]
        for item in v:
            self.obj(item)
        return v


class SizingPupper(BasePupper):
    """Phase 1: accumulate the byte size the packed object will need."""

    phase = "sizing"

    def __init__(self) -> None:
        self.size = 0

    def _prim(self, fmt: str, value: Any) -> Any:
        self._tick()
        self.size += struct.calcsize(fmt)
        return value

    def _blob(self, value: Optional[bytes]) -> bytes:
        assert value is not None
        self._tick()
        self.size += 8 + len(value)
        return value


class PackingPupper(BasePupper):
    """Phase 2: write fields into a buffer."""

    phase = "packing"

    def __init__(self) -> None:
        self._chunks: List[bytes] = []

    def _prim(self, fmt: str, value: Any) -> Any:
        self._tick()
        try:
            self._chunks.append(struct.pack(fmt, value))
        except struct.error as e:
            raise PupError(
                f"cannot pack {value!r} as {fmt!r} {self._where()}: {e}"
            ) from None
        return value

    def _blob(self, value: Optional[bytes]) -> bytes:
        assert value is not None
        self._tick()
        self._chunks.append(struct.pack("<Q", len(value)))
        self._chunks.append(value)
        return value

    def buffer(self) -> bytes:
        """The packed bytes written so far."""
        return b"".join(self._chunks)


class UnpackingPupper(BasePupper):
    """Phase 3: read fields back out of a buffer."""

    phase = "unpacking"

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def _prim(self, fmt: str, value: Any) -> Any:
        self._tick()
        size = struct.calcsize(fmt)
        if self._offset + size > len(self._data):
            raise PupError(
                f"unpack of {fmt!r} ran past end of buffer {self._where()} "
                f"— truncated blob or pup() size mismatch")
        out = struct.unpack_from(fmt, self._data, self._offset)[0]
        self._offset += size
        return out

    def _blob(self, value: Optional[bytes]) -> bytes:
        n = self._prim("<Q", 0)
        if self._offset + n > len(self._data):
            raise PupError(
                f"unpack of a {n}-byte blob ran past end of buffer "
                f"{self._where()} — truncated blob or pup() size mismatch")
        out = self._data[self._offset:self._offset + n]
        self._offset += n
        return bytes(out)

    @property
    def exhausted(self) -> bool:
        """True when every byte of the buffer has been consumed."""
        return self._offset == len(self._data)


# ---------------------------------------------------------------------------
# convenience entry points
# ---------------------------------------------------------------------------

def pup_size(obj: Puppable) -> int:
    """Bytes :func:`pup_pack` will produce for ``obj`` (sizing phase)."""
    p = SizingPupper()
    p.obj(obj)
    return p.size


def pup_pack(obj: Puppable) -> bytes:
    """Pack a registered puppable object into bytes."""
    p = PackingPupper()
    p.obj(obj)
    return p.buffer()


def pup_unpack(data: bytes) -> Any:
    """Rebuild a registered puppable object from :func:`pup_pack` output."""
    p = UnpackingPupper(data)
    inst = p.obj()
    if not p.exhausted:
        raise PupError(
            f"{_wire_name(inst)}: {len(p._data) - p._offset} trailing bytes "
            f"after unpack — over-long blob or pup() asymmetry")
    return inst


# ---------------------------------------------------------------------------
# integrity envelope
# ---------------------------------------------------------------------------
#
# A plain pup stream detects *structural* damage (truncation, over-long
# blobs, mistyped fields) but a flipped byte inside field *content* decodes
# to silently wrong data — the classic serialization failure mode.  Blobs
# that cross an unreliable boundary (the simulated checkpoint disk, chaos
# tests) are therefore sealed: a magic tag, the payload length, and a CRC32
# make any single-byte corruption loudly detectable as a PupError.

_SEAL_MAGIC = b"PUP1"
_SEAL_HEADER = struct.Struct("<4sQI")


def pup_seal(blob: bytes) -> bytes:
    """Wrap packed bytes in a magic + length + CRC32 integrity envelope."""
    return _SEAL_HEADER.pack(_SEAL_MAGIC, len(blob),
                             zlib.crc32(blob) & 0xFFFFFFFF) + blob


def pup_unseal(data: bytes) -> bytes:
    """Verify and strip a :func:`pup_seal` envelope.

    Raises
    ------
    PupError
        If the magic, length, or checksum does not match — i.e. the blob
        was corrupted or truncated in storage/transit.  Never returns
        silently wrong bytes.
    """
    if len(data) < _SEAL_HEADER.size:
        raise PupError(f"sealed blob too short ({len(data)} bytes) — "
                       f"truncated envelope")
    magic, length, crc = _SEAL_HEADER.unpack_from(data, 0)
    if magic != _SEAL_MAGIC:
        raise PupError(f"bad seal magic {magic!r} — not a sealed pup blob")
    payload = data[_SEAL_HEADER.size:]
    if len(payload) != length:
        raise PupError(f"sealed blob length mismatch: header says {length}, "
                       f"got {len(payload)} bytes — truncated or padded")
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        raise PupError("sealed blob checksum mismatch — corrupted contents")
    return payload


def pup_pack_checked(obj: Puppable) -> bytes:
    """:func:`pup_pack` plus the integrity envelope of :func:`pup_seal`."""
    return pup_seal(pup_pack(obj))


def pup_unpack_checked(data: bytes) -> Any:
    """Inverse of :func:`pup_pack_checked`; corruption raises PupError."""
    return pup_unpack(pup_unseal(data))


# ---------------------------------------------------------------------------
# dynamic value codec (used by checkpoints and migration images)
# ---------------------------------------------------------------------------

#: Type tags for the dynamic value codec.
_VT_NONE, _VT_BOOL, _VT_INT, _VT_FLOAT, _VT_BYTES, _VT_STR = 0, 1, 2, 3, 4, 5
_VT_LIST, _VT_TUPLE, _VT_DICT, _VT_ARRAY = 6, 7, 8, 9

# The codec's wire format is a pup stream: every tag and count is a pupper
# ``int`` ("<q"), a byte string a ``_blob`` ("<Q" length, then the bytes).
# The walk packs each value's tag with what follows it in one call.
_INT = struct.Struct("<q").pack
_LEN = struct.Struct("<Q").pack
_TAG_INT = struct.Struct("<qq").pack
_TAG_LEN = struct.Struct("<qQ").pack
_TAG_DOUBLE = struct.Struct("<qd").pack
_TAG_BYTE = struct.Struct("<qB").pack
_NONE = _INT(_VT_NONE)

#: The types the walk encodes, in the order a subclass is matched: the
#: scalars, then ``numpy.ndarray``, then the containers.  A value of a
#: subclass (an ``IntEnum``, a NumPy scalar, a named tuple) encodes as the
#: one it derives from; no class can derive from two of them (``bool``
#: cannot be subclassed).  The array type is looked up in ``sys.modules``,
#: never imported: no array can exist before NumPy is loaded.
_SCALARS = (bool, int, float, bytes, bytearray, str)
_CONTAINERS = (list, tuple, dict)
_EXACT = frozenset(_SCALARS + _CONTAINERS) | {type(None)}


def _kind(value: Any) -> type:
    """The codec type a value whose class is not one of the exact kinds
    encodes as."""
    for kind in _SCALARS:
        if isinstance(value, kind):
            return kind
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.ndarray):
        return np.ndarray
    for kind in _CONTAINERS:
        if isinstance(value, kind):
            return kind
    raise PupError(f"pack_value cannot encode {type(value).__name__}: "
                   f"{value!r}")


def _walk(value: Any, out: Any) -> None:
    """Append ``value``'s encoding to a chunk list through ``out``."""
    kind = type(value)
    if kind not in _EXACT:
        kind = _kind(value)
    if kind is str:
        raw = value.encode("utf-8")
        out(_TAG_LEN(_VT_STR, len(raw)))
        out(raw)
    elif kind is int:
        try:
            out(_TAG_INT(_VT_INT, value))
        except struct.error as e:
            raise PupError(f"pack_value cannot encode {value!r} as a "
                           f"64-bit int: {e}") from None
    elif kind is dict:
        out(_TAG_INT(_VT_DICT, len(value)))
        for k, v in value.items():
            _walk(k, out)
            _walk(v, out)
    elif kind is bytes or kind is bytearray:
        out(_TAG_LEN(_VT_BYTES, len(value)))
        out(value)
    elif kind is tuple or kind is list:
        out(_TAG_INT(_VT_LIST if kind is list else _VT_TUPLE, len(value)))
        for item in value:
            _walk(item, out)
    elif value is None:
        out(_NONE)
    elif kind is float:
        out(_TAG_DOUBLE(_VT_FLOAT, value))
    elif kind is bool:
        out(_TAG_BYTE(_VT_BOOL, 1 if value else 0))
    else:
        import numpy as np
        dtype = value.dtype.str.encode("ascii")
        out(_TAG_LEN(_VT_ARRAY, len(dtype)))
        out(dtype)
        out(_INT(value.ndim))
        for dim in value.shape:
            out(_INT(dim))
        raw = np.ascontiguousarray(value).tobytes()
        out(_LEN(len(raw)))
        out(raw)


def _unpack_value_from(p: UnpackingPupper) -> Any:
    tag = p.int()
    if tag == _VT_NONE:
        return None
    if tag == _VT_BOOL:
        return p.bool()
    if tag == _VT_INT:
        return p.int()
    if tag == _VT_FLOAT:
        return p.double()
    if tag == _VT_BYTES:
        return p.bytes()
    if tag == _VT_STR:
        return p.str()
    if tag == _VT_ARRAY:
        return p.array()
    if tag in (_VT_LIST, _VT_TUPLE):
        n = p.int()
        items = [_unpack_value_from(p) for _ in range(n)]
        return items if tag == _VT_LIST else tuple(items)
    if tag == _VT_DICT:
        n = p.int()
        return {(_unpack_value_from(p)): _unpack_value_from(p)
                for _ in range(n)}
    raise PupError(f"pack_value stream corrupt: unknown tag {tag}")


def pack_value(value: Any) -> bytes:
    """Serialize a JSON-like value tree (plus bytes and NumPy arrays).

    Used wherever a migration or checkpoint image — a nest of dicts,
    byte strings, and numbers — must become real bytes on the simulated
    disk or wire.  Inverse of :func:`unpack_value`.  The walk appends to
    one chunk list and the bytes are joined once: a stack image is copied
    once, not once per layer it passes through.
    """
    chunks: List[Any] = []
    _walk(value, chunks.append)
    return b"".join(chunks)


def unpack_value(data: bytes) -> Any:
    """Rebuild a value tree from :func:`pack_value` output."""
    p = UnpackingPupper(data)
    out = _unpack_value_from(p)
    if not p.exhausted:
        raise PupError("trailing bytes after unpack_value")
    return out
