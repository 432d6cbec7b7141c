"""AMPI wire-size estimation and reduction operators."""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict

from repro.errors import AmpiError

__all__ = ["ANY_SOURCE", "ANY_TAG", "OPS", "wire_size", "apply_op"]

#: Wildcard source for :meth:`AmpiContext.recv`.
ANY_SOURCE = -1
#: Wildcard tag for :meth:`AmpiContext.recv`.
ANY_TAG = -1


def _numpy_for(a: Any, b: Any) -> Any:
    """The ``numpy`` module if ``a`` or ``b`` is an array, else ``None``.

    Looked up, never imported: no array can exist before NumPy is loaded,
    so a run that sends none never loads it.
    """
    np = sys.modules.get("numpy")
    if np is not None and (isinstance(a, np.ndarray)
                           or isinstance(b, np.ndarray)):
        return np
    return None


def _min(a: Any, b: Any) -> Any:
    np = _numpy_for(a, b)
    return min(a, b) if np is None else np.minimum(a, b)


def _max(a: Any, b: Any) -> Any:
    np = _numpy_for(a, b)
    return max(a, b) if np is None else np.maximum(a, b)


#: Built-in reduction operators (MPI_SUM and friends).  ``min``/``max``
#: go elementwise when either operand is an array, as ``sum``/``prod``
#: broadcast in either order: a reduction folds in tree order.
OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "min": _min,
    "max": _max,
    "land": lambda a, b: bool(a) and bool(b),
    "lor": lambda a, b: bool(a) or bool(b),
}


def apply_op(op: str, values: list) -> Any:
    """Fold ``values`` (ordered by source rank) with operator ``op``."""
    if op not in OPS:
        raise AmpiError(f"unknown reduction op {op!r}; known: {sorted(OPS)}")
    if not values:
        raise AmpiError("reduction over no values")
    fn = OPS[op]
    acc = values[0]
    for v in values[1:]:
        acc = fn(acc, v)
    return acc


def wire_size(data: Any) -> int:
    """Estimated bytes of ``data`` on the simulated wire.

    NumPy arrays count their buffer exactly; containers are summed
    recursively; scalars cost one header's worth.  This drives bandwidth
    accounting only — payloads travel by reference inside the host process.
    """
    if data is None:
        return 16
    if isinstance(data, (bytes, bytearray, memoryview)):
        return len(data) + 32
    if isinstance(data, str):
        return len(data.encode("utf-8")) + 32
    if isinstance(data, (int, float, complex, bool)):
        return 32
    if isinstance(data, (list, tuple, set)):
        return 16 + sum(wire_size(x) for x in data)
    if isinstance(data, dict):
        return 16 + sum(wire_size(k) + wire_size(v) for k, v in data.items())
    np = sys.modules.get("numpy")
    if np is not None and isinstance(data, np.ndarray):
        return int(data.nbytes) + 64
    # Arbitrary objects: a conservative flat estimate.
    return 256
