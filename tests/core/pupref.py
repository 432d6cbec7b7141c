"""The value codec ``repro.core.pup.pack_value`` shipped before its walk
packed with prebound ``struct.Struct``s: one recursive call per value,
every tag, count and field through a ``PackingPupper`` (``int`` →
``_prim`` → ``_tick`` → ``struct.pack``), an ``isinstance`` ladder per
value.

It is kept here as the byte oracle (the role ``tests/vm/pagemodel.py``
plays for the address space and ``tests/query/treewalk.py`` for the query
compiler): slow, and the definition of the format — a checkpoint blob is
``pup_seal`` of these bytes, and its length is simulated disk time.
``test_pack_value_oracle.py`` holds ``pack_value`` to it in bytes and in
the type of what it raises.
"""

import numpy as np

from repro.core.pup import PackingPupper
from repro.errors import PupError

_VT_NONE, _VT_BOOL, _VT_INT, _VT_FLOAT, _VT_BYTES, _VT_STR = 0, 1, 2, 3, 4, 5
_VT_LIST, _VT_TUPLE, _VT_DICT, _VT_ARRAY = 6, 7, 8, 9


def _pack_value_into(p, value):
    if value is None:
        p.int(_VT_NONE)
    elif isinstance(value, bool):
        p.int(_VT_BOOL)
        p.bool(value)
    elif isinstance(value, int):
        p.int(_VT_INT)
        p.int(value)
    elif isinstance(value, float):
        p.int(_VT_FLOAT)
        p.double(value)
    elif isinstance(value, (bytes, bytearray)):
        p.int(_VT_BYTES)
        p.bytes(bytes(value))
    elif isinstance(value, str):
        p.int(_VT_STR)
        p.str(value)
    elif isinstance(value, np.ndarray):
        p.int(_VT_ARRAY)
        p.array(value)
    elif isinstance(value, (list, tuple)):
        p.int(_VT_LIST if isinstance(value, list) else _VT_TUPLE)
        p.int(len(value))
        for item in value:
            _pack_value_into(p, item)
    elif isinstance(value, dict):
        p.int(_VT_DICT)
        p.int(len(value))
        for k, v in value.items():
            _pack_value_into(p, k)
            _pack_value_into(p, v)
    else:
        raise PupError(f"pack_value cannot encode {type(value).__name__}")


def pack_value(value):
    p = PackingPupper()
    _pack_value_into(p, value)
    return p.buffer()
