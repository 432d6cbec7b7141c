"""Count Python+C calls made by a function (a deterministic cost proxy).

Wall time on a shared box is noise; the number of calls ``cProfile``
sees for a seeded simulation repeats exactly, so per-message and
per-migration budgets pin on it::

    result, calls = count_calls(lambda: run_btmz(cfg, GreedyLB()))
    calls.total                      # every Python and C call
    calls.of("_send")                # calls of functions named ``_send``
    calls.of("read", "physical.py")  # ... defined in a file of that name

Run the function once before counting when imports or lazily built
tables would otherwise land in the count.  The counts are read from
``Profile.getstats()`` (one entry per code object), not through
``pstats``: that keys by ``(file, line, name)`` and lets the entries that
share a label — every generated dataclass ``__init__`` is
``<string>:2:__init__`` — overwrite one another, in an order that
follows memory addresses, so its total moved by a few thousand calls
from one process to the next.
"""

import cProfile
import os


class CallCounts:
    def __init__(self, entries):
        self.total = 0
        self._by_name = {}
        for entry in entries:
            code = entry.code
            if isinstance(code, str):       # a C function: its description
                keys = (code,)
            else:
                keys = (code.co_name,
                        (code.co_name, os.path.basename(code.co_filename)))
            self.total += entry.callcount
            for key in keys:
                self._by_name[key] = (self._by_name.get(key, 0)
                                      + entry.callcount)

    def of(self, name: str, file: str = None) -> int:
        return self._by_name.get(name if file is None else (name, file), 0)


def count_calls(fn):
    """Run ``fn()`` under ``cProfile``; returns ``(result, CallCounts)``."""
    profile = cProfile.Profile()
    result = profile.runcall(fn)
    return result, CallCounts(profile.getstats())
