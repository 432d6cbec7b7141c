"""Count Python+C calls made by a function (a deterministic cost proxy).

Wall time on a shared box is noise; the number of calls ``cProfile``
sees for a seeded simulation repeats exactly, so per-message and
per-migration budgets pin on it::

    result, calls = count_calls(lambda: run_btmz(cfg, GreedyLB()))
    calls.total                      # every Python and C call
    calls.of("_send")                # calls of functions named ``_send``

Run the function once before counting when imports or lazily built
tables would otherwise land in the count.
"""

import cProfile
import pstats


class CallCounts:
    def __init__(self, stats: pstats.Stats):
        self.total = stats.total_calls
        self._by_name = {}
        for (_file, _line, name), row in stats.stats.items():
            self._by_name[name] = self._by_name.get(name, 0) + row[1]

    def of(self, name: str) -> int:
        return self._by_name.get(name, 0)


def count_calls(fn):
    """Run ``fn()`` under ``cProfile``; returns ``(result, CallCounts)``."""
    profile = cProfile.Profile()
    result = profile.runcall(fn)
    return result, CallCounts(pstats.Stats(profile))
