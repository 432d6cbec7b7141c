"""What a cached cell costs the host: one canonicalisation, pinned calls.

A cell's names (``config_hash``, ``cell_id``, ``sort_key``,
``cache_key()``) all derive from the canonical JSON of its ``params``,
which is fixed at construction — so a sweep serialises each cell's
params once, however many layers ask for a name.  Before the one-text
rewrite a cached cell cost 6 canonicalisations in-process (8 through
the service, which also parsed the sweep twice: the served count is
``tests/serve/test_service.py``'s) and 136.3 Python+C calls; it costs 1
and 96.3 now.  The bounds leave room for a call or
two per cell, not for a name being re-derived per access.
"""

from repro.exec import ResultCache, SweepExecutor
from repro.serve import protocol
from tests.callcount import count_calls
from tests.serve.conftest import wire_cells

CELLS = 150
CALLS_PER_CACHED_CELL = 100


def chaos_shaped_cells():
    return wire_cells(CELLS, experiment="t:budget", workload="stencil",
                      config={"drop_rate": 0.01, "delay_rate": 0.08})


def test_a_cached_sweep_canonicalises_each_cell_once(tmp_path):
    wire = chaos_shaped_cells()

    def sweep():
        spec = protocol.spec_from_wire("budget", wire)
        return SweepExecutor(spec, cache=ResultCache(str(tmp_path))).run()

    sweep()                       # fills the cache, warms the imports
    results, calls = count_calls(sweep)
    assert [r.cached for r in results] == [True] * CELLS
    assert calls.of("_canonical") <= CELLS
    assert calls.total / CELLS <= CALLS_PER_CACHED_CELL, calls.total / CELLS
