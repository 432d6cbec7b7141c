"""One run of each ``repro.bench`` experiment per session.

``experiment(name)`` runs ``EXPERIMENTS[name]`` at most once, into its
own temporary results directory with ``REPRO_FULL`` unset, and returns
the data it built; ``experiment.written[name]`` maps each report it wrote
to its path.  The shape claims and the byte-compare against the
checked-in ``results/`` share these runs.
"""

import pytest

import repro.bench.report as report
from repro.bench.__main__ import EXPERIMENTS


class Experiments:
    """Lazily runs and caches the paper's experiments."""

    def __init__(self, tmp_path_factory):
        self._tmp = tmp_path_factory
        self._data = {}
        self.written = {}

    def __call__(self, name):
        if name not in self._data:
            out = self._tmp.mktemp(name)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(report, "RESULTS_DIR", str(out))
                mp.delenv("REPRO_FULL", raising=False)
                self._data[name] = EXPERIMENTS[name]()
            self.written[name] = {p.name: p for p in out.iterdir()}
        return self._data[name]


@pytest.fixture(scope="session")
def experiment(tmp_path_factory):
    return Experiments(tmp_path_factory)
