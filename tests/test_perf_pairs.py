"""tools/perf_pairs.py: the per-pair table printed before compare's."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", os.path.join(ROOT, "tools", "perf_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(**workloads):
    """One ``perf/run.py --out`` line: metric -> median, per workload."""
    return json.dumps({"workloads": {
        name: {"end_to_end": {m: {"median": v, "q1": v, "q3": v}
                              for m, v in metrics.items()}}
        for name, metrics in workloads.items()}})


def test_every_end_to_end_metric_is_printed_pair_by_pair(perf_pairs,
                                                         tmp_path, capsys):
    sides = {
        "parent": [dict(storm=dict(wall_s=2.0, setup_s=0.5,
                                   peak_rss_mb=98.4, fail_frac=0.0),
                        drain=dict(wall_s=1.0, setup_s=0.25),
                        trace=dict(wall_s=3.0, trace_on_ratio=1.5)),
                   dict(storm=dict(wall_s=2.0, setup_s=0.5,
                                   peak_rss_mb=98.0, fail_frac=0.0),
                        drain=dict(wall_s=1.0, setup_s=0.25),
                        trace=dict(wall_s=3.0, trace_on_ratio=1.5))],
        "change": [dict(storm=dict(wall_s=2.5, setup_s=0.5,
                                   peak_rss_mb=74.6, fail_frac=0.0),
                        drain=dict(wall_s=0.5, setup_s=0.125),
                        trace=dict(wall_s=3.0, trace_on_ratio=1.25)),
                   dict(storm=dict(wall_s=1.5, setup_s=0.75,
                                   peak_rss_mb=75.0, fail_frac=0.0),
                        drain=dict(wall_s=1.5, setup_s=0.25),
                        trace=dict(wall_s=3.0, trace_on_ratio=1.625))],
    }
    for side, lines in sides.items():
        (tmp_path / f"{side}.jsonl").write_text(
            "".join(_line(**w) + "\n" for w in lines))
    perf_pairs.print_pairs(str(tmp_path))
    assert capsys.readouterr().out.splitlines() == [
        "drain wall_s, parent/change per pair: 1.000/0.500  1.000/1.500"
        "  -> change lower in 1/2",
        "drain setup_s, parent/change per pair: 0.250/0.125  0.250/0.250"
        "  -> change lower in 1/2",
        "storm wall_s, parent/change per pair: 2.000/2.500  2.000/1.500"
        "  -> change lower in 1/2",
        "storm setup_s, parent/change per pair: 0.500/0.500  0.500/0.750"
        "  -> change lower in 0/2",
        "storm peak_rss_mb, parent/change per pair: 98.400/74.600"
        "  98.000/75.000  -> change lower in 2/2",
        "trace wall_s, parent/change per pair: 3.000/3.000  3.000/3.000"
        "  -> change lower in 0/2",
        "trace trace_on_ratio, parent/change per pair: 1.500/1.250"
        "  1.500/1.625  -> change lower in 1/2",
    ]
