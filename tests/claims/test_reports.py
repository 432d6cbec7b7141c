"""Every checked-in ``results/*.txt`` report has exactly one writer in
``repro.bench.EXPERIMENTS``, and that writer reproduces it byte for byte."""

import pathlib

from repro.bench.__main__ import EXPERIMENTS

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"


def test_every_report_has_exactly_one_writer(experiment):
    writers = {}
    for name in EXPERIMENTS:
        experiment(name)
        for report in experiment.written[name]:
            writers.setdefault(report, []).append(name)
    assert {r: w for r, w in writers.items() if len(w) > 1} == {}
    assert set(writers) == {p.name for p in RESULTS.glob("*.txt")}


def test_every_report_is_byte_identical(experiment):
    drift = []
    for name in EXPERIMENTS:
        experiment(name)
        for report, path in experiment.written[name].items():
            if path.read_bytes() != (RESULTS / report).read_bytes():
                drift.append(f"{name}: {report}")
    assert drift == []
