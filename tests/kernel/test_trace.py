"""Tests for the kernel tracer: entries, counters, timelines, dump."""

import json

import pytest

from repro.errors import ReproError
from repro.kernel import EventKernel, KernelTracer, load_trace
from repro.sim import Cluster
from tests.core.conftest import make_cluster


def traced_kernel():
    k = EventKernel(name="traced")
    tr = KernelTracer().attach(k)
    return k, tr


def named_handler(log, tag):
    log.append(tag)


# -- lifecycle entries ------------------------------------------------------

def test_entries_cover_the_event_lifecycle():
    k, tr = traced_kernel()
    log = []
    ev = k.schedule(2.0, named_handler, log, "x", category="demo", flow="f0")
    k.schedule(1.0, lambda: None)
    ev2 = k.schedule(3.0, lambda: None)
    ev2.cancel()
    k.run()
    kinds = [e["ev"] for e in tr.entries]
    assert kinds == ["schedule", "schedule", "schedule", "cancel",
                     "begin", "end", "begin", "end", "idle", "quiescence"]
    sched = tr.entries[0]
    assert sched == {"ev": "schedule", "kernel": "traced", "t": 2.0,
                     "seq": 0, "category": "demo", "flow": "f0",
                     "site": "named_handler"}


def test_counters_aggregate_dispatch_metrics():
    k, tr = traced_kernel()
    ev = k.schedule(1.0, lambda: None, category="work")
    k.schedule(2.0, lambda: None, category="work")
    k.schedule(102.0, lambda: None)       # a 100ns virtual-time gap
    ev.cancel()
    k.run()
    c = tr.counters
    assert c["scheduled"] == 3
    assert c["dispatched"] == 2
    assert c["cancelled"] == 1
    assert c["quiescences"] == 1
    assert c["idle_ns"] == 100.0
    assert c["by_category"] == {"work": 1, "uncategorized": 1}


def test_skipped_dispatches_are_counted_separately():
    k, tr = traced_kernel()
    k.schedule(1.0, k.skip_current)
    k.schedule(2.0, lambda: None)
    k.run()
    assert tr.counters["skipped"] == 1
    assert tr.counters["dispatched"] == 1
    skipped = [e for e in tr.entries if e.get("skipped")]
    assert len(skipped) == 1 and skipped[0]["ev"] == "end"


def test_timeline_groups_dispatches_by_flow():
    k, tr = traced_kernel()
    log = []
    k.schedule(1.0, named_handler, log, "a", category="step", flow="alpha")
    k.schedule(2.0, named_handler, log, "b", category="step", flow="beta")
    k.schedule(3.0, named_handler, log, "c", category="ack", flow="alpha")
    k.run()
    tl = tr.timeline()
    assert tl == {
        "alpha": [(1.0, "step", "named_handler"),
                  (3.0, "ack", "named_handler")],
        "beta": [(2.0, "step", "named_handler")],
    }


def test_dump_writes_parseable_json_lines(tmp_path):
    k, tr = traced_kernel()
    k.schedule(1.0, lambda: None, category="d")
    k.run()
    path = tmp_path / "trace.jsonl"
    n = tr.dump(str(path))
    lines = path.read_text().splitlines()
    assert n == len(lines) == len(tr.entries)
    parsed = [json.loads(line) for line in lines]
    assert parsed == tr.entries


# -- attachment -------------------------------------------------------------

def test_detach_restores_the_zero_cost_path():
    k = EventKernel()
    assert not k.hooks.hot
    tr = KernelTracer().attach(k)
    assert k.hooks.hot
    k.schedule(1.0, lambda: None)
    k.run()
    n = len(tr.entries)
    tr.detach()
    assert not k.hooks.hot
    k.schedule(2.0, lambda: None)
    k.run()
    assert len(tr.entries) == n


def test_double_attach_and_double_detach_are_errors():
    k = EventKernel()
    tr = KernelTracer().attach(k)
    with pytest.raises(ReproError):
        tr.attach(k)
    tr.detach()
    with pytest.raises(ReproError):
        tr.detach()


# -- runtime integration ----------------------------------------------------

def test_thread_switches_show_up_as_cth_resume():
    cl, scheds, _, _ = make_cluster(1)
    tr = KernelTracer().attach(scheds[0].kernel)

    def body(th):
        yield "yield"
        yield "yield"

    scheds[0].create(body)
    scheds[0].create(body)
    scheds[0].run()
    assert tr.counters["switches"] == tr.counters["dispatched"] > 0
    assert set(tr.counters["by_category"]) == {"cth.resume"}


def test_network_traffic_shows_up_as_messages():
    cl = Cluster(2)
    for proc in cl.processors:
        proc.set_message_handler(lambda msg: None)
    tr = KernelTracer().attach(cl.queue)
    cl.send(0, 1, "ping", 64, tag="t")
    cl.send(1, 0, "pong", 64, tag="t")
    cl.run()
    assert tr.counters["messages"] == 2
    assert all(cat.startswith("net.") for cat in tr.counters["by_category"])
    flows = tr.timeline()
    assert set(flows) == {"pe0", "pe1"}


# -- the trace file contract --------------------------------------------------

def test_dump_is_byte_identical_to_one_json_dumps_per_entry(tmp_path):
    k, tr = traced_kernel()
    k.schedule(1.0, lambda: None, category="net.x", flow="alpha")
    k.schedule(2.0, lambda: None)
    k.run()
    tr.entries.append({"ev": "charge", "t": 2.5, "busy": {"1": 3.0, "0": 1},
                       "note": "café", "nan": float("nan")})
    path = tmp_path / "trace.jsonl"
    assert tr.dump(str(path)) == len(tr.entries)
    assert path.read_bytes() == "".join(
        json.dumps(e, sort_keys=True) + "\n" for e in tr.entries).encode()


def test_dump_of_an_empty_trace_is_an_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert KernelTracer().dump(str(path)) == 0
    assert path.read_bytes() == b""


def _load_by_json_loads(path):
    """``load_trace`` as it was written over ``json.loads``: the
    per-line contract the bound decoder must keep, message for message."""
    with open(path) as fh:
        data = fh.read()
    entries = []
    raw_lines = data.split("\n")
    for index, line in enumerate(raw_lines):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError as e:
            if index == len(raw_lines) - 1 and not data.endswith("\n"):
                break
            raise ReproError(
                f"{path}:{index + 1}: not a JSON trace line: {e}")
        if not isinstance(entry, dict):
            raise ReproError(
                f"{path}:{index + 1}: trace line is not a JSON object")
        entries.append(entry)
    return entries


@pytest.mark.parametrize("text, outcome", [
    ('{"a": 1}\n{"b": [2, {"c": null}]}\n', 2),
    ("", 0),
    ('\n\n{"a": 1}\n   \n\t{"b": 2}  \n\n', 2),
    ('{"a": 1}\r\n{"b": 2}\r\n', 2),
    ('{"a": NaN, "b": -Infinity}\n', 1),
    # two values on one line
    ('{"a": 1} {"b": 2}\n', ":1: not a JSON trace line: Extra data: "
                            "line 1 column 10 (char 9)"),
    ('{"a": 1}{"b": 2}\n', ":1: not a JSON trace line: Extra data: "
                           "line 1 column 9 (char 8)"),
    ('{"a": 1}\n{} \t x\n', ":2: not a JSON trace line: Extra data: "
                            "line 1 column 6 (char 5)"),
    # one value spanning two lines
    ('{"a":\n1}\n', ":1: not a JSON trace line: Expecting value: "
                    "line 1 column 6 (char 5)"),
    # parses as one array of three objects in bulk, corrupt line by line
    ('{},{"a":[{}\n{}]}\n', ":1: not a JSON trace line: Extra data: "
                            "line 1 column 3 (char 2)"),
    # non-object lines
    ('{"a": 1}\n[1, 2]\n', ":2: trace line is not a JSON object"),
    ('5\n', ":1: trace line is not a JSON object"),
    ('{"a": 1}\nnull\n', ":2: trace line is not a JSON object"),
    # a torn tail is dropped only when the file ends mid-line
    ('{"a": 1}\n{"b":', 1),
    ('{"a": 1}\n{"b": 2} x', 1),
    ('{"a": 1}\n[1', 1),
    ('{"a": 1}\n{"b":\n', ":2: not a JSON trace line: Expecting value: "
                          "line 1 column 6 (char 5)"),
    ('garbage\n{"a": 1}\n{"b":', ":1: not a JSON trace line: Expecting "
                                 "value: line 1 column 1 (char 0)"),
    # ...and a complete non-object tail is still rejected
    ('{"a": 1}\n[1, 2]', ":2: trace line is not a JSON object"),
])
def test_load_trace_line_contract(tmp_path, text, outcome):
    path = tmp_path / "t.jsonl"
    path.write_bytes(text.encode())
    try:
        want = _load_by_json_loads(str(path))
    except ReproError as exc:
        want = str(exc)
    if isinstance(outcome, int):
        assert len(want) == outcome
        assert load_trace(str(path)) == want
        assert [list(e) for e in load_trace(str(path))] == \
            [list(e) for e in want]
    else:
        assert want == f"{path}{outcome}"
        with pytest.raises(ReproError) as caught:
            load_trace(str(path))
        assert str(caught.value) == want
