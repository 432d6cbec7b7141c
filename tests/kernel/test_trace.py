"""Tests for the kernel tracer: entries, the counts folded over them,
dump, and what a trace costs the host on the way to disk and back."""

import gc
import json
import pathlib
import tracemalloc

import pytest

from repro.ampi import AmpiRuntime
from repro.balance import RotateLB
from repro.errors import ReproError
from repro.kernel import EventKernel, KernelTracer, load_trace
from repro.obs import RunObserver
from repro.query import aggregate_entries, filter_entries
from repro.sim import Cluster
from repro.workloads import BTMZConfig
from repro.workloads.btmz import make_btmz_main
from tests.core.conftest import make_cluster

PERF = pathlib.Path(__file__).resolve().parents[2] / "perf"


def traced_kernel():
    k = EventKernel(name="traced")
    tr = KernelTracer().attach(k)
    return k, tr


def named_handler(log, tag):
    log.append(tag)


def count_by(entries, field):
    """``{value of field: number of entries}`` — the tracer keeps no
    counters; every count is a fold like this over its entries."""
    rows = aggregate_entries(entries, f"count() by {field}")["rows"]
    return {row["group"][field]: row["aggregates"]["count()"]
            for row in rows}


def dispatches(entries):
    return filter_entries(entries, "ev == 'end' and not skipped")


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


def test_dispatch_counts_are_folds_over_the_entries():
    k, tr = traced_kernel()
    ev = k.schedule(1.0, lambda: None, category="work")
    k.schedule(2.0, lambda: None, category="work")
    k.schedule(102.0, lambda: None)
    ev.cancel()
    k.run()
    assert count_by(tr.entries, "ev") == {
        "schedule": 3, "cancel": 1, "begin": 2, "end": 2, "idle": 1,
        "quiescence": 1}
    assert count_by(dispatches(tr.entries), "category") == {
        "work": 1, None: 1}


def test_skipped_dispatches_are_counted_separately():
    k, tr = traced_kernel()
    k.schedule(1.0, k.skip_current)
    k.schedule(2.0, lambda: None)
    k.run()
    skipped = [e for e in tr.entries if e.get("skipped")]
    assert len(skipped) == 1 and skipped[0]["ev"] == "end"
    assert len(dispatches(tr.entries)) == 1


def test_timeline_groups_dispatches_by_flow():
    k, tr = traced_kernel()
    log = []
    k.schedule(1.0, named_handler, log, "a", category="step", flow="alpha")
    k.schedule(2.0, named_handler, log, "b", category="step", flow="beta")
    k.schedule(3.0, named_handler, log, "c", category="ack", flow="alpha")
    k.run()
    tl = {}
    for e in filter_entries(tr.entries, "ev == 'begin'"):
        tl.setdefault(e["flow"], []).append(
            (e["t"], e["category"], e["site"]))
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
    assert count_by(dispatches(tr.entries), "category") == {
        "cth.resume": len(dispatches(tr.entries))}


def test_network_traffic_shows_up_as_messages():
    cl = Cluster(2)
    for proc in cl.processors:
        proc.register("t", lambda msg: None)
    tr = KernelTracer().attach(cl.queue)
    cl.send(0, 1, "ping", 64, tag="t")
    cl.send(1, 0, "pong", 64, tag="t")
    cl.run()
    delivered = dispatches(tr.entries)
    assert len(delivered) == 2
    assert all(e["category"].startswith("net.") for e in delivered)
    assert set(count_by(filter_entries(tr.entries, "ev == 'begin'"),
                        "flow")) == {"pe0", "pe1"}


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
    per-line contract the bound decoder must keep, message for message.
    It reads the whole file as UTF-8, so it raises ``UnicodeDecodeError``
    on any other byte; those cases carry their outcome explicitly."""
    with open(path, encoding="utf-8") as fh:
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
    # UTF-8 text loads, escaped or not; any other byte is refused...
    ('{"a": "caf\u00e9", "\u00e9": "\\u00e9"}\n', 1),
    (b'{"a": 1}\n{"b": "\xff"}\n', ":2: trace line is not UTF-8 text"),
    (b'\xe9\n{"a": 1}\n', ":1: trace line is not UTF-8 text"),
    (b'{"a": 1}\n{"b": "\xed\xa0\x80"}\n{"c":',
     ":2: trace line is not UTF-8 text"),
    # ...unless it is in a torn tail, which is dropped like any other
    (b'{"a": 1}\n{"b": "\xff', [{"a": 1}]),
    (b'{"a": 1}\n{"b": "\xc3"}', [{"a": 1}]),
])
def test_load_trace_line_contract(tmp_path, text, outcome):
    path = tmp_path / "t.jsonl"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    try:
        want = _load_by_json_loads(str(path))
    except ReproError as exc:
        want = str(exc)
    except UnicodeDecodeError:
        want = outcome if isinstance(outcome, list) else f"{path}{outcome}"
    if isinstance(outcome, list):
        assert load_trace(str(path)) == want
    elif isinstance(outcome, int):
        assert len(want) == outcome
        assert load_trace(str(path)) == want
        assert [list(e) for e in load_trace(str(path))] == \
            [list(e) for e in want]
    else:
        assert want == f"{path}{outcome}"
        with pytest.raises(ReproError) as caught:
            load_trace(str(path))
        assert str(caught.value) == want


# -- what a trace costs the host ------------------------------------------


@pytest.fixture(scope="module")
def storm_trace(tmp_path_factory):
    """The check-size ``trace_query`` run of ``perf/``: BT-MZ under
    RotateLB with an observer attached, dumped; ``(path, file bytes)``."""
    sizes = json.loads((PERF / "config.json").read_text())[
        "sizes"]["check"]["trace_query"]
    cfg = BTMZConfig(sizes["btmz_class"], sizes["ranks"], sizes["pes"],
                     iterations=sizes["iterations"])
    rt = AmpiRuntime(sizes["pes"], sizes["ranks"],
                     make_btmz_main(cfg, checkpoint_period=sizes[
                         "checkpoint_period"]),
                     strategy=RotateLB(), technique="isomalloc")
    rt.cluster.enable_tracing()
    observer = RunObserver.for_ampi(rt).attach()
    rt.run()
    observer.detach()
    path = tmp_path_factory.mktemp("storm") / "trace.jsonl"
    observer.dump(str(path))
    return str(path), path.stat().st_size


def _traced(act):
    """``act()``'s result, the bytes it left allocated and its transient
    peak above those, by ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = act()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before, peak - after


def test_a_loaded_trace_holds_one_string_per_name_and_value(storm_trace):
    """Equal keys, and equal string values, are one object across the
    loaded entries [4 251 key objects for 17 names before sharing]."""
    entries = load_trace(storm_trace[0])
    keys = [k for e in entries for k in e]
    assert len({id(k) for k in keys}) == len(set(keys))
    values = [v for e in entries for v in e.values() if isinstance(v, str)]
    assert len({id(v) for v in values}) == len(set(values))


def _traced_load(storm_trace):
    path, size = storm_trace
    load_trace(path)                  # codec and file machinery warm
    entries, retained, transient = _traced(lambda: load_trace(path))
    assert len(entries) == 510 and size == 82_661
    return retained / size, transient / size


def test_a_loaded_trace_costs_the_host_about_its_recorded_size(storm_trace):
    """The check-size storm trace (510 entries, 82 661 bytes) loads into
    at most 4.5x its file bytes of entries [7.7x before sharing
    strings]."""
    retained, _ = _traced_load(storm_trace)
    assert retained <= 4.5, retained


def test_loading_a_trace_holds_one_line_at_a_time(storm_trace):
    """Reading the storm trace holds at most half its size above the
    loaded entries at any one time [2.4x before streaming: the whole
    text plus its lines]."""
    _, transient = _traced_load(storm_trace)
    assert transient <= 0.5, transient


def test_dump_holds_a_bounded_chunk_of_the_text(tmp_path):
    """``dump`` writes in chunks, so the text held at once does not grow
    with the trace [2.3x the file bytes as one joined string before]."""
    tracer = KernelTracer()
    tracer.entries = [
        {"ev": "end", "kernel": "cth-pe0", "t": float(i), "seq": i,
         "category": "net.ampi", "site": "Processor.deliver",
         "busy": {"0": 1250.0}, "clock": {"0": float(i)}}
        for i in range(10_000)]
    path = tmp_path / "trace.jsonl"
    tracer.dump(str(path))            # file machinery warm
    count, _, transient = _traced(lambda: tracer.dump(str(path)))
    size = path.stat().st_size
    assert count == 10_000
    assert transient <= 0.5 * size, transient / size
