"""SweepService over a live socket: dedupe, streaming, containment, ops."""

import json

from repro.exec import spec as spec_module
from tests.serve.conftest import BOOM, SLOW, wire_cells


def counters(client):
    return client.stats()["metrics"]["counters"]


def test_ping_reports_protocol_version(live_service):
    with live_service.client() as c:
        pong = c.ping()
    assert pong == {"ok": True, "pong": True, "v": 1}


def test_submit_returns_merged_results_in_cell_id_order(live_service):
    cells = wire_cells(4)
    with live_service.client() as c:
        results = c.submit_and_wait("demo", cells)
    assert [r["status"] for r in results] == ["ok"] * 4
    assert [r["cell_id"] for r in results] == sorted(r["cell_id"]
                                                     for r in results)
    assert [r["value"]["seed"] for r in results] == [0, 1, 2, 3]


def test_identical_submission_is_one_computation(live_service):
    """The central dedupe claim: resubmitting a sweep costs zero cells."""
    cells = wire_cells(5)
    with live_service.client() as c:
        first = c.submit("first", cells, wait=True)
        second = c.submit("second", cells, wait=True)
        stats = counters(c)
    assert first["results"] == second["results"]
    assert first["cached"] == 0 and first["executed"] == 5
    assert second["cached"] == 5 and second["executed"] == 0
    assert stats["serve.cells.executed"] == 5
    assert stats["serve.cells.deduped"] == 5
    assert stats["serve.submissions"] == 2
    # Byte-identical result documents, as the determinism story demands.
    assert (json.dumps(first["results"], sort_keys=True)
            == json.dumps(second["results"], sort_keys=True))


def test_concurrent_identical_submissions_share_the_computation(tmp_path,
                                                                live_service):
    """A submission overlapping an in-flight sweep waits for it instead
    of racing it: the second comes back fully deduped."""
    cells = wire_cells(3, runner=SLOW, sleep_s=0.2)
    with live_service.client() as a, live_service.client() as b:
        ack = a.submit("racer-a", cells, wait=False)      # returns at once
        final_b = b.submit("racer-b", cells, wait=True)
        assert final_b["cached"] == 3 and final_b["executed"] == 0
        # The first sweep really ran (poll until its task finishes).
        done = a.result(ack["sweep_id"])
        assert done["state"] == "done" and done["executed"] == 3
        assert counters(a)["serve.cells.executed"] == 3


def test_watch_streams_the_hook_bus_lifecycle(live_service):
    cells = wire_cells(3)
    events = []
    with live_service.client() as c:
        final = c.submit("watched", cells, wait=True, watch=True,
                         on_event=events.append)
    kinds = [e["event"] for e in events]
    assert kinds[0] == "exec.sweep.begin"
    assert kinds.count("exec.cell.start") == 3
    assert kinds.count("exec.cell.done") == 3
    assert kinds[-1] == "sweep.end"
    assert all(e["sweep_id"] == final["sweep_id"] for e in events)
    done_events = [e for e in events if e["event"] == "exec.cell.done"]
    assert all(e["cached"] is False for e in done_events)


def test_failing_cells_are_contained_and_never_cached(live_service):
    cells = wire_cells(2, runner=BOOM)
    with live_service.client() as c:
        first = c.submit("boom", cells, wait=True)
        second = c.submit("boom-again", cells, wait=True)
        stats = counters(c)
    assert first["event"] == "sweep.end"          # the sweep completes
    assert first["error"] == 2 and first["ok"] == 0
    assert all("ValueError" in r["error"] for r in first["results"])
    # Failures re-run: nothing was cached.
    assert second["cached"] == 0 and second["executed"] == 2
    assert stats["serve.cells.failed"] == 4
    assert stats["serve.cells.deduped"] == 0


def test_protocol_errors_answer_without_killing_the_connection(live_service):
    with live_service.client() as c:
        bad = c.request({"op": "warp"})
        assert bad["ok"] is False and "unknown op" in bad["error"]
        bad = c.request({"op": "submit", "name": "x", "cells": []})
        assert bad["ok"] is False and "no cells" in bad["error"]
        bad = c.request({"op": "submit", "name": "x",
                         "cells": [{"experiment": "t"}]})
        assert bad["ok"] is False and "runner" in bad["error"]
        # The connection survives every rejected request.
        assert c.ping()["pong"] is True
        assert counters(c)["serve.protocol.errors"] == 3
        assert counters(c)["serve.submissions"] == 0


def test_status_and_result_ops(live_service):
    cells = wire_cells(2)
    with live_service.client() as c:
        final = c.submit("tracked", cells, wait=True)
        sid = final["sweep_id"]
        status = c.status()
        assert status["sweeps"][sid] == {"name": "tracked",
                                         "state": "done", "cells": 2}
        result = c.result(sid)
        assert result["state"] == "done"
        assert result["results"] == final["results"]
        missing = c.result("sweep-999999")
        assert missing["ok"] is False


def test_stats_exposes_cache_and_journal(live_service):
    with live_service.client() as c:
        c.submit_and_wait("s", wire_cells(3))
        stats = c.stats()
    assert stats["cache"]["entries"] == 3
    assert stats["cache"]["shards"] >= 1
    assert stats["journal"]["pending"] == 0
    assert stats["journal"]["records"] == 2


def test_journal_rotation_threshold_is_wired_through(tmp_path):
    from tests.serve.conftest import LiveService

    svc = LiveService(tmp_path, rotate_after=1).start()
    try:
        with svc.client() as c:
            c.submit_and_wait("one", wire_cells(1))
            c.submit_and_wait("two", wire_cells(1, knob=2))
            stats = c.stats()["journal"]
        assert stats["rotations"] >= 1
        assert stats["records"] <= 2
    finally:
        svc.stop()


def test_malformed_line_gets_a_typed_error(live_service):
    import socket as socket_mod

    sock = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
    sock.settimeout(10)
    sock.connect(live_service.socket_path)
    try:
        sock.sendall(b"{this is not json}\n")
        reply = json.loads(sock.makefile("rb").readline())
        assert reply["ok"] is False and "undecodable" in reply["error"]
    finally:
        sock.close()


def test_a_served_cached_sweep_canonicalises_each_cell_once(
        live_service, monkeypatch):
    """Through ``_register`` + ``_run_sweep``: the sweep is parsed once
    and the executor runs the cells registration named (8 per cell when
    ``_run_sweep`` parsed the wire cells again and every name
    re-serialised the params)."""
    wire = wire_cells(150, workload="stencil", config={"drop_rate": 0.01})
    seen = []
    real = spec_module._canonical

    def counting(params):
        seen.append(1)
        return real(params)

    with live_service.client() as c:
        c.submit("cold", wire)
        monkeypatch.setattr(spec_module, "_canonical", counting)
        warm = c.submit("warm", wire)
    assert warm["cached"] == 150
    assert len(seen) <= 150
