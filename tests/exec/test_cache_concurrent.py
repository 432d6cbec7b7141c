"""Concurrent ResultCache access: the write-rename race, for real.

Two kinds of multi-process pressure on one cache:

* writers hammering ``put`` on the *same* key from several processes at
  once (the service's dedupe window: identical submissions racing);
* readers spinning ``get`` throughout, asserting every observed hit is
  the complete, valid payload — never a torn or partial entry.

The payload is deliberately bulky so a non-atomic writer would be
caught: a plain ``open(path, "w")`` writer yields moments where the
file exists but holds half the JSON, and the readers here would see it.
"""

import multiprocessing
import os

from repro.exec import Cell, CellResult, ResultCache

ECHO = "tests.exec.workers:echo"

#: Bulky enough that a torn write is an observable window, small enough
#: to keep the test quick.
PAYLOAD = {"rows": [[i, i * i, f"row-{i}"] for i in range(400)]}


def the_cell():
    return Cell(experiment="t:race", runner=ECHO,
                params={"case": "concurrent"}, seed=7)


def writer_proc(root, rounds):
    cache = ResultCache(root)
    cell = the_cell()
    for _ in range(rounds):
        result = CellResult(cell_id=cell.cell_id, status="ok",
                            value=PAYLOAD)
        cache.put(cell, result)


def reader_proc(root, rounds, verdict_q, writers_done):
    cache = ResultCache(root)
    cell = the_cell()
    hits = 0
    try:
        # Read for as long as the writers run, then ``rounds`` more times:
        # the reads overlap the writes whichever process the OS starts
        # first, and the entry is on disk before the last read.
        while rounds:
            if writers_done.is_set():
                rounds -= 1
            result = cache.get(cell)
            if result is None:
                continue                       # miss: entry not there yet
            hits += 1
            # A hit must be the complete payload — torn JSON would have
            # failed to parse (and shown up as a miss), but a *partial
            # valid* write or a stale temp file must never surface.
            assert result.status == "ok"
            assert result.value == PAYLOAD
            assert result.cached is True
        verdict_q.put(("ok", hits))
    except Exception as e:  # noqa: BLE001 - verdict crosses processes
        verdict_q.put(("fail", f"{type(e).__name__}: {e}"))


def test_parallel_put_get_same_key_never_tears(tmp_path):
    root = str(tmp_path)
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")
    verdict_q = ctx.Queue()
    writers_done = ctx.Event()
    writers = [ctx.Process(target=writer_proc, args=(root, 200))
               for _ in range(2)]
    readers = [ctx.Process(target=reader_proc,
                           args=(root, 400, verdict_q, writers_done))
               for _ in range(2)]
    for p in writers + readers:
        p.start()
    for p in writers:
        p.join(60)
        assert p.exitcode == 0
    writers_done.set()
    verdicts = [verdict_q.get(timeout=120) for _ in readers]
    for p in readers:
        p.join(60)
        assert p.exitcode == 0
    for kind, detail in verdicts:
        assert kind == "ok", detail
    # Someone actually observed hits, or the race never happened.
    assert sum(hits for _k, hits in verdicts) > 0
    # Exactly one entry on disk; no leaked temp files from the races.
    cache = ResultCache(root)
    assert cache.stats() == {"entries": 1, "shards": 1}


def test_reader_mid_sweep_only_ever_sees_complete_entries(tmp_path):
    """A reader polling while a real sweep fills the cache (the serve
    restart window) sees each entry either absent or complete."""
    from repro.exec import SerialBackend, SweepExecutor, SweepSpec

    root = str(tmp_path)
    cells = [Cell(experiment="t:midsweep", runner=ECHO,
                  params={"k": 1}, seed=s) for s in range(6)]
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")
    verdict_q = ctx.Queue()
    poller = ctx.Process(target=_poll_sweep_cells,
                         args=(root, [c.cache_key() for c in cells],
                               verdict_q))
    poller.start()
    cache = ResultCache(root)
    results = SweepExecutor(SweepSpec("mid", cells), SerialBackend(),
                            cache=cache).run()
    assert all(r.ok for r in results)
    kind, detail = verdict_q.get(timeout=120)
    poller.join(60)
    assert kind == "ok", detail
    assert cache.stats()["entries"] == 6


def _poll_sweep_cells(root, keys, verdict_q):
    """Spin-read raw entry files until all appear; every observed file
    must parse as complete JSON with a matching stored key."""
    import json

    seen = set()
    try:
        while len(seen) < len(keys):
            for key in keys:
                path = os.path.join(root, key[:2], key + ".json")
                try:
                    with open(path, encoding="utf-8") as fh:
                        data = json.load(fh)     # torn file -> ValueError
                except (OSError, ValueError) as e:
                    if isinstance(e, ValueError):
                        raise AssertionError(
                            f"torn entry observed at {path}: {e}")
                    continue                     # not written yet
                assert data["cache_key"] == key
                assert data["status"] == "ok"
                seen.add(key)
        verdict_q.put(("ok", len(seen)))
    except Exception as e:  # noqa: BLE001 - verdict crosses processes
        verdict_q.put(("fail", f"{type(e).__name__}: {e}"))
