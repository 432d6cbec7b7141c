"""ResultCache: hit, skip, force, and the never-cache-failures rule."""

import json
import os

from repro.exec import (Cell, ResultCache, SerialBackend, SweepExecutor,
                        SweepSpec)

ECHO = "tests.exec.workers:echo"
BOOM = "tests.exec.workers:boom"


def spec(runner=ECHO, n=3, **params):
    return SweepSpec("cache-test", [
        Cell(experiment="t:cache", runner=runner, params=params, seed=s)
        for s in range(n)])


def run(spec_, cache, force=False):
    return SweepExecutor(spec_, backend=SerialBackend(), cache=cache,
                         force=force).run()


def test_second_run_is_served_from_cache(tmp_path):
    cache = ResultCache(str(tmp_path))
    first = run(spec(), cache)
    assert [r.cached for r in first] == [False] * 3
    second = run(spec(), cache)
    assert [r.cached for r in second] == [True] * 3
    assert [r.value for r in second] == [r.value for r in first]
    assert cache.stats()["entries"] == 3


def test_changed_params_miss_the_cache(tmp_path):
    cache = ResultCache(str(tmp_path))
    run(spec(knob=1), cache)
    again = run(spec(knob=2), cache)
    assert [r.cached for r in again] == [False] * 3
    assert cache.stats()["entries"] == 6


def test_force_recomputes_and_refreshes(tmp_path):
    cache = ResultCache(str(tmp_path))
    run(spec(), cache)
    forced = run(spec(), cache, force=True)
    assert [r.cached for r in forced] == [False] * 3
    assert cache.stats()["entries"] == 3


def test_failures_are_never_cached(tmp_path):
    cache = ResultCache(str(tmp_path))
    first = run(spec(runner=BOOM), cache)
    assert all(r.status == "error" for r in first)
    assert cache.stats()["entries"] == 0
    second = run(spec(runner=BOOM), cache)
    assert [r.cached for r in second] == [False] * 3


def entry_paths(root):
    """Every cache entry file, wherever its shard put it."""
    return sorted(os.path.join(dirpath, name)
                  for dirpath, _dirs, names in os.walk(root)
                  for name in names if name.endswith(".json"))


def test_corrupt_entry_counts_as_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    run(spec(n=1), cache)
    (entry,) = entry_paths(tmp_path)
    with open(entry, "w") as fh:
        fh.write("{not json")
    again = run(spec(n=1), cache)
    assert [r.cached for r in again] == [False]
    # ... and the re-run heals the entry.
    with open(entry) as fh:
        assert json.load(fh)["status"] == "ok"


def test_layout_is_two_level_sharded(tmp_path):
    """Entry ``abcdef…`` must land at ``ab/abcdef….json``."""
    cache = ResultCache(str(tmp_path))
    run(spec(), cache)
    paths = entry_paths(tmp_path)
    assert len(paths) == 3
    for path in paths:
        rel = os.path.relpath(path, tmp_path)
        shard, name = rel.split(os.sep)
        assert shard == name[:2] and len(shard) == 2
    assert cache.stats()["shards"] == len({os.path.dirname(p)
                                           for p in paths})


def test_put_cleans_up_tmp_on_unserializable_payload(tmp_path):
    """Regression: a non-OSError from json.dump (e.g. TypeError on an
    unserializable payload) used to leak an orphan ``*.tmp`` forever."""
    from repro.exec import Cell, CellResult

    cache = ResultCache(str(tmp_path))
    cell = Cell(experiment="t:tmp", runner=ECHO, seed=0)
    bad = CellResult(cell_id=cell.cell_id, status="ok",
                     value={"poison": object()})   # not JSON-able
    try:
        cache.put(cell, bad)
    except TypeError:
        pass
    else:  # pragma: no cover - the put must fail loudly
        raise AssertionError("unserializable payload was silently cached")
    leftovers = [name for _dir, _dirs, names in os.walk(tmp_path)
                 for name in names if name.endswith(".tmp")]
    assert leftovers == []
    assert cache.stats()["entries"] == 0


def test_entry_renamed_onto_another_key_is_a_miss(tmp_path):
    """Regression: ``get`` used to trust the filename plus the 12-hex
    ``cell_id`` — an entry landing on another key's path whose truncated
    id happened to match (a copy by an id-collided sync, simulated here
    by patching the stored id) was served as that key's hit.  The full
    stored ``cache_key`` is now re-verified and a mismatch is evicted."""
    from repro.exec import Cell

    cache = ResultCache(str(tmp_path))
    run(spec(n=1, knob="a"), cache)
    (src,) = entry_paths(tmp_path)
    victim = Cell(experiment="t:cache", runner=ECHO,
                  params={"knob": "b"}, seed=0)
    with open(src) as fh:
        payload = json.load(fh)
    payload["cell_id"] = victim.cell_id       # the collided/forged id
    dst = os.path.join(str(tmp_path), victim.cache_key()[:2],
                       victim.cache_key() + ".json")
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    with open(dst, "w") as fh:
        json.dump(payload, fh)
    assert cache.get(victim) is None          # poisoned entry: a miss...
    assert not os.path.exists(dst)            # ...and it was evicted.
    # The honest entry is untouched and still hits under its own key.
    again = run(spec(n=1, knob="a"), cache)
    assert [r.cached for r in again] == [True]
