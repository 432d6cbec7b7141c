"""Cell identity and sweep-spec validation."""

import pytest

from repro.errors import ReproError
from repro.exec import (Cell, CellResult, ResultCache, SweepExecutor,
                        SweepSpec, resolve_runner)

RUNNER = "tests.exec.workers:echo"


def cell(seed=0, experiment="t:echo", **params):
    return Cell(experiment=experiment, runner=RUNNER, params=params,
                seed=seed)


def test_cell_id_is_stable_and_param_sensitive():
    a = cell(seed=3, knob=1)
    assert a.cell_id == cell(seed=3, knob=1).cell_id
    assert a.cell_id != cell(seed=4, knob=1).cell_id          # seed differs
    assert a.config_hash != cell(seed=3, knob=2).config_hash  # params differ
    # Param *order* must not matter: hashing is canonical.
    x = Cell(experiment="t", runner=RUNNER, params={"a": 1, "b": 2}, seed=0)
    y = Cell(experiment="t", runner=RUNNER, params={"b": 2, "a": 1}, seed=0)
    assert x.cell_id == y.cell_id


#: Captured at the commit before a cell kept its canonical text: these
#: strings name cache files, ``results/chaos_sweep.json`` rows and the
#: ``perf/expected.json`` digests, so they never change.
IDENTITY_GOLDENS = [
    (Cell(experiment="t:echo", runner=RUNNER, seed=7,
          params={"knob": 1, "nested": {"b": [1, 2.5, None], "a": "x"}}),
     "82fd610db2c0", "t:echo/82fd610db2c0/7",
     "149dd3169a4ef161d8169a36eefd96954496023364a7100f2de815e24a543257"),
    (Cell(experiment="bench:fig9", runner="repro.bench.__main__:run_fig9"),
     "7bc52569a8b3", "bench:fig9/7bc52569a8b3/-",
     "92fafbc89d85e811b6d1107261ae331713f84a77688783f627d5bab8356468fc"),
]


@pytest.mark.parametrize("c, config_hash, cell_id, cache_key",
                         IDENTITY_GOLDENS)
def test_identity_strings_are_byte_stable(c, config_hash, cell_id,
                                          cache_key):
    for _ in range(2):            # first derivation and every later one
        assert c.config_hash == config_hash
        assert c.cell_id == cell_id
        assert c.cache_key() == cache_key


def test_param_order_does_not_matter_on_the_cached_path(tmp_path):
    def run(params):
        spec = SweepSpec("order", [Cell(experiment="t", runner=RUNNER,
                                        params=params, seed=0)])
        return SweepExecutor(spec, cache=ResultCache(str(tmp_path))).run()

    (first,) = run({"a": 1, "b": {"x": 1, "y": 2}})
    (again,) = run({"b": {"y": 2, "x": 1}, "a": 1})
    assert (first.cached, again.cached) == (False, True)
    assert again.cell_id == first.cell_id


def test_cell_id_names_experiment_confighash_seed():
    c = cell(seed=7)
    exp, config_hash, seed = c.cell_id.split("/")
    assert (exp, config_hash, seed) == ("t:echo", c.config_hash, "7")
    assert Cell(experiment="t", runner=RUNNER).cell_id.endswith("/-")


def test_params_must_be_plain_data():
    with pytest.raises(ReproError, match="JSON-able"):
        Cell(experiment="t", runner=RUNNER,
             params={"obj": object()}).cell_id


def test_spec_rejects_empty_and_duplicate_cells():
    with pytest.raises(ReproError, match="no cells"):
        SweepSpec("empty", [])
    with pytest.raises(ReproError, match="duplicate cell id"):
        SweepSpec("dup", [cell(seed=1), cell(seed=1)])


def test_merged_order_sorts_seeds_numerically():
    spec = SweepSpec("order", [cell(seed=s) for s in (10, 2, 9, 1)])
    assert [c.seed for c in spec.merged_order()] == [1, 2, 9, 10]


def test_resolve_runner_validates_paths():
    assert resolve_runner(RUNNER)({}, 2)["double"] == 4
    with pytest.raises(ReproError, match="package.module:function"):
        resolve_runner("tests.exec.workers.echo")
    with pytest.raises(ReproError, match="does not name a callable"):
        resolve_runner("tests.exec.workers:nope")


def test_cell_result_json_roundtrip():
    r = CellResult(cell_id="t/abc/1", status="ok", value={"x": 1},
                   attempts=2, duration_s=0.5)
    back = CellResult.from_json(r.to_json())
    assert (back.cell_id, back.status, back.value, back.attempts) == \
        ("t/abc/1", "ok", {"x": 1}, 2)
