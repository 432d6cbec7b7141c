"""Wire protocol: framing, validation, and the semantic result form."""

import json

import pytest

from repro.exec import Cell, CellResult
from repro.serve import (ProtocolError, cell_to_wire, cells_from_wire,
                         decode, encode, result_to_wire, spec_from_wire)

WIRE = {"experiment": "t", "runner": "tests.exec.workers:echo",
        "params": {"k": 1}, "seed": 3}


def test_encode_decode_roundtrip():
    msg = {"op": "submit", "name": "demo", "cells": [WIRE]}
    line = encode(msg)
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    assert decode(line) == msg


def test_encode_is_byte_stable():
    assert encode({"b": 1, "a": 2}) == encode({"a": 2, "b": 1})


def test_encode_rejects_live_objects():
    with pytest.raises(ProtocolError):
        encode({"payload": object()})


def test_decode_rejects_garbage_and_non_objects():
    with pytest.raises(ProtocolError):
        decode(b"{not json\n")
    with pytest.raises(ProtocolError):
        decode(b"[1, 2]\n")
    with pytest.raises(ProtocolError):
        decode(b"\xff\xfe\n")


def test_cell_roundtrips_through_wire_form():
    (cell,) = cells_from_wire([WIRE])
    assert cell == Cell(experiment="t", runner="tests.exec.workers:echo",
                        params={"k": 1}, seed=3)
    assert cell_to_wire(cell) == WIRE


@pytest.mark.parametrize("bad, hint", [
    ({**WIRE, "experiment": ""}, "experiment"),
    ({**WIRE, "runner": "no_colon"}, "runner"),
    ({**WIRE, "params": [1]}, "params"),
    ({**WIRE, "seed": "three"}, "seed"),
    ({**WIRE, "bogus": 1}, "unknown fields"),
    ({**WIRE, "seed": True}, "seed"),    # a bool is an int; a seed is not
])
def test_invalid_wire_cells_name_the_field(bad, hint):
    with pytest.raises(ProtocolError) as exc:
        cells_from_wire([WIRE, bad])
    assert "cells[1]" in str(exc.value) and hint in str(exc.value)


def test_spec_from_wire_refuses_empty_and_duplicate_sweeps():
    with pytest.raises(ProtocolError):
        spec_from_wire("empty", [])
    with pytest.raises(ProtocolError):
        spec_from_wire("dup", [WIRE, WIRE])
    with pytest.raises(ProtocolError):
        spec_from_wire("", [WIRE])


def test_result_wire_form_is_semantic_only():
    """Host-side diagnostics (duration, cache provenance, attempts) must
    never reach the results document — that is what keeps an interrupted
    + replayed sweep byte-identical to an uninterrupted one."""
    result = CellResult(cell_id="t/abc/0", status="ok", value={"x": 1},
                        attempts=2, duration_s=12.5)
    result.cached = True
    wire = result_to_wire(result)
    assert wire == {"cell_id": "t/abc/0", "status": "ok",
                    "value": {"x": 1}, "error": ""}
    assert json.dumps(wire, sort_keys=True)   # plain data
