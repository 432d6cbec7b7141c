"""Tests for tag-based message dispatch."""

import pytest

from repro.errors import CommError
from repro.sim import Cluster
from repro.sim.dispatch import TagDispatcher


def test_routes_by_prefix():
    cl = Cluster(2)
    got = {"a": [], "b": []}
    disp = TagDispatcher.of(cl[1])
    disp.register("a", lambda m: got["a"].append(m.payload))
    disp.register("b", lambda m: got["b"].append(m.payload))
    cl.send(0, 1, 1, 8, tag="a")
    cl.send(0, 1, 2, 8, tag="b:sub")       # prefix before the colon
    cl.send(0, 1, 3, 8, tag="a:x:y")
    cl.run()
    assert got == {"a": [1, 3], "b": [2]}


def test_of_is_idempotent():
    cl = Cluster(1)
    assert TagDispatcher.of(cl[0]) is TagDispatcher.of(cl[0])


def test_duplicate_prefix_rejected():
    cl = Cluster(1)
    disp = TagDispatcher.of(cl[0])
    disp.register("x", lambda m: None)
    with pytest.raises(CommError):
        disp.register("x", lambda m: None)


def test_unknown_tag_raises_with_known_list():
    cl = Cluster(2)
    disp = TagDispatcher.of(cl[1])
    disp.register("known", lambda m: None)
    cl.send(0, 1, "x", 8, tag="mystery")
    with pytest.raises(CommError, match="known"):
        cl.run()
