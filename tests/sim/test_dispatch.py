"""Tests for a processor's routing table: one handler per exact tag."""

import pytest

from repro.errors import CommError
from repro.sim import Cluster


def test_routes_by_exact_tag():
    cl = Cluster(2)
    got = {"a": [], "b": []}
    cl[1].register("a", lambda m: got["a"].append(m.payload))
    cl[1].register("b", lambda m: got["b"].append(m.payload))
    cl.send(0, 1, 1, 8, tag="a")
    cl.send(0, 1, 2, 8, tag="b")
    cl.send(0, 1, 3, 8, tag="a")
    cl.run()
    assert got == {"a": [1, 3], "b": [2]}
    cl.send(0, 1, 4, 8, tag="b:sub")        # no prefix routing
    with pytest.raises(CommError, match="'b:sub'"):
        cl.run()


def test_duplicate_tag_rejected():
    cl = Cluster(1)
    cl[0].register("x", lambda m: None)
    with pytest.raises(CommError, match="'x' already registered"):
        cl[0].register("x", lambda m: None)


def test_unregister_frees_the_tag_once():
    cl = Cluster(1)
    cl[0].register("x", lambda m: None)
    cl[0].unregister("x")
    with pytest.raises(CommError, match="'x' is not registered"):
        cl[0].unregister("x")
    cl[0].register("x", lambda m: None)


def test_unknown_tag_raises_with_known_list():
    cl = Cluster(2)
    cl[1].register("known", lambda m: None)
    cl.send(0, 1, "x", 8, tag="mystery")
    with pytest.raises(CommError, match=r"'mystery' on processor 1 "
                                        r"\(registered: \['known'\]\)"):
        cl.run()
