import pytest

from mgconsensus.errors import DisconnectedError, NotSymmetricError, SelfLoopError
from mgconsensus.topology import load_topology

RING4 = [
    [0, 1, 0, 1],
    [1, 0, 1, 0],
    [0, 1, 0, 1],
    [1, 0, 1, 0],
]


def test_ring_of_four():
    topo = load_topology(RING4)
    assert topo.node_count == 4
    assert topo.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert topo.degrees == [2, 2, 2, 2]
    assert topo.d_max == 2 and topo.d_min == 2


def test_directed_edges_double_the_undirected():
    topo = load_topology(RING4)
    dirs = topo.directed_edges()
    assert len(dirs) == 2 * len(topo.edges)
    assert (0, 1) in dirs and (1, 0) in dirs
    assert {(min(e), max(e)) for e in dirs} == set(topo.edges)


def test_weighted_entries_collapse_to_presence():
    topo = load_topology([[0, 2.5], [2.5, 0]])
    assert topo.edges == ((0, 1),)


def test_line_graph_degrees():
    topo = load_topology([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert topo.degrees == [1, 2, 1]
    assert (topo.d_max, topo.d_min) == (2, 1)
    # computed once per graph, not per read
    assert topo.degrees is topo.degrees


def test_rejects_non_square():
    with pytest.raises(NotSymmetricError):
        load_topology([[0, 1], [1, 0], [0, 0]])


def test_rejects_asymmetry():
    with pytest.raises(NotSymmetricError):
        load_topology([[0, 1], [0, 0]])


def test_rejects_negative_weight():
    with pytest.raises(NotSymmetricError):
        load_topology([[0, -1], [-1, 0]])


def test_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        load_topology([[1, 1], [1, 0]])


def test_rejects_disconnected():
    with pytest.raises(DisconnectedError) as exc:
        load_topology([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert "2" in str(exc.value)


def test_single_node_is_fine():
    topo = load_topology([[0]])
    assert topo.node_count == 1 and topo.edges == ()
