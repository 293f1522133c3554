import json
import random

import numpy as np
import pytest

from linhyper import (
    BipartiteGraph,
    Hypergraph,
    classify,
    dual_failed_properties,
    enumerate_bigraphs,
    from_hypergraph,
    hyper_properties,
    new_degree_sequence,
    pairing_sample,
    to_hypergraph,
)
from linhyper.errors import InvalidArgument, LoopPresent, NonConforming, WrongRightDegree

from support import naive_four_cycles


def test_from_edges_rejects_duplicates():
    with pytest.raises(ValueError):
        BipartiteGraph.from_edges(2, 1, [(0, 0), (0, 0)])


@pytest.mark.parametrize("edge", [(0.5, 0), (True, 0), (0, 0.0), ("0", 0)])
def test_from_edges_rejects_non_integers(edge):
    # (0.5, 0) used to raise a bare TypeError and (True, 0) to store (1, 0)
    with pytest.raises(InvalidArgument, match="expected an integer"):
        BipartiteGraph.from_edges(3, 1, [edge])


def test_from_edges_accepts_numpy_ints():
    graph = BipartiteGraph.from_edges(np.int64(3), 1, [(np.int64(2), np.int64(0))])
    assert graph == BipartiteGraph(3, 1, [0b100])
    assert type(graph.cols[0]) is int


@pytest.mark.parametrize("remove, add, match", [
    ([(1, -1)], [(0, -1)], "out of range"),  # edited column 1 through index -1
    ([], [(-1, 0)], "out of range"),  # a bare ValueError
    ([], [(0.0, 0)], "expected an integer"),  # a bare TypeError
    ([], [(0, 5)], "out of range"),  # a bare IndexError
    ([(True, 0)], [], "expected an integer"),  # removed edge (1, 0)
])
def test_replace_edges_checks_its_edges(remove, add, match):
    graph = BipartiteGraph(3, 2, [0b011, 0b110])
    with pytest.raises(InvalidArgument, match=match):
        graph.replace_edges(remove=remove, add=add)


@pytest.mark.parametrize("edge, match", [
    ((0.5, 0), "expected an integer"),  # a bare TypeError
    ((True, 0), "expected an integer"),  # read left vertex 1
    ((0, 2), "out of range"),
    ((-1, 0), "out of range"),
])
def test_has_edge_checks_its_edge(edge, match):
    graph = BipartiteGraph(3, 2, [0b011, 0b110])
    with pytest.raises(InvalidArgument, match=match):
        graph.has_edge(*edge)
    assert graph.has_edge(np.int64(1), np.int64(0)) and not graph.has_edge(2, 0)


def test_degrees_and_edges(demo_graph):
    assert demo_graph.left_degrees() == (2, 3, 1, 2, 2, 2)
    assert demo_graph.right_degrees() == (3, 3, 3, 3)
    assert (1, 0) in demo_graph.edges() and len(demo_graph.edges()) == 12


def test_edges_are_the_sorted_bits_of_the_columns(demo_graph):
    # edges() and the 1-based edge list of to_json_dict, against every bit of
    # every column sorted; repr counts the same edges
    rng = random.Random(25)
    graphs = [demo_graph, BipartiteGraph(3, 0, []), BipartiteGraph(0, 2, [0, 0])]
    for _ in range(30):
        n, m = rng.randrange(1, 70), rng.randrange(0, 40)
        graphs.append(BipartiteGraph(n, m, [rng.getrandbits(n) for _ in range(m)]))
    for g in graphs:
        want = sorted((j, i) for i, c in enumerate(g.cols) for j in range(g.n_left)
                      if c >> j & 1)
        assert g.edges() == want
        assert g.to_json_dict()["edges"] == [[j + 1, i + 1] for j, i in want]
        assert repr(g) == f"BipartiteGraph({g.n_left}x{g.n_right}, {len(want)} edges)"


def test_to_hypergraph(demo_graph):
    hg = to_hypergraph(demo_graph, 3)
    assert hg.edges == ((0, 1, 2), (0, 1, 3), (1, 4, 5), (3, 4, 5))
    assert hg.degrees() == (2, 3, 1, 2, 2, 2)

    empty = BipartiteGraph(4, 0, [])
    assert to_hypergraph(empty, 3).edges == ()

    with pytest.raises(WrongRightDegree):
        to_hypergraph(demo_graph, 4)


def test_to_hypergraph_two_disjoint_stars():
    # one conforming graph for six degree-1 vertices: two disjoint triples
    g = BipartiteGraph(6, 2, [0b000111, 0b111000])
    hg = to_hypergraph(g, 3)
    assert hg == Hypergraph(6, [(0, 1, 2), (3, 4, 5)])


def test_from_hypergraph_canonical_order(demo_graph):
    hg = Hypergraph(6, [(3, 4, 5), (1, 4, 5), (0, 1, 3), (0, 1, 2)])
    g = from_hypergraph(hg)
    assert g == demo_graph  # columns sorted lexicographically by edge

    single = from_hypergraph(Hypergraph(3, [(0, 1, 2)]))
    assert single.cols == (0b111,)

    with pytest.raises(LoopPresent):
        from_hypergraph(Hypergraph(3, [(0, 0, 1)]))


def test_round_trip_random_hypergraphs():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(4, 7)
        r = rng.choice((2, 3, 4))
        m = rng.randint(0, 4)
        edges = [tuple(sorted(rng.sample(range(n), r))) for _ in range(m)]
        hg = Hypergraph(n, edges)
        assert to_hypergraph(from_hypergraph(hg), r) == hg


def test_four_cycles(demo_graph):
    cycles = demo_graph.four_cycles()
    assert [(c.left_pair, c.right_pair) for c in cycles] == [
        ((0, 1), (0, 1)),
        ((4, 5), (2, 3)),
    ]
    assert demo_graph.has_four_cycle()

    square = BipartiteGraph(2, 2, [0b11, 0b11])
    assert len(square.four_cycles()) == 1

    forest = BipartiteGraph(4, 2, [0b0011, 0b1100])
    assert forest.four_cycles() == ()
    assert not forest.has_four_cycle()


def test_four_cycles_match_naive_scan():
    rng = random.Random(3)
    for _ in range(120):
        n = rng.randint(1, 8)
        m = rng.randint(1, 8)
        cols = [rng.getrandbits(n) for _ in range(m)]
        g = BipartiteGraph(n, m, cols)
        got = [c.left_pair + c.right_pair for c in g.four_cycles()]
        assert got == sorted(naive_four_cycles(g))
        assert g.has_four_cycle() == bool(got)

    # classify reports the same 4-cycles, pairs ascending, in the same order;
    # in this graph left vertex 5 enters a column before left vertex 1
    g = BipartiteGraph(6, 3, [0b110001, 0b100110, 0b101010])
    ds = new_degree_sequence(g.left_degrees(), 3)
    assert classify(g, ds).four_cycles == g.four_cycles()
    assert [c.left_pair for c in g.four_cycles()] == [(1, 5)]
    for _ in range(120):
        n = rng.randint(2, 8)
        r = rng.randint(2, n)
        m = rng.randint(1, 8)
        cols = [sum(1 << j for j in rng.sample(range(n), r)) for _ in range(m)]
        g = BipartiteGraph(n, m, cols)
        ds = new_degree_sequence(g.left_degrees(), r)
        assert classify(g, ds).four_cycles == g.four_cycles()


def test_has_copy(demo_graph):
    assert not demo_graph.has_copy(3, 2)
    assert demo_graph.has_copy(2, 2)
    k32 = BipartiteGraph(3, 2, [0b111, 0b111])
    assert k32.has_copy(3, 2)
    with pytest.raises(ValueError):
        demo_graph.has_copy(0, 1)



def test_k32_k23_flags_match_direct_check():
    # classify reads (i) and (ii) off the 4-cycle list; has_copy scans the
    # column subsets directly
    rng = random.Random(10)
    graphs = [
        # r = 2 with two and with three equal columns
        BipartiteGraph(4, 3, [0b0011, 0b0011, 0b1100]),
        BipartiteGraph(4, 4, [0b0011, 0b0011, 0b0011, 0b1100]),
    ]
    for _ in range(400):
        n = rng.randint(2, 8)
        r = rng.choice((2, 2, rng.randint(2, n)))
        m = rng.randint(1, 8)
        cols = [sum(1 << j for j in rng.sample(range(n), r)) for _ in range(m)]
        graphs.append(BipartiteGraph(n, m, cols))
    ds30 = new_degree_sequence((3,) * 30, 3)
    np_rng = np.random.default_rng(10)
    graphs += [pairing_sample(ds30, np_rng).graph for _ in range(4)]
    seen = set()
    for g in graphs:
        ds = new_degree_sequence(g.left_degrees(), g.cols[0].bit_count())
        failed = classify(g, ds).failed_properties
        flags = ("i" in failed, "ii" in failed)
        assert flags == (g.has_copy(3, 2), g.has_copy(2, 3)), g.cols
        seen.add(flags)
    assert seen == {(False, False), (True, False), (False, True), (True, True)}

def test_distance(demo_graph):
    assert demo_graph.distance(("v", 2), ("e", 0)) == 1
    assert demo_graph.distance(("v", 2), ("v", 0)) == 2
    assert demo_graph.distance(("e", 1), ("e", 1)) == 0
    split = BipartiteGraph(2, 2, [0b01, 0b10])
    assert split.distance(("v", 0), ("v", 1)) is None
    with pytest.raises(ValueError):
        demo_graph.distance(("x", 0), ("v", 0))


def test_classify_demo(demo_graph, demo_ds):
    cls = classify(demo_graph, demo_ds)
    assert cls.d == 2
    assert cls.in_b0 and cls.in_bplus
    assert cls.failed_properties == frozenset()


def test_classify_repeated_columns():
    g = BipartiteGraph(3, 2, [0b111, 0b111])
    ds = new_degree_sequence((2, 2, 2), 3)
    cls = classify(g, ds)
    assert not cls.in_b0
    assert "i" in cls.failed_properties and not cls.in_bplus


def test_classify_acyclic():
    g = BipartiteGraph(6, 2, [0b000111, 0b111000])
    cls = classify(g, new_degree_sequence((1,) * 6, 3))
    assert cls.d == 0 and cls.in_bplus


def test_classify_nonconforming(demo_graph):
    with pytest.raises(NonConforming):
        classify(demo_graph, new_degree_sequence((1,) * 6, 3))


def test_hyper_properties(demo_graph):
    hg = to_hypergraph(demo_graph, 3)
    props = hyper_properties(hg)
    assert props.loops == 0
    assert props.double_links == ((0, 1), (4, 5))
    assert props.is_simple and not props.is_linear

    disjoint = Hypergraph(6, [(0, 1, 2), (3, 4, 5)])
    assert hyper_properties(disjoint).is_linear

    repeated = Hypergraph(3, [(0, 1, 2), (0, 1, 2)])
    props = hyper_properties(repeated)
    assert props.repeated_edges == 1 and not props.is_simple
    assert props.max_link_multiplicity == 2

    loopy = Hypergraph(3, [(0, 0, 1)])
    props = hyper_properties(loopy)
    assert props.loops == 1 and not props.is_simple and not props.is_linear


def test_duality_on_battery():
    """Bipartite property battery agrees with its hypergraph-side analogue."""
    from linhyper import canonical_battery

    checked = 0
    for ds in canonical_battery(max_n=6, max_space=12):
        n2 = ds.thresholds().n2

        def visitor(g):
            nonlocal checked
            cls = classify(g, ds)
            hg = to_hypergraph(g, ds.r)
            dual_failed = dual_failed_properties(hg, n2)
            assert cls.in_bplus == (not dual_failed), (ds.k, g.cols)
            if cls.in_bplus:
                assert cls.in_b0
                assert len(cls.four_cycles) == len(hyper_properties(hg).double_links)
            checked += 1

        enumerate_bigraphs(ds, visitor=visitor, max_space=12)
    assert checked > 4000


def test_graph_json_round_trip(demo_graph):
    blob = json.dumps(demo_graph.to_json_dict())
    again = BipartiteGraph.from_json_dict(json.loads(blob))
    assert again == demo_graph
    assert demo_graph.to_json_dict()["edges"][0] == [1, 1]  # 1-based


@pytest.mark.parametrize("doc", [
    {"n_left": 2, "n_right": 1, "edges": [[True, 1], [2, 1]]},
    {"n_left": 2, "n_right": 1, "edges": [[1, 1.0], [2, 1]]},
    {"n_left": 2.0, "n_right": 1, "edges": [[1, 1], [2, 1]]},
], ids=["bool-vertex", "float-vertex", "float-count"])
def test_graph_json_rejects_non_integers(doc):
    # True - 1 would otherwise read as left vertex 0
    with pytest.raises(InvalidArgument, match="expected an integer"):
        BipartiteGraph.from_json_dict(doc)


def test_hypergraph_json_round_trip():
    hg = Hypergraph(5, [(0, 1, 4), (1, 2, 3)])
    again = Hypergraph.from_json_dict(json.loads(json.dumps(hg.to_json_dict())))
    assert again == hg


@pytest.mark.parametrize("doc", [
    {"n": 3, "edges": [[1.9, 2, True]]},
    {"n": 3.5, "edges": [[1, 2, 3]]},
], ids=["float-and-bool-vertex", "float-n"])
def test_hypergraph_json_rejects_non_integers(doc):
    # int(1.9) - 1 and True - 1 would otherwise read the edge as (0, 0, 1)
    with pytest.raises(InvalidArgument, match="expected an integer"):
        Hypergraph.from_json_dict(doc)


def test_hypergraph_rejects_non_integers_and_accepts_numpy_ints():
    with pytest.raises(InvalidArgument, match="expected an integer"):
        Hypergraph(3.5, [(0, 1, 2)])
    with pytest.raises(InvalidArgument, match="expected an integer"):
        Hypergraph(3, [(0, 1.0, 2)])
    hg = Hypergraph(np.int64(3), [np.array([2, 0, 1], dtype=np.int64)])
    assert hg == Hypergraph(3, [(0, 1, 2)])
    assert type(hg.n) is int and all(type(v) is int for v in hg.edges[0])


@pytest.mark.parametrize("args", [
    (3, 1, [7.9]), (3, 1, [True]), (3, 1, ["1"]), (2.5, 1, [1]), (3, 1.0, [1]),
    (True, 1, [1]),
], ids=["float-column", "bool-column", "str-column", "float-n-left", "float-n-right",
        "bool-n-left"])
def test_graph_rejects_non_integers(args):
    # int(7.9) would store column 7, and True would store column 1
    with pytest.raises(InvalidArgument, match="expected an integer"):
        BipartiteGraph(*args)


def test_graph_accepts_numpy_ints():
    graph = BipartiteGraph(np.int64(3), np.int64(2), np.array([3, 6], dtype=np.int64))
    assert graph == BipartiteGraph(3, 2, [0b011, 0b110])
    assert type(graph.n_left) is int and all(type(c) is int for c in graph.cols)


def test_hypergraph_rejects_a_negative_vertex_count():
    with pytest.raises(InvalidArgument, match="nonnegative"):
        Hypergraph(-2, [])
    with pytest.raises(InvalidArgument, match="nonnegative"):
        Hypergraph.from_json_dict({"n": -2, "edges": []})
    assert Hypergraph(0, []).degrees() == ()


def test_hypergraph_equality_is_multiset():
    a = Hypergraph(4, [(0, 1, 2), (0, 1, 3)])
    b = Hypergraph(4, [(0, 1, 3), (0, 1, 2)])
    assert a == b
    c = Hypergraph(4, [(0, 1, 2), (0, 1, 2)])
    assert a != c
