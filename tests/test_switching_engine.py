import hashlib
from collections import Counter
from dataclasses import replace
from itertools import islice, permutations

import numpy as np
import pytest
from scipy.stats import chi2

from linhyper import (
    BipartiteGraph,
    FourCycle,
    SwitchTuple,
    apply_forward,
    apply_reverse,
    canonical_battery,
    check_forward,
    check_reverse,
    classify,
    derive_degree_sequence,
    enumerate_bigraphs,
    forward_candidates,
    forward_conditions,
    monte_carlo_girth,
    new_degree_sequence,
    pairing_sample,
    reverse_conditions,
    sample_no4cycle,
)
from linhyper.errors import (
    InvalidArgument,
    NoFourCycle,
    NotASwitching,
    PreconditionFailed,
    RetryLimitExceeded,
    StepLimit,
)
from linhyper import sampler
from linhyper.exact_oracle import DEFAULT_MAX_SPACE, _first_switchable
from linhyper.sampler import _forward_step, _uniform_order
from linhyper.switching_engine import (
    _FIELDS,
    _CandidateIndex,
    _forward_tuples,
    _free_edges,
    _reclassified,
)

from support import all_pairs_distances


@pytest.fixture
def switch_graph():
    """One 4-cycle on u1,u2 x f1,f2 plus pendant edges w1-g1, w2-g2.

    Lefts: 0=w1, 1=u1, 2=u2, 3=w2; rights: 0=g1, 1=f1, 2=f2, 3=g2.
    """
    return BipartiteGraph.from_edges(
        4, 4, [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]
    )


@pytest.fixture
def switch_tuple():
    return SwitchTuple(u1=1, u2=2, w1=0, w2=3, f1=1, f2=2, g1=0, g2=3)


def test_switch_tuple_requires_distinct_vertices():
    with pytest.raises(ValueError):
        SwitchTuple(u1=1, u2=1, w1=0, w2=3, f1=1, f2=2, g1=0, g2=3)
    with pytest.raises(ValueError):
        SwitchTuple(u1=1, u2=2, w1=0, w2=3, f1=1, f2=1, g1=0, g2=3)


def test_apply_forward(switch_graph, switch_tuple):
    after = apply_forward(switch_graph, switch_tuple)
    assert after.edges() == [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]
    assert after.left_degrees() == switch_graph.left_degrees()
    assert after.right_degrees() == switch_graph.right_degrees()
    assert not after.has_four_cycle()


def test_involution(switch_graph, switch_tuple):
    after = apply_forward(switch_graph, switch_tuple)
    assert apply_reverse(after, switch_tuple) == switch_graph
    assert apply_forward(apply_reverse(after, switch_tuple), switch_tuple) == after


def test_reverse_restores_cycle(switch_graph, switch_tuple):
    after = apply_forward(switch_graph, switch_tuple)
    restored = apply_reverse(after, switch_tuple)
    assert {(c.left_pair, c.right_pair) for c in restored.four_cycles()} == {
        ((1, 2), (1, 2))
    }


def test_apply_forward_rejections(switch_graph, switch_tuple):
    # an edge to be created already present
    extra = switch_graph.replace_edges(remove=[], add=[(1, 0)])
    with pytest.raises(NotASwitching, match="u1g1"):
        apply_forward(extra, switch_tuple)
    # missing pendant edge
    missing = switch_graph.replace_edges(remove=[(3, 3)], add=[(3, 1)])
    with pytest.raises(NotASwitching, match="w2g2"):
        apply_forward(missing, switch_tuple)
    # no 4-cycle on the u/f block after it is dissolved
    after = apply_forward(switch_graph, switch_tuple)
    with pytest.raises(NotASwitching, match="u1f1"):
        apply_forward(after, switch_tuple)


def test_apply_reverse_rejections(switch_graph, switch_tuple):
    after = apply_forward(switch_graph, switch_tuple)
    broken = after.replace_edges(remove=[(0, 1)], add=[(0, 0)])  # drop w1f1
    with pytest.raises(NotASwitching, match="w1f1"):
        apply_reverse(broken, switch_tuple)
    present = after.replace_edges(remove=[], add=[(1, 1)])  # u1f1 already there
    with pytest.raises(NotASwitching, match="already present"):
        apply_reverse(present, switch_tuple)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("label", ["u1f2", "u2f1", "u1f1", "u2f2", "w1g1", "w2g2",
                                   "u1g1", "u2g2", "w1f1", "w2f2"])
def test_each_switch_precondition_names_its_edge(switch_graph, switch_tuple, reverse, label):
    # the ten edges a switch checks: 2 kept, 4 removed, 4 added; break only
    # this one (drop it if present, add it if absent) on the switch's input
    graph, apply = switch_graph, apply_forward
    if reverse:
        graph, apply = apply_forward(switch_graph, switch_tuple), apply_reverse
    edge = (getattr(switch_tuple, label[:2]), getattr(switch_tuple, label[2:]))
    if graph.has_edge(*edge):
        broken, match = graph.replace_edges(remove=[edge], add=[]), f"{label} missing"
    else:
        broken, match = graph.replace_edges(remove=[], add=[edge]), f"{label} to be created"
    with pytest.raises(NotASwitching, match=match):
        apply(broken, switch_tuple)


@pytest.mark.parametrize("change", [
    {"g1": 4}, {"f1": 4}, {"g2": 9}, {"w1": 4}, {"w2": 7}, {"u1": 5},
    {"w1": -1}, {"g1": -1}, {"g2": -1},
])
def test_out_of_range_tuples_fail_in_the_checks(switch_graph, switch_tuple, change):
    # a tuple index past either side of the 4x4 graph is InvalidArgument in
    # both directions, before any edge is read; a negative one already when
    # the tuple is made, so it never reads a column from the end
    if min(change.values()) < 0:
        with pytest.raises(InvalidArgument, match="nonnegative"):
            replace(switch_tuple, **change)
        return
    t = replace(switch_tuple, **change)
    for apply in (apply_forward, apply_reverse):
        with pytest.raises(InvalidArgument, match="outside the 4x4 graph"):
            apply(switch_graph, t)


@pytest.mark.parametrize("value", [1.0, True, "1", None])
def test_switch_tuple_rejects_non_integers(value):
    # int(1.0) and int("1") would read vertex 1, and True would too
    with pytest.raises(InvalidArgument, match="expected an integer"):
        SwitchTuple(u1=0, u2=value, w1=4, w2=7, f1=0, f2=1, g1=2, g2=3)


def test_switch_tuple_fields_become_ints():
    t = SwitchTuple(*map(np.int64, (0, 1, 4, 7, 0, 1, 2, 3)))
    assert t == SwitchTuple(0, 1, 4, 7, 0, 1, 2, 3)
    assert all(type(v) is int for v in vars(t).values())


def test_out_of_range_switches_of_an_embedded_instance():
    g = _embed_switchable_instance()  # 10 left, 4 right vertices
    with pytest.raises(InvalidArgument, match="nonnegative"):
        SwitchTuple(0, 1, 4, 7, 0, 1, 2, -1)  # would read column 3
    for t in (SwitchTuple(0, 1, 4, 7, 0, 1, 2, 9), SwitchTuple(0, 1, 4, 10, 0, 1, 2, 3)):
        for call in (apply_forward, apply_reverse, check_forward):
            with pytest.raises(InvalidArgument, match="outside the 10x4 graph"):
                call(g, t)
    for j, i in ((0, -4), (-1, 0), (10, 0), (0, 4)):
        with pytest.raises(InvalidArgument, match="out of range"):
            g.has_edge(j, i)
    assert g.has_edge(9, 3) and not g.has_edge(0, 3)


def test_forward_candidates_empty_when_rights_all_on_cycles(demo_graph, demo_ds):
    cls = classify(demo_graph, demo_ds)
    assert list(forward_candidates(demo_graph, cls)) == []


def test_forward_candidates_match_brute_force():
    # a 4-cycle plus a path of free edges; all right degrees are 2
    g = BipartiteGraph.from_edges(
        5, 4, [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (3, 2), (3, 3), (4, 3)]
    )
    ds = derive_degree_sequence(g)
    cls = classify(g, ds)
    got = set(forward_candidates(g, cls))

    cycles = cls.four_cycles
    rights_on = {i for c in cycles for i in c.right_pair}
    expected = set()
    for u1 in range(g.n_left):
        for u2 in range(g.n_left):
            for w1 in range(g.n_left):
                for w2 in range(g.n_left):
                    if len({u1, u2, w1, w2}) != 4:
                        continue
                    for f1 in range(g.n_right):
                        for f2 in range(g.n_right):
                            for g1 in range(g.n_right):
                                for g2 in range(g.n_right):
                                    if len({f1, f2, g1, g2}) != 4:
                                        continue
                                    if not (
                                        g.has_edge(u1, f1)
                                        and g.has_edge(u1, f2)
                                        and g.has_edge(u2, f1)
                                        and g.has_edge(u2, f2)
                                    ):
                                        continue
                                    if not (g.has_edge(w1, g1) and g.has_edge(w2, g2)):
                                        continue
                                    if g1 in rights_on or g2 in rights_on:
                                        continue
                                    expected.add(
                                        SwitchTuple(u1, u2, w1, w2, f1, f2, g1, g2)
                                    )
    assert got == expected and len(got) > 0


def test_forward_candidates_need_a_cycle():
    g = BipartiteGraph(6, 2, [0b000111, 0b111000])
    ds = new_degree_sequence((1,) * 6, 3)
    with pytest.raises(NoFourCycle):
        list(forward_candidates(g, classify(g, ds)))


def _embed_switchable_instance():
    """Conforming graph (right degree 3) containing a dissolvable 4-cycle."""
    edges = [
        (0, 0), (0, 1), (1, 0), (1, 1),          # the 4-cycle
        (2, 0), (3, 1),                          # fill f-columns to degree 3
        (4, 2), (5, 2), (6, 2),                  # g1 column
        (7, 3), (8, 3), (9, 3),                  # g2 column
    ]
    return BipartiteGraph.from_edges(10, 4, edges)


def test_check_forward_legal_case():
    g = _embed_switchable_instance()
    t = SwitchTuple(u1=0, u2=1, w1=4, w2=7, f1=0, f2=1, g1=2, g2=3)
    verdict = check_forward(g, t)
    assert verdict.legal and verdict.ground_truth
    assert verdict.conditions == frozenset()
    # verdicts agree with explicit reclassification
    after = apply_forward(g, t)
    ds = derive_degree_sequence(g)
    assert classify(after, ds).d == classify(g, ds).d - 1


def test_check_reverse_legal_case():
    g = _embed_switchable_instance()
    t = SwitchTuple(u1=0, u2=1, w1=4, w2=7, f1=0, f2=1, g1=2, g2=3)
    after = apply_forward(g, t)
    verdict = check_reverse(after, t)
    assert verdict.legal and verdict.conditions == frozenset()
    assert apply_reverse(after, t) == g


def test_check_forward_condition_one_fires():
    # second 4-cycle sitting on the g-columns: dissolving the first cycle
    # while pulling edges out of the second one's columns is illegal
    edges = [
        (0, 0), (0, 1), (1, 0), (1, 1),
        (2, 0), (3, 1),
        (4, 2), (4, 3), (5, 2), (5, 3),          # 4-cycle on the g columns
        (6, 2), (7, 3),
    ]
    g = BipartiteGraph.from_edges(8, 4, edges)
    t = SwitchTuple(u1=0, u2=1, w1=4, w2=5, f1=0, f2=1, g1=2, g2=3)
    verdict = check_forward(g, t)
    assert not verdict.legal and "I" in verdict.conditions


def test_condition_helpers_agree_with_distances(demo_graph):
    dist = all_pairs_distances(demo_graph)
    t = SwitchTuple(u1=0, u2=1, w1=3, w2=4, f1=0, f2=1, g1=2, g2=3)
    conds = forward_conditions(demo_graph, t)
    assert "I" in conds  # g-columns lie on the second 4-cycle
    d_g1g2 = dist[("e", 2)].get(("e", 3))
    assert ("III" in conds) == (d_g1g2 == 2)
    rconds = reverse_conditions(demo_graph, t)
    assert "I'" in rconds


def test_checks_require_well_behaved_graphs():
    # repeated columns: the graph conforms but fails the property battery
    g = BipartiteGraph(6, 4, [0b000111, 0b000111, 0b111000, 0b111000])
    t = SwitchTuple(u1=0, u2=1, w1=3, w2=4, f1=0, f2=1, g1=2, g2=3)
    with pytest.raises(PreconditionFailed):
        check_forward(g, t)
    with pytest.raises(PreconditionFailed):
        check_reverse(g, t)


def test_illegality_conditions_are_sound_small_sweep():
    """Illegal switches always trigger a listed condition (small instances)."""
    for ds in canonical_battery(max_n=5, rs=(3,), max_space=9):
        n2 = ds.thresholds().n2

        def visitor(graph):
            cls = classify(graph, ds)
            if not cls.in_bplus or cls.d == 0:
                return
            for t in forward_candidates(graph, cls):
                verdict = check_forward(graph, t)
                if not verdict.ground_truth:
                    assert verdict.conditions, (ds.k, graph.cols, t)

        enumerate_bigraphs(ds, visitor=visitor)


def test_pairing_sample_deterministic_and_conforming():
    ds = new_degree_sequence((2, 3, 1, 2, 2, 2), 3)
    a = pairing_sample(ds, np.random.default_rng(5))
    b = pairing_sample(ds, np.random.default_rng(5))
    assert a.graph == b.graph and a.rejections == b.rejections
    assert a.graph.conforms(ds)


def test_pairing_samples_skip_the_graph_checks(monkeypatch):
    # a pairing's columns are in-range masks by construction, so its graph
    # is built without ``BipartiteGraph.__init__`` and equals a checked one
    ds = new_degree_sequence((3,) * 30, 3)
    rng = np.random.default_rng(7)

    def refused(*args):
        raise AssertionError("BipartiteGraph.__init__ called")

    with monkeypatch.context() as patched:
        patched.setattr(BipartiteGraph, "__init__", refused)
        graph = pairing_sample(ds, rng).graph
    assert type(graph.cols) is tuple and graph.conforms(ds)
    assert BipartiteGraph(graph.n_left, graph.n_right, graph.cols) == graph


def test_pairing_sample_retry_limit():
    # a single column cannot host a degree-2 vertex twice: always rejected
    ds = new_degree_sequence((2, 1), 3)
    with pytest.raises(RetryLimitExceeded):
        pairing_sample(ds, np.random.default_rng(0), max_retries=5)


def test_sample_no4cycle_trivial_instance():
    ds = new_degree_sequence((1,) * 6, 3)
    res = sample_no4cycle(ds, np.random.default_rng(3))
    assert res.steps == 0 and res.d_trajectory == (0,)
    assert not res.graph.has_four_cycle()


def test_sample_no4cycle_step_budget():
    # this walk starts at d=7 and dissolves one 4-cycle per step
    ds = new_degree_sequence((3,) * 30, 3)
    with pytest.raises(StepLimit, match="^step budget 3 exhausted$"):
        sample_no4cycle(ds, np.random.default_rng(1), max_steps=3)
    res = sample_no4cycle(ds, np.random.default_rng(1), max_steps=7)
    assert res.steps == 7 and res.restarts == 0
    assert res.d_trajectory == (7, 6, 5, 4, 3, 2, 1, 0)


def test_forward_step_on_an_empty_index_draws_nothing():
    # every right vertex is on one of the two 4-cycles, so no edge w-g has g
    # off the cycles: no candidate, no step, and the stream is untouched
    ds = new_degree_sequence((2,) * 6, 3)
    graph = BipartiteGraph(6, 4, [0b000111, 0b001011, 0b110100, 0b111000])
    cls = classify(graph, ds)
    assert cls.in_bplus and cls.d == 2
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert _forward_step(graph, cls, ds, rng, _CandidateIndex(graph, cls)) is None
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n", [0, 1, 2, 7, 1000])
def test_uniform_order_yields_each_index_once(n):
    order = list(_uniform_order(n, np.random.default_rng(n)))
    assert sorted(order) == list(range(n))


def test_uniform_order_of_nothing_draws_nothing():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert list(_uniform_order(0, rng)) == []
    assert rng.bit_generator.state == state


def test_uniform_order_is_uniform_over_orders():
    # 24 orders of 4 indices, 200 draws each expected; bound fixed in advance
    rng = np.random.default_rng(17)
    counts = Counter(tuple(_uniform_order(4, rng)) for _ in range(4800))
    assert set(counts) == set(permutations(range(4)))
    stat = sum((c - 200) ** 2 / 200 for c in counts.values())
    assert stat < chi2.ppf(0.999, 23), stat


@pytest.mark.parametrize("t", [1, 2, 5])
def test_uniform_order_draws_once_per_index_taken(t):
    # t indices cost exactly t integer draws: a full permutation up front, or
    # a draw made ahead of the index it serves, leaves another state
    n = 1000
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    assert len(list(islice(_uniform_order(n, rng), t))) == t
    for s in range(t):
        twin.integers(s, n)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_forward_step_is_uniform_over_legal_switchings():
    # one 4-cycle on k=2^5 1^2, r=3: of its 64 candidate tuples, 24 are not
    # switchings and 24 land outside the well-behaved graphs with d - 1 cycles;
    # the other 16 reach 8 graphs.  A step must hit each switched graph in
    # proportion to the tuples that reach it, whatever the random stream.
    ds = new_degree_sequence((2,) * 5 + (1,) * 2, 3)
    graph = BipartiteGraph(7, 4, [0b0000111, 0b0001011, 0b0011100, 0b1110000])
    cls = classify(graph, ds)
    assert cls.in_bplus and cls.d == 1
    tuples = Counter()
    for t in forward_candidates(graph, cls):
        try:
            switched, _, legal = _reclassified(graph, cls, ds, t, apply_forward, -1)
        except NotASwitching:
            continue
        if legal:
            tuples[switched] += 1
    assert sum(tuples.values()) == 16 and len(tuples) == 8
    draws = 2000
    # a legal step advances its index, so each draw gets a fresh one
    hits = Counter(_forward_step(graph, cls, ds, np.random.default_rng(seed),
                                 _CandidateIndex(graph, cls))[0]
                   for seed in range(draws))
    assert set(hits) == set(tuples)
    expected = {g: draws * c / 16 for g, c in tuples.items()}
    stat = sum((hits[g] - e) ** 2 / e for g, e in expected.items())
    assert stat < chi2.ppf(0.999, len(tuples) - 1), stat


def test_sample_no4cycle_postcondition_and_replay():
    ds = new_degree_sequence((2,) * 30, 3)
    res = sample_no4cycle(ds, np.random.default_rng(11))
    assert not res.graph.has_four_cycle()
    assert res.graph.conforms(ds)
    assert res.d_trajectory[-1] == 0
    assert list(res.d_trajectory) == sorted(res.d_trajectory, reverse=True)
    replay = sample_no4cycle(ds, np.random.default_rng(11))
    assert replay.graph == res.graph and replay.steps == res.steps


def test_monte_carlo_girth_trivial():
    est = monte_carlo_girth(new_degree_sequence((1,) * 6, 3), seed=1, trials=64)
    assert est.p_hat == 1.0
    with pytest.raises(PreconditionFailed):
        monte_carlo_girth(new_degree_sequence((1,) * 6, 3), seed=1, trials=0)


def test_monte_carlo_agrees_with_exact_probability():
    # exact P(no 4-cycle) for nine degree-2 vertices, edge size 3, from two
    # enumeration-free oracles: margin-class DP for |B| and the multigraph
    # transform for |C0| = n! * S0
    import math

    from support import count_b_dp, regular_multigraph_counts

    ds = new_degree_sequence((2,) * 9, 3)
    s0, _ = regular_multigraph_counts(6)
    p_exact = math.factorial(9) * s0 / count_b_dp(ds)
    margin = 4 * math.sqrt(p_exact * (1 - p_exact) / 4000)
    est = monte_carlo_girth(ds, seed=17, trials=4000)
    assert abs(est.p_hat - p_exact) < margin
    est2 = monte_carlo_girth(ds, seed=17, trials=4000, workers=3)
    assert abs(est2.p_hat - p_exact) < margin


def test_monte_carlo_worker_split_is_deterministic():
    ds = new_degree_sequence((2,) * 12, 3)
    a = monte_carlo_girth(ds, seed=9, trials=300, workers=2)
    b = monte_carlo_girth(ds, seed=9, trials=300, workers=2)
    assert a == b
    assert a.predicted == pytest.approx(
        float(np.exp(-1.0)), rel=1e-12
    )


def test_girth_pool_is_clamped_to_tasks_and_cpus(monkeypatch, pool_sizes):
    from linhyper import _pool

    sizes = pool_sizes
    ds = new_degree_sequence((2,) * 12, 3)
    for cpus, workers, trials in ((3, 64, 40), (64, 64, 3), (64, 2, 40),
                                  (None, 4, 40), (1, 4, 40), (64, 1, 40)):
        monkeypatch.setattr(_pool.os, "cpu_count", lambda: cpus)
        est = monte_carlo_girth(ds, seed=5, trials=trials, workers=workers)
        # the substream split follows ``workers``, not the pool size
        sizes_before = list(sizes)
        monkeypatch.setattr(_pool.os, "cpu_count", lambda: 1)
        assert monte_carlo_girth(ds, seed=5, trials=trials, workers=workers) == est
        assert sizes == sizes_before
    # min(workers, tasks, cpus); one process (or an unknown CPU count) runs
    # every task in-process
    assert sizes == [3, 3, 2]


def test_pool_reads_the_cpu_count_only_when_a_pool_could_start(monkeypatch):
    # one worker or at most one task runs in-process without asking
    from linhyper import _pool

    def unread():
        raise AssertionError("the CPU count was read")

    monkeypatch.setattr(_pool.os, "cpu_count", unread)
    assert _pool.map_tasks(abs, [-1, -2], 1) == [1, 2]
    assert _pool.map_tasks(abs, [-3], 4) == [3]
    assert _pool.map_tasks(abs, [], 4) == []


@pytest.mark.parametrize("r", [2, 3, 4])
def test_pairing_kernel_matches_unique_count_and_graph_scan(r):
    # the stub-pair tests against a distinct-key count and the graph's own
    # 4-cycle scan, on every draw over mixed degrees (0 and 1 included)
    from linhyper.sampler import _PairingKernel, _simple_pairing

    rng = np.random.default_rng(70 + r)
    outcomes = set()
    for _ in range(40):
        k = [0, 1] + rng.integers(0, 5, size=int(rng.integers(3, 10))).tolist()
        k += [1] * (-sum(k) % r)
        ds = new_degree_sequence(k, r)
        kernel = _PairingKernel(ds)
        m = ds.edge_count()
        for _ in range(25):
            state = rng.bit_generator.state
            perm = rng.permutation(kernel.right_owner)
            simple = np.unique(kernel.left_owner * m + perm).size == perm.size
            rng.bit_generator.state = state
            if not simple:
                with pytest.raises(RetryLimitExceeded):
                    _simple_pairing(rng, kernel, 0)
                outcomes.add("rejected")
                continue
            drawn, (x, y), rejections = _simple_pairing(rng, kernel, 0)
            assert rejections == 0 and drawn.tolist() == perm.tolist()
            graph = BipartiteGraph.from_edges(
                ds.n, m, zip(kernel.left_owner.tolist(), perm.tolist()))
            assert kernel.has_four_cycle(x, y) == graph.has_four_cycle(), (k, perm)
            rng.bit_generator.state = state
            assert pairing_sample(ds, rng, max_retries=0).graph == graph
            outcomes.add(graph.has_four_cycle())
    assert outcomes == {"rejected", True, False}


def test_girth_stream_pinned_on_mixed_degrees():
    # degrees 0-4 in no order: the pinned (p_hat, rejections) fix the random
    # stream, the accept rule and the 4-cycle test beyond all-degree-2 rows
    k = (3, 3, 2, 2, 1, 1, 0, 2, 3, 2, 3, 3, 3, 2, 0, 4, 1,
         2, 2, 2, 1, 2, 3, 3, 3, 1, 2, 3, 2, 2, 1, 4, 2, 2)
    ds = new_degree_sequence(k, 3)
    for workers, p_hat, rejections in ((1, 0.0525, 1632), (2, 0.0725, 1647)):
        est = monte_carlo_girth(ds, seed=2024, trials=400, workers=workers)
        assert (est.p_hat, est.rejections) == (p_hat, rejections)


def test_girth_stream_pinned_on_benchmark_and_degree4_rows():
    # the pinned (p_hat, rejections) fix the random stream and both pairing
    # tests on the girth_mc benchmark instance, and on r=4 with four degree-4
    # rows (six stub pairs each)
    est = monte_carlo_girth(new_degree_sequence((2,) * 3000, 3), seed=1414, trials=200)
    assert (est.p_hat, est.rejections) == (0.385, 299)
    ds = new_degree_sequence((4,) * 4 + (2,) * 8 + (1,) * 40, 4)
    for workers, p_hat, rejections in ((1, 0.165, 1425), (2, 0.1775, 1275)):
        est = monte_carlo_girth(ds, seed=1414, trials=400, workers=workers)
        assert (est.p_hat, est.rejections) == (p_hat, rejections)


MIXED_R3 = (3, (3, 3, 2, 2, 1, 1, 0, 2, 3, 2, 3, 3, 3, 2, 0, 4, 1,
               2, 2, 2, 1, 2, 3, 3, 3, 1, 2, 3, 2, 2, 1, 4, 2, 2), 4)
R4 = (4, (2,) * 16 + (4,) * 4, 4)


def well_behaved_with_cycles(ds, rng, count):
    """(graph, classification) of the first ``count`` pairing draws that are
    well-behaved with a 4-cycle."""
    while count:
        graph = pairing_sample(ds, rng).graph
        cls = classify(graph, ds)
        if cls.in_bplus and cls.d:
            count -= 1
            yield graph, cls


@pytest.mark.parametrize("r, k, count", [
    (3, (3,) * 30, 2),
    (3, (2,) * 90, 2),
    MIXED_R3,
    R4,
], ids=["3^30", "2^90", "mixed-r3", "r4"])
def test_candidate_index_matches_generator(r, k, count):
    # the walk draws from the counted view; it must be the generator's
    # sequence, element by element (all of it, or 2,000 random positions)
    from linhyper.switching_engine import _CandidateIndex

    ds = new_degree_sequence(k, r)
    rng = np.random.default_rng(sum(k) + r)
    for graph, cls in well_behaved_with_cycles(ds, rng, count):
        index = _CandidateIndex(graph, cls)
        size = len(index)
        picks = set(range(size)) if size <= 2000 else set(
            rng.integers(0, size, 2000).tolist())
        seen = 0
        for i, t in enumerate(forward_candidates(graph, cls)):
            if i in picks:
                assert index[i] == t, (k, graph.cols, i)
            seen += 1
        assert seen == size > 0
        with pytest.raises(IndexError):
            index[size]


@pytest.mark.parametrize("r, k, count", [MIXED_R3, R4], ids=["mixed-r3", "r4"])
def test_unchecked_candidates_are_suitable(r, k, count):
    # the listers build their tuples without the constructor's checks; each
    # must be one the checking constructor accepts and equals, of int
    # vertices inside the graph
    ds = new_degree_sequence(k, r)
    rng = np.random.default_rng(sum(k) + r + 1)
    for graph, cls in well_behaved_with_cycles(ds, rng, count):
        index = _CandidateIndex(graph, cls)
        listed = list(_forward_tuples(graph, cls.four_cycles))
        assert len(listed) == len(index) > 0
        for t in listed + [index[i] for i in range(len(index))]:
            fields = [getattr(t, name) for name in _FIELDS]
            assert SwitchTuple(*fields) == t, (graph.cols, t)
            assert {type(v) for v in fields} == {int}
            assert max(fields[:4]) < graph.n_left and max(fields[4:]) < graph.n_right


def test_candidate_index_empty_and_no_cycle(demo_graph, demo_ds):
    from linhyper.switching_engine import _CandidateIndex

    # every right vertex lies on a 4-cycle: no g1, g2 can be chosen
    assert len(_CandidateIndex(demo_graph, classify(demo_graph, demo_ds))) == 0
    g = BipartiteGraph(6, 2, [0b000111, 0b111000])
    ds = new_degree_sequence((1,) * 6, 3)
    with pytest.raises(NoFourCycle):
        _CandidateIndex(g, classify(g, ds))


WALK_FAMILIES = {
    "3^30": (3, (3,) * 30),
    "2^90": (3, (2,) * 90),
    "mixed-r3": (3, (3, 3, 2, 2, 1, 1, 0, 2, 3, 2, 3, 3, 3, 2, 0, 4, 1,
                     2, 2, 2, 1, 2, 3, 3, 3, 1, 2, 3, 2, 2, 1, 4, 2, 2)),
    "r4": (4, (2,) * 16 + (4,) * 4),
}
CLASSIFICATION_FIELDS = ("four_cycles", "d", "in_b0", "in_bplus", "failed_properties")


@pytest.mark.parametrize("family", WALK_FAMILIES)
def test_trade_builds_what_replace_edges_builds(family):
    # random candidates of pairing draws with a 4-cycle, each that applies
    # switched forward and back: the traded graph equals replace_edges' on
    # the same eight edges, and its columns pass BipartiteGraph's checks
    r, k = WALK_FAMILIES[family]
    ds = new_degree_sequence(k, r)
    rng = np.random.default_rng(2525 + r)
    applied = 0
    while applied < 60:
        graph = pairing_sample(ds, rng).graph
        cls = classify(graph, ds)
        if cls.d == 0:
            continue
        index = _CandidateIndex(graph, cls)
        for i in rng.integers(0, len(index), 20).tolist() if len(index) else ():
            t = index[i]
            removed = [(t.u1, t.f1), (t.u2, t.f2), (t.w1, t.g1), (t.w2, t.g2)]
            added = [(t.u1, t.g1), (t.u2, t.g2), (t.w1, t.f1), (t.w2, t.f2)]
            try:
                switched = apply_forward(graph, t)
            except NotASwitching:
                with pytest.raises(InvalidArgument, match="already present"):
                    graph.replace_edges(remove=removed, add=added)
                continue
            assert switched == graph.replace_edges(remove=removed, add=added)
            assert BipartiteGraph(ds.n, ds.edge_count(), switched.cols) == switched
            back = apply_reverse(switched, t)
            assert back == switched.replace_edges(remove=added, add=removed) == graph
            assert BipartiteGraph(ds.n, ds.edge_count(), back.cols) == back
            applied += 1


def _assert_reclassified(graph, cls, ds, t, apply, step):
    """``_reclassified`` against ``classify`` of the switched graph, field
    by field, and the rows it sets against the switched columns'."""
    switched, after, legal = _reclassified(graph, cls, ds, t, apply, step)
    assert switched == apply(graph, t)
    assert switched.rows == BipartiteGraph(switched.n_left, switched.n_right, switched.cols).rows
    want = classify(switched, ds)
    for field in CLASSIFICATION_FIELDS:
        assert getattr(after, field) == getattr(want, field), (field, graph.cols, t)
    assert legal == (want.in_bplus and want.d == cls.d + step)
    return switched, after, legal


def test_four_cycles_are_four_cycle_records():
    # a plain tuple of the two pairs equals its FourCycle, so only the type
    # shows that no reader is handed a bare tuple: not classify, not
    # four_cycles, and not _reclassified for the cycles it keeps or finds
    ds = new_degree_sequence((3,) * 30, 3)
    graph = pairing_sample(ds, np.random.default_rng(1)).graph
    cls = classify(graph, ds)
    assert cls.d >= 2
    records = [*cls.four_cycles, *graph.four_cycles()]
    for t in islice(forward_candidates(graph, cls), 40):
        try:
            switched, after, _ = _reclassified(graph, cls, ds, t, apply_forward, -1)
        except NotASwitching:
            continue
        back = _reclassified(switched, after, ds, t, apply_reverse, +1)[1]
        assert back.four_cycles == cls.four_cycles
        records += [*after.four_cycles, *back.four_cycles]
    assert len(records) > 4 * cls.d
    assert all(type(c) is FourCycle for c in records)
    assert FourCycle((0, 1), (2, 3)) == ((0, 1), (2, 3))


@pytest.mark.parametrize("family", WALK_FAMILIES)
def test_reclassified_matches_classify_on_every_tried_tuple(family, monkeypatch):
    # every tuple seeded walks try, not-a-switching and illegal landings
    # included, is reclassified from its changed columns as classify would
    r, k = WALK_FAMILIES[family]
    ds = new_degree_sequence(k, r)
    tried = Counter()

    def checked(graph, cls, ds, t, apply, step):
        try:
            out = _assert_reclassified(graph, cls, ds, t, apply, step)
        except NotASwitching:
            tried["not a switching"] += 1
            raise
        tried["legal" if out[2] else "illegal"] += 1
        return out

    monkeypatch.setattr(sampler, "_reclassified", checked)
    for seed in range(6):
        sample_no4cycle(ds, np.random.default_rng(seed))
    assert tried["legal"] >= 5 and tried["illegal"] >= 1, tried


def test_reverse_reclassification_on_spot_check_graphs():
    # verify's spot-check graphs, switched forward by every tuple that
    # applies and back again: the reverse classification is classify's, and
    # check_reverse's verdict follows it
    checked = 0
    for r in (3, 4):
        for ds in canonical_battery(rs=(r,)):
            for cols in _first_switchable(ds, 10, DEFAULT_MAX_SPACE):
                graph = BipartiteGraph(ds.n, ds.edge_count(), cols)
                for t in _forward_tuples(graph, graph.four_cycles()):
                    try:
                        switched = apply_forward(graph, t)
                    except NotASwitching:
                        continue
                    cls = classify(switched, ds)
                    back, after, legal = _assert_reclassified(
                        switched, cls, ds, t, apply_reverse, +1)
                    assert back == graph
                    if cls.in_bplus:
                        assert check_reverse(switched, t).legal == legal
                    checked += 1
    assert checked >= 90


def _assert_same_index(carried, graph, cls, rng):
    fresh = _CandidateIndex(graph, cls)
    size = len(fresh)
    assert len(carried) == size
    for pair, edges in _free_edges(graph, cls.four_cycles).items():
        assert carried._pair(pair)[0] == fresh._pair(pair)[0] == edges
    picks = range(size) if size <= 2000 else rng.integers(0, size, 2000).tolist()
    for i in picks:
        assert carried[i] == fresh[i], (graph.cols, i)


def test_carried_index_matches_a_fresh_one_after_every_step():
    # the index a walk advances equals the one built afresh on each graph
    # it reaches: size, per-pair free edges (those of _free_edges) and tuples
    steps = Counter()
    for family, (r, k) in WALK_FAMILIES.items():
        ds = new_degree_sequence(k, r)
        rng, picks = np.random.default_rng(len(k)), np.random.default_rng(r)
        while steps[family] < 25:
            graph = pairing_sample(ds, rng).graph
            cls = classify(graph, ds)
            if not cls.in_bplus or cls.d == 0:
                continue
            index = _CandidateIndex(graph, cls)
            _assert_same_index(index, graph, cls, picks)
            while cls.d > 0:
                step = _forward_step(graph, cls, ds, rng, index)
                if step is None:
                    break
                graph, cls = step
                steps[family] += 1
                if cls.d:
                    _assert_same_index(index, graph, cls, picks)
                else:
                    assert len(index) == 0
    assert sum(steps.values()) >= 100


def test_sample_no4cycle_pinned_through_rejections_and_restarts(monkeypatch):
    # recorded before the pairing draws shared one kernel: repeated edges,
    # pairings outside the well-behaved graphs and a stuck walk all leave
    # the random stream as it was
    kernels = []

    class Counted(sampler._PairingKernel):
        def __init__(self, ds):
            kernels.append(ds)
            super().__init__(ds)

    monkeypatch.setattr(sampler, "_PairingKernel", Counted)
    for r, k, seed, want, digest in [
        (4, (2,) * 16 + (4,) * 4, 100, (5, (4, 3, 2, 1, 0), 1130, 94, 1),
         "cab781549e813da4f4158b1d8ca7fedbc39b569320a9471a6ab2b2e62c380420"),
        (3, (2,) * 90, 82, (2, (2, 1, 0), 1, 1, 0),
         "ed5fdf68fe4168fca8addeb77d05a8df83d55b98b1b4fd7c4f244bd9423cf015"),
        (3, (3,) * 30, 3, (4, (4, 3, 2, 1, 0), 42, 2, 0),
         "d552c7d1d8f9cb215573e21a94573c2be8d030b602ada888e143954044921baf"),
    ]:
        kernels.clear()
        res = sample_no4cycle(new_degree_sequence(k, r), np.random.default_rng(seed))
        assert (res.steps, res.d_trajectory, res.pairing_rejections,
                res.bplus_rejections, res.restarts) == want
        assert hashlib.sha256(repr(sorted(res.graph.edges())).encode()).hexdigest() == digest
        assert len(kernels) == 1


@pytest.mark.parametrize("k, seed, steps, trajectory, digest", [
    ((3,) * 30, 0, 4, (4, 3, 2, 1, 0),
     "9692f05f356fd5c3cd0f44e7900bb4579d895d518f1b62ca5758ea84e1ea797a"),
    ((3,) * 30, 1, 7, (7, 6, 5, 4, 3, 2, 1, 0),
     "7010b155cb68baed5438f4a7a406963f3eb767b0fce0650ab07e3d647bbd93d7"),
    ((2,) * 90, 3, 4, (4, 3, 2, 1, 0),
     "416187076ff14d4c51751ed0a6eee1353202aaaa9998ab96fa61dc1cebeeb2f3"),
    ((2,) * 90, 4, 3, (3, 2, 1, 0),
     "1745aa7199e3fe21f562828f3a29e877dbcba1a5d598a0e6bd6fcb8c3f9b7c26"),
])
def test_sample_no4cycle_outputs_pinned(k, seed, steps, trajectory, digest):
    # seeded walks starting at d >= 2: the random stream, the candidate order
    # and every accept or reject are part of the output contract
    res = sample_no4cycle(new_degree_sequence(k, 3), np.random.default_rng(seed))
    assert (res.steps, res.d_trajectory, res.restarts) == (steps, trajectory, 0)
    edges = repr(sorted(res.graph.edges())).encode()
    assert hashlib.sha256(edges).hexdigest() == digest
