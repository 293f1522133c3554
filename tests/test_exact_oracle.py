import hashlib
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, permutations

import pytest

from linhyper import (
    BipartiteGraph,
    ClassFilter,
    Hypergraph,
    OracleReport,
    Pattern,
    SwitchTuple,
    canonical_battery,
    classify,
    count_hypergraphs,
    degree_sequence_from_json,
    enumerate_bigraphs,
    full_report,
    hyper_class_profile,
    mckay_upper_bound,
    monte_carlo_girth,
    new_degree_sequence,
    pattern_expectation,
    pattern_upper_bound,
    random_guarded_instances,
    sum_bounds,
    switching_ratio,
)
from linhyper import _pool, exact_oracle
from linhyper.bigraph_core import _classification, _four_cycles
from linhyper.cli import main
from linhyper.exact_oracle import DEFAULT_MAX_SPACE, check_guard
from linhyper.errors import (
    InvalidArgument,
    InvalidR,
    InvariantViolation,
    LinhyperError,
    NotDivisible,
    PreconditionFailed,
    TooLarge,
)
from linhyper.exact_oracle import (
    _first_orderings,
    _first_switchable,
    _occurrences_from_cols,
    _orbit_columns,
    _push_verdict,
)

from support import (
    count_b_dp,
    count_by_multiset,
    k32_expectation_dp,
    reference_class_profile,
    reference_enumerate,
    reference_hypergraph_counts,
    reference_linear_count,
    reference_multiset_sweep,
    reference_pattern_expectation,
    reference_report,
    reference_spot_graphs,
)

# The symmetry-reduced sweep against the ordered and edge-set sweeps it
# replaced: the full battery plus a random stream for the cheap comparisons,
# a smaller set where the reference visits every labeled graph many times.
GATE_INSTANCES = canonical_battery() + random_guarded_instances(50, seed=20261018)
SMALL_GATE_INSTANCES = canonical_battery(max_space=12) + random_guarded_instances(
    20, seed=20261018, max_space=12
)


def test_enumerate_counts():
    assert enumerate_bigraphs(new_degree_sequence((1,) * 6, 3)) == 20
    assert enumerate_bigraphs(new_degree_sequence((3, 3, 3, 3), 3)) == 24
    assert (
        enumerate_bigraphs(
            new_degree_sequence((1,) * 6, 3), class_filter=ClassFilter.NO_FOUR_CYCLE
        )
        == 20
    )


def test_enumerate_filters_consistent():
    ds = new_degree_sequence((2, 3, 1, 2, 2, 2), 3)
    rep = full_report(ds)
    assert enumerate_bigraphs(ds, class_filter=ClassFilter.B0) == rep.count_b0
    assert enumerate_bigraphs(ds, class_filter=ClassFilter.BPLUS) == rep.count_bplus
    assert (
        enumerate_bigraphs(ds, class_filter=ClassFilter.NO_FOUR_CYCLE)
        == rep.cd_profile[0]
    )


def test_enumerate_guard_and_divisibility():
    with pytest.raises(NotDivisible):
        enumerate_bigraphs(new_degree_sequence((1, 1, 1, 1), 3))
    with pytest.raises(TooLarge):
        enumerate_bigraphs(new_degree_sequence((3,) * 6, 3))
    # guard override admits it
    assert enumerate_bigraphs(new_degree_sequence((3,) * 6, 3), max_space=18) > 0


def test_count_hypergraphs_examples():
    assert count_hypergraphs(new_degree_sequence((1,) * 6, 3)) == (10, 10)
    assert count_hypergraphs(new_degree_sequence((3, 3, 3, 3), 3)) == (1, 0)
    assert count_hypergraphs(new_degree_sequence((2, 2, 2), 3)) == (0, 0)


def test_full_report_examples():
    rep = full_report(new_degree_sequence((1,) * 6, 3))
    assert (rep.count_b, rep.count_b0, rep.count_h, rep.count_l) == (20, 20, 10, 10)
    assert rep.cd_profile[0] == 20 and sum(rep.cd_profile) == 20

    rep = full_report(new_degree_sequence((3, 3, 3, 3), 3))
    assert rep.count_h == 1 and rep.count_l == 0 and rep.cd_profile[0] == 0

    ds = new_degree_sequence((2, 3, 1, 2, 2, 2), 3)
    assert len(full_report(ds).cd_profile) == ds.thresholds().n2 + 1


def test_demo_graph_lands_in_c2(demo_graph, demo_ds):
    rep = full_report(demo_ds)
    assert rep.cd_profile[2] >= 1
    assert classify(demo_graph, demo_ds).d == 2
    seen = []

    def visitor(g):
        if g == demo_graph:
            seen.append(g)

    enumerate_bigraphs(demo_ds, visitor=visitor)
    assert len(seen) == 1


def test_report_invariants_on_random_instances():
    # full_report asserts the route-reconciliation identities internally
    for ds in random_guarded_instances(50, seed=424242):
        full_report(ds)


def test_two_independent_count_routes():
    for ds in canonical_battery(max_space=9):
        assert enumerate_bigraphs(ds) == count_by_multiset(ds)
    for ds in canonical_battery():
        assert enumerate_bigraphs(ds) == count_b_dp(ds)


# The margin-class DP against the multiset brute force: every edge size the
# CLI's batteries use and more, and a random stream with zero degrees and
# instances whose k_max exceeds the column count m (no graph at all).
DP_INSTANCES = canonical_battery(rs=(2, 3, 4, 5)) + random_guarded_instances(
    60, seed=20261019, rs=(2, 3, 4, 5), max_space=12
)


def test_margin_dp_matches_multiset_brute_force():
    assert any(0 in ds.k for ds in DP_INSTANCES)
    assert any(ds.k_max > ds.edge_count() for ds in DP_INSTANCES)
    for ds in DP_INSTANCES:
        assert count_b_dp(ds) == count_by_multiset(ds), ds


def test_margin_dp_edge_cases_and_pins():
    count = exact_oracle.count_matrices_by_classes
    # the residuals must sum to r * m
    assert count(Counter({2: 3}), 3, 3) == 0
    assert count(Counter({2: 3}), 3, 1) == 0
    assert count(Counter({1: 3}), 3, 0) == 0
    # no row, no column: the empty matrix
    assert count(Counter(), 3, 0) == 1
    assert count(Counter({2: 0}), 4, 0) == 1
    # a row needing more columns than there are
    assert count(Counter({3: 1, 1: 3}), 3, 2) == 0
    # far past the search guard, recorded from the recursive DP this one
    # replaced: k = 2^300 (m = 200) by its digit count and SHA-256, and a
    # mixed sequence with m = 30
    big = str(count_b_dp(new_degree_sequence((2,) * 300, 3)))
    assert len(big) == 1162
    assert hashlib.sha256(big.encode()).hexdigest() == (
        "88fc63c1e080144445359f3a0faf1acb7958f066d4babc877febb9a01da09372"
    )
    mixed = new_degree_sequence((3,) * 10 + (2,) * 20 + (1,) * 20, 3)
    assert str(count_b_dp(mixed)) == (
        "33908411060284102490265405850835202763738273431641"
        "044716881530748443247000556759113583820800000000000"
    )


def test_hyper_class_profile_matches_bipartite_profile():
    for ds in canonical_battery(max_n=5, max_space=12):
        rep = full_report(ds)
        profile = hyper_class_profile(ds)
        fact = math.factorial(ds.edge_count())
        assert tuple(fact * c for c in profile) == rep.cd_profile, ds.k


def test_count_linear_fast_path_agrees():
    for ds in canonical_battery(max_n=5, max_space=12):
        assert count_hypergraphs(ds)[1] == reference_linear_count(ds)


def test_workers_do_not_change_totals():
    ds = new_degree_sequence((2, 3, 1, 2, 2, 2), 3)
    assert full_report(ds, workers=2) == full_report(ds)


def test_pool_is_clamped_to_tasks_and_cpus(monkeypatch, pool_sizes):
    sizes = pool_sizes
    ds = new_degree_sequence((2, 3, 1, 2, 2, 2), 3)  # 4 prefixes
    serial = full_report(ds)
    for cpus, workers in ((3, 64), (64, 64), (64, 2), (None, 64), (64, 1)):
        monkeypatch.setattr(_pool.os, "cpu_count", lambda: cpus)
        assert full_report(ds, workers=workers) == serial
    # min(workers, tasks, cpus); one process (or an unknown CPU count) runs
    # the sweep in-process
    assert sizes == [3, 4, 2]


def test_workers_deal_roots_round_robin(monkeypatch, pool_sizes):
    # min(workers, prefixes) tasks of one sweep each, so one worker is one
    # sweep; the roots are the two orbits that meet the class of degree 1,
    # each with the second columns that meet its lowest-residual group
    calls = []
    sweep = exact_oracle._sweep
    monkeypatch.setattr(exact_oracle, "_sweep", lambda ds, leaf, prefixes: (
        calls.append(prefixes), sweep(ds, leaf, prefixes)))
    monkeypatch.setattr(_pool.os, "cpu_count", lambda: 64)
    ds = new_degree_sequence((2, 3, 1, 2, 2, 2), 3)
    prefixes = exact_oracle._invariant_prefixes(ds)[0]
    assert prefixes == [((0b111, 0b1011), 2160), ((0b111, 0b11001), 2160),
                        ((0b1101, 0b10011), 2160), ((0b1101, 0b1011), 1080)]
    for workers, n_tasks in ((1, 1), (3, 3), (64, 4)):
        calls.clear()
        full_report(ds, workers=workers)
        assert calls == [prefixes[w::n_tasks] for w in range(n_tasks)], workers


def orbit_roots(k, r):
    """The first-column orbits under relabeling equal-degree vertices, with
    no class forced: ``_orbit_columns`` with the degree classes as groups."""
    return _orbit_columns(0, [sum(1 << j for j, v in enumerate(k) if v == d)
                              for d in sorted(set(k) - {0})], r)


def test_orbit_roots_partition_the_first_columns():
    # the orbit of a first column under relabeling equal-degree vertices is
    # fixed by its degree multiset; each root is its orbit's first candidate,
    # as a column mask, in no set order.
    # Besides the gate instances: a vertex of degree 0 at every position,
    # r = 2..5 with n up to 9, and the desk instances (2^8 at r = 4, the 3
    # of 3.2^6 at each of its seven places at r = 3)
    cases = [(ds.k, ds.r) for ds in GATE_INSTANCES] + [((2,) * 8, 4)]
    cases += [((2,) * i + (3,) + (2,) * (6 - i), 3) for i in range(7)]
    for r in range(2, 6):
        for base in ((3, 2, 2, 1, 1, 2, 1, 3), (1, 1, 1, 1, 1, 1, 1, 1), (4, 3, 2, 1)):
            cases += [(base[:i] + (0,) + base[i:], r) for i in range(len(base) + 1)]
        cases.append(((0, 2, 0, 2, 0, 1, 1, 0, 3), r))
    assert max(len(k) for k, _ in cases) == 9
    for k, r in cases:
        orbits = {}
        for combo in combinations(range(len(k)), r):
            degrees = tuple(sorted(k[j] for j in combo))
            if degrees[0] > 0:
                orbits.setdefault(degrees, [sum(1 << j for j in combo), 0])[1] += 1
        roots = orbit_roots(k, r)
        assert sorted(roots) == sorted(tuple(orbit) for orbit in orbits.values()), (k, r)
        n_pos = sum(1 for v in k if v > 0)
        assert sum(size for _, size in roots) == math.comb(n_pos, r), (k, r)


def test_second_columns_partition_the_feasible_second_columns():
    # under the relabelings of equal-degree vertices that fix a root, a
    # second column's orbit is fixed by how many of its vertices lie in each
    # class's part inside the root and outside it.  For each feasible root:
    # each listed column is its orbit's first candidate, with the orbit's
    # size, so the sizes sum to the number of feasible second columns (no
    # vertex of residual 0, every vertex of residual m - 1)
    cases = [((2,) * 8, 4)] + [((2,) * i + (3,) + (2,) * (6 - i), 3) for i in range(7)]
    for r in range(2, 6):
        for base in ((3, 2, 2, 1, 1, 2, 1, 3), (1,) * 8, (2,) * 8, (4, 3, 2, 1),
                     (4, 4, 3, 3, 2, 2, 1, 1), (3, 3, 3, 1, 1, 1)):
            cases += [(base[:i] + (0,) + base[i:], r) for i in range(len(base) + 1)]
    cases += [(ds.k, ds.r) for ds in random_guarded_instances(
        100, seed=20261022, max_n=9, rs=(2, 3, 4, 5), k_max=4)]
    cases = [(k, r) for k, r in cases if sum(k) % r == 0 and sum(k) >= 2 * r]
    assert max(len(k) for k, _ in cases) == 9
    assert {r for _, r in cases} == {2, 3, 4, 5}
    forced_seen = dropped_seen = 0
    for k, r in cases:
        m = sum(k) // r
        classes = [(d, sum(1 << j for j, v in enumerate(k) if v == d))
                   for d in sorted(set(k)) if d]
        for root in combinations(range(len(k)), r):
            residual = [v - (j in root) for j, v in enumerate(k)]
            if min(residual) < 0 or max(residual) > m - 1:
                continue
            forced = [j for j, v in enumerate(residual) if v == m - 1]
            orbits = {}
            for combo in combinations(range(len(k)), r):
                if min(residual[j] for j in combo) > 0 and set(forced) <= set(combo):
                    signature = tuple(sorted((k[j], j in root) for j in combo))
                    mask = sum(1 << j for j in combo)
                    orbits.setdefault(signature, [mask, 0])[1] += 1
            stabiliser = exact_oracle._stabiliser_groups(classes, sum(1 << j for j in root), m)
            assert stabiliser[0] == sum(1 << j for j in forced), (k, r, root)
            got = exact_oracle._orbit_columns(*stabiliser, r)
            assert sorted(got) == sorted(tuple(orbit) for orbit in orbits.values()), (k, r, root)
            groups = Counter((k[j], j in root) for j, v in enumerate(residual)
                             if 0 < v < m - 1)
            sizes = tuple(g.bit_count() for g in stabiliser[1])
            assert sorted(sizes) == sorted(groups.values()), (k, r, root)
            forced_seen += bool(forced)
            dropped_seen += any(k[j] == 1 for j in root)
    assert forced_seen and dropped_seen


@pytest.mark.parametrize("k, r", [((1, 1, 1, 0), 3), ((1, 0, 1), 2), ((0, 1, 1, 1, 1), 4)])
def test_rooted_sweep_skips_infeasible_roots_at_one_column(k, r):
    # at m = 1 a root is the whole graph: only the candidate covering every
    # positive-degree vertex, once each, is a leaf
    leaves = []
    prefixes = [((mask,), 1) for mask in exact_oracle._subset_masks(len(k), r)]
    exact_oracle._sweep(new_degree_sequence(k, r), lambda cols, w, distinct, d:
                        leaves.append((list(cols), w, distinct, d)), prefixes)
    assert leaves == [([sum(1 << j for j, v in enumerate(k) if v)], 1, True, 0)]


def test_rooted_sweep_over_every_candidate_counts_b():
    # each candidate as a root of orbit size 1: the roots split the labeled
    # graphs by first column, whether or not a root is feasible
    for ds in SMALL_GATE_INSTANCES:
        m = ds.edge_count()
        if m == 0:
            continue
        total = 0

        def leaf(cols, weight, distinct, d):
            nonlocal total
            total += weight

        prefixes = [((mask,), 1) for mask in exact_oracle._subset_masks(ds.n, ds.r)]
        exact_oracle._sweep(ds, leaf, prefixes)
        assert total == count_b_dp(ds), ds


def test_orbit_rooted_sweeps_skip_zero_degree_vertices(monkeypatch):
    # zero-degree vertices enter no column: the orbit-rooted callers sweep
    # the positive-degree vertices only, with the zero-free instance's counts
    swept_n = []
    sweep = exact_oracle._sweep
    monkeypatch.setattr(exact_oracle, "_sweep", lambda ds, leaf, prefixes: (
        swept_n.append(ds.n), sweep(ds, leaf, prefixes)))
    k = (2, 1, 2, 1, 1, 2)
    padded = new_degree_sequence((0,) * 30 + k[:3] + (0,) * 5 + k[3:] + (0,) * 30, 3)
    plain = new_degree_sequence(k, 3)
    for count in (
        full_report,
        hyper_class_profile,
        lambda ds: pattern_expectation(ds, Pattern.TWO_FOUR_CYCLES_SHARED_RIGHT),
        lambda ds: enumerate_bigraphs(ds, class_filter=ClassFilter.NO_FOUR_CYCLE),
    ):
        swept_n.clear()
        assert count(padded) == count(plain)
        assert swept_n == [len(k), len(k)]


def test_labeled_sweeps_skip_zero_degree_vertices(monkeypatch):
    # the labeled sweeps run on the positive-degree vertices and move each
    # column back into place; the relabeling is monotone, so the graphs and
    # their visiting order are the ordered reference sweep's.  A zero at
    # every position of three bases, and zeros at both ends and inside
    cases = [
        (base[:i] + (0,) + base[i:], r)
        for base, r in (((2, 2, 1, 1, 2), 2), ((2, 2, 1, 2, 1, 1), 3),
                        ((2, 2, 2, 2, 1, 1, 1, 1), 4))
        for i in range(len(base) + 1)
    ] + [((0, 2, 0, 2, 1, 0, 2, 1, 1, 0), 3)]
    for k, r in cases:
        ds = new_degree_sequence(k, r)
        for class_filter in ClassFilter:
            seen, want = [], []
            assert enumerate_bigraphs(ds, seen.append, class_filter) == (
                reference_enumerate(ds, want.append, class_filter)
            )
            assert seen == want, (k, r, class_filter)
        for limit in (1, 10):
            assert _first_switchable(ds, limit) == reference_spot_graphs(ds, limit), (k, r)
    # with 100 zeros the sweeps root at the one candidate over the positive
    # vertices, not at each of the C(103, 3) = 176,851 over all of them
    read = []
    sweep = exact_oracle._sweep
    monkeypatch.setattr(exact_oracle, "_sweep", lambda ds, leaf, prefixes: sweep(
        ds, leaf, (read.append(prefix) or prefix for prefix in prefixes)))
    ds = new_degree_sequence((1, 1, 1) + (0,) * 100, 3)
    seen = []
    assert enumerate_bigraphs(ds, seen.append) == 1
    assert seen == [BipartiteGraph(103, 1, [0b111])]
    assert _first_switchable(ds, 10) == []
    assert read == [((0b111,), 1), ((0b111,), 1)]


def test_no_column_instance_is_one_empty_leaf(monkeypatch):
    # m = 0: whatever the prefixes, the sweep's one leaf is the empty graph
    leaves = []
    sweep = exact_oracle._sweep

    def recording(ds, leaf, prefixes):
        def logged(cols, *rest):
            leaves.append((list(cols),) + rest)
            leaf(cols, *rest)
        sweep(ds, logged, prefixes)

    monkeypatch.setattr(exact_oracle, "_sweep", recording)
    ds = new_degree_sequence((0, 0, 0), 3)
    assert full_report(ds) == OracleReport(1, 1, 1, 1, 1, (1,))
    assert leaves == [([], 1, True, 0)]
    leaves.clear()
    visited = []
    assert enumerate_bigraphs(ds, visited.append) == 1
    assert [(g.n_left, g.cols) for g in visited] == [(3, ())]
    assert leaves == [([], 1, True, 0)]


def test_full_report_past_the_guard():
    # M = 18 and M = 20, one orbit each, pinned to the reports of the
    # unrooted multiset sweep (15 s and about 60 s to compute); |L| = 35,280 is
    # the dual-graph count n!/m! x (labeled cubic graphs on 6 nodes) = 504 x 70
    rep = full_report(new_degree_sequence((2,) * 9, 3), max_space=18)
    assert rep == OracleReport(
        count_b=90291600, count_b0=87998400, count_bplus=87998400,
        count_h=122220, count_l=35280,
        cd_profile=(25401600, 32659200, 24494400, 5443200) + (0,) * 21,
    )
    rep = full_report(new_degree_sequence((2,) * 10, 4), max_space=20)
    assert rep == OracleReport(
        count_b=56586600, count_b0=56397600, count_bplus=30844800,
        count_h=469980, count_l=30240,
        cd_profile=(3628800, 0, 27216000) + (0,) * 52,
    )


def test_full_report_far_past_the_guard():
    # M = 21 and M = 24, pinned to the reports of the sweep that rooted the
    # second column in non-decreasing order only (about 4 s and 10 s to
    # compute); orbit-rooting the second column takes about 1 s for both
    rep = full_report(new_degree_sequence((2,) * 10 + (1,), 3), max_space=21)
    assert rep == OracleReport(
        count_b=63932652000, count_b0=62773704000, count_bplus=62773704000,
        count_h=12455100, count_l=4082400,
        cd_profile=(20575296000, 25338096000, 13145328000, 3714984000) + (0,) * 21,
    )
    rep = full_report(new_degree_sequence((2,) * 12, 4), max_space=24)
    assert rep == OracleReport(
        count_b=154700988750, count_b0=154369908000, count_bplus=95201568000,
        count_h=214402650, count_l=9979200,
        cd_profile=(7185024000, 21555072000, 48498912000, 17962560000) + (0,) * 51,
    )


@pytest.mark.deep
def test_full_report_on_a_regular_instance_at_m24():
    # k = 2^12, r = 3 (M = 24): pinned to the report of the sweep that rooted
    # the second column in non-decreasing order only (135 s to compute);
    # 9-18 s with the second column orbit-rooted, 4-5 s once a fixed second
    # column must meet a vertex group inside the root.  Run with ``-m deep``
    ds = new_degree_sequence((2,) * 12, 3)
    rep = full_report(ds, max_space=24)
    assert rep.count_b == count_b_dp(ds) == 31082452632000
    assert rep == OracleReport(
        count_b=31082452632000, count_b0=30533358240000, count_bplus=30533358240000,
        count_h=757275750, count_l=229937400,
        cd_profile=(9271075968000, 12070840320000, 6689257344000, 2313577728000,
                    188606880000) + (0,) * 20,
    )


@pytest.mark.parametrize("multiset", [(), (4,), (2, 2, 2), (3, 0, 1, 1, 3), (3, 0, 1, 2), (5, 5, 7)])
def test_orderings_are_the_distinct_permutations(multiset):
    # a rooted multiset keeps its first entry and permutes the others
    want = sorted({multiset[:1] + p for p in permutations(multiset[1:])})
    # one more than wanted, so that a generator that never stops fails here
    assert list(_first_orderings([multiset], len(want) + 1)) == want


def test_first_orderings_merge_multisets_lazily(monkeypatch):
    # the merge draws one ordering per multiset plus at most ``limit`` more,
    # never the 16! and 16!/2 orderings of these two
    multisets = [tuple(range(16)), (1, 1) + tuple(range(2, 16))]
    drawn = 0
    orderings = exact_oracle._orderings

    def counting(multiset):
        nonlocal drawn
        for t in orderings(multiset):
            drawn += 1
            yield t

    monkeypatch.setattr(exact_oracle, "_orderings", counting)
    assert list(_first_orderings(multisets, 3)) == list(islice(permutations(range(16)), 3))
    assert drawn <= len(multisets) + 3


@pytest.mark.parametrize("r", [0, -1])
def test_battery_builders_reject_r_below_2(r):
    with pytest.raises(InvalidR, match=f"got {r}"):
        canonical_battery(rs=(r,))
    with pytest.raises(InvalidR, match=f"got {r}"):
        random_guarded_instances(3, seed=1, rs=(3, r))


def test_workers_below_one_rejected():
    ds = new_degree_sequence((1,) * 6, 3)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            full_report(ds, workers=workers)


def test_argument_errors_are_library_errors():
    # out-of-domain arguments raise InvalidArgument, which is both a
    # LinhyperError (exit 2 at the CLI) and, as before, a ValueError
    ds = new_degree_sequence((1,) * 6, 3)
    graph = BipartiteGraph(2, 1, [1])
    calls = [
        lambda: full_report(ds, workers=0),
        lambda: monte_carlo_girth(ds, seed=1, trials=4, workers=0),
        # one vertex cannot hold a column of three
        lambda: pattern_expectation(new_degree_sequence((3,), 3), Pattern.K32),
        lambda: SwitchTuple(u1=1, u2=1, w1=0, w2=3, f1=1, f2=2, g1=0, g2=3),
        lambda: switching_ratio(ds, 0),
        lambda: switching_ratio(new_degree_sequence((0, 0, 0), 3), 1),
        lambda: mckay_upper_bound([1, 1], [2], [1], [1]),  # sides mismatch
        lambda: mckay_upper_bound([1, 1], [3], [1, 0], [1]),  # host unbalanced
        lambda: mckay_upper_bound([1, 1], [2], [1, 0], [0]),  # subgraph unbalanced
        lambda: sum_bounds([1.0], [0.0, 0.0], 0.05),
        lambda: ds.moment(0),
        lambda: degree_sequence_from_json({"r": 3}),
        lambda: BipartiteGraph(2, 1, []),  # column count
        lambda: BipartiteGraph(-1, 0, []),  # negative vertex count
        lambda: BipartiteGraph(2, 1, [4]),  # mask past the left side
        lambda: BipartiteGraph.from_edges(2, 1, [(2, 0)]),
        lambda: BipartiteGraph.from_edges(2, 1, [(0, 0), (0, 0)]),
        lambda: graph.replace_edges(remove=[(1, 0)], add=[]),
        lambda: graph.replace_edges(remove=[], add=[(0, 0)]),
        lambda: graph.has_copy(0, 1),
        lambda: graph.distance(("v", 2), ("v", 0)),
        lambda: graph.distance(("e", 1), ("v", 0)),
        lambda: graph.distance(("x", 0), ("v", 0)),
        lambda: Hypergraph(2, [(0, 2)]),
        lambda: pattern_expectation(ds, "k33"),
        lambda: pattern_upper_bound(ds, "k33"),
        # a count that is not an int, an unknown filter or a negative seed:
        # once a bare TypeError, KeyError or ValueError, or accepted as given
        lambda: full_report(ds, workers=2.5),
        lambda: full_report(ds, workers=1.5),
        lambda: check_guard(ds, max_space="16"),
        lambda: check_guard(ds, max_space=16.5),
        lambda: enumerate_bigraphs(ds, class_filter="b0"),
        lambda: monte_carlo_girth(ds, seed=1, trials=2.5),
        lambda: monte_carlo_girth(ds, seed=1, trials=4, workers=1.5),
        lambda: monte_carlo_girth(ds, seed=1.5, trials=4),
        lambda: monte_carlo_girth(ds, seed=-1, trials=4),
        lambda: monte_carlo_girth(ds, seed=1, trials=True),
        lambda: switching_ratio(ds, 1.5),
    ]
    for call in calls:
        with pytest.raises(LinhyperError) as info:
            call()
        assert isinstance(info.value, InvalidArgument)
        assert isinstance(info.value, ValueError)


def test_full_report_matches_ordered_sweep():
    for ds in GATE_INSTANCES:
        assert full_report(ds) == reference_report(ds), ds


def test_enumerate_matches_ordered_sweep():
    # r = 2 has many multisets with repeated columns
    for ds in SMALL_GATE_INSTANCES + canonical_battery(rs=(2,), max_space=8):
        for class_filter in ClassFilter:
            assert enumerate_bigraphs(ds, class_filter=class_filter) == (
                reference_enumerate(ds, class_filter=class_filter)
            ), (ds, class_filter)
            seen, want = [], []
            enumerate_bigraphs(ds, seen.append, class_filter)
            reference_enumerate(ds, want.append, class_filter)
            assert seen == want, (ds, class_filter)


def test_hypergraph_counts_match_edge_set_sweep():
    for ds in GATE_INSTANCES:
        assert count_hypergraphs(ds) == reference_hypergraph_counts(ds), ds
        assert count_hypergraphs(ds)[1] == reference_linear_count(ds), ds
        assert hyper_class_profile(ds) == reference_class_profile(ds), ds


def test_pattern_expectation_matches_ordered_sweep():
    for ds in SMALL_GATE_INSTANCES:
        if count_b_dp(ds) == 0:
            continue
        for pattern in Pattern:
            assert pattern_expectation(ds, pattern) == (
                reference_pattern_expectation(ds, pattern)
            ), (ds, pattern)


@pytest.mark.parametrize("k, r, expected", [
    ((4, 4, 4, 2, 2, 2), 3, ("2725/4747", "6852/4747", "48024/4747", "6048/4747")),
    ((3, 2, 2, 2, 2, 1), 3, ("1/13", "0", "4/13", "0")),
    ((2,) * 8, 4, ("24/71", "0", "48/71", "0")),
])
def test_pattern_expectation_pins(k, r, expected):
    # the reference sweep reads the same 4-cycle lister, so pin exact values
    ds = new_degree_sequence(k, r)
    got = [pattern_expectation(ds, p, max_space=18) for p in Pattern]
    assert got == [Fraction(e) for e in expected]


def test_wrong_margin_dp_is_an_identity_violation(monkeypatch, capsys):
    monkeypatch.setattr(exact_oracle, "count_b_dp", lambda ds: count_b_dp(ds) + 1)
    with pytest.raises(InvariantViolation, match="margin-class DP"):
        full_report(new_degree_sequence((2, 3, 1, 2, 2, 2), 3))
    assert main(["exact", "-r", "3", "-k", "1,1,1,1,1,1"]) == 1
    assert "margin-class DP" in capsys.readouterr().err


def test_pattern_expectation_examples():
    assert pattern_expectation(new_degree_sequence((1,) * 6, 3), Pattern.K32) == 0
    assert pattern_expectation(new_degree_sequence((2, 2, 2), 3), Pattern.K32) == 1
    assert pattern_expectation(new_degree_sequence((3, 3, 3, 3), 3), Pattern.K23) == 0


def test_pattern_expectation_matches_margin_dp():
    for ds in canonical_battery(rs=(3,)):
        if enumerate_bigraphs(ds) == 0:
            continue
        assert pattern_expectation(ds, Pattern.K32) == k32_expectation_dp(ds)


def test_composite_pattern_counters_on_handmade_graphs():
    # two 4-cycles fused at one left and one right vertex (7 edges)
    fused = BipartiteGraph.from_edges(
        3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)]
    )
    assert _occurrences_from_cols(3, fused.cols, Pattern.TWO_FOUR_CYCLES_SHARED_RIGHT) == 1
    assert _occurrences_from_cols(3, fused.cols, Pattern.THREE_FOUR_CYCLES_FOUR_LEFT) == 0

    # two 4-cycles sharing only a right vertex (8 edges)
    shared = BipartiteGraph.from_edges(
        4, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]
    )
    assert _occurrences_from_cols(4, shared.cols, Pattern.TWO_FOUR_CYCLES_SHARED_RIGHT) == 1

    # two 4-cycles sharing both rights form a complete 3x2, not the fused shape
    k32 = BipartiteGraph(3, 2, [0b111, 0b111])
    assert _occurrences_from_cols(3, k32.cols, Pattern.TWO_FOUR_CYCLES_SHARED_RIGHT) == 0

    # triangle of three 4-cycles on three left vertices, six rights
    tri_edges = []
    for idx, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
        tri_edges += [(a, 2 * idx), (a, 2 * idx + 1), (b, 2 * idx), (b, 2 * idx + 1)]
    triangle = BipartiteGraph.from_edges(3, 6, tri_edges)
    assert _occurrences_from_cols(3, triangle.cols, Pattern.THREE_FOUR_CYCLES_FOUR_LEFT) == 1
    assert _occurrences_from_cols(3, triangle.cols, Pattern.TWO_FOUR_CYCLES_SHARED_RIGHT) == 0

    # chain of three 4-cycles over four lefts
    chain_edges = []
    for idx, (a, b) in enumerate(((0, 1), (1, 2), (2, 3))):
        chain_edges += [(a, 2 * idx), (a, 2 * idx + 1), (b, 2 * idx), (b, 2 * idx + 1)]
    chain = BipartiteGraph.from_edges(4, 6, chain_edges)
    assert _occurrences_from_cols(4, chain.cols, Pattern.THREE_FOUR_CYCLES_FOUR_LEFT) == 1

    # star: three 4-cycles through one left vertex -> five lefts would be 0;
    # here lefts are {0,1,2,3} so it counts
    star_edges = []
    for idx, (a, b) in enumerate(((0, 1), (1, 2), (1, 3))):
        star_edges += [(a, 2 * idx), (a, 2 * idx + 1), (b, 2 * idx), (b, 2 * idx + 1)]
    star = BipartiteGraph.from_edges(4, 6, star_edges)
    assert _occurrences_from_cols(4, star.cols, Pattern.THREE_FOUR_CYCLES_FOUR_LEFT) == 1

    # three pairwise disjoint 4-cycles span six lefts: not counted
    disjoint_edges = []
    for idx, (a, b) in enumerate(((0, 1), (2, 3), (4, 5))):
        disjoint_edges += [(a, 2 * idx), (a, 2 * idx + 1), (b, 2 * idx), (b, 2 * idx + 1)]
    disjoint = BipartiteGraph.from_edges(6, 6, disjoint_edges)
    assert _occurrences_from_cols(6, disjoint.cols, Pattern.THREE_FOUR_CYCLES_FOUR_LEFT) == 0


def test_pattern_bound_precondition_fails_at_desk_scale():
    ds = new_degree_sequence((2, 2, 2, 1, 1, 1), 3)
    with pytest.raises(PreconditionFailed):
        pattern_upper_bound(ds, Pattern.K32)


def test_pattern_bound_real_domination():
    ds = new_degree_sequence((3, 3, 2, 2, 2) + (1,) * 27, 3)  # degree sum 39
    exact = k32_expectation_dp(ds)
    bound = pattern_upper_bound(ds, Pattern.K32)
    assert 0 < exact <= bound


def test_empty_instance():
    rep = full_report(new_degree_sequence((0, 0), 3))
    assert rep.count_b == rep.count_h == rep.count_l == 1
    assert rep.cd_profile == (1,)


def test_full_report_not_divisible():
    with pytest.raises(NotDivisible):
        full_report(new_degree_sequence((1, 1, 1, 1), 3))


def test_battery_shape():
    battery = canonical_battery()
    assert all(ds.M % ds.r == 0 and ds.M <= 16 for ds in battery)
    assert all(ds.k == tuple(sorted(ds.k, reverse=True)) for ds in battery)
    assert len(battery) == len({(ds.r, ds.k) for ds in battery})
    rnd = random_guarded_instances(50, seed=1)
    assert len(rnd) == 50
    assert rnd == random_guarded_instances(50, seed=1)


def battery_verdict(ds, cols, n2=None):
    """(distinct, verdict) of the columns by the battery: the verdict is the
    4-cycle count of a well-behaved multiset, else None."""
    cls = _classification(tuple(cols), ds.four_cycle_cap if n2 is None else n2,
                          _four_cycles(ds.n, cols))
    return cls.in_b0, cls.d if cls.in_bplus else None


def test_sweep_leaves_match_unbounded_sweep():
    # the lowest-vertex bound prunes only subtrees without a leaf: the same
    # multisets reach ``leaf`` with the same weights in the same order,
    # rooted at the orbits and rooted at every candidate; the distinctness
    # and verdict carried down the sweep are those of the battery run on
    # each leaf's columns
    instances = canonical_battery(rs=(2, 3, 4)) + random_guarded_instances(
        160, seed=20261019, rs=(2, 3, 4, 5)
    )
    assert any(ds.r == 5 for ds in instances)
    assert any(0 in ds.k for ds in instances)
    # the prefix loop closes m = 1 and m = 2 itself
    assert {1, 2} <= {ds.edge_count() for ds in instances}
    deep = []
    for ds in instances:
        m = ds.edge_count()
        every = [(mask, 1) for mask in exact_oracle._subset_masks(ds.n, ds.r)]
        for roots in (orbit_roots(ds.k, ds.r), every):
            got, want = [], []
            exact_oracle._sweep(
                ds,
                lambda c, w, distinct, d: got.append((tuple(c), w, distinct, d)),
                [((mask,), scale) for mask, scale in roots],
            )
            reference_multiset_sweep(
                ds.k, ds.r, m,
                lambda c, w: want.append((tuple(c), w) + battery_verdict(ds, c)),
                roots=roots,
            )
            assert got == want, (ds, roots)
            if m >= 3:
                deep += [c for c, _, _, _ in got]
    # with m >= 3 the last two columns come from the two-column loop: some
    # leaves end in a run of equal columns, one continuing from the column
    # before; and some end in x < y, both holding x's lowest vertex, so y
    # was a candidate beside x whose read-off partner x comes before it
    assert any(c[-1] == c[-2] for c in deep)
    assert any(c[-1] == c[-2] == c[-3] for c in deep if len(c) > 3)
    assert any(c[-2] != c[-1] and c[-2] & -c[-2] & c[-1] for c in deep)


def test_second_column_orbits_keep_every_total(monkeypatch):
    # fixing the second column to one column per orbit of the root's
    # stabiliser, and keeping only the first and second columns that meet
    # one vertex group, weighted by the overlap, change the leaves but no
    # total: each count equals the one with either group choice switched
    # off, and the one from one-column prefixes of the same kept roots,
    # which sweep the other m - 1 columns as a multiset; each group choice
    # is taken on some instance and skipped on another.  The pattern,
    # hypergraph and enumerated counts, slow where there are many leaves,
    # are compared inside the default guard with m <= 6
    instances = [(ds, DEFAULT_MAX_SPACE) for ds in canonical_battery(rs=(2, 3, 4, 5))
                 + random_guarded_instances(60, seed=20261022, rs=(2, 3, 4, 5))
                 + random_guarded_instances(200, seed=20261023, max_n=9,
                                            rs=(2, 3, 4, 5), k_max=4)]
    instances += [(new_degree_sequence((2,) * i + (3,) + (2,) * (6 - i), 3), 16)
                  for i in range(7)]
    instances += [(new_degree_sequence((2,) * 8, 4), 16),
                  (new_degree_sequence((2,) * 9, 3), 18),
                  (new_degree_sequence((2,) * 10, 4), 20)]
    assert any(0 in ds.k for ds, _ in instances)
    assert {ds.edge_count() >= 4 for ds, _ in instances} == {False, True}

    def totals(ds, max_space):
        report = full_report(ds, max_space=max_space)
        if ds.edge_count() > 6 or ds.M > DEFAULT_MAX_SPACE:
            return report
        patterns = [pattern_expectation(ds, p, max_space=max_space) for p in Pattern
                    if report.count_b]
        counts = [enumerate_bigraphs(ds, class_filter=f, max_space=max_space)
                  for f in ClassFilter]
        return report, patterns, hyper_class_profile(ds, max_space=max_space), counts

    # each group chooser's answers; 0 switches its group off
    choosers = ("_root_group", "_second_group")
    taken = {name: [] for name in choosers}
    for name, calls in taken.items():
        monkeypatch.setattr(exact_oracle, name, lambda *args, choose=getattr(
            exact_oracle, name), calls=calls: calls.append(choose(*args)) or calls[-1])
    rooted = [totals(*case) for case in instances]
    for name in choosers:
        assert 0 in taken[name] and any(taken[name]), name
    # a kept root alone, its weight times D, for the two-column prefixes
    # that ``_second_prefixes`` gives it at m >= 4
    switches = {
        "_root_group": lambda *args: 0,
        "_second_group": lambda *args: 0,
        "_second_prefixes": lambda ds, classes, root, weight: [
            ((root,), weight * exact_oracle._second_scale(ds.r, ds.edge_count()))],
    }
    # one way off at a time, then all three
    for off in [{name: switch} for name, switch in switches.items()] + [switches]:
        with monkeypatch.context() as patch:
            for name, switch in off.items():
                patch.setattr(exact_oracle, name, switch)
            for case, want in zip(instances, rooted):
                assert totals(*case) == want, (list(off), case)


def corrupted_prefixes(monkeypatch, at: int) -> None:
    """Raise the weight of prefix ``at`` of every invariant sweep by one."""
    prefixes_of = exact_oracle._invariant_prefixes

    def corrupted(ds):
        prefixes, num, den = prefixes_of(ds)
        fixed, weight = prefixes[at]
        return prefixes[:at] + [(fixed, weight + 1)] + prefixes[at + 1:], num, den

    monkeypatch.setattr(exact_oracle, "_invariant_prefixes", corrupted)


@pytest.mark.parametrize("k, r, match", [
    ((2, 2, 2, 2, 1, 1, 1, 1), 4, "4 does not divide a rescaled total = 1782"),
    ((2, 2, 2, 2, 1), 3, "42 from the column sweep != 36"),
])
def test_corrupted_root_weight_is_an_identity_violation(monkeypatch, k, r, match):
    # the first prefix's weight off by one: the rescaled totals are not
    # whole (the rescale checks its division) or |B| is not the margin-class
    # DP's, and ``exact`` exits 1
    corrupted_prefixes(monkeypatch, 0)
    with pytest.raises(InvariantViolation, match=match):
        full_report(new_degree_sequence(k, r))
    assert main(["exact", "-r", str(r), "-k", ",".join(map(str, k))]) == 1


def test_corrupted_prefix_weight_fails_every_invariant_count(monkeypatch):
    # the counts without a report of their own check the weight of all
    # their leaves, rescaled, against |B| too: with one prefix's weight off
    # by one, each raises wherever that changes the swept weight
    counts = (enumerate_bigraphs, hyper_class_profile,
              lambda ds: pattern_expectation(ds, Pattern.K32))
    changed = 0
    for ds in canonical_battery(rs=(3, 4)):
        prefixes = exact_oracle._invariant_prefixes(ds)[0]
        for at in {0, len(prefixes) // 2, len(prefixes) - 1} if prefixes else ():
            weights = []
            exact_oracle._sweep(ds, lambda c, w, distinct, d: weights.append(w),
                                prefixes[at:at + 1])
            if not weights:
                continue
            changed += 1
            with monkeypatch.context() as patch:
                corrupted_prefixes(patch, at)
                for count in counts:
                    with pytest.raises(InvariantViolation):
                        count(ds)
    assert changed >= 35


def full_report_leaves(monkeypatch, instances) -> int:
    """The leaves the sweeps of ``full_report`` reach on ``instances``."""
    leaves = 0
    sweep = exact_oracle._sweep

    def counting(ds, leaf, prefixes):
        def counted(*args):
            nonlocal leaves
            leaves += 1
            leaf(*args)
        sweep(ds, counted, prefixes)

    monkeypatch.setattr(exact_oracle, "_sweep", counting)
    for ds in instances:
        full_report(ds)
    return leaves


@pytest.mark.parametrize("k, r, most", [((3,) + (2,) * 6, 3, 44), ((2,) * 8, 4, 15)])
def test_desk_sweeps_reach_few_leaves(monkeypatch, k, r, most):
    # the benchmark's two ``exact`` instances: 211 and 50 leaves before the
    # rooted columns had to meet a vertex group
    assert 0 < full_report_leaves(monkeypatch, [new_degree_sequence(k, r)]) <= most


# every edge size of the batteries, and a random stream with zero degrees
LEAF_GATE = canonical_battery(rs=(2, 3, 4, 5)) + random_guarded_instances(200, seed=1)


def test_gate_sweeps_reach_few_leaves(monkeypatch):
    # 1,477 leaves while a tuned rule chose the roots that fix a second
    # column; every kept root fixes one at m >= 4 now
    assert full_report_leaves(monkeypatch, LEAF_GATE) <= 1019


def test_invariant_roots_hold_every_vertex_of_degree_m():
    # the class of degree m is forced into every root, so every prefix is
    # feasible; k=(4, 3, 2, 2, 1), r=3 had a root without vertex 0
    held = 0
    for ds in LEAF_GATE + [new_degree_sequence((4, 3, 2, 2, 1), 3)]:
        swept = exact_oracle._without_zeros(ds)
        m = swept.edge_count()
        top = sum(1 << j for j, v in enumerate(swept.k) if v == m)
        prefixes = exact_oracle._invariant_prefixes(swept)[0]
        assert all(fixed[0] & top == top for fixed, _ in prefixes), ds
        held += bool(top and prefixes)
    assert held


def _cols(*columns):
    return [sum(1 << j for j in column) for column in columns]


# Hand-made multisets, each aimed at one way to fail; (i) and (ii) always
# fail (iii) and (iv) too, since a K_{3,2} puts three 4-cycles on one right
# pair and a K_{2,3} three on one left pair.  (v) fails on no instance
# inside the default guard (M <= 16): a graph passing (iii) has at most
# m/2 <= 4 4-cycles, and n2 >= 3 ceil(log M) >= 6 for M >= 3, so its cap is
# set by hand.
HAND_MADE = [
    # (columns, r, n2 or None for the instance's cap, failed, verdict)
    (_cols((0, 1, 2, 3), (0, 1, 2, 4)), 4, None, {"i", "iii", "iv"}, None),
    (_cols((0, 1, 2), (0, 1, 3), (0, 1, 4)), 3, None, {"ii", "iii", "iv"}, None),
    (_cols((0, 1, 2), (0, 1, 3), (1, 2, 4)), 3, None, {"iii"}, None),
    # three 4-cycles on left pairs spanning four left vertices, then five
    (_cols((0, 1, 4), (0, 1, 5), (2, 3, 6), (2, 3, 7), (0, 2, 8), (0, 2, 9)),
     3, None, {"iv"}, None),
    (_cols((0, 1, 5), (0, 1, 6), (2, 3, 7), (2, 3, 8), (0, 4, 9), (0, 4, 10)),
     3, None, set(), 3),
    (_cols((0, 1, 2), (0, 1, 3), (4, 5, 6), (4, 5, 7)), 3, 1, {"v"}, None),
    (_cols((0, 1, 2), (0, 1, 3), (4, 5, 6), (4, 5, 7)), 3, None, set(), 2),
    (_cols((0, 1, 2), (0, 1, 3), (2, 3, 4)), 3, None, set(), 1),
    # r = 2: two equal columns are one 4-cycle that passes (i)-(v)
    (_cols((0, 1), (0, 1)), 2, None, set(), None),
]


@pytest.mark.parametrize("cols, r, n2, failed, verdict", HAND_MADE)
def test_sweep_verdict_on_hand_made_multisets(cols, r, n2, failed, verdict):
    k = tuple(sum(c >> j & 1 for c in cols) for j in range(max(cols).bit_length()))
    ds = new_degree_sequence(k, r)
    cap = ds.four_cycle_cap if n2 is None else n2
    cls = _classification(tuple(cols), cap, _four_cycles(ds.n, cols))
    assert cls.failed_properties == failed
    distinct = len(set(cols)) == len(cols)
    assert battery_verdict(ds, cols, cap) == (distinct, verdict)
    # the verdict carried by pushes does not depend on the push order
    for order in set(permutations(cols)):
        state = ((), 0)
        for i, c in enumerate(order):
            if state is not None:
                state = _push_verdict(order[:i], c, state, cap)
        assert (None if state is None else len(state[0])) == verdict, order
    # and the sweep gives the multiset that verdict, where the cap is the
    # instance's and the sweep is small
    if n2 is None and ds.M <= 12:
        leaves = {}
        exact_oracle._sweep(
            ds,
            lambda c, w, dist, d: leaves.setdefault(tuple(sorted(c)), (dist, d)),
            [((mask,), 1) for mask in exact_oracle._subset_masks(ds.n, r)],
        )
        assert leaves[tuple(sorted(cols))] == (distinct, verdict)
