"""Independent reference oracles used by the tests.

Everything here recomputes quantities by a route different from the library
code it checks: naive all-pairs scans, column-multiset enumeration, the
ordered column sweep and the edge-set sweep the exact oracle used before its
symmetry-reduced sweep, that sweep as it was before its lowest-vertex bound,
and a transformation-based counter for the 2-regular scaling family.  The margin-class dynamic program is re-exported from the
library, where it cross-checks every ``full_report``.
"""
from __future__ import annotations

import math
from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from linhyper import (
    BipartiteGraph,
    ClassFilter,
    DegreeSequence,
    OracleReport,
    Pattern,
)
from linhyper.bigraph_core import _bits, _classification, _four_cycles
from linhyper.exact_oracle import (  # noqa: F401  (count_b_dp is re-exported)
    _occurrences_from_cols,
    _subset_masks,
    count_b_dp,
    count_matrices_by_classes,
)


def naive_four_cycles(graph: BipartiteGraph) -> list[tuple[int, int, int, int]]:
    """O(n^2 m^2) all-pairs 4-cycle scan."""
    out = []
    for j1, j2 in combinations(range(graph.n_left), 2):
        for i1, i2 in combinations(range(graph.n_right), 2):
            if (
                graph.has_edge(j1, i1)
                and graph.has_edge(j1, i2)
                and graph.has_edge(j2, i1)
                and graph.has_edge(j2, i2)
            ):
                out.append((j1, j2, i1, i2))
    return out


def all_pairs_distances(graph: BipartiteGraph) -> dict:
    """BFS from every vertex; keys are ("v", j) / ("e", i) vertex tags."""
    verts = [("v", j) for j in range(graph.n_left)] + [
        ("e", i) for i in range(graph.n_right)
    ]
    dist = {}
    for start in verts:
        d = {start: 0}
        queue = deque([start])
        while queue:
            side, idx = queue.popleft()
            nd = d[(side, idx)] + 1
            if side == "v":
                nbrs = [("e", i) for i in _bits(graph.rows[idx])]
            else:
                nbrs = [("v", j) for j in _bits(graph.cols[idx])]
            for nxt in nbrs:
                if nxt not in d:
                    d[nxt] = nd
                    queue.append(nxt)
        dist[start] = d
    return dist


def count_by_multiset(ds: DegreeSequence) -> int:
    """Conforming-graph count via unordered column multisets times the
    multinomial number of column orderings."""
    n, r = ds.n, ds.r
    m = ds.edge_count()
    cands = []
    for combo in combinations(range(n), r):
        mask = 0
        for v in combo:
            mask |= 1 << v
        cands.append(mask)
    total = 0
    for chosen in combinations_with_replacement(cands, m):
        deg = [0] * n
        for mask in chosen:
            for j in _bits(mask):
                deg[j] += 1
        if tuple(deg) == ds.k:
            mult = Counter(chosen)
            ways = math.factorial(m)
            for c in mult.values():
                ways //= math.factorial(c)
            total += ways
    return total


def k32_expectation_dp(ds: DegreeSequence) -> Fraction:
    """Exact expected number of complete 3x2 subgraph copies for r = 3.

    Works at degree sums far beyond the enumeration guard: for r = 3 a column
    containing a fixed left triple equals that triple, so both pattern columns
    are fully determined and the remaining columns are a plain margin count.
    """
    r, m = ds.r, ds.edge_count()
    if r != 3:
        raise ValueError("closed-form placement reduction implemented for r=3 only")
    total_b = count_b_dp(ds)
    if total_b == 0:
        raise ValueError("no conforming graphs")
    classes = Counter(v for v in ds.k if v > 0)
    total = Fraction(0)
    degs = sorted(set(v for v in ds.k if v >= 2))
    for trip in combinations_with_replacement(degs, 3):
        trip_mult = Counter(trip)
        ways = 1
        for deg, cnt in trip_mult.items():
            ways *= math.comb(classes[deg], cnt)
        if ways == 0:
            continue
        reduced = Counter(classes)
        for deg, cnt in trip_mult.items():
            reduced[deg] -= cnt
            if deg - 2 > 0:
                reduced[deg - 2] += cnt
        reduced = Counter({res: c for res, c in reduced.items() if c > 0 and res > 0})
        completions = count_matrices_by_classes(reduced, r, m - 2)
        total += Fraction(math.comb(m, 2) * ways * completions, total_b)
    return total


@lru_cache(maxsize=None)
def regular_multigraph_counts(m: int, degree: int = 3, max_doubles: int = 1):
    """Vertex-labeled loopless multigraphs on m vertices, all degrees equal,
    multiplicities at most 2, counted by number of doubled pairs.

    For a 2-regular degree sequence, hypergraphs correspond to these
    multigraphs on the edge set (hypergraph vertices become multigraph edges,
    double links become doubled pairs), giving exact 4-cycle-class counts far
    beyond the enumeration guard:  |C_d| = n! * S_d / 2^d.
    """

    @lru_cache(maxsize=None)
    def count_from(residuals):
        if not residuals:
            return (1,) + (0,) * max_doubles
        need = residuals[0]
        rest = residuals[1:]
        if need == 0:
            return count_from(rest)
        if not rest:
            return (0,) * (max_doubles + 1)
        total = [0] * (max_doubles + 1)
        caps = list(rest)

        def assign(idx, left, doubles):
            if left == 0:
                sub = count_from(tuple(caps))
                for dd in range(max_doubles + 1 - doubles):
                    total[dd + doubles] += sub[dd]
                return
            if idx == len(caps):
                return
            cap = min(2, left, caps[idx])
            for mult in range(cap + 1):
                caps[idx] -= mult
                assign(idx + 1, left - mult, doubles + (1 if mult == 2 else 0))
                caps[idx] += mult

        assign(0, need, 0)
        return tuple(total)

    return count_from(tuple([degree] * m))


def count_simple_graphs_with_degrees(deg, forbidden=frozenset()) -> int:
    """Simple labeled graphs with the given degrees, avoiding forbidden pairs.

    Third, fully independent route used to validate the multigraph counter:
    a doubled pair plus a simple completion avoiding that pair realizes each
    one-double multigraph exactly once.
    """
    n = len(deg)
    residual = list(deg)
    count = 0

    def rec(v):
        nonlocal count
        if v == n:
            count += 1
            return
        need = residual[v]
        later = [
            w
            for w in range(v + 1, n)
            if residual[w] > 0 and (v, w) not in forbidden
        ]
        if need > len(later):
            return
        for chosen in combinations(later, need):
            for w in chosen:
                residual[w] -= 1
            residual[v] = 0
            rec(v + 1)
            residual[v] = need
            for w in chosen:
                residual[w] += 1

    rec(0)
    return count


def sweep_switchings(ds: DegreeSequence, spot_check_every: int = 211):
    """Exhaustive switching audit of one instance.

    Enumerates every conforming graph; for each well-behaved one, every
    suitable 8-tuple defining a forward switch (4-cycle present in all four
    orderings plus the two pendant edges) and every suitable 8-tuple defining
    a reverse switch (the six required edges present).  For each tuple it
    evaluates the explanatory illegality conditions from precomputed
    distances, establishes ground-truth legality by rewiring and
    reclassifying, and checks the round trip.  Every ``spot_check_every``-th
    tuple is also routed through the public check_forward / check_reverse
    for agreement.

    Returns (stats, legal_forward_by_d, legal_reverse_by_d); the two count
    the same legal (B, B', T) triples from both ends, so matching totals per
    d are a strong correctness check.
    """
    from linhyper import SwitchTuple, check_forward, check_reverse

    n2 = ds.thresholds().n2
    graphs_by_d: dict[int, list] = {}

    def collect(graph):
        cls = _classification(graph.cols, n2, _four_cycles(graph.n_left, graph.cols))
        if cls.in_bplus:
            graphs_by_d.setdefault(cls.d, []).append((graph, cls.four_cycles))

    reference_enumerate(ds, collect)

    stats = Counter()
    legal_fwd: Counter = Counter()
    legal_rev: Counter = Counter()

    for d, items in sorted(graphs_by_d.items()):
        for graph, cycles in items:
            dist = all_pairs_distances(graph)
            edges = graph.edges()
            rights_on = {i for c in cycles for i in c.right_pair}
            lefts_on = {j for c in cycles for j in c.left_pair}

            def dist_le3(j, i):
                dd = dist[("v", j)].get(("e", i))
                return dd is not None and dd <= 3

            if d >= 1:
                for (a, b), (x, y) in cycles:
                    for u1, u2, f1, f2 in (
                        (a, b, x, y),
                        (a, b, y, x),
                        (b, a, x, y),
                        (b, a, y, x),
                    ):
                        for w1, g1 in edges:
                            if w1 in (u1, u2) or g1 in (f1, f2):
                                continue
                            for w2, g2 in edges:
                                if w2 in (u1, u2, w1) or g2 in (f1, f2, g1):
                                    continue
                                stats["forward_tuples"] += 1
                                conds = set()
                                if g1 in rights_on or g2 in rights_on:
                                    conds.add("I")
                                if (
                                    dist_le3(u1, g1)
                                    or dist_le3(u2, g2)
                                    or dist_le3(w1, f1)
                                    or dist_le3(w2, f2)
                                ):
                                    conds.add("II")
                                if dist[("e", g1)].get(("e", g2)) == 2:
                                    conds.add("III")
                                applicable = not (
                                    graph.has_edge(u1, g1)
                                    or graph.has_edge(u2, g2)
                                    or graph.has_edge(w1, f1)
                                    or graph.has_edge(w2, f2)
                                )
                                legal = False
                                if applicable:
                                    switched = graph.replace_edges(
                                        remove=[(u1, f1), (u2, f2), (w1, g1), (w2, g2)],
                                        add=[(u1, g1), (u2, g2), (w1, f1), (w2, f2)],
                                    )
                                    c2 = _classification(switched.cols, n2, _four_cycles(
                                        switched.n_left, switched.cols))
                                    legal = not c2.failed_properties and c2.d == d - 1
                                    back = switched.replace_edges(
                                        remove=[(u1, g1), (u2, g2), (w1, f1), (w2, f2)],
                                        add=[(u1, f1), (u2, f2), (w1, g1), (w2, g2)],
                                    )
                                    if back != graph:
                                        stats["involution_failures"] += 1
                                if legal:
                                    legal_fwd[d] += 1
                                if not legal and not conds:
                                    stats["unexplained_illegal"] += 1
                                if applicable and stats["forward_tuples"] % spot_check_every == 0:
                                    t = SwitchTuple(u1, u2, w1, w2, f1, f2, g1, g2)
                                    verdict = check_forward(graph, t)
                                    if verdict.legal != legal:
                                        stats["api_mismatches"] += 1
            if d + 1 <= n2:
                row_nbrs = [tuple(_bits(r)) for r in graph.rows]
                col_nbrs = [tuple(_bits(c)) for c in graph.cols]
                for u1 in range(graph.n_left):
                    for gg1 in row_nbrs[u1]:
                        for f2 in row_nbrs[u1]:
                            if f2 == gg1:
                                continue
                            for u2 in range(graph.n_left):
                                if u2 == u1:
                                    continue
                                for gg2 in row_nbrs[u2]:
                                    if gg2 in (gg1, f2):
                                        continue
                                    for f1 in row_nbrs[u2]:
                                        if f1 in (gg1, gg2, f2):
                                            continue
                                        for w1 in col_nbrs[f1]:
                                            if w1 in (u1, u2):
                                                continue
                                            for w2 in col_nbrs[f2]:
                                                if w2 in (u1, u2, w1):
                                                    continue
                                                stats["reverse_tuples"] += 1
                                                conds = set()
                                                if (
                                                    u1 in lefts_on
                                                    or u2 in lefts_on
                                                    or f1 in rights_on
                                                    or f2 in rights_on
                                                    or gg1 in rights_on
                                                    or gg2 in rights_on
                                                ):
                                                    conds.add("I'")
                                                if (
                                                    dist_le3(u1, f1)
                                                    or dist_le3(u2, f2)
                                                    or dist_le3(w1, gg1)
                                                    or dist_le3(w2, gg2)
                                                ):
                                                    conds.add("II'")
                                                applicable = not (
                                                    graph.has_edge(u1, f1)
                                                    or graph.has_edge(u2, f2)
                                                    or graph.has_edge(w1, gg1)
                                                    or graph.has_edge(w2, gg2)
                                                )
                                                legal = False
                                                if applicable:
                                                    switched = graph.replace_edges(
                                                        remove=[
                                                            (u1, gg1),
                                                            (u2, gg2),
                                                            (w1, f1),
                                                            (w2, f2),
                                                        ],
                                                        add=[
                                                            (u1, f1),
                                                            (u2, f2),
                                                            (w1, gg1),
                                                            (w2, gg2),
                                                        ],
                                                    )
                                                    c3 = _classification(
                                                        switched.cols, n2, _four_cycles(
                                                            switched.n_left, switched.cols))
                                                    legal = (
                                                        not c3.failed_properties
                                                    ) and c3.d == d + 1
                                                    back = switched.replace_edges(
                                                        remove=[
                                                            (u1, f1),
                                                            (u2, f2),
                                                            (w1, gg1),
                                                            (w2, gg2),
                                                        ],
                                                        add=[
                                                            (u1, gg1),
                                                            (u2, gg2),
                                                            (w1, f1),
                                                            (w2, f2),
                                                        ],
                                                    )
                                                    if back != graph:
                                                        stats["involution_failures"] += 1
                                                if legal:
                                                    legal_rev[d + 1] += 1
                                                if not legal and not conds:
                                                    stats["unexplained_illegal"] += 1
                                                if (
                                                    applicable
                                                    and stats["reverse_tuples"]
                                                    % spot_check_every
                                                    == 0
                                                ):
                                                    t = SwitchTuple(
                                                        u1, u2, w1, w2, f1, f2, gg1, gg2
                                                    )
                                                    verdict = check_reverse(graph, t)
                                                    if verdict.legal != legal:
                                                        stats["api_mismatches"] += 1
    return stats, dict(legal_fwd), dict(legal_rev)


def scaling_family_ratio(n: int) -> Fraction | None:
    """Exact |C_1| / |C_0| for the 2-regular, edge-size-3 family, or None
    when |C_0| = 0."""
    if n % 3 != 0:
        raise ValueError("family needs 3 | n so that 3 | M = 2n")
    m = 2 * n // 3
    s0, s1 = regular_multigraph_counts(m)
    if s0 == 0:
        return None
    return Fraction(s1, 2 * s0)


# --- The exact oracle's sweeps before the symmetry reduction ---------------
#
# ``_column_sweep`` visits every ordered column tuple and ``_hyper_sweep``
# every edge set, as the library did before one non-decreasing sweep
# replaced them.  The ``reference_*`` functions below rebuild the library's
# exact-count API on them, so the equivalence tests compare the weighted
# sweep with full enumeration.


def _column_sweep(k, r, m, leaf, prefix=(), b0_prune=False, no4_prune=False):
    """Visit every ordered column tuple conforming to (k, r).

    Columns are filled left to right, each chosen as an r-subset of the
    vertices with positive residual degree, in lexicographic order; pruning
    keeps max residual <= remaining columns and forces vertices whose
    residual equals the number of remaining columns into the current column.
    """
    n = len(k)
    cands = _subset_masks(n, r)
    residual = list(k)
    cols: list[int] = []
    seen: set[int] = set()

    for mask in prefix:
        for j in _bits(mask):
            residual[j] -= 1
            if residual[j] < 0:
                raise ValueError("infeasible sweep prefix")
        cols.append(mask)
        if b0_prune:
            seen.add(mask)

    def rec(depth: int) -> None:
        if depth == m:
            leaf(cols)
            return
        remaining = m - depth
        forced = 0
        zero = 0
        for j in range(n):
            v = residual[j]
            if v == remaining:
                forced |= 1 << j
            elif v == 0:
                zero |= 1 << j
        if forced.bit_count() > r:
            return
        for mask in cands:
            if mask & zero:
                continue
            if mask & forced != forced:
                continue
            if b0_prune and mask in seen:
                continue
            if no4_prune and any((mask & c).bit_count() >= 2 for c in cols):
                continue
            for j in _bits(mask):
                residual[j] -= 1
            if max(residual, default=0) <= remaining - 1:
                cols.append(mask)
                if b0_prune:
                    seen.add(mask)
                rec(depth + 1)
                if b0_prune:
                    seen.discard(mask)
                cols.pop()
            for j in _bits(mask):
                residual[j] += 1

    rec(len(prefix))


def _hyper_sweep(ds: DegreeSequence, leaf, linear_only: bool = False) -> None:
    """Visit sets of m distinct r-subsets with the given degree sum.

    Edges are generated in strictly increasing lexicographic order, so every
    simple hypergraph is reached exactly once.  ``leaf`` receives
    (edge_tuples, edge_masks, pair_count, violations) where ``violations``
    counts repeated vertex-pair usages (zero iff the hypergraph is linear).
    """
    n, r = ds.n, ds.r
    m = ds.edge_count()
    combos = list(combinations(range(n), r))
    masks = _subset_masks(n, r)
    ncand = len(combos)
    residual = list(ds.k)
    pair_count: Counter = Counter()
    edge_stack: list[tuple[int, ...]] = []
    mask_stack: list[int] = []

    def rec(depth: int, start: int, violations: int) -> None:
        if depth == m:
            leaf(edge_stack, mask_stack, pair_count, violations)
            return
        remaining = m - depth
        forced = 0
        zero = 0
        for j in range(n):
            v = residual[j]
            if v == remaining:
                forced |= 1 << j
            elif v == 0:
                zero |= 1 << j
        if forced.bit_count() > r:
            return
        for idx in range(start, ncand):
            mask = masks[idx]
            if mask & zero or mask & forced != forced:
                continue
            combo = combos[idx]
            for j in combo:
                residual[j] -= 1
            if max(residual, default=0) <= remaining - 1:
                viol_add = 0
                pairs = list(combinations(combo, 2))
                for p in pairs:
                    if pair_count[p]:
                        viol_add += 1
                    pair_count[p] += 1
                if not (linear_only and violations + viol_add > 0):
                    edge_stack.append(combo)
                    mask_stack.append(mask)
                    rec(depth + 1, idx + 1, violations + viol_add)
                    edge_stack.pop()
                    mask_stack.pop()
                for p in pairs:
                    pair_count[p] -= 1
            for j in combo:
                residual[j] += 1

    rec(0, 0, 0)


def reference_enumerate(ds: DegreeSequence, visitor=None,
                        class_filter: ClassFilter = ClassFilter.ALL) -> int:
    """``enumerate_bigraphs`` by the ordered sweep: one leaf per labeled graph."""
    m, n, n2 = ds.edge_count(), ds.n, ds.four_cycle_cap
    count = 0

    def leaf(cols) -> None:
        nonlocal count
        if class_filter is ClassFilter.BPLUS:
            if not _classification(tuple(cols), n2, _four_cycles(n, cols)).in_bplus:
                return
        count += 1
        if visitor is not None:
            visitor(BipartiteGraph(n, m, list(cols)))

    _column_sweep(ds.k, ds.r, m, leaf, b0_prune=class_filter is ClassFilter.B0,
                  no4_prune=class_filter is ClassFilter.NO_FOUR_CYCLE)
    return count


def reference_hypergraph_counts(ds: DegreeSequence) -> tuple[int, int]:
    """(|H|, |L|) by the edge-set sweep, linearity read from its pair counts."""
    counts = [0, 0]

    def leaf(edges, masks, pair_count, violations) -> None:
        counts[0] += 1
        if violations == 0:
            counts[1] += 1

    _hyper_sweep(ds, leaf)
    return counts[0], counts[1]


def reference_linear_count(ds: DegreeSequence) -> int:
    """|L| by the edge-set sweep with linearity as a prune."""
    count = 0

    def leaf(edges, masks, pair_count, violations) -> None:
        nonlocal count
        count += 1

    _hyper_sweep(ds, leaf, linear_only=True)
    return count


def reference_class_profile(ds: DegreeSequence) -> tuple[int, ...]:
    """``hyper_class_profile`` by the edge-set sweep, with the hypergraph-side
    battery written out on the sweep's pair counts."""
    n2 = ds.four_cycle_cap
    profile = [0] * (n2 + 1)

    def leaf(edges, masks, pair_count, violations):
        doubles = [p for p, c in pair_count.items() if c == 2]
        d = len(doubles)
        if d > n2:
            return
        if any(c >= 3 for c in pair_count.values()):
            return
        for ma, mb in combinations(masks, 2):
            if (ma & mb).bit_count() >= 3:
                return
        for mask in masks:
            contained = 0
            for x, y in doubles:
                if mask >> x & 1 and mask >> y & 1:
                    contained += 1
                    if contained >= 2:
                        return
        per_vertex: Counter = Counter()
        for x, y in doubles:
            per_vertex[x] += 1
            per_vertex[y] += 1
        if any(c >= 3 for c in per_vertex.values()):
            return
        for v, c in per_vertex.items():
            if c == 2:
                for x, y in doubles:
                    if v in (x, y) and per_vertex[x if y == v else y] != 1:
                        return
        profile[d] += 1

    _hyper_sweep(ds, leaf)
    return tuple(profile)


def reference_report(ds: DegreeSequence) -> OracleReport:
    """``full_report`` by the ordered sweep plus the edge-set sweep, with no
    identity asserted."""
    m, n, n2 = ds.edge_count(), ds.n, ds.four_cycle_cap
    b = b0 = bplus = 0
    cd = [0] * (n2 + 1)

    def leaf(cols) -> None:
        nonlocal b, b0, bplus
        b += 1
        cls = _classification(tuple(cols), n2, _four_cycles(n, cols))
        if cls.in_b0:
            b0 += 1
        if cls.in_bplus:
            bplus += 1
            cd[cls.d] += 1

    _column_sweep(ds.k, ds.r, m, leaf)
    count_h, count_l = reference_hypergraph_counts(ds)
    return OracleReport(b, b0, bplus, count_h, count_l, tuple(cd))


def reference_pattern_expectation(ds: DegreeSequence, pattern: Pattern) -> Fraction:
    """``pattern_expectation`` by the ordered sweep."""
    total = graphs = 0

    def leaf(cols) -> None:
        nonlocal total, graphs
        graphs += 1
        total += _occurrences_from_cols(ds.n, tuple(cols), pattern)

    _column_sweep(ds.k, ds.r, ds.edge_count(), leaf)
    return Fraction(total, graphs)


class _EnoughGraphs(Exception):
    """Stops the labeled enumeration once ``reference_spot_graphs`` has its
    graphs."""


def reference_spot_graphs(ds: DegreeSequence, limit: int) -> list[list[int]]:
    """Columns of the graphs ``_involution_spot_check`` round-trips, by the
    ordered reference sweep (the labeled enumeration it used before the
    multiset sweep): the first ``limit`` well-behaved graphs with a 4-cycle
    in visiting order, run only when the weighted counts show that one
    exists."""
    import linhyper as lh

    found: list[list[int]] = []

    def visitor(graph: BipartiteGraph) -> None:
        if graph.has_four_cycle():
            cls = lh.classify(graph, ds)
            if cls.in_bplus and cls.d >= 1:
                found.append(list(graph.cols))
                if len(found) == limit:
                    raise _EnoughGraphs

    bplus = lh.enumerate_bigraphs(ds, class_filter=ClassFilter.BPLUS)
    c0 = lh.enumerate_bigraphs(ds, class_filter=ClassFilter.NO_FOUR_CYCLE)
    if bplus > c0:
        try:
            reference_enumerate(ds, visitor)
        except _EnoughGraphs:
            pass
    return found


# --- The exact oracle's multiset sweep before the lowest-vertex bound -------


def reference_multiset_sweep(k, r, m, leaf, roots) -> None:
    """``exact_oracle._sweep`` (for m >= 1) as it was before it clamped each
    column after the root to the candidates holding the lowest vertex of
    positive residual: it tries every candidate from ``start`` on, so it
    visits every dead branch the bound prunes.  Its leaves, weights and their order are the ones the
    library's sweep must reproduce."""
    masks = _subset_masks(len(k), r)
    facts = [math.factorial(i) for i in range(m + 1)]
    residual = list(k)
    cols: list[int] = []
    # the first column is fixed by a root; a leaf's weight is ``scale``
    # times the orderings of the others
    scale = 1

    def rec(depth: int, start: int, stop: int) -> None:
        if depth == m:
            weight = scale * facts[m - 1]
            for c in Counter(cols[1:]).values():
                weight //= facts[c]
            leaf(cols, weight)
            return
        remaining = m - depth
        forced = 0
        zero = 0
        for j, v in enumerate(residual):
            if v == remaining:
                forced |= 1 << j
            elif v == 0:
                zero |= 1 << j
        if forced.bit_count() > r:
            return
        for idx in range(start, stop):
            mask = masks[idx]
            if mask & zero or mask & forced != forced:
                continue
            for j in _bits(mask):
                residual[j] -= 1
            if max(residual) <= remaining - 1:
                cols.append(mask)
                rec(depth + 1, idx if depth else 0, len(masks))
                cols.pop()
            for j in _bits(mask):
                residual[j] += 1

    index = {mask: idx for idx, mask in enumerate(masks)}
    for mask, scale in roots:
        rec(0, index[mask], index[mask] + 1)
