"""Rewiring operations that remove or create one 4-cycle.

A switch is parameterized by an 8-tuple of distinct vertices (u1, u2, w1, w2
on the left; f1, f2, g1, g2 on the right) and trades eight edges.  A forward
switch removes u1-f1, u2-f2, w1-g1 and w2-g2 and adds u1-g1, u2-g2, w1-f1 and
w2-f2; u1-f2 and u2-f1 stay.  It dissolves the 4-cycle on {u1,u2} x {f1,f2},
and the reverse switch, the same trade the other way, creates it.  Legality
of a switch is *defined* by the rewired graph's classification: a legal
switch from a well-behaved graph with d 4-cycles must land on a
well-behaved graph with d-1 (forward) or d+1 (reverse).  That
classification is ``classify``'s, computed from the four columns the switch
changes (``_reclassified``): the old 4-cycles off them are kept and the
ones through them are read off row intersections.  The named illegality
conditions are necessary conditions only and are reported as explanations,
never trusted as a characterization.

Condition II uses the j-indexed distances dist(u_j, g_j), dist(w_j, f_j); the
symmetric variant with u_1 throughout is not what is implemented.

This module is pure Python, so ``verify``'s spot check loads no numpy.  The
randomized users of the switchings, the pairing draws, the switching walk
and the Monte Carlo girth estimate, live in ``sampler``.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import accumulate, combinations, islice
from operator import attrgetter

from .bigraph_core import (BipartiteGraph, Classification, FourCycle, _bits, _classification,
                           _neighbour_lists, classify)
from .degree_model import DegreeSequence, _as_int
from .errors import (
    InvalidArgument,
    NoFourCycle,
    NonConforming,
    NotASwitching,
    PreconditionFailed,
)


_FIELDS = ("u1", "u2", "w1", "w2", "f1", "f2", "g1", "g2")


@dataclass(frozen=True)
class SwitchTuple:
    """Suitable 8-tuple: four distinct left and four distinct right vertices,
    each a nonnegative integer.

    The constructor checks all of that.  The candidate listers build their
    tuples with ``_unchecked``, which skips the checks: ``_forward_tuples``
    and ``_CandidateIndex.__getitem__`` take u1, u2 and f1, f2 from a
    4-cycle (two distinct pairs of vertices of the graph), and w1-g1, w2-g2
    from its free edges, with w1 and w2 off the cycle's left pair, g1 and g2
    on no 4-cycle (so off its right pair), w2 != w1 and g2 != g1.  Every
    field is then a distinct in-range int, as the checks would find."""

    u1: int
    u2: int
    w1: int
    w2: int
    f1: int
    f2: int
    g1: int
    g2: int

    def __post_init__(self):
        values = [_as_int(getattr(self, name)) for name in _FIELDS]
        if min(values) < 0:
            raise InvalidArgument(f"switch tuple vertices must be nonnegative: {self}")
        for name, v in zip(_FIELDS, values):
            object.__setattr__(self, name, v)
        if len(set(values[:4])) != 4 or len(set(values[4:])) != 4:
            raise InvalidArgument(f"switch tuple vertices must be distinct: {self}")

    @classmethod
    def _unchecked(cls, *fields: int) -> "SwitchTuple":
        """The tuple of ``fields``, eight ints in ``_FIELDS`` order already
        known to be suitable: the checks of ``__post_init__`` are skipped."""
        t = cls.__new__(cls)
        t.__dict__.update(zip(_FIELDS, fields))
        return t


@dataclass(frozen=True)
class LegalityVerdict:
    """Reclassification verdict plus the explanatory conditions that fired.

    ``legal`` always equals ``ground_truth``; both are kept because the
    conditions are explanations for illegality, not its definition.
    """

    legal: bool
    conditions: frozenset[str]
    ground_truth: bool


def derive_degree_sequence(graph: BipartiteGraph) -> DegreeSequence:
    """Degree sequence a conforming graph realizes; right degrees must agree."""
    degs = graph.right_degrees()
    if not degs:
        raise NonConforming("cannot derive edge size from a graph with no right vertices")
    r = degs[0]
    if any(d != r for d in degs):
        raise NonConforming(f"right degrees {degs} are not uniform")
    return DegreeSequence(r=r, k=graph.left_degrees())


# The eight-edge trade of a forward switch, each edge named by the tuple
# fields of its two ends; the kept edges stay on either side of the trade.
_KEPT = ("u1f2", "u2f1")
_FORWARD_REMOVES = ("u1f1", "u2f2", "w1g1", "w2g2")
_FORWARD_ADDS = ("u1g1", "u2g2", "w1f1", "w2f2")
_ENDS = {e: attrgetter(e[:2], e[2:]) for e in _KEPT + _FORWARD_REMOVES + _FORWARD_ADDS}


def _trade(graph: BipartiteGraph, t: SwitchTuple, remove, add) -> BipartiteGraph:
    """Swap the ``remove`` edges of ``t`` for its ``add`` edges.  A tuple
    naming a vertex outside the graph is InvalidArgument.  The kept and
    removed edges must be present and the added ones absent, in that order;
    NotASwitching names the first edge that is not."""
    cols = graph.cols
    if (max(t.u1, t.u2, t.w1, t.w2) >= graph.n_left
            or max(t.f1, t.f2, t.g1, t.g2) >= graph.n_right):
        raise InvalidArgument(f"switch tuple {t} names a vertex outside the "
                              f"{graph.n_left}x{graph.n_right} graph")
    for e in _KEPT + remove:
        j, i = _ENDS[e](t)
        if not cols[i] >> j & 1:
            raise NotASwitching(f"required edge {e} missing")
    for e in add:
        j, i = _ENDS[e](t)
        if cols[i] >> j & 1:
            raise NotASwitching(f"edge {e} to be created already present")
    # Every vertex is in range and the eight edges are distinct, so flipping
    # their bits removes and adds them: the checks of replace_edges and of
    # BipartiteGraph.__init__ would only repeat these.
    cols = list(cols)
    for e in remove + add:
        j, i = _ENDS[e](t)
        cols[i] ^= 1 << j
    return BipartiteGraph._unchecked(graph.n_left, graph.n_right, tuple(cols))


def apply_forward(graph: BipartiteGraph, t: SwitchTuple) -> BipartiteGraph:
    """Dissolve the 4-cycle on {u1,u2} x {f1,f2}; degrees are preserved."""
    return _trade(graph, t, _FORWARD_REMOVES, _FORWARD_ADDS)


def apply_reverse(graph: BipartiteGraph, t: SwitchTuple) -> BipartiteGraph:
    """Create a 4-cycle on {u1,u2} x {f1,f2}; exact inverse of apply_forward."""
    return _trade(graph, t, _FORWARD_ADDS, _FORWARD_REMOVES)


def _orientations(cyc):
    """The four (u1, u2, f1, f2) readings of a 4-cycle, in candidate order."""
    (a, b), (x, y) = cyc.left_pair, cyc.right_pair
    return (a, b, x, y), (a, b, y, x), (b, a, x, y), (b, a, y, x)


def _free_edges(graph: BipartiteGraph, cycles) -> dict:
    """Per distinct left pair {a, b} of ``cycles``, the edges w-g with w not
    in {a, b} and g on no 4-cycle, in edge order (by w, then g).  Only the
    columns off every 4-cycle are decoded; when none is, every list is
    empty."""
    on_cycles = {i for c in cycles for i in c.right_pair}
    pairs = dict.fromkeys((c.left_pair for c in cycles), ())
    if len(on_cycles) == graph.n_right:
        return pairs
    free = sorted((w, g) for g, col in enumerate(graph.cols) if g not in on_cycles
                  for w in _bits(col))
    return {pair: [(w, g) for w, g in free if w not in pair] for pair in pairs}


def _forward_tuples(graph: BipartiteGraph, cycles):
    """Yield the forward 8-tuples on ``cycles``, the graph's 4-cycles, one at
    a time: per cycle, in its four orientations, each pair of its free
    edges (``_free_edges``) that share neither end."""
    pairs = _free_edges(graph, cycles)
    for cyc in cycles:
        edges = pairs[cyc.left_pair]
        for u1, u2, f1, f2 in _orientations(cyc):
            for w1, g1 in edges:
                for w2, g2 in edges:
                    if w2 != w1 and g2 != g1:
                        yield SwitchTuple._unchecked(u1, u2, w1, w2, f1, f2, g1, g2)


class _CandidateIndex:
    """The tuples of ``forward_candidates`` as a counted, indexed view that a
    walk carries from step to step.

    E holds the free edges w-g (g on no 4-cycle) by w then g; a cycle on the
    left pair p = {a, b} pairs those of E_p, with w off p (``_free_edges``).
    With F(w) the free edges at w and N = |E_p|, an edge (w1, g1) of E_p has
    N + 1 - F(w1) - (r - |g1 & p|) partners sharing neither end, so p holds
    T_p = N(N+1) - sum_{w off p} F(w)^2 - sum_{free g} (r - |g & p|)^2 of
    them.  ``index[i]`` bisects the prefix sums of the partner counts, built
    only for a pair an index lands in."""

    def __init__(self, graph: BipartiteGraph, cls: Classification, nbrs=None):
        """``nbrs``, the graph's ``_neighbour_lists`` if at hand, spares a
        second decode; the rows decoded here are set on the graph."""
        if cls.d == 0:
            raise NoFourCycle("graph has no 4-cycle to dissolve")
        self.graph, self.cycles, self.r = graph, cls.four_cycles, graph.cols[0].bit_count()
        free = (1 << graph.n_right) - 1  # the columns on no 4-cycle
        for i in (i for c in self.cycles for i in c.right_pair):
            free &= ~(1 << i)
        rows, self.edges = [], []
        for w, nbr in enumerate(nbrs or _neighbour_lists(graph.n_left, graph.cols)):
            row = 0
            for g in nbr:
                row |= 1 << g
                if free >> g & 1:
                    self.edges.append((w, g))
            rows.append(row)
        graph.rows = tuple(rows)
        self.free_deg = [(row & free).bit_count() for row in rows]
        self.squares = sum(f * f for f in self.free_deg)
        self._count()

    def _count(self) -> None:
        """Each cycle's first index, from the T_p.  No free column holds both
        a and b, so sum_{free g} (r - |g & p|)^2 = r|E| - (2r-1)(F(a)+F(b))."""
        r, n_free, deg, totals = self.r, len(self.edges), self.free_deg, {}
        for a, b in (c.left_pair for c in self.cycles):
            n = n_free - deg[a] - deg[b]
            totals[a, b] = (n * (n + 1) - self.squares + deg[a] ** 2 + deg[b] ** 2
                            - r * n_free + (2 * r - 1) * (deg[a] + deg[b]))
        self.starts = list(accumulate(
            (4 * totals[c.left_pair] for c in self.cycles), initial=0))
        self.pairs = {}

    def _pair(self, pair):
        """(E_p, the prefix sums of its partner counts), built on first use:
        E less the runs of a's and b's edges, and |g & p| is 1 exactly when
        g is in the row of a or of b."""
        if pair not in self.pairs:
            (a, b), edges, deg = pair, self.edges, self.free_deg
            ia, ib = bisect_left(edges, (a,)), bisect_left(edges, (b,))
            edges = edges[:ia] + edges[ia + deg[a]:ib] + edges[ib + deg[b]:]
            base, on_p = len(edges) + 1 - self.r, self.graph.rows[a] | self.graph.rows[b]
            self.pairs[pair] = edges, list(accumulate(
                [base - deg[w] + (on_p >> g & 1) for w, g in edges], initial=0))
        return self.pairs[pair]

    def advance(self, t: SwitchTuple, switched: BipartiteGraph, after: Classification) -> None:
        """Move to ``switched``, reached by the legal forward switch ``t`` and
        classified by ``after``.  From a well-behaved graph, where no right
        vertex is on two 4-cycles, such a step keeps every 4-cycle but the
        dissolved one, so f1 and f2 join the free columns and E trades w1g1
        and w2g2 for u1g1, u2g2 and the edges of f1 and f2."""
        new = [(t.u1, t.g1), (t.u2, t.g2)]
        new += [(w, f) for f in (t.f1, t.f2) for w in _bits(switched.cols[f])]
        for e in (t.w1, t.g1), (t.w2, t.g2):
            del self.edges[bisect_left(self.edges, e)]
        for e in new:
            insort(self.edges, e)
        for w, step in [(t.w1, -1), (t.w2, -1)] + [(w, 1) for w, _ in new]:
            self.squares += step * (2 * self.free_deg[w] + step)
            self.free_deg[w] += step
        self.graph, self.cycles = switched, after.four_cycles
        self._count()

    def __len__(self) -> int:
        return self.starts[-1]

    def __getitem__(self, i: int) -> SwitchTuple:
        if not 0 <= i < len(self):
            raise IndexError(i)
        c = bisect_right(self.starts, i) - 1
        edges, cum = self._pair(self.cycles[c].left_pair)
        block, i = divmod(i - self.starts[c], cum[-1])
        e = bisect_right(cum, i) - 1
        w1, g1 = edges[e]
        partners = ((w, g) for w, g in edges if w != w1 and g != g1)
        w2, g2 = next(islice(partners, i - cum[e], None))
        u1, u2, f1, f2 = _orientations(self.cycles[c])[block]
        return SwitchTuple._unchecked(u1, u2, w1, w2, f1, f2, g1, g2)


def forward_candidates(graph: BipartiteGraph, cls: Classification):
    """Yield the forward 8-tuples considered by the counting argument.

    These are the suitable tuples with a 4-cycle on {u1,u2} x {f1,f2} (each
    cycle in all four vertex orderings), edges w1-g1 and w2-g2 present, and
    neither g1 nor g2 on any 4-cycle, in the order of ``_CandidateIndex``.
    The 4-cycles are ``cls.four_cycles``; the tuples are listed lazily by
    ``_forward_tuples``, with no index built.  A yielded tuple may still
    fail the apply_forward preconditions (an edge to be created may exist);
    callers deciding legality must handle that.
    """
    if cls.d == 0:
        raise NoFourCycle("graph has no 4-cycle to dissolve")
    yield from _forward_tuples(graph, cls.four_cycles)


def _near(graph: BipartiteGraph, t: SwitchTuple, edges) -> bool:
    """Whether the ends of some edge named in ``edges`` are within distance 3."""
    for e in edges:
        j, i = _ENDS[e](t)
        d = graph.distance(("v", j), ("e", i))
        if d is not None and d <= 3:
            return True
    return False


def forward_conditions(graph: BipartiteGraph, t: SwitchTuple) -> frozenset[str]:
    """Necessary conditions for a forward switch from this graph to be illegal."""
    cycles = graph.four_cycles()
    rights_on = {i for c in cycles for i in c.right_pair}
    conds = set()
    if t.g1 in rights_on or t.g2 in rights_on:
        conds.add("I")
    if _near(graph, t, _FORWARD_ADDS):
        conds.add("II")
    if graph.distance(("e", t.g1), ("e", t.g2)) == 2:
        conds.add("III")
    return frozenset(conds)


def reverse_conditions(graph: BipartiteGraph, t: SwitchTuple) -> frozenset[str]:
    """Necessary conditions for a reverse switch from this graph to be illegal."""
    cycles = graph.four_cycles()
    lefts_on = {j for c in cycles for j in c.left_pair}
    rights_on = {i for c in cycles for i in c.right_pair}
    conds = set()
    if (
        t.u1 in lefts_on
        or t.u2 in lefts_on
        or t.f1 in rights_on
        or t.f2 in rights_on
        or t.g1 in rights_on
        or t.g2 in rights_on
    ):
        conds.add("I'")
    if _near(graph, t, _FORWARD_REMOVES):
        conds.add("II'")
    return frozenset(conds)


def _reclassified(graph, cls, ds, t, apply, step):
    """(switched graph, its classification, legal): a switch is legal when it
    lands on a well-behaved graph with ``step`` more 4-cycles than ``cls``,
    the classification of ``graph``.  The switch changes the columns f1, f2,
    g1, g2 and the rows of u1, u2, w1, w2 (set on the switched graph), so
    its 4-cycles are those of ``cls`` off the four columns plus those read
    off the rows two left vertices of a changed column share."""
    switched = apply(graph, t)
    rows = list(graph.rows)
    for j, f, g in ((t.u1, t.f1, t.g1), (t.w1, t.f1, t.g1),
                    (t.u2, t.f2, t.g2), (t.w2, t.f2, t.g2)):
        rows[j] ^= 1 << f | 1 << g
    switched.rows = rows = tuple(rows)
    changed, cols = (t.f1, t.f2, t.g1, t.g2), switched.cols
    cycles = [c for c in cls.four_cycles
              if c.right_pair[0] not in changed and c.right_pair[1] not in changed]
    for i in changed:
        for a, b in combinations(_bits(cols[i]), 2):
            shared = rows[a] & rows[b] & ~(1 << i)
            for j in _bits(shared) if shared else ():
                if j not in changed or j > i:  # a pair of changed columns once
                    cycles.append(FourCycle((a, b), (i, j) if i < j else (j, i)))
    cycles.sort()
    after = _classification(cols, ds.four_cycle_cap, cycles)
    return switched, after, after.in_bplus and after.d == cls.d + step


def check_forward(graph: BipartiteGraph, t: SwitchTuple) -> LegalityVerdict:
    """Ground-truth legality of a forward switch, with explanations.

    The graph must be well-behaved with at least one 4-cycle and the tuple
    must pass the apply_forward preconditions.
    """
    ds = derive_degree_sequence(graph)
    cls = classify(graph, ds)
    if cls.d == 0:
        raise NoFourCycle("forward switch requires at least one 4-cycle")
    if not cls.in_bplus:
        raise PreconditionFailed("forward switch starts from a well-behaved graph")
    legal = _reclassified(graph, cls, ds, t, apply_forward, -1)[2]
    return LegalityVerdict(legal, forward_conditions(graph, t), legal)


def check_reverse(graph: BipartiteGraph, t: SwitchTuple) -> LegalityVerdict:
    """Ground-truth legality of a reverse switch, with explanations."""
    ds = derive_degree_sequence(graph)
    cls = classify(graph, ds)
    if not cls.in_bplus:
        raise PreconditionFailed("reverse switch starts from a well-behaved graph")
    legal = _reclassified(graph, cls, ds, t, apply_reverse, +1)[2]
    return LegalityVerdict(legal, reverse_conditions(graph, t), legal)
