"""Rewiring operations that remove or create one 4-cycle.

A switch is parameterized by an 8-tuple of distinct vertices (u1, u2, w1, w2
on the left; f1, f2, g1, g2 on the right) and trades eight edges.  A forward
switch removes u1-f1, u2-f2, w1-g1 and w2-g2 and adds u1-g1, u2-g2, w1-f1 and
w2-f2; u1-f2 and u2-f1 stay.  It dissolves the 4-cycle on {u1,u2} x {f1,f2},
and the reverse switch, the same trade the other way, creates it.  Legality
of a switch is *defined* by reclassifying the rewired graph: a legal switch
from a well-behaved graph with d 4-cycles must land on a well-behaved graph
with d-1 (forward) or d+1 (reverse).  The named illegality conditions are
necessary conditions only and are reported as explanations, never trusted as
a characterization.

Condition II uses the j-indexed distances dist(u_j, g_j), dist(w_j, f_j); the
symmetric variant with u_1 throughout is not what is implemented.

This module is pure Python, so ``verify``'s spot check loads no numpy.  The
randomized users of the switchings, the pairing draws, the switching walk
and the Monte Carlo girth estimate, live in ``sampler``.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import attrgetter

from .bigraph_core import BipartiteGraph, Classification, _bits, classify
from .degree_model import DegreeSequence
from .errors import (
    InvalidArgument,
    NoFourCycle,
    NonConforming,
    NotASwitching,
    PreconditionFailed,
)


@dataclass(frozen=True)
class SwitchTuple:
    """Suitable 8-tuple: four distinct left and four distinct right vertices."""

    u1: int
    u2: int
    w1: int
    w2: int
    f1: int
    f2: int
    g1: int
    g2: int

    def __post_init__(self):
        lefts = (self.u1, self.u2, self.w1, self.w2)
        rights = (self.f1, self.f2, self.g1, self.g2)
        if len(set(lefts)) != 4 or len(set(rights)) != 4:
            raise InvalidArgument(f"switch tuple vertices must be distinct: {self}")


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
    """Swap the ``remove`` edges of ``t`` for its ``add`` edges.  The kept and
    removed edges must be present and the added ones absent, in that order;
    NotASwitching names the first edge that is not."""
    for e in _KEPT + remove:
        if not graph.has_edge(*_ENDS[e](t)):
            raise NotASwitching(f"required edge {e} missing")
    for e in add:
        if graph.has_edge(*_ENDS[e](t)):
            raise NotASwitching(f"edge {e} to be created already present")
    return graph.replace_edges(remove=[_ENDS[e](t) for e in remove],
                               add=[_ENDS[e](t) for e in add])


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
                        yield SwitchTuple(u1, u2, w1, w2, f1, f2, g1, g2)


class _CandidateIndex:
    """The tuples of ``forward_candidates`` as a counted, indexed view over
    the per-pair edges E of ``_free_edges``.  An edge (w1, g1) has
    |E| - deg(w1) - deg(g1) + 1 partners in E sharing neither end;
    ``index[i]`` bisects prefix sums of these counts."""

    def __init__(self, graph: BipartiteGraph, cls: Classification):
        if cls.d == 0:
            raise NoFourCycle("graph has no 4-cycle to dissolve")
        self.cycles = cls.four_cycles
        self.pairs = {}
        for pair, edges in _free_edges(graph, self.cycles).items():
            dw, dg = Counter(w for w, _ in edges), Counter(g for _, g in edges)
            self.pairs[pair] = edges, list(accumulate(
                (len(edges) - dw[w] - dg[g] + 1 for w, g in edges), initial=0))
        self.starts = list(accumulate(
            (4 * self.pairs[c.left_pair][1][-1] for c in self.cycles), initial=0))

    def __len__(self) -> int:
        return self.starts[-1]

    def __getitem__(self, i: int) -> SwitchTuple:
        if not 0 <= i < len(self):
            raise IndexError(i)
        c = bisect_right(self.starts, i) - 1
        edges, cum = self.pairs[self.cycles[c].left_pair]
        block, i = divmod(i - self.starts[c], cum[-1])
        e = bisect_right(cum, i) - 1
        w1, g1 = edges[e]
        partners = ((w, g) for w, g in edges if w != w1 and g != g1)
        w2, g2 = next(islice(partners, i - cum[e], None))
        u1, u2, f1, f2 = _orientations(self.cycles[c])[block]
        return SwitchTuple(u1, u2, w1, w2, f1, f2, g1, g2)


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
    lands on a well-behaved graph with ``step`` more 4-cycles than ``cls``."""
    switched = apply(graph, t)
    after = classify(switched, ds)
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
