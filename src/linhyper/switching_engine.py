"""Rewiring operations that remove or create one 4-cycle, plus samplers.

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

Randomness flows through numpy Generators; Monte Carlo estimation splits the
seed into per-worker substreams so replays with a fixed (seed, workers) pair
are bit-identical.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, combinations, islice
from operator import attrgetter

import numpy as np

from ._pool import map_tasks
from .bigraph_core import BipartiteGraph, Classification, _bits, classify
from .degree_model import DegreeSequence
from .errors import (
    InvalidArgument,
    NoFourCycle,
    NonConforming,
    NotASwitching,
    PreconditionFailed,
    RetryLimitExceeded,
    StepLimit,
)
from .asymptotics import girth6_probability

_Z95 = 1.959963984540054


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


@dataclass(frozen=True)
class PairingResult:
    graph: BipartiteGraph
    rejections: int


@dataclass(frozen=True)
class SwitchSampleResult:
    graph: BipartiteGraph
    steps: int
    d_trajectory: tuple[int, ...]
    pairing_rejections: int
    bplus_rejections: int
    restarts: int


@dataclass(frozen=True)
class GirthEstimate:
    p_hat: float
    ci_halfwidth: float
    trials: int
    predicted: float
    seed: int
    rejections: int


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


class _PairingKernel:
    """Stub arrays and stub-pair tests for pairings of one degree sequence.

    ``lo[p] < hi[p]`` are two stubs of one left vertex, over every such pair:
    a pairing ``perm`` repeats an edge iff ``perm[lo] == perm[hi]`` somewhere,
    and a simple one has a 4-cycle iff two pairs end on the same right pair."""

    def __init__(self, ds: DegreeSequence):
        self.m = ds.edge_count()
        k = np.asarray(ds.k, dtype=np.int64)
        self.left_owner = np.repeat(np.arange(ds.n, dtype=np.int64), k)
        self.right_owner = np.repeat(np.arange(self.m, dtype=np.int64), ds.r)
        starts = np.cumsum(k) - k
        pairs = [np.empty((2, 0), dtype=np.int64)]
        for d in set(ds.k) - {0, 1}:  # each pair a < b of a row's d stubs
            ab = np.array(list(combinations(range(d), 2))).T[:, :, None]
            pairs.append((starts[k == d] + ab).reshape(2, -1))
        self.lo, self.hi = np.concatenate(pairs, axis=1)

    def has_four_cycle(self, x, y) -> bool:
        """Right ends ``x != y`` of the stub pairs of a simple pairing: does
        one right pair {x, y} occur in two left vertices?"""
        keys = np.sort(np.minimum(x, y) * self.m + np.maximum(x, y))
        return bool((keys[1:] == keys[:-1]).any())


def _simple_pairing(rng, kernel: _PairingKernel, budget: int):
    """Draw pairings until one has no repeated edge, at most ``budget``
    rejections; returns (perm, (x, y), rejections), with x, y the right ends
    of the kernel's stub pairs.  Each draw is one ``rng.permutation``,
    rejected iff a stub pair has equal ends: the random stream and every
    accept or reject are those of counting the distinct edge keys."""
    for rejections in range(budget + 1):
        perm = rng.permutation(kernel.right_owner)
        x, y = perm[kernel.lo], perm[kernel.hi]
        if not (x == y).any():
            return perm, (x, y), rejections
    raise RetryLimitExceeded(f"no simple pairing found in {budget + 1} draws")


def pairing_sample(
    ds: DegreeSequence, rng: np.random.Generator, max_retries: int = 10_000
) -> PairingResult:
    """Uniform conforming bipartite graph via the pairing model.

    Matches degree-many half-edges on each side uniformly at random and
    rejects projections with a repeated edge; every simple outcome is hit by
    the same number of matchings, so accepted graphs are exactly uniform.
    The expected number of rejections per acceptance grows with the loop
    exponent (r-1) M_2 / (2M) of the instance.
    """
    if ds.M < 1:
        raise PreconditionFailed("pairing sample requires at least one half-edge")
    kernel = _PairingKernel(ds)
    perm, _, rejections = _simple_pairing(rng, kernel, max_retries)
    cols = [0] * kernel.m
    for j, i in zip(kernel.left_owner.tolist(), perm.tolist()):
        cols[i] |= 1 << j
    return PairingResult(BipartiteGraph(ds.n, kernel.m, cols), rejections)


def _uniform_order(n: int, rng):
    """The indices ``range(n)`` in uniformly random order, drawn lazily by a
    sparse Fisher-Yates shuffle: the t-th index taken costs one
    ``rng.integers(t, n)`` call, and ``moved`` holds only the displaced
    slots, so a caller that stops after t indices pays t draws, not n."""
    moved = {}
    for t in range(n):
        j = int(rng.integers(t, n))
        yield moved.get(j, j)
        moved[j] = moved.pop(t, t)


def _forward_step(graph: BipartiteGraph, cls, ds: DegreeSequence, rng):
    """One walk step: the first legal forward switch in a uniformly random
    order of the candidates (``_uniform_order``, one draw per tried
    candidate), as (graph, classification), or None if no candidate is
    legal.  Only the tried tuples are decoded from the counted
    ``_CandidateIndex``; an empty index draws nothing."""
    candidates = _CandidateIndex(graph, cls)
    for idx in _uniform_order(len(candidates), rng):
        try:
            switched, after, legal = _reclassified(
                graph, cls, ds, candidates[idx], apply_forward, -1)
        except NotASwitching:
            continue
        if legal:
            return switched, after
    return None


def sample_no4cycle(
    ds: DegreeSequence,
    rng: np.random.Generator,
    max_steps: int = 1000,
    max_retries: int = 10_000,
) -> SwitchSampleResult:
    """Sample a well-behaved graph, then rewire 4-cycles away one at a time.

    Draws pairing samples until one is well-behaved, then repeatedly applies
    a uniformly chosen legal forward switch (``_forward_step``) until no
    4-cycle remains, restarting when none is legal.  A step makes one
    ``rng.integers`` draw per candidate it tries, however many it counts
    (about two tried of tens of thousands counted on k=3^30 and k=2^90,
    r=3).  The output is
    *approximately* uniform over the 4-cycle-free graphs: the switching walk
    is a generator here, not an exactly-uniform sampler, and the residual
    bias is not quantified.  Step counts and the 4-cycle-count trajectory
    are returned so callers can audit the walk.
    """
    steps = 0
    pairing_rejections = 0
    bplus_rejections = 0
    restarts = 0
    while True:
        res = pairing_sample(ds, rng, max_retries=max_retries)
        pairing_rejections += res.rejections
        graph = res.graph
        cls = classify(graph, ds)
        if not cls.in_bplus:
            bplus_rejections += 1
            if bplus_rejections > max_retries:
                raise RetryLimitExceeded("no well-behaved pairing sample found")
            continue
        trajectory = [cls.d]
        while cls.d > 0:
            if steps >= max_steps:
                raise StepLimit(f"step budget {max_steps} exhausted")
            steps += 1
            step = _forward_step(graph, cls, ds, rng)
            if step is None:
                break
            graph, cls = step
            trajectory.append(cls.d)
        else:
            return SwitchSampleResult(
                graph=graph,
                steps=steps,
                d_trajectory=tuple(trajectory),
                pairing_rejections=pairing_rejections,
                bplus_rejections=bplus_rejections,
                restarts=restarts,
            )
        restarts += 1
        if restarts > max_retries:
            raise RetryLimitExceeded("switching walk kept getting stuck")


def _girth_worker(args) -> tuple[int, int]:
    r, k, seed, worker_index, workers, trials, max_retries = args
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(workers)[worker_index])
    kernel = _PairingKernel(DegreeSequence(r=r, k=k))
    hits = rejections = 0
    for _ in range(trials):
        _, ends, rejected = _simple_pairing(rng, kernel, max_retries - rejections)
        rejections += rejected
        hits += not kernel.has_four_cycle(*ends)
    return hits, rejections


def monte_carlo_girth(
    ds: DegreeSequence,
    seed: int,
    trials: int,
    workers: int = 1,
    max_retries: int = 100_000,
) -> GirthEstimate:
    """Estimate the probability that a uniform conforming graph has no 4-cycle.

    Counts 4-cycle-free pairing samples; the normal-approximation 95% CI
    half-width and the closed-form prediction are included in the result.
    A trial tests the right ends of each left vertex's stub pairs for a
    repeated edge and for a right pair shared by two left vertices; these
    tests leave the random stream unchanged.  Replay with
    identical (seed, workers) is bit-identical; changing the worker count
    changes the substream split and hence the estimate.  The substreams
    run under the library's pool policy (``_pool.map_tasks``).
    """
    if trials < 1:
        raise PreconditionFailed(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise InvalidArgument("workers must be >= 1")
    predicted = girth6_probability(ds).value
    base, extra = divmod(trials, workers)
    tasks = [(ds.r, ds.k, seed, w, workers, share, max_retries)
             for w in range(workers) if (share := base + (w < extra)) > 0]
    hits, rejections = map(sum, zip(*map_tasks(_girth_worker, tasks, workers)))
    p_hat = hits / trials
    ci = _Z95 * (p_hat * (1.0 - p_hat) / trials) ** 0.5
    return GirthEstimate(p_hat=p_hat, ci_halfwidth=ci, trials=trials,
                         predicted=predicted, seed=seed, rejections=rejections)
