"""Randomized generation: pairing draws, the switching walk and the Monte
Carlo girth-6 estimate.

This is the only library module that imports numpy, so ``exact``,
``verify``, ``estimate`` and ``classify`` never load it, and ``import
linhyper`` loads it on the first use of a name defined here.  The walk's
steps are the switchings of ``switching_engine``.

Randomness flows through numpy Generators; Monte Carlo estimation splits the
seed into per-worker substreams so replays with a fixed (seed, workers) pair
are bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._pool import map_tasks
from .asymptotics import girth6_probability
from .bigraph_core import BipartiteGraph, _classification, _cycles_of_rows, _neighbour_lists
from .degree_model import DegreeSequence, _as_int
from .errors import (
    InvalidArgument,
    NotASwitching,
    PreconditionFailed,
    RetryLimitExceeded,
    StepLimit,
)
from .switching_engine import _CandidateIndex, _reclassified, apply_forward

_Z95 = 1.959963984540054


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
    return next(_pairing_samples(ds, rng, max_retries))


def _pairing_samples(ds: DegreeSequence, rng, max_retries: int):
    """``pairing_sample``'s results, one per ``next``, all drawn with one
    ``_PairingKernel``: the random stream is that of repeated calls."""
    if ds.M < 1:
        raise PreconditionFailed("pairing sample requires at least one half-edge")
    kernel = _PairingKernel(ds)
    owners = kernel.left_owner.tolist()
    while True:
        perm, _, rejections = _simple_pairing(rng, kernel, max_retries)
        cols = [0] * kernel.m
        for j, i in zip(owners, perm.tolist()):
            cols[i] |= 1 << j
        # each owner is a left vertex below n and each slot a column
        yield PairingResult(BipartiteGraph._unchecked(ds.n, kernel.m, tuple(cols)), rejections)


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


def _forward_step(graph: BipartiteGraph, cls, ds: DegreeSequence, rng, candidates):
    """One walk step: the first legal forward switch in a uniformly random
    order of the candidates (``_uniform_order``, one draw per tried
    candidate), as (graph, classification), or None if no candidate is
    legal.  Only the tried tuples are decoded from ``candidates``, the
    counted ``_CandidateIndex`` of (graph, cls), which a legal step advances
    to the switched graph; an empty index draws nothing."""
    for idx in _uniform_order(len(candidates), rng):
        t = candidates[idx]
        try:
            switched, after, legal = _reclassified(graph, cls, ds, t, apply_forward, -1)
        except NotASwitching:
            continue
        if legal:
            candidates.advance(t, switched, after)
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
    r=3).  A tried tuple is reclassified from the four columns it changes,
    and the candidate index, built from the pairing graph's one decode, is
    advanced by each step's trade of eight edges.  The output is
    *approximately* uniform over the 4-cycle-free graphs: the switching walk
    is a generator here, not an exactly-uniform sampler, and the residual
    bias is not quantified.  Step counts and the 4-cycle-count trajectory
    are returned so callers can audit the walk.
    """
    steps = 0
    pairing_rejections = 0
    bplus_rejections = 0
    restarts = 0
    pairings = _pairing_samples(ds, rng, max_retries)
    while True:
        res = next(pairings)
        pairing_rejections += res.rejections
        graph = res.graph
        # a pairing graph conforms by construction; the candidate index
        # reuses the one decode that classifies it
        nbrs = _neighbour_lists(ds.n, graph.cols)
        cls = _classification(graph.cols, ds.four_cycle_cap, _cycles_of_rows(nbrs))
        if not cls.in_bplus:
            bplus_rejections += 1
            if bplus_rejections > max_retries:
                raise RetryLimitExceeded("no well-behaved pairing sample found")
            continue
        trajectory = [cls.d]
        candidates = _CandidateIndex(graph, cls, nbrs) if cls.d else None
        while cls.d > 0:
            if steps >= max_steps:
                raise StepLimit(f"step budget {max_steps} exhausted")
            steps += 1
            step = _forward_step(graph, cls, ds, rng, candidates)
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
    ds, seed, worker_index, workers, trials, max_retries = args
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(workers)[worker_index])
    kernel = _PairingKernel(ds)
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
    run under the library's pool policy (``_pool.map_tasks``); each gets
    ``ds`` itself, so its degrees are validated once, not once per worker.
    ``seed``, ``trials`` and ``workers`` are read as ints (``_as_int``); a
    negative seed is InvalidArgument.
    """
    seed, trials, workers = _as_int(seed), _as_int(trials), _as_int(workers)
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    if trials < 1:
        raise PreconditionFailed(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise InvalidArgument("workers must be >= 1")
    predicted = girth6_probability(ds).value
    base, extra = divmod(trials, workers)
    tasks = [(ds, seed, w, workers, share, max_retries)
             for w in range(workers) if (share := base + (w < extra)) > 0]
    hits, rejections = map(sum, zip(*map_tasks(_girth_worker, tasks, workers)))
    p_hat = hits / trials
    ci = _Z95 * (p_hat * (1.0 - p_hat) / trials) ** 0.5
    return GirthEstimate(p_hat=p_hat, ci_halfwidth=ci, trials=trials,
                         predicted=predicted, seed=seed, rejections=rejections)
