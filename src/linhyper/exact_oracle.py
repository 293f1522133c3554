"""Brute-force enumeration of all conforming objects at desk scale.

This module is the ground truth everything else is tested against.  Every
search runs through one backtracker, ``_sweep``: it fills the m = M/r
incidence columns with r-subsets of the vertices of positive residual degree,
each holding every vertex forced into all remaining columns.  It fixes the
first column to each of a list of roots and fills the other m - 1 in
non-decreasing candidate order (or, for counts invariant under relabeling
equal-degree vertices, may fix the second column too; see below), so it
visits each rooted multiset once, weighted by the orderings of its other
columns: column order changes no count and no 4-cycle.  Residual
feasibility is checked only at the root; below it the forced vertices keep
every residual feasible.  Each column after the root holds the lowest
vertex of positive residual, so the sweep tries only that range of
candidates.  The residuals are kept as one vertex mask per residual value,
and the last two columns are closed in one loop: with two columns left,
each candidate for the first fixes the second, the set of vertices it
leaves needing one column (see ``_sweep``).

The sweep also carries each multiset's verdict under the property battery
of ``bigraph_core`` down the recursion, so no leaf runs the battery: a
pushed column is compared with each placed one (``_push_verdict``), and a
leaf receives d, its number of 4-cycles, if it is well-behaved, else None.
For pass or fail, (iii) (no right vertex on two 4-cycles) covers (i) and
(ii): a K_{3,2} puts a right vertex on three 4-cycles and a K_{2,3} one on
two.  No property recovers when a column is added, so leaves below a failed
prefix inherit its failure, and leaves sharing a prefix share its
4-cycles.  ``classify`` keeps the whole-graph battery,
``_battery_from_cols``, which the verdict is tested against.

Every sweep leaves out the zero-degree vertices (``_without_zeros``),
which enter no column.  There are two root lists.  Counts invariant under
relabeling equal-degree vertices (``full_report``, ``pattern_expectation``,
``hyper_class_profile`` and ``enumerate_bigraphs`` without a visitor) root
at one r-subset per orbit under those relabelings (``_orbit_roots``),
weighted by the orbit's size prod C(|class|, t_class): on a single degree
class, one root instead of C(n, r).  The roots are built from the takes
t_class, not found by listing the C(n, r) subsets.  These callers go one
level further (McKay 1998, "Isomorph-free exhaustive generation"): once
the root R is fixed, every count is still invariant under R's stabiliser,
which relabels the equal-degree vertices inside R among themselves and
those outside it.  So where it is expected to reach fewer leaves
(``_second_columns_pay``), the sweep fixes the second column to one
representative per orbit of that stabiliser (``_second_columns``), weighted
by the orbit's size, and sweeps the other m - 2 columns as a multiset.
Labeled graphs in order (``enumerate_bigraphs`` with a visitor,
``_first_switchable``) root at every candidate in turn, merge the
orderings of the multisets they keep (``_first_orderings``) and move each
column back onto the vertices of k (``_placed``); that relabeling is
monotone, so it keeps the order.

A labeled graph with distinct columns stands for one hypergraph per m!
orderings, so |H| = |B0|/m! and |L| = |C0|/m!; m! failing to divide either
is an identity violation, and so is a failed inclusion between classes.
The independent check is |B| against ``count_b_dp``, a dynamic program
over residual-degree classes, one column per level, that lists no graph
and shares no code with the sweep, so a wrong orbit or orbit weight, of
the first column or the second, is caught at run time.  A failed identity
raises InvariantViolation, which always means an implementation bug
rather than bad input.

Instances are admitted through a resource guard: by default degree sums up
to 16 and up to 10 vertices of positive degree.  Exceeding the guard is an
error, never a silent truncation.
"""
from __future__ import annotations

import functools
import heapq
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement, groupby, islice

from ._pool import map_tasks
from .asymptotics import mckay_upper_bound
from .bigraph_core import (
    BipartiteGraph,
    Hypergraph,
    _bits,
    _four_cycles,
    dual_failed_properties,
    hyper_properties,
)
from .degree_model import DegreeSequence
from .errors import InvalidArgument, InvalidR, InvariantViolation, TooLarge

DEFAULT_MAX_SPACE = 16


class ClassFilter(Enum):
    ALL = "all"
    B0 = "b0"
    BPLUS = "bplus"
    NO_FOUR_CYCLE = "no_four_cycle"


class Pattern(Enum):
    K32 = "k32"
    K23 = "k23"
    TWO_FOUR_CYCLES_SHARED_RIGHT = "two_four_cycles_shared_right"
    THREE_FOUR_CYCLES_FOUR_LEFT = "three_four_cycles_four_left"


@dataclass(frozen=True)
class OracleReport:
    """All exact counts for one instance, with the 4-cycle profile."""

    count_b: int
    count_b0: int
    count_bplus: int
    count_h: int
    count_l: int
    cd_profile: tuple[int, ...]

    def to_json_dict(self) -> dict:
        # counts as decimal strings: they are exact and may exceed 2^53
        return {
            "count_b": str(self.count_b),
            "count_b0": str(self.count_b0),
            "count_bplus": str(self.count_bplus),
            "count_h": str(self.count_h),
            "count_l": str(self.count_l),
            "cd_profile": [str(c) for c in self.cd_profile],
        }


def check_guard(ds: DegreeSequence, max_space: int = DEFAULT_MAX_SPACE) -> None:
    """Reject instances whose exhaustive search space is out of budget.

    The budget is expressed through the degree sum: M <= max_space, plus a
    cap of max(10, max_space) vertices of positive degree.  Zero-degree
    vertices are free: they never enter a column, and every sweep leaves
    them out.
    """
    n_pos = sum(1 for v in ds.k if v > 0)
    if ds.M > max_space:
        raise TooLarge(
            f"degree sum M={ds.M} exceeds the search guard ({max_space}); "
            f"raise --max-space to override"
        )
    if n_pos > max(10, max_space):
        raise TooLarge(
            f"{n_pos} vertices of positive degree exceed the search guard"
        )


@functools.cache
def _subset_masks(n: int, r: int) -> tuple[int, ...]:
    """The r-subsets of range(n) as bitmasks, in candidate (lexicographic)
    order; built once per (n, r) and shared by every sweep."""
    return tuple(sum(1 << v for v in combo) for combo in combinations(range(n), r))


def _rank(combo, n: int) -> int:
    """The index of the ascending subset ``combo`` in
    combinations(range(n), len(combo)): the subsets before it agree with it
    up to some position and hold a smaller vertex there."""
    r = len(combo)
    rank = 0
    prev = -1
    for i, c in enumerate(combo):
        for v in range(prev + 1, c):
            rank += math.comb(n - 1 - v, r - 1 - i)
        prev = c
    return rank


def _without_zeros(ds: DegreeSequence) -> DegreeSequence:
    """``ds`` without its zero-degree vertices.  They enter no column, so no
    count depends on them and a sweep of ``ds``'s graphs is a sweep of this
    instance's with its columns moved back (``_placed``), while a sweep over
    ``ds`` would list all C(n, r) candidates, zero-degree vertices
    included."""
    return ds if 0 not in ds.k else DegreeSequence(r=ds.r, k=tuple(v for v in ds.k if v))


def _placed(ds: DegreeSequence, masks: tuple[int, ...]) -> tuple[int, ...]:
    """Columns of ``_without_zeros(ds)`` as columns of ``ds``: bit v moves to
    the place of the v-th positive-degree vertex.  The relabeling is
    monotone, so it keeps the candidate order."""
    if 0 not in ds.k:
        return masks
    positive = [j for j, v in enumerate(ds.k) if v]
    return tuple(sum(1 << positive[v] for v in _bits(mask)) for mask in masks)


def _orbit_roots(k, r: int) -> list[tuple[int, int]]:
    """One first column per orbit of the r-subsets of positive-degree vertices
    under permutations of equal-degree vertices, as (candidate index, orbit
    size), in candidate order.

    A subset's orbit is fixed by how many of its vertices lie in each degree
    class, t_class, and holds prod C(|class|, t_class) subsets.  So the roots
    come from the multisets of r class labels, a label's multiplicity being
    its t_class, that take no more than |class| from any class, and no
    subset is listed: an orbit's first candidate is the first t_class
    vertices of each class, and its index is that subset's ``_rank``.  The
    second column is rooted the same way, one level down, at the orbits of
    each root's stabiliser (``_second_columns``), whose vertex groups are
    each class's part inside the root and its part outside.
    """
    members: dict[int, list[int]] = {}
    for j, v in enumerate(k):
        if v > 0:
            members.setdefault(v, []).append(j)
    classes = list(members.values())
    roots = []
    # each multiset of r class labels is one tuple of takes
    for labels in combinations_with_replacement(range(len(classes)), r):
        first, size = [], 1
        for c, run in groupby(labels):
            take = len(list(run))
            if take > len(classes[c]):
                break
            first += classes[c][:take]
            size *= math.comb(len(classes[c]), take)
        else:
            roots.append((_rank(sorted(first), len(k)), size))
    roots.sort()
    return roots


def _push_verdict(cols, mask: int, state, n2: int):
    """The battery state once column ``mask`` joins ``cols``.

    ``state`` is (pairs, on_cycle) while ``cols`` is well-behaved: the left
    pair of each of its 4-cycles, as a bitmask, and the bitmask of the
    positions in ``cols`` of the columns on a 4-cycle.  The result is None
    once the columns are not well-behaved; no property recovers when a
    column is added.
    """
    pairs, on_cycle = state
    hit = -1
    for t, c in enumerate(cols):
        s = (mask & c).bit_count()
        if s >= 2:
            # s >= 3 fails (i); a second partner, or a partner already on a
            # 4-cycle, puts a right vertex on two 4-cycles (iii); an equal
            # column (s = r = 2) is a repeat, never well-behaved
            if s > 2 or hit >= 0 or on_cycle >> t & 1 or mask == c:
                return None
            hit = t
    if hit < 0:
        return state
    pair = mask & cols[hit]
    if len(pairs) >= n2 or any(
        (pair | a | b).bit_count() < 5 for a, b in combinations(pairs, 2)
    ):
        return None
    return pairs + (pair,), on_cycle | 1 << hit | 1 << len(cols)


@functools.cache
def _take_count(sizes: tuple[int, ...], r: int) -> int:
    """The ways to take r vertices in all from groups of the given sizes, up
    to relabeling within each group: the coefficient of x^r in
    prod (1 + x + ... + x^size), one factor per group."""
    ways = [1] + [0] * r
    for size in sizes:
        # ways[t] becomes ways[t - size] + ... + ways[t], a window of sums
        sums = list(accumulate(ways, initial=0))
        ways = [sums[t + 1] - sums[max(0, t - size)] for t in range(r + 1)]
    return ways[r]


def _stabiliser_groups(classes, root: int, m: int) -> tuple[int, list[int]]:
    """The vertex groups of the stabiliser of the first column ``root``:
    the forced vertices, as one mask, and the other groups, as a list of
    masks.

    ``classes`` holds (degree, vertex mask) for each positive degree.  The
    relabelings of equal-degree vertices that fix ``root`` permute among
    themselves a class's vertices inside the root, of residual d - 1, and
    those outside it, of residual d.  So these parts, less those of
    residual 0, are the stabiliser's groups.  Those of residual m - 1 are
    forced into every column left.
    """
    forced, groups = 0, []
    for d, c in classes:
        inside = c & root
        outside = c ^ inside
        if d == m:
            forced |= inside
        elif d > 1 and inside:
            groups.append(inside)
        if d == m - 1:
            forced |= outside
        elif d < m and outside:
            groups.append(outside)
    return forced, groups


def _second_columns(forced: int, groups: list[int], r: int) -> list[tuple[int, int]]:
    """One feasible second column per orbit of the stabiliser's vertex
    groups (``_stabiliser_groups``), as (mask, orbit size).

    A feasible second column holds every forced vertex and t vertices of
    each other group; its orbit is fixed by the takes t and holds
    prod C(|group|, t) columns, the first of which takes the first t
    vertices of each group.
    """
    # (column so far, orbit size, vertices still to take), one group at a time
    parts = [(forced, 1, r - forced.bit_count())]
    for group in groups:
        heads = list(accumulate((1 << v for v in _bits(group)), operator.or_, initial=0))
        size = len(heads) - 1
        parts = [(col | heads[t], orbit * math.comb(size, t), left - t)
                 for col, orbit, left in parts for t in range(min(size, left) + 1)]
    return [(col, orbit) for col, orbit, left in parts if left == 0]


def _second_columns_pay(forced: int, groups: list[int], m: int, r: int) -> bool:
    """Whether sweeping from the ``_second_columns`` of a root's stabiliser
    groups is expected to reach fewer leaves than sweeping from the root
    alone.

    Each of the B orbits heads a sweep of the other m - 2 columns as a
    multiset, where the root alone heads one of the other m - 1.  If the
    root's completions spread evenly over its N feasible second columns,
    the orbits' sweeps reach about (m - 1) B / N times as many leaves.  N =
    C(f, need) for the f vertices of the groups and the ``need`` a column
    takes besides the forced ones, and B is ``_take_count`` of the group
    sizes, so the rule costs O(groups) and lists nothing.  It holds if
    (m - 1) B < 0.85 N: near a ratio of 1 the two ways cost about the same.
    """
    sizes = tuple(map(int.bit_count, groups))
    need = r - forced.bit_count()
    return (m - 1) * _take_count(sizes, need) < 0.85 * math.comb(sum(sizes), need)


def _sweep(ds: DegreeSequence, leaf, roots, *, invariant: bool = False) -> None:
    """Visit each rooted column multiset conforming to ``ds`` = (k, r) once,
    with its weight and its battery verdict.

    Candidates are the r-subsets of range(len(k)) in lexicographic order.
    ``roots`` yields (candidate index, scale) pairs and is read lazily: the
    first column is fixed to each root in turn, and the other m - 1 come in
    non-decreasing candidate order.  ``leaf(cols, weight, distinct, d)``
    receives each multiset with its weight, the scale times the
    (m - 1)!/prod(mult!) orderings of the columns after the root, whether its
    columns are pairwise distinct, and its verdict: d, the number of
    4-cycles, if it is well-behaved (distinct columns passing (i)-(v) with
    the cap n2 = ``ds.four_cycle_cap``), else None.  With no column (m = 0)
    the one leaf is the empty graph.

    With ``invariant``, the caller sums over the leaves a value invariant
    under relabeling equal-degree vertices, so only the weighted totals are
    kept, not the leaves or their order.  Then, with m >= 4, a root for
    which ``_second_columns_pay`` holds fixes the second column as well, to
    each orbit of its stabiliser (``_second_columns``) in turn: the leaves
    below it are the multisets of the other m - 2 columns, weighted by the
    scale, the orbit's size and their (m - 2)!/prod(mult!) orderings.  The
    other roots, and every root without ``invariant``, keep the
    non-decreasing sweep of the other m - 1.

    The weight, the distinctness and the verdict are carried down the
    recursion as each column is pushed; a repeated column equals the one
    before it or a fixed column.  ``_push_verdict`` compares the pushed
    column with each placed one: sharing two left vertices adds one
    4-cycle, sharing three fails (i), and (iii) covers (i) and (ii).  So a
    push fails when a column meets two partners or one already on a
    4-cycle (iii), when the new 4-cycle's left pair and those of any two
    earlier ones span fewer than five left vertices (iv), or when the
    4-cycles outnumber n2 (v).  No property recovers, so a failed prefix
    does no battery work below it; its subtree is still swept for |B| and
    |B0|.

    The residuals are kept as one vertex mask per value, ``level[v]`` for
    v = 0..remaining, where ``remaining`` counts the columns still to
    place: a push moves the column's vertices down one level, and no node
    reads a per-vertex residual.  Feasibility is checked once, at the root:
    a root is skipped if it leaves a residual below 0 (it holds a vertex of
    residual 0, such as one of degree 0) or above m - 1.  Below the root
    every residual lies in [0, remaining], and the residuals sum to
    r * remaining, so at most r vertices sit at ``remaining``.  A pushed
    column holds every such (forced) vertex, ``level[remaining]``, and no
    vertex of ``level[0]``, which keeps the bound; so no push needs a
    residual check.

    A column of the multiset must have as its smallest vertex ``low``, the
    lowest vertex of positive residual: below ``low`` every residual is
    zero, and if the column skipped ``low``, no later column, being no
    smaller in candidate order, could hold it.  So the sweep tries only the
    candidates with smallest vertex ``low``, a slice of the candidate list.
    The last two columns are placed in one loop, with no call of their
    own.  With two columns left every residual is 0, 1 or 2, so a candidate
    c for the first of them leaves residual 1 on exactly the r vertices of
    (level[1] - c) + level[2], which must be the last column; the pair is
    kept if that column comes no earlier than c.  The root loop closes
    m = 1 (the root is the graph) and m = 2 (the root leaves the last
    column at level 1) itself.  The subtrees skipped hold no leaf, and the
    leaves, weights and their order are unchanged.
    """
    k, r, m, n2 = ds.k, ds.r, ds.edge_count(), ds.four_cycle_cap
    if m == 0:
        leaf([], 1, True, 0)
        return
    n = len(k)
    masks = _subset_masks(n, r)
    # first[j]: the index of the first candidate whose smallest vertex is j
    # or above, as C(n - 1 - j, r - 1) candidates have smallest vertex j
    first = list(accumulate((math.comb(n - 1 - j, r - 1) for j in range(n)), initial=0))
    cols: list[int] = []

    # ``level[v]``: the vertices of residual v, for v = 0..remaining; set by
    # the root loop below: ``fixed``, the one or two fixed columns before
    # the multiset, and ``scale``, their weight times the orderings of the
    # multiset's columns; ``div``: prod(mult!) over the multiset, ``run``:
    # the multiplicity of its last column (0 before its first),
    # ``state``: see ``_push_verdict``
    def rec(depth, level, start, div, run, distinct, state) -> None:
        remaining = m - depth
        zero = level[0]
        forced = level[remaining]
        low = (~zero & (zero + 1)).bit_length() - 1
        lo = max(start, first[low])
        tries = enumerate(masks[lo:first[low + 1]], lo)
        if remaining == 2:
            # every residual is 0, 1 or 2, so a column ``mask`` leaves the r
            # vertices of ``last`` at 1, and they are the last column; it
            # comes no earlier than ``mask`` unless the lowest vertex where
            # they differ is in ``last``
            ones = level[1]
            for idx, mask in tries:
                if mask & zero or mask & forced != forced:
                    continue
                last = ones & ~mask | forced
                differ = last ^ mask
                if differ & -differ & last:
                    continue
                run_next = run + 1 if run and mask == cols[-1] else 1
                run_last = run_next + 1 if last == mask else 1
                distinct_next = (distinct and mask != cols[-1] and last != mask
                                 and mask not in fixed and last not in fixed)
                state_next = (
                    None if state is None else _push_verdict(cols, mask, state, n2)
                )
                cols.append(mask)
                if state_next is not None:
                    state_next = _push_verdict(cols, last, state_next, n2)
                cols.append(last)
                leaf(cols, scale // (div * run_next * run_last),
                     distinct_next, None if state_next is None else len(state_next[0]))
                del cols[-2:]
            return
        for idx, mask in tries:
            if mask & zero or mask & forced != forced:
                continue
            run_next = run + 1 if run and mask == cols[-1] else 1
            # a repeated column follows its copy; a fixed column may equal any
            distinct_next = distinct and mask != cols[-1] and mask not in fixed
            state_next = (
                None if state is None else _push_verdict(cols, mask, state, n2)
            )
            cols.append(mask)
            rec(depth + 1, [a & ~mask | b & mask for a, b in zip(level, level[1:])],
                idx, div * run_next, run_next, distinct_next, state_next)
            cols.pop()

    if max(k) > m:
        return  # a vertex would need more columns than there are
    level = [sum(1 << j for j, v in enumerate(k) if v == d) for d in range(m + 1)]
    classes = [(d, c) for d, c in enumerate(level) if d and c]
    for idx, orbit in roots:
        mask = masks[idx]
        # feasible: it holds no vertex of degree 0 and every one of degree m
        if mask & level[0] or mask & level[m] != level[m]:
            continue
        cols.append(mask)
        if m == 1:
            leaf(cols, orbit, True, 0)
        elif m == 2:
            # the root leaves the r vertices of the last column at residual 1
            last = level[1] & ~mask | level[2]
            state = _push_verdict(cols, last, ((), 0), n2)
            cols.append(last)
            leaf(cols, orbit, last != mask, None if state is None else len(state[0]))
            cols.pop()
        else:
            after = [a & ~mask | b & mask for a, b in zip(level, level[1:])]
            stabiliser = invariant and m >= 4 and _stabiliser_groups(classes, mask, m)
            if stabiliser and _second_columns_pay(*stabiliser, m, r):
                for col, size in _second_columns(*stabiliser, r):
                    scale, fixed = orbit * size * math.factorial(m - 2), (mask, col)
                    state = _push_verdict(cols, col, ((), 0), n2)
                    cols.append(col)
                    rec(2, [a & ~col | b & col for a, b in zip(after, after[1:])],
                        0, 1, 0, col != mask, state)
                    cols.pop()
            else:
                scale, fixed = orbit * math.factorial(m - 1), (mask,)
                rec(1, after, 0, 1, 0, True, ((), 0))
        cols.pop()


def _orderings(rooted: tuple[int, ...]):
    """The distinct orderings of a rooted multiset, its first entry fixed
    and the others non-decreasing, lazily and in lexicographic order (the
    next-permutation step on the entries after the first)."""
    seq = list(rooted)
    while True:
        yield tuple(seq)
        i = len(seq) - 2
        while i >= 1 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 1:
            return
        j = len(seq) - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = reversed(seq[i + 1:])


def _first_orderings(rooted, limit: int | None = None):
    """An iterator over the ``limit`` (default: all) lexicographically
    smallest tuples among the distinct orderings of the given rooted
    multisets (see ``_orderings``), smallest first.

    Each multiset's orderings are generated lazily and in lexicographic
    order, so the merge draws one ordering per multiset plus ``limit`` more,
    not the (m - 1)!/prod(mult!) of each.
    """
    return islice(heapq.merge(*map(_orderings, rooted)), limit)


def count_matrices_by_classes(classes: Counter, r: int, m: int) -> int:
    """0-1 matrices with given row-sum classes (residual -> row count) and m
    columns of sum r, counted by dynamic programming over residual classes,
    one column per level.

    ``ways`` maps each state to the number of ways to fill the columns
    before it; a state holds the row counts at residuals 1..min(k_max,
    left), where ``left`` counts the columns still to fill.  A column takes
    t_i of the c_i rows at residual i, in prod C(c_i, t_i) ways, and moves
    them to residual i - 1.  A state is feasible exactly when its residuals
    sum to r * left and none exceeds ``left`` (Gale-Ryser, the column sums
    being equal).  So both are checked once, up front; then each column
    holds every row at residual ``left`` and takes from each residual below
    only what the residuals under it cannot make up.  No infeasible state
    is built, and with one column left every state is the r rows at
    residual 1, which fill it in one way.
    """
    top = max((res for res, cnt in classes.items() if cnt > 0), default=0)
    counts = tuple(classes[res] for res in range(1, top + 1))
    if sum(res * c for res, c in enumerate(counts, 1)) != r * m or top > m:
        return 0
    ways = {counts: 1}
    for left in range(m, 1, -1):
        step: dict[tuple[int, ...], int] = {}
        for state, w in ways.items():
            forced = state[-1] if len(state) == left else 0
            free = state[:left - 1]
            below = list(accumulate(free, initial=0))
            # the column is filled from the top residual down: a part is
            # (the next state's counts so far, top first; rows still to
            # take; rows taken one residual up, which land here; ways)
            parts = [((), r - forced, forced, w)]
            for i in range(len(free) - 1, -1, -1):
                c = free[i]
                parts = [(nxt + (c - t + up,), need - t, t, v * math.comb(c, t))
                         for nxt, need, up, v in parts
                         for t in range(max(0, need - below[i]), min(c, need) + 1)]
            for nxt, _, _, v in parts:
                nxt = nxt[::-1]
                step[nxt] = step.get(nxt, 0) + v
        ways = step
    return sum(ways.values())


def count_b_dp(ds: DegreeSequence) -> int:
    """|B| by the margin-class dynamic program: a route independent of the
    column sweep, cheap far past the search guard."""
    return count_matrices_by_classes(
        Counter(v for v in ds.k if v > 0), ds.r, ds.edge_count()
    )


class _ReportCounts:
    """Weighted class counts over the leaves of one sweep."""

    def __init__(self, n2: int):
        self.b = self.b0 = self.bplus = 0
        self.cd = [0] * (n2 + 1)

    def leaf(self, cols, weight: int, distinct: bool, d) -> None:
        self.b += weight
        if distinct:
            self.b0 += weight
        if d is not None:
            self.bplus += weight
            self.cd[d] += weight

    def add(self, other: "_ReportCounts") -> None:
        self.b += other.b
        self.b0 += other.b0
        self.bplus += other.bplus
        for d, c in enumerate(other.cd):
            self.cd[d] += c


def _report_branch(args) -> _ReportCounts:
    ds, roots = args
    counts = _ReportCounts(ds.four_cycle_cap)
    _sweep(ds, counts.leaf, roots, invariant=True)
    return counts


def _per_hypergraph(count: int, fact: int, what: str) -> int:
    """``count`` labeled graphs with distinct columns as hypergraphs: each
    one stands for ``fact`` = m! column orders."""
    quotient, rest = divmod(count, fact)
    if rest:
        raise InvariantViolation(f"(M/r)! = {fact} does not divide {what} = {count}")
    return quotient


def enumerate_bigraphs(
    ds: DegreeSequence,
    visitor=None,
    class_filter: ClassFilter = ClassFilter.ALL,
    *,
    max_space: int = DEFAULT_MAX_SPACE,
) -> int:
    """Count, and optionally visit, the conforming labeled bipartite graphs
    passing the filter.

    Columns are labeled (ordered), so two graphs differing only in column
    order are distinct.  Returns the number of graphs passing the filter.
    No filter depends on column order, so each column multiset is tested
    once and counted with its orderings, and the count sweeps from the
    first-column orbits.  ``visitor``, if given, is then called with each
    passing BipartiteGraph, in lexicographic order of its columns' candidate
    indices: the sweep roots at every candidate in turn, and the graphs of a
    root are its multisets' orderings, merged.
    """
    m = ds.edge_count()
    check_guard(ds, max_space)
    count = 0
    kept: list[tuple[int, ...]] = []

    def leaf(cols, weight: int, distinct: bool, d) -> None:
        nonlocal count
        if class_filter is ClassFilter.B0 and not distinct:
            return
        # for r >= 2 a repeated column or a failed property means a 4-cycle
        if class_filter is ClassFilter.NO_FOUR_CYCLE and d != 0:
            return
        if class_filter is ClassFilter.BPLUS and d is None:
            return
        count += weight
        if visitor is not None:
            kept.append(tuple(index[c] for c in cols))

    swept = _without_zeros(ds)
    if visitor is None:
        _sweep(swept, leaf, _orbit_roots(swept.k, swept.r), invariant=True)
        return count
    masks = _subset_masks(swept.n, swept.r)
    index = {mask: i for i, mask in enumerate(masks)}
    _sweep(swept, leaf, [(idx, 1) for idx in range(len(masks))])
    columns = _placed(ds, masks)
    for t in _first_orderings(kept):
        visitor(BipartiteGraph(ds.n, m, [columns[i] for i in t]))
    return count


def _first_switchable(
    ds: DegreeSequence, limit: int, max_space: int = DEFAULT_MAX_SPACE
) -> list[list[int]]:
    """Columns of the first ``limit`` well-behaved graphs with a 4-cycle, in
    the order ``enumerate_bigraphs`` visits labeled graphs.

    That order is lexicographic in the candidate indices of the columns.
    The sweep roots at every candidate in turn; conformity and the property
    battery ignore the order of the other columns, so the labeled graphs
    wanted are the ``limit`` smallest orderings of the qualifying rooted
    multisets.  No graph of a later root comes before a graph of an earlier
    one, so the roots stop once the kept multisets stand for ``limit``
    graphs.
    """
    ds.edge_count()
    check_guard(ds, max_space)
    swept = _without_zeros(ds)
    masks = _subset_masks(swept.n, swept.r)
    index = {mask: i for i, mask in enumerate(masks)}
    found: list[tuple[int, ...]] = []
    graphs = 0

    def leaf(cols, weight: int, distinct: bool, d) -> None:
        nonlocal graphs
        if d:
            found.append(tuple(index[c] for c in cols))
            graphs += weight

    # read lazily: no root is yielded once ``limit`` graphs are kept
    _sweep(swept, leaf, ((idx, 1) for idx in range(len(masks)) if graphs < limit))
    columns = _placed(ds, masks)
    return [[columns[i] for i in t] for t in _first_orderings(found, limit)]


def hyper_class_profile(
    ds: DegreeSequence, *, max_space: int = DEFAULT_MAX_SPACE
) -> tuple[int, ...]:
    """Count well-behaved hypergraphs by their number of double links.

    Entry d is the number of simple hypergraphs with degree sequence k that
    pass the hypergraph-side property battery (``dual_failed_properties``)
    and have exactly d double links.  Multiplying entry d by (M/r)! must reproduce the bipartite
    4-cycle profile; that identity is exercised in the test-suite.  The
    rooted sweep of ``full_report`` visits the hypergraphs as labeled graphs
    with distinct columns; their weights sum to (M/r)! per hypergraph.
    """
    m = ds.edge_count()
    check_guard(ds, max_space)
    ds = _without_zeros(ds)
    n2 = ds.four_cycle_cap
    profile = [0] * (n2 + 1)

    def leaf(masks, weight: int, distinct: bool, d) -> None:
        if not distinct:
            return
        hg = Hypergraph(ds.n, [tuple(_bits(mask)) for mask in masks])
        if not dual_failed_properties(hg, n2):
            profile[len(hyper_properties(hg).double_links)] += weight

    _sweep(ds, leaf, _orbit_roots(ds.k, ds.r), invariant=True)
    fact = math.factorial(m)
    return tuple(
        _per_hypergraph(c, fact, f"the weight of class C_{d}")
        for d, c in enumerate(profile)
    )


def full_report(
    ds: DegreeSequence,
    *,
    max_space: int = DEFAULT_MAX_SPACE,
    workers: int = 1,
) -> OracleReport:
    """All exact counts in one orbit-rooted sweep (see the module docstring),
    with every identity asserted.

    With ``workers > 1`` the sweep fans out over the first-column orbits
    (``_orbit_roots``), dealt round-robin into min(workers, orbits) tasks
    run under the library's pool policy (``_pool.map_tasks``); totals are
    merged by summation and do not depend on the worker count.
    """
    if workers < 1:
        raise InvalidArgument("workers must be >= 1")
    m = ds.edge_count()
    check_guard(ds, max_space)

    # roots dealt round-robin, one sweep per task
    swept = _without_zeros(ds)
    roots = _orbit_roots(swept.k, swept.r)
    n_tasks = max(1, min(workers, len(roots)))
    tasks = [(swept, roots[w::n_tasks]) for w in range(n_tasks)]
    counts = _ReportCounts(ds.four_cycle_cap)
    for part in map_tasks(_report_branch, tasks, workers):
        counts.add(part)

    fact = math.factorial(m)
    report = OracleReport(
        count_b=counts.b,
        count_b0=counts.b0,
        count_bplus=counts.bplus,
        count_h=_per_hypergraph(counts.b0, fact, "|B0|"),
        count_l=_per_hypergraph(counts.cd[0], fact, "|C0|"),
        cd_profile=tuple(counts.cd),
    )
    _assert_report_invariants(report, ds)
    return report


def count_hypergraphs(
    ds: DegreeSequence, *, max_space: int = DEFAULT_MAX_SPACE
) -> tuple[int, int]:
    """Exact (simple, linear) hypergraph counts, (|H|, |L|), as
    ``full_report`` derives them from its sweep: |B0|/m! and |C0|/m!."""
    report = full_report(ds, max_space=max_space)
    return report.count_h, report.count_l


def _assert_report_invariants(report: OracleReport, ds: DegreeSequence) -> None:
    count_b = count_b_dp(ds)
    if report.count_b != count_b:
        raise InvariantViolation(
            f"|B| = {report.count_b} from the column sweep != {count_b} from "
            f"the margin-class DP on r={ds.r}, k={ds.k}"
        )
    if sum(report.cd_profile) != report.count_bplus:
        raise InvariantViolation("4-cycle profile does not sum to |B+|")
    if not report.count_l <= report.count_h:
        raise InvariantViolation("|L| > |H|")
    if not report.count_bplus <= report.count_b0 <= report.count_b:
        raise InvariantViolation("|B+| <= |B0| <= |B| violated")


def _occurrences_from_cols(n_left: int, cols: tuple[int, ...], pattern: Pattern) -> int:
    """Number of labeled occurrences of the pattern in one graph.

    The two composite patterns count configurations of 4-cycles: pairs of
    distinct 4-cycles sharing exactly one right vertex (and not riding on the
    same left pair), and triples of 4-cycles that are pairwise right-disjoint,
    have pairwise distinct left pairs, and involve at most four left vertices.
    """
    if pattern is Pattern.K32:
        total = 0
        for c1, c2 in combinations(cols, 2):
            t = (c1 & c2).bit_count()
            if t >= 3:
                total += math.comb(t, 3)
        return total
    if pattern is Pattern.K23:
        cnt: Counter = Counter()
        for c in cols:
            for p in combinations(tuple(_bits(c)), 2):
                cnt[p] += 1
        return sum(math.comb(v, 3) for v in cnt.values() if v >= 3)

    cycles = _four_cycles(n_left, cols)
    if pattern is Pattern.TWO_FOUR_CYCLES_SHARED_RIGHT:
        total = 0
        for a, b in combinations(cycles, 2):
            shared_right = len({a[2], a[3]} & {b[2], b[3]})
            if shared_right == 1 and (a[0], a[1]) != (b[0], b[1]):
                total += 1
        return total
    if pattern is Pattern.THREE_FOUR_CYCLES_FOUR_LEFT:
        total = 0
        for a, b, c in combinations(cycles, 3):
            pairs = {(a[0], a[1]), (b[0], b[1]), (c[0], c[1])}
            if len(pairs) < 3:
                continue
            rights = {a[2], a[3], b[2], b[3], c[2], c[3]}
            if len(rights) < 6:
                continue
            lefts = {a[0], a[1], b[0], b[1], c[0], c[1]}
            if len(lefts) <= 4:
                total += 1
        return total
    raise InvalidArgument(f"unknown pattern {pattern!r}")


def pattern_expectation(
    ds: DegreeSequence, pattern: Pattern, *, max_space: int = DEFAULT_MAX_SPACE
) -> Fraction:
    """Exact expected number of labeled occurrences of the pattern in a
    uniformly random conforming bipartite graph."""
    ds.edge_count()
    check_guard(ds, max_space)
    ds = _without_zeros(ds)
    total = 0
    graphs = 0

    def leaf(cols, weight: int, distinct: bool, d) -> None:
        nonlocal total, graphs
        graphs += weight
        total += weight * _occurrences_from_cols(ds.n, tuple(cols), pattern)

    _sweep(ds, leaf, _orbit_roots(ds.k, ds.r), invariant=True)
    if graphs == 0:
        raise InvalidArgument("no conforming graphs exist; expectation undefined")
    return Fraction(total, graphs)


def pattern_upper_bound(ds: DegreeSequence, pattern: Pattern) -> Fraction:
    """Sum of the per-placement containment bounds over all placements of
    the pattern.

    Placements are enumerated explicitly, so this is meant for desk-scale
    instances.  Raises PreconditionFailed when placements exist but the
    containment bound's hypothesis fails on this instance.
    """
    m = ds.edge_count()
    n, r, k = ds.n, ds.r, ds.k
    g_left = list(k)
    g_right = [r] * m
    total = Fraction(0)

    def bound(left_deg: dict[int, int], right_degs: list[int]) -> Fraction:
        l_left = [0] * n
        for j, v in left_deg.items():
            l_left[j] = v
        l_right = [0] * m
        for slot, v in enumerate(right_degs):
            l_right[slot] = v
        return mckay_upper_bound(g_left, g_right, l_left, l_right)

    if pattern is Pattern.K32:
        if m >= 2 and n >= 3:
            pairs = math.comb(m, 2)
            for trio in combinations(range(n), 3):
                total += pairs * bound({j: 2 for j in trio}, [3, 3])
        return total
    if pattern is Pattern.K23:
        if m >= 3 and n >= 2:
            rights = math.comb(m, 3)
            for duo in combinations(range(n), 2):
                total += rights * bound({j: 3 for j in duo}, [2, 2, 2])
        return total
    if pattern is Pattern.TWO_FOUR_CYCLES_SHARED_RIGHT:
        # shape sharing one left and one right: centers (jc, ic), outer
        # couples (ja, ia), (jb, ib); roles of ja < jb fix the orientation
        if m >= 3 and n >= 3:
            mult = m * (m - 1) * (m - 2)
            for jc in range(n):
                for ja, jb in combinations(range(n), 2):
                    if jc in (ja, jb):
                        continue
                    total += mult * bound({jc: 3, ja: 2, jb: 2}, [3, 2, 2])
        # shape sharing only a right vertex: center right of degree 4,
        # two disjoint left pairs; canonical order on the pairs kills the swap
        if m >= 3 and n >= 4:
            mult = m * (m - 1) * (m - 2)
            for p1 in combinations(range(n), 2):
                for p2 in combinations(range(n), 2):
                    if p1 >= p2 or set(p1) & set(p2):
                        continue
                    deg = {p1[0]: 2, p1[1]: 2, p2[0]: 2, p2[1]: 2}
                    total += mult * bound(deg, [4, 2, 2])
        return total
    if pattern is Pattern.THREE_FOUR_CYCLES_FOUR_LEFT:
        if m >= 6 and n >= 3:
            right_ways = (
                math.comb(m, 2) * math.comb(m - 2, 2) * math.comb(m - 4, 2)
            )
            all_pairs = list(combinations(range(n), 2))
            for trio in combinations(all_pairs, 3):
                lefts = set(trio[0]) | set(trio[1]) | set(trio[2])
                if len(lefts) > 4:
                    continue
                deg: Counter = Counter()
                for p in trio:
                    deg[p[0]] += 2
                    deg[p[1]] += 2
                total += right_ways * bound(dict(deg), [2] * 6)
        return total
    raise InvalidArgument(f"unknown pattern {pattern!r}")


def _check_edge_sizes(rs) -> None:
    for r in rs:
        if r < 2:
            raise InvalidR(f"edge size r must be >= 2, got {r}")


def canonical_battery(
    max_n: int = 6,
    rs=(3, 4),
    k_max: int = 3,
    max_space: int = DEFAULT_MAX_SPACE,
) -> list[DegreeSequence]:
    """Canonical small-instance battery: all non-increasing degree vectors
    with at most ``max_n`` entries in 1..k_max, degree sum divisible by r and
    inside the resource guard.

    Counts are invariant under permuting k, so non-increasing representatives
    cover all instances.  An edge size below 2 raises InvalidR.
    """
    _check_edge_sizes(rs)
    out: list[DegreeSequence] = []

    def vectors(prefix, max_part, length_left):
        if prefix:
            yield tuple(prefix)
        if length_left == 0:
            return
        for part in range(min(max_part, k_max), 0, -1):
            prefix.append(part)
            yield from vectors(prefix, part, length_left - 1)
            prefix.pop()

    for r in rs:
        for k in vectors([], k_max, max_n):
            m_sum = sum(k)
            if m_sum % r != 0 or m_sum < r or m_sum > max_space:
                continue
            out.append(DegreeSequence(r=r, k=k))
    return out


def random_guarded_instances(
    count: int,
    seed: int,
    max_n: int = 7,
    rs=(3, 4),
    k_max: int = 3,
    max_space: int = DEFAULT_MAX_SPACE,
) -> list[DegreeSequence]:
    """Seeded stream of random in-guard instances (r | M, at least one edge).
    An edge size below 2 raises InvalidR."""
    _check_edge_sizes(rs)
    rng = random.Random(seed)
    out: list[DegreeSequence] = []
    while len(out) < count:
        r = rng.choice(list(rs))
        n = rng.randint(1, max_n)
        k = tuple(rng.randint(0, k_max) for _ in range(n))
        m_sum = sum(k)
        if m_sum % r != 0 or m_sum < r or m_sum > max_space:
            continue
        out.append(DegreeSequence(r=r, k=k))
    return out
