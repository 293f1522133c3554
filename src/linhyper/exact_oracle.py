"""Brute-force enumeration of all conforming objects at desk scale.

This module is the ground truth everything else is tested against.  Every
search runs through one backtracker, ``_sweep``: it fills the m = M/r
incidence columns with r-subsets of the vertices of positive residual degree,
each holding every vertex forced into all remaining columns.  It fixes the
first one or two columns to each of a list of prefixes and fills the others
in non-decreasing candidate order, so it visits each prefixed multiset once,
weighted by the orderings of its other columns: column order changes no
count and no 4-cycle.  Residual feasibility is checked only at the root, the
first column; below it the forced vertices keep every residual feasible.
Each column after the prefix holds the lowest vertex of positive residual,
so the sweep tries only that range of candidates.  The residuals are kept as
one vertex mask per residual value, built once per instance in one pass
over k (``_degree_masks``, which also gives the invariant prefixes their
degree classes), and the last two columns are closed in one loop: with two
columns left, each candidate for the first fixes the second, the set of
vertices it leaves needing one column (see ``_sweep``).

The sweep also carries each multiset's verdict under the property battery
of ``bigraph_core`` down the recursion, so no leaf runs the battery: a
pushed column is compared with each placed one (``_push_verdict``), and a
leaf receives d, its number of 4-cycles, if it is well-behaved, else None.
For pass or fail, (iii) (no right vertex on two 4-cycles) covers (i) and
(ii): a K_{3,2} puts a right vertex on three 4-cycles and a K_{2,3} one on
two.  No property recovers when a column is added, so leaves below a failed
prefix inherit its failure, and leaves sharing a prefix share its
4-cycles.  The verdict is tested against ``bigraph_core._classification``,
the one whole-graph verdict builder.

Every sweep leaves out the zero-degree vertices (``_without_zeros``),
which enter no column, and there are two prefix lists.  Counts invariant
under relabeling equal-degree vertices (``full_report``,
``pattern_expectation``, ``hyper_class_profile`` and ``enumerate_bigraphs``
without a visitor) sweep from one prefix per orbit under those relabelings,
with weights that divide back into the counts (``_invariant_prefixes``),
all through one driver, ``_invariant_totals``.  Labeled graphs in order
(``enumerate_bigraphs`` with a visitor, ``_first_switchable``) share one
helper, ``_labelled``: it roots at every candidate in turn, merges the
orderings of the multisets it keeps (``_first_orderings``) and moves each
column back onto the vertices of k.

A labeled graph with distinct columns stands for one hypergraph per m!
orderings, so |H| = |B0|/m! and |L| = |C0|/m!; m! failing to divide either
is an identity violation, and so is a failed inclusion between classes.
The independent check is |B| against ``count_b_dp``, a dynamic program
over residual-degree classes, one column per level down to the last two,
which it closes in one step (``count_matrices_by_classes``); it lists no
graph and shares no code with the sweep, not even the degree masks.  The
driver makes it for every invariant count (``_check_count_b``), so a wrong
prefix, prefix weight or rescale is caught at run time.  A failed identity
raises InvariantViolation, which always means an implementation bug rather
than bad input.

Instances are admitted through a resource guard: by default degree sums up
to 16 and up to 10 vertices of positive degree.  Exceeding the guard is an
error, never a silent truncation.
"""
from __future__ import annotations

import functools
import heapq
import math
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, combinations, islice

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
from .degree_model import DegreeSequence, _as_int
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
    max_space = _as_int(max_space)
    n_pos = ds.n - ds.k.count(0)
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


@functools.cache
def _slice_starts(n: int, r: int) -> tuple[int, ...]:
    """Entry j: the index in ``_subset_masks(n, r)`` of the first candidate
    whose smallest vertex is j or above, as C(n - 1 - j, r - 1) candidates
    have smallest vertex j; entry n is their number.  Built once per (n, r)
    and shared by every sweep, as the masks are."""
    return tuple(accumulate((math.comb(n - 1 - j, r - 1) for j in range(n)), initial=0))


def _degree_masks(k, m: int) -> list[int]:
    """Entry d: the mask of the vertices of degree d in ``k``, for d =
    0..m, built in one pass; every degree lies in 0..m.  It gives ``_sweep``
    its starting residual levels and ``_invariant_prefixes`` its degree
    classes."""
    level = [0] * (m + 1)
    for j, v in enumerate(k):
        level[v] |= 1 << j
    return level


def _without_zeros(ds: DegreeSequence) -> DegreeSequence:
    """``ds`` without its zero-degree vertices.  They enter no column, so no
    count depends on them and a sweep of ``ds``'s graphs is a sweep of this
    instance's with its columns moved back (``_labelled``), while a sweep over
    ``ds`` would list all C(n, r) candidates, zero-degree vertices
    included."""
    return ds if 0 not in ds.k else DegreeSequence(r=ds.r, k=tuple(v for v in ds.k if v))


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


def _takes(group: int) -> list[tuple[int, int]]:
    """Entry t: the mask of the first t vertices of the vertex mask
    ``group`` and C(|group|, t), for t = 0..|group|."""
    takes, rest, size = [(0, 1)], group, group.bit_count()
    for t in range(1, size + 1):
        rest &= rest - 1  # ``group`` less its first t vertices
        takes.append((group ^ rest, math.comb(size, t)))
    return takes


def _orbit_columns(forced: int, groups: list[int], r: int) -> list[tuple[int, int]]:
    """One column per orbit of the r-subsets holding every ``forced``
    vertex (at most r), under permutations within each of the vertex masks
    ``groups``, as (mask, orbit size).

    Such a column holds the forced vertices and t vertices of each group;
    its orbit is fixed by the takes t and holds prod C(|group|, t) columns,
    the first of which, in candidate order, takes the first t vertices of
    each group (``_takes``).  The first column's groups are the degree
    classes below m, with the class of degree m forced, and a root's second
    column's those of its stabiliser (``_stabiliser_groups``); see
    ``_invariant_prefixes``.
    """
    # (column so far, orbit size, vertices still to take), one group at a time
    parts = [(forced, 1, r - forced.bit_count())]
    # the last group takes every vertex still to take (a group of no vertex
    # if there is none)
    *groups, last = groups or [0]
    for group in groups:
        takes = _takes(group)
        parts = [(col | head, orbit * ways, left - t) for col, orbit, left in parts
                 for t, (head, ways) in enumerate(takes[:left + 1])]
    takes = _takes(last)
    return [(col | takes[left][0], orbit * takes[left][1])
            for col, orbit, left in parts if left < len(takes)]


def _root_group(classes, roots) -> int:
    """S, the vertex group the invariant roots must meet (see
    ``_invariant_prefixes``), as a mask: of ``classes``, (degree, mask)
    pairs by degree, the one met by the fewest of ``roots``, the lowest
    degree on a tie, or 0 (none) if every class meets every root, as a
    single class does."""
    group, met = 0, len(roots)
    for _, mask in classes:
        n_met = sum(1 for root, _ in roots if root & mask)
        if n_met < met:
            group, met = mask, n_met
    return group


@functools.cache
def _second_scale(r: int, m: int) -> int:
    """D, the factor of every weight of an invariant sweep: lcm(1..r(m-2)),
    as a second level's K' = |S'| rho has |S'| <= r and rho <= m - 2, or 1
    below m = 4, where no second column is fixed."""
    return math.lcm(*range(1, r * (m - 2) + 1)) if m >= 4 else 1


def _second_group(groups: list[int], root: int) -> int:
    """S', the group a root's fixed second columns must meet: the stabiliser
    group inside ``root`` of lowest residual, or 0 if there is none.  Those
    groups come from distinct classes, so no two share a residual, and
    ``_stabiliser_groups`` lists them by degree, so the first is the one."""
    return next((g for g in groups if g & root), 0)


def _invariant_prefixes(ds: DegreeSequence):
    """The prefixes of an invariant sweep of ``ds`` (zero-free), as (fixed
    columns, scale) pairs, and the num and den that turn the sweep's totals
    into counts (``_quotient``).

    Its callers sum over the leaves a value invariant under relabeling
    equal-degree vertices and unchanged by reordering columns, so only the
    weighted totals matter, not the leaves or their order.  The first
    column, the root, is one column per orbit under those relabelings
    (``_orbit_columns``), weighted by the orbit's size prod C(|class|,
    t_class): on a single degree class, one root instead of C(n, r).  The
    class of degree m is forced, so every root is feasible.  With m >= 4
    the prefixes go one level further (McKay 1998, "Isomorph-free
    exhaustive generation"): once the root R is fixed, every count is still
    invariant under R's stabiliser, which relabels the equal-degree
    vertices inside R among themselves and those outside it
    (``_stabiliser_groups``).  So the second column is fixed to one column
    per orbit of that stabiliser, weighted by the orbit's size, and the
    sweep fills the other m - 2 columns as a multiset.

    Both fixed columns keep only the orbits that meet one vertex group.
    Let f, summed over labeled graphs, not change when columns are
    reordered and let K_S be the degree sum of a vertex set S.  Every graph
    has K_S incidences in S, and over the orderings of a column multiset
    each column comes first equally often, so sum f = (m / K_S) sum f |c_1
    & S|.  As S is a degree class (``_root_group``), |c_1 & S| is constant
    on each orbit: the roots that avoid S drop out, and a kept root R
    weighs its orbit's size times |R & S|.  Below R the same holds for the
    other m - 1 columns with their residuals, for S' one of R's stabiliser
    groups (``_second_group``) and K' = |S'| rho: a kept second column c
    weighs its orbit's size times |c & S'| (m - 1) / K'.  Without S or S',
    every orbit is kept at its size.  To keep weights whole, every weight
    is multiplied by one D that each K' divides (``_second_scale``); the
    totals, D K_S / m times the counts, are divided back, where a remainder
    is an identity violation.
    """
    k, r, m = ds.k, ds.r, ds.edge_count()
    if m == 0 or max(k) > m:
        return [], 1, 1  # the sweep's one empty leaf, or no graph
    level = _degree_masks(k, m)
    classes = [(d, c) for d, c in enumerate(level) if d and c]
    roots = _orbit_columns(level[m], [c for d, c in classes if d < m], r)
    group = _root_group(classes, roots)
    unit = _second_scale(r, m)
    num, den = 1, unit
    if group:  # K_S = d |S| for S the class of degree d
        num, den = m, unit * k[(group & -group).bit_length() - 1] * group.bit_count()
    prefixes = []
    for root, orbit in roots:
        weight = orbit * (root & group).bit_count() if group else orbit
        if weight:
            prefixes += (_second_prefixes(ds, classes, root, weight) if m >= 4
                         else [((root,), weight)])
    return prefixes, num, den


def _second_prefixes(ds: DegreeSequence, classes, root: int, weight: int):
    """The prefixes of the kept root ``root`` of weight ``weight`` at m >=
    4: (root, c) for one second column c per orbit of the root's
    stabiliser, if there is an S' only those that meet it, with their
    scales (see ``_invariant_prefixes``)."""
    k, r, m = ds.k, ds.r, ds.edge_count()
    forced, groups = _stabiliser_groups(classes, root, m)
    seconds = _orbit_columns(forced, groups, r)
    second = _second_group(groups, root)
    per = _second_scale(r, m)
    if second:
        # |c & S'| (m - 1) / K', K' = |S'| rho, in units of 1 / D
        per = per // (second.bit_count() * (k[(second & -second).bit_length() - 1] - 1)) * (m - 1)
        seconds = [(c, size * (c & second).bit_count()) for c, size in seconds if c & second]
    return [((root, c), weight * size * per) for c, size in seconds]


def _sweep(ds: DegreeSequence, leaf, prefixes) -> None:
    """Visit each prefixed column multiset conforming to ``ds`` = (k, r)
    once, with its weight and its battery verdict.

    Candidates are the r-subsets of range(len(k)) in lexicographic order.
    ``prefixes`` yields (fixed columns, scale) pairs and is read lazily:
    the first f = 1 or 2 columns are fixed to each prefix in turn, and the
    other m - f come in non-decreasing candidate order from the first
    candidate on.  ``leaf(cols, weight, distinct, d)`` receives each
    multiset with its weight, the scale times the (m - f)!/prod(mult!)
    orderings of the columns after the prefix, whether its columns are
    pairwise distinct, and its verdict: d, the number of 4-cycles, if it is
    well-behaved (distinct columns passing (i)-(v) with the cap n2 =
    ``ds.four_cycle_cap``), else None.  With no column (m = 0) the one leaf
    is the empty graph.  The labeled sweeps fix one column, each candidate
    in turn (``_labelled``); the invariant counts fix one or two
    (``_invariant_prefixes``).

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
    reads a per-vertex residual.  Feasibility is checked once, at the root,
    the first fixed column: a prefix is skipped if its root leaves a
    residual below 0 (it holds a vertex of residual 0, such as one of
    degree 0) or above m - 1; a second fixed column must be feasible below
    the root, as ``_invariant_prefixes``'s are.  Below the prefix every
    residual lies in [0, remaining], and the residuals sum to r *
    remaining, so at most r vertices sit at ``remaining``.  A pushed column
    holds every such (forced) vertex, ``level[remaining]``, and no vertex
    of ``level[0]``, which keeps the bound; so no push needs a residual
    check.

    A column of the multiset must have as its smallest vertex ``low``, the
    lowest vertex of positive residual: below ``low`` every residual is
    zero, and if the column skipped ``low``, no later column, being no
    smaller in candidate order, could hold it.  So the sweep tries only the
    candidates with smallest vertex ``low``, a slice of the candidate list.
    The last two columns are placed in one loop, with no call of their
    own.  With two columns left every residual is 0, 1 or 2, so a candidate
    c for the first of them leaves residual 1 on exactly the r vertices of
    (level[1] - c) + level[2], which must be the last column; the pair is
    kept if that column comes no earlier than c.  A prefix that leaves one
    column closes it at once, as ``level[1]``, and one that leaves none is
    the graph.  The subtrees skipped hold no leaf, and the leaves, weights
    and their order are unchanged.
    """
    k, r, m, n2 = ds.k, ds.r, ds.edge_count(), ds.four_cycle_cap
    if m == 0:
        leaf([], 1, True, 0)
        return
    n = len(k)
    # first[j]: where the slice of candidates with smallest vertex j starts
    masks, first = _subset_masks(n, r), _slice_starts(n, r)
    cols: list[int] = []

    # ``level[v]``: the vertices of residual v, for v = 0..remaining; set by
    # the prefix loop below: ``fixed``, the one or two fixed columns before
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
    top = _degree_masks(k, m)
    for fixed, scale in prefixes:
        # feasible: the root holds no vertex of degree 0 and every one of degree m
        if fixed[0] & top[0] or fixed[0] & top[m] != top[m]:
            continue
        level, distinct, state = top, True, ((), 0)
        # the fixed columns, then the last one if it is all that is left
        for i in range(len(fixed) + (m - len(fixed) == 1)):
            col = fixed[i] if i < len(fixed) else level[1]
            distinct = distinct and col not in cols
            state = None if state is None else _push_verdict(cols, col, state, n2)
            cols.append(col)
            level = [a & ~col | b & col for a, b in zip(level, level[1:])]
        if len(cols) == m:
            leaf(cols, scale, distinct, None if state is None else len(state[0]))
        else:
            scale *= math.factorial(m - len(fixed))
            rec(len(fixed), level, 0, 1, 0, distinct, state)
        cols.clear()


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
    one column per level down to the last two.

    ``ways`` maps each state to the number of ways to fill the columns
    before it; a state holds the row counts at residuals 1..min(k_max,
    left), where ``left`` counts the columns still to fill.  A column takes
    t_i of the c_i rows at residual i, in prod C(c_i, t_i) ways, and moves
    them to residual i - 1.  A state is feasible exactly when its residuals
    sum to r * left and none exceeds ``left`` (Gale-Ryser, the column sums
    being equal).  So both are checked once, up front; then each column
    holds every row at residual ``left`` and takes from each residual below
    only what the residuals under it cannot make up.  No infeasible state
    is built, and the last two columns are closed in one step: with two
    left, the c_2 rows at residual 2 lie in both, and the first takes r -
    c_2 of the c_1 rows at residual 1, the second the others, in C(c_1, r -
    c_2) ways.  With fewer than two columns a feasible state fills them in
    one way.
    """
    top = max((res for res, cnt in classes.items() if cnt > 0), default=0)
    counts = tuple(classes[res] for res in range(1, top + 1))
    if sum(res * c for res, c in enumerate(counts, 1)) != r * m or top > m:
        return 0
    if m < 2:
        return 1
    ways = {counts: 1}
    for left in range(m, 2, -1):
        step: dict[tuple[int, ...], int] = {}
        for state, w in ways.items():
            forced = state[-1] if len(state) == left else 0
            free = state[:left - 1]
            below = list(accumulate(free, initial=0))
            # the column is filled from the top residual down: a part is
            # (the next state's counts above this residual; rows still to
            # take; rows taken one residual up, which land here; ways)
            parts = [((), r - forced, forced, w)]
            for i in range(len(free) - 1, 0, -1):
                c = free[i]
                parts = [((c - t + up,) + nxt, need - t, t, v * math.comb(c, t))
                         for nxt, need, up, v in parts
                         for t in range(max(0, need - below[i]), min(c, need) + 1)]
            # the rows at residual 1 take the rest
            c = free[0]
            for nxt, need, up, v in parts:
                if need <= c:
                    nxt = (c - need + up,) + nxt
                    step[nxt] = step.get(nxt, 0) + v * math.comb(c, need)
        ways = step
    total = 0
    for state, w in ways.items():
        c1, c2 = state if len(state) == 2 else (state[0], 0)
        total += w * math.comb(c1, r - c2)
    return total


def count_b_dp(ds: DegreeSequence) -> int:
    """|B| by the margin-class dynamic program: a route independent of the
    column sweep, cheap far past the search guard."""
    return count_matrices_by_classes(Counter(ds.k), ds.r, ds.edge_count())


def _report_branch(args) -> list[int]:
    """One task's weighted totals: |B|, |B0|, |B+|, then the well-behaved
    graphs by their number d of 4-cycles.  Their 4-cycles use disjoint right
    pairs (iii), so d <= min(n2, m // 2)."""
    ds, prefixes = args
    totals = [0] * (min(ds.four_cycle_cap, ds.edge_count() // 2) + 4)

    def leaf(cols, weight: int, distinct: bool, d) -> None:
        totals[0] += weight
        if distinct:
            totals[1] += weight
        if d is not None:
            totals[2] += weight
            totals[3 + d] += weight

    _sweep(ds, leaf, prefixes)
    return totals


def _quotient(count: int, divisor: int, what: str) -> int:
    """``count`` / ``divisor``, which must be whole, or an identity
    violation: labeled graphs with distinct columns as hypergraphs (m!
    column orders each), or an invariant sweep's totals, times num / den,
    as the counts they stand for (``_invariant_prefixes``)."""
    quotient, rest = divmod(count, divisor)
    if rest:
        raise InvariantViolation(f"{divisor} does not divide {what} = {count}")
    return quotient


def _check_count_b(ds: DegreeSequence, count_b: int) -> None:
    """|B| from a sweep against ``count_b_dp``, the independent route."""
    want = count_b_dp(ds)
    if count_b != want:
        raise InvariantViolation(
            f"|B| = {count_b} from the column sweep != {want} from "
            f"the margin-class DP on r={ds.r}, k={ds.k}"
        )


def _invariant_totals(ds: DegreeSequence, tally, workers: int = 1) -> list[int]:
    """The totals of ``tally`` over the graphs conforming to ``ds``, as
    counts.  ``tally((swept, prefixes))``, module-level so that a worker
    process can run it, sweeps ``swept`` (``ds`` without its zero-degree
    vertices) from ``prefixes`` and returns weighted totals, entry 0 the
    weight of every leaf.  The ``_invariant_prefixes`` are dealt
    round-robin into min(workers, prefixes) tasks (``_pool.map_tasks``);
    the summed totals are divided back (``_quotient``), and entry 0, |B|,
    is checked against ``count_b_dp`` (``_check_count_b``)."""
    workers = _as_int(workers)
    if workers < 1:
        raise InvalidArgument("workers must be >= 1")
    swept = _without_zeros(ds)
    prefixes, num, den = _invariant_prefixes(swept)
    n_tasks = max(1, min(workers, len(prefixes)))
    parts = map_tasks(tally, [(swept, prefixes[w::n_tasks]) for w in range(n_tasks)], workers)
    totals = [_quotient(sum(t) * num, den, "a rescaled total") for t in zip(*parts)]
    _check_count_b(ds, totals[0])
    return totals


# whether a multiset passes each filter, from the distinctness and verdict
# ``_sweep`` gives it, for the labelled sweep; for r >= 2 a repeated column
# or a failed property means a 4-cycle
_KEEPS = {ClassFilter.ALL: lambda distinct, d: True,
          ClassFilter.B0: lambda distinct, d: distinct,
          ClassFilter.BPLUS: lambda distinct, d: d is not None,
          ClassFilter.NO_FOUR_CYCLE: lambda distinct, d: d == 0}
# the entry of ``_report_branch``'s totals that counts each filter
_ENTRIES = {ClassFilter.ALL: 0, ClassFilter.B0: 1, ClassFilter.BPLUS: 2,
            ClassFilter.NO_FOUR_CYCLE: 3}


def _labelled(ds: DegreeSequence, keep, limit: int | None = None):
    """The columns of the labeled graphs conforming to ``ds`` whose
    multiset passes ``keep(distinct, d)``, lazily and in lexicographic order
    of their candidate indices; with ``limit``, only the first ``limit``.

    The sweep roots at every candidate in turn; no kept property depends on
    the order of the other columns, so the graphs wanted are the smallest
    orderings of the kept rooted multisets.  No graph of a later root comes
    before a graph of an earlier one, so the roots stop once the kept
    multisets stand for ``limit`` graphs.  The sweep leaves out the
    zero-degree vertices, and each column is moved back onto the vertices
    of k; that relabeling is monotone, so it keeps the order.
    """
    swept = _without_zeros(ds)
    masks = _subset_masks(swept.n, swept.r)
    index = {mask: i for i, mask in enumerate(masks)}
    kept: list[tuple[int, ...]] = []
    graphs = 0

    def leaf(cols, weight: int, distinct: bool, d) -> None:
        nonlocal graphs
        if keep(distinct, d):
            kept.append(tuple(index[c] for c in cols))
            graphs += weight

    # read lazily: no root is yielded once ``limit`` graphs are kept
    _sweep(swept, leaf, (((mask,), 1) for mask in masks if limit is None or graphs < limit))
    # bit v of a swept column is the v-th positive-degree vertex of ``ds``
    positive = [j for j, v in enumerate(ds.k) if v]
    columns = masks if swept is ds else [sum(1 << positive[v] for v in _bits(c)) for c in masks]
    for t in _first_orderings(kept, limit):
        yield [columns[i] for i in t]


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
    No filter depends on column order, so without a visitor the count is
    the filter's entry of ``full_report``'s totals (``_report_branch``,
    through ``_invariant_totals``).  ``visitor``, if given, is called with
    each passing BipartiteGraph, in lexicographic order of its columns'
    candidate indices (``_labelled``), and the count is the number of
    visits.  A filter that is not a ClassFilter is InvalidArgument.
    """
    m = ds.edge_count()
    check_guard(ds, max_space)
    if not isinstance(class_filter, ClassFilter):
        raise InvalidArgument(f"unknown class filter {class_filter!r}")
    if visitor is None:
        return _invariant_totals(ds, _report_branch)[_ENTRIES[class_filter]]
    count = 0
    for cols in _labelled(ds, _KEEPS[class_filter]):
        visitor(BipartiteGraph(ds.n, m, cols))
        count += 1
    return count


def _first_switchable(
    ds: DegreeSequence, limit: int, max_space: int = DEFAULT_MAX_SPACE
) -> list[list[int]]:
    """Columns of the first ``limit`` well-behaved graphs with a 4-cycle, in
    the order ``enumerate_bigraphs`` visits labeled graphs (``_labelled``)."""
    ds.edge_count()
    check_guard(ds, max_space)
    return list(_labelled(ds, lambda distinct, d: bool(d), limit))


def _hyper_branch(args) -> list[int]:
    """One task's weighted totals for ``hyper_class_profile``: the weight of
    every leaf, then the well-behaved hypergraphs by their number d of
    double links, d <= n2."""
    ds, prefixes = args
    n2 = ds.four_cycle_cap
    totals = [0] * (n2 + 2)

    def leaf(masks, weight: int, distinct: bool, d) -> None:
        totals[0] += weight
        if distinct:
            hg = Hypergraph(ds.n, [tuple(_bits(mask)) for mask in masks])
            if not dual_failed_properties(hg, n2):
                totals[1 + len(hyper_properties(hg).double_links)] += weight

    _sweep(ds, leaf, prefixes)
    return totals


def hyper_class_profile(
    ds: DegreeSequence, *, max_space: int = DEFAULT_MAX_SPACE
) -> tuple[int, ...]:
    """Count well-behaved hypergraphs by their number of double links.

    Entry d is the number of simple hypergraphs with degree sequence k that
    pass the hypergraph-side property battery (``dual_failed_properties``)
    and have exactly d double links.  Multiplying entry d by (M/r)! must
    reproduce the bipartite 4-cycle profile; that identity is exercised in
    the test-suite.  The invariant sweep (``_invariant_totals``) visits the
    hypergraphs as labeled graphs with distinct columns, (M/r)! per
    hypergraph (``_hyper_branch``).
    """
    m = ds.edge_count()
    check_guard(ds, max_space)
    _, *profile = _invariant_totals(ds, _hyper_branch)
    fact = math.factorial(m)
    return tuple(_quotient(c, fact, f"the rescaled weight of class C_{d}")
                 for d, c in enumerate(profile))


def full_report(
    ds: DegreeSequence,
    *,
    max_space: int = DEFAULT_MAX_SPACE,
    workers: int = 1,
) -> OracleReport:
    """All exact counts in one orbit-rooted sweep (see the module docstring),
    with every identity asserted.

    The totals are ``_report_branch``'s, through ``_invariant_totals``,
    which checks |B|; with ``workers > 1`` it fans the sweep out over its
    prefixes, and the counts do not depend on the worker count.
    """
    m = ds.edge_count()
    check_guard(ds, max_space)
    b, b0, bplus, *cd = _invariant_totals(ds, _report_branch, workers)
    fact = math.factorial(m)
    report = OracleReport(
        count_b=b,
        count_b0=b0,
        count_bplus=bplus,
        count_h=_quotient(b0, fact, "|B0|"),
        count_l=_quotient(cd[0], fact, "|C0|"),
        cd_profile=tuple(cd) + (0,) * (ds.four_cycle_cap + 1 - len(cd)),
    )
    _assert_report_invariants(report)
    return report


def count_hypergraphs(
    ds: DegreeSequence, *, max_space: int = DEFAULT_MAX_SPACE
) -> tuple[int, int]:
    """Exact (simple, linear) hypergraph counts, (|H|, |L|), as
    ``full_report`` derives them from its sweep: |B0|/m! and |C0|/m!."""
    report = full_report(ds, max_space=max_space)
    return report.count_h, report.count_l


def _assert_report_invariants(report: OracleReport) -> None:
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
            shared_right = len(set(a.right_pair) & set(b.right_pair))
            if shared_right == 1 and a.left_pair != b.left_pair:
                total += 1
        return total
    if pattern is Pattern.THREE_FOUR_CYCLES_FOUR_LEFT:
        total = 0
        for a, b, c in combinations(cycles, 3):
            if len({a.left_pair, b.left_pair, c.left_pair}) < 3:
                continue
            if len({*a.right_pair, *b.right_pair, *c.right_pair}) < 6:
                continue
            if len({*a.left_pair, *b.left_pair, *c.left_pair}) <= 4:
                total += 1
        return total
    raise InvalidArgument(f"unknown pattern {pattern!r}")


def _pattern_branch(pattern: Pattern, args) -> list[int]:
    """One task's weighted totals for ``pattern_expectation``: the weight of
    every leaf, then its labeled occurrences of ``pattern``."""
    ds, prefixes = args
    totals = [0, 0]

    def leaf(cols, weight: int, distinct: bool, d) -> None:
        totals[0] += weight
        totals[1] += weight * _occurrences_from_cols(ds.n, tuple(cols), pattern)

    _sweep(ds, leaf, prefixes)
    return totals


def pattern_expectation(
    ds: DegreeSequence, pattern: Pattern, *, max_space: int = DEFAULT_MAX_SPACE
) -> Fraction:
    """Exact expected number of labeled occurrences of the pattern in a
    uniformly random conforming bipartite graph."""
    ds.edge_count()
    check_guard(ds, max_space)
    graphs, total = _invariant_totals(ds, functools.partial(_pattern_branch, pattern))
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
