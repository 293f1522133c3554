"""Bipartite incidence graphs, hypergraphs, and the structural property battery.

A bipartite graph here always has "left" vertices v_0..v_{n-1} (hypergraph
vertices) and "right" vertices e_0..e_{m-1} (hypergraph edges).  The graph is
stored column-wise: ``cols[i]`` is the bitmask of left neighbours of e_i,
i.e. column i of the 0-1 biadjacency matrix.  Graphs are immutable value
objects; every mutation-like operation returns a new graph.

The classification battery evaluates, for a graph conforming to a degree
sequence:

  (i)   no complete 3x2 bipartite subgraph (three left, two right vertices),
  (ii)  no complete 2x3 bipartite subgraph,
  (iii) no right vertex lies on two 4-cycles,
  (iv)  any three distinct 4-cycles involve at least five left vertices,
  (v)   the number of 4-cycles is at most the cap n2.

A conforming graph with distinct columns passing all five is "well-behaved";
its hypergraph is then simple with exactly one double link per 4-cycle.  For
r >= 3, (i) already forces distinct columns; for r = 2 two equal columns form
one 4-cycle that passes all five.

A 4-cycle has one record, ``FourCycle``, from the lister to every reader.
Every whole-graph 4-cycle question (``four_cycles``, ``has_four_cycle``, the
battery, the oracle's pattern counts) reads the one sorted list of them that
``_four_cycles`` builds: the wedge buckets of ``_cycles_of_rows`` over the
left neighbour lists of ``_neighbour_lists``.  ``_classification`` is the
only verdict builder: it runs the battery on any sorted 4-cycle list.
``classify`` decodes a whole graph's columns once (the same lists give the
left degrees it checks and the 4-cycles) and hands them to it, and the
switching walk, which finds a switched graph's 4-cycles from the columns the
switch changes, gets its ``Classification`` from it too.  The exhaustive
oracle derives the same verdict column by column as its sweep pushes columns
(``exact_oracle._push_verdict``), and is tested against ``_classification``.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .degree_model import DegreeSequence, _as_int
from .errors import InvalidArgument, LoopPresent, NonConforming, WrongRightDegree

Vertex = tuple[str, int]  # ("v", j) for left vertices, ("e", i) for right


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FourCycle(NamedTuple):
    """An unordered copy of the complete 2x2 bipartite subgraph; ``left_pair``
    and ``right_pair`` are ascending.  The one 4-cycle record: the lister
    builds it and every reader takes it as it is.  As the tuple of its two
    pairs it sorts as (j1, j2, i1, i2) does."""

    left_pair: tuple[int, int]
    right_pair: tuple[int, int]


@dataclass(frozen=True)
class Classification:
    """Verdict of the five-property battery for one conforming graph."""

    four_cycles: tuple[FourCycle, ...]
    d: int
    in_b0: bool
    in_bplus: bool
    failed_properties: frozenset[str]


@dataclass(frozen=True)
class HyperProperties:
    """Structural summary of a hypergraph.

    ``loops`` counts (vertex, edge) incidences where the vertex is repeated
    inside the edge.  ``double_links`` lists the vertex pairs contained in
    exactly two edges.
    """

    loops: int
    repeated_edges: int
    max_link_multiplicity: int
    double_links: tuple[tuple[int, int], ...]
    is_simple: bool
    is_linear: bool


def _edge(j, i, n_left: int, n_right: int) -> tuple[int, int]:
    """The edge (j, i) of a graph with ``n_left`` left and ``n_right`` right
    vertices, read as ints (``_as_int``); out of range is InvalidArgument."""
    j, i = _as_int(j), _as_int(i)
    if not (0 <= j < n_left and 0 <= i < n_right):
        raise InvalidArgument(f"edge ({j},{i}) out of range")
    return j, i


class BipartiteGraph:
    """Labeled bipartite graph with bitmask columns."""

    def __init__(self, n_left: int, n_right: int, cols) -> None:
        n_left, n_right = _as_int(n_left), _as_int(n_right)
        cols = tuple(map(_as_int, cols))
        if len(cols) != n_right:
            raise InvalidArgument(f"expected {n_right} columns, got {len(cols)}")
        if n_left < 0 or n_right < 0:
            raise InvalidArgument("vertex counts must be nonnegative")
        for c in cols:
            if c < 0 or c >> n_left:
                raise InvalidArgument("column mask references a vertex out of range")
        self.n_left = n_left
        self.n_right = n_right
        self.cols = cols

    @classmethod
    def _unchecked(cls, n_left: int, n_right: int, cols: tuple[int, ...]) -> "BipartiteGraph":
        """The graph on ``cols``, a tuple of ``n_right`` ints each already
        known to be a mask of left vertices below ``n_left``: the checks of
        ``__init__`` are skipped."""
        graph = cls.__new__(cls)
        graph.n_left, graph.n_right, graph.cols = n_left, n_right, cols
        return graph

    @classmethod
    def from_edges(cls, n_left: int, n_right: int, edges) -> "BipartiteGraph":
        """Build from (left, right) index pairs (0-based); duplicates rejected."""
        n_left, n_right = _as_int(n_left), _as_int(n_right)
        cols = [0] * n_right
        for j, i in edges:
            j, i = _edge(j, i, n_left, n_right)
            if cols[i] >> j & 1:
                raise InvalidArgument(f"duplicate edge ({j},{i})")
            cols[i] |= 1 << j
        return cls(n_left, n_right, cols)

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """Bitmask of right neighbours per left vertex."""
        rows = [0] * self.n_left
        for i, c in enumerate(self.cols):
            bit = 1 << i
            for j in _bits(c):
                rows[j] |= bit
        return tuple(rows)

    def has_edge(self, j: int, i: int) -> bool:
        j, i = _edge(j, i, self.n_left, self.n_right)
        return bool(self.cols[i] >> j & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All (left, right) edges in ascending order: row by row, each row
        ascending, as ``_neighbour_lists`` gives them."""
        return [(j, i) for j, nbrs in enumerate(_neighbour_lists(self.n_left, self.cols))
                for i in nbrs]

    def left_degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def right_degrees(self) -> tuple[int, ...]:
        return tuple(c.bit_count() for c in self.cols)

    def conforms(self, ds: DegreeSequence) -> bool:
        return (
            self.n_left == ds.n
            and self.left_degrees() == ds.k
            and all(c.bit_count() == ds.r for c in self.cols)
        )

    def replace_edges(self, remove, add) -> "BipartiteGraph":
        """New graph with ``remove`` edges deleted and ``add`` edges inserted.

        Every removed edge must be present and every added edge absent.
        """
        cols = list(self.cols)
        for j, i in remove:
            j, i = _edge(j, i, self.n_left, self.n_right)
            if not cols[i] >> j & 1:
                raise InvalidArgument(f"edge ({j},{i}) not present")
            cols[i] ^= 1 << j
        for j, i in add:
            j, i = _edge(j, i, self.n_left, self.n_right)
            if cols[i] >> j & 1:
                raise InvalidArgument(f"edge ({j},{i}) already present")
            cols[i] |= 1 << j
        return BipartiteGraph(self.n_left, self.n_right, cols)

    def four_cycles(self) -> tuple[FourCycle, ...]:
        """All copies of the complete 2x2 subgraph, in lexicographic order."""
        return tuple(_four_cycles(self.n_left, self.cols))

    def has_four_cycle(self) -> bool:
        """True iff the 4-cycle list is non-empty; it is built in full,
        with no early exit."""
        return bool(_four_cycles(self.n_left, self.cols))

    def has_copy(self, a: int, b: int) -> bool:
        """True iff some a left and b right vertices induce a subgraph that
        contains the complete a-by-b bipartite graph.

        The definition is asymmetric: ``a`` counts left vertices.  Containment
        of all a*b edges is required, not induced equality.
        """
        if a < 1 or b < 1:
            raise InvalidArgument("pattern sides must be >= 1")
        if b > self.n_right:
            return False
        for group in combinations(self.cols, b):
            common = group[0]
            for c in group[1:]:
                common &= c
            if common.bit_count() >= a:
                return True
        return False

    def distance(self, x: Vertex, y: Vertex) -> int | None:
        """BFS shortest-path length between two vertices; None if unreachable.

        Vertices are addressed as ("v", j) on the left and ("e", i) on the
        right.
        """
        sx, ix = self._check_vertex(x)
        sy, iy = self._check_vertex(y)
        if (sx, ix) == (sy, iy):
            return 0
        dist = {(sx, ix): 0}
        queue = deque([(sx, ix)])
        while queue:
            side, idx = queue.popleft()
            ndist = dist[(side, idx)] + 1
            if side == "v":
                nbrs = [("e", i) for i in _bits(self.rows[idx])]
            else:
                nbrs = [("v", j) for j in _bits(self.cols[idx])]
            for nxt in nbrs:
                if nxt in dist:
                    continue
                if nxt == (sy, iy):
                    return ndist
                dist[nxt] = ndist
                queue.append(nxt)
        return None

    def _check_vertex(self, v: Vertex) -> tuple[str, int]:
        side, idx = v
        if side == "v":
            if not 0 <= idx < self.n_left:
                raise InvalidArgument(f"left vertex {idx} out of range")
        elif side == "e":
            if not 0 <= idx < self.n_right:
                raise InvalidArgument(f"right vertex {idx} out of range")
        else:
            raise InvalidArgument(f"vertex side must be 'v' or 'e', got {side!r}")
        return side, idx

    def to_json_dict(self) -> dict:
        """Interchange format with 1-based indices."""
        return {
            "n_left": self.n_left,
            "n_right": self.n_right,
            "edges": [[j + 1, i + 1] for j, i in self.edges()],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BipartiteGraph":
        edges = [(_as_int(j) - 1, _as_int(i) - 1) for j, i in obj["edges"]]
        return cls.from_edges(obj["n_left"], obj["n_right"], edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BipartiteGraph)
            and self.n_left == other.n_left
            and self.cols == other.cols
        )

    def __hash__(self) -> int:
        return hash((self.n_left, self.cols))

    def __repr__(self) -> str:
        edges = sum(map(int.bit_count, self.cols))
        return f"BipartiteGraph({self.n_left}x{self.n_right}, {edges} edges)"


class Hypergraph:
    """Multiset of r-element vertex multisets on {0, ..., n-1}.

    Edges are stored as sorted tuples; repeats within an edge represent loops.
    Equality is multiset equality of edges.
    """

    def __init__(self, n: int, edges) -> None:
        self.n = _as_int(n)
        if self.n < 0:
            raise InvalidArgument(f"vertex count must be nonnegative, got {n}")
        self.edges = tuple(tuple(sorted(map(_as_int, e))) for e in edges)
        for e in self.edges:
            for v in e:
                if not 0 <= v < n:
                    raise InvalidArgument(f"vertex {v} out of range for n={n}")

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return tuple(deg)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [[v + 1 for v in e] for e in self.edges]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Hypergraph":
        return cls(obj["n"], [[_as_int(v) - 1 for v in e] for e in obj["edges"]])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and sorted(self.edges) == sorted(other.edges)
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.edges))))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={len(self.edges)})"


def to_hypergraph(graph: BipartiteGraph, r: int) -> Hypergraph:
    """Read each right vertex's neighbourhood as one hypergraph edge.

    Requires every right degree to equal r; the result never has loops since
    columns are sets.
    """
    for i, c in enumerate(graph.cols):
        if c.bit_count() != r:
            raise WrongRightDegree(
                f"right vertex {i} has degree {c.bit_count()}, expected {r}"
            )
    return Hypergraph(graph.n_left, [tuple(_bits(c)) for c in graph.cols])


def from_hypergraph(hg: Hypergraph) -> BipartiteGraph:
    """Canonical incidence graph of a loop-free hypergraph.

    Columns are ordered lexicographically on the sorted edges, ties broken by
    input position, so equal hypergraphs get equal graphs.
    """
    for e in hg.edges:
        if len(set(e)) != len(e):
            raise LoopPresent(f"edge {e} repeats a vertex")
    order = sorted(range(len(hg.edges)), key=lambda i: (hg.edges[i], i))
    cols = []
    for i in order:
        mask = 0
        for v in hg.edges[i]:
            mask |= 1 << v
        cols.append(mask)
    return BipartiteGraph(hg.n, len(cols), cols)


def _neighbour_lists(n_left: int, cols: tuple[int, ...]) -> list[list[int]]:
    """The right neighbours of each left vertex, ascending."""
    rows: list[list[int]] = [[] for _ in range(n_left)]
    for i, c in enumerate(cols):
        while c:
            low = c & -c
            rows[low.bit_length() - 1].append(i)
            c ^= low
    return rows


def _cycles_of_rows(rows: list[list[int]]) -> list[FourCycle]:
    """All 4-cycles of the graph with left neighbour lists ``rows``, sorted.

    Left vertices are bucketed by the right pairs of their wedges, which is
    linear in the wedge count rather than quadratic in the right vertices.
    """
    buckets: dict[tuple[int, int], list[int]] = {}
    for j, nbrs in enumerate(rows):
        for pair in combinations(nbrs, 2):
            buckets.setdefault(pair, []).append(j)
    cycles = [
        FourCycle(left, right)
        for right, lefts in buckets.items()
        if len(lefts) > 1
        for left in combinations(lefts, 2)
    ]
    cycles.sort()
    return cycles


def _four_cycles(n_left: int, cols: tuple[int, ...]) -> list[FourCycle]:
    """All 4-cycles, sorted (see ``_cycles_of_rows``)."""
    return _cycles_of_rows(_neighbour_lists(n_left, cols))


def classify(graph: BipartiteGraph, ds: DegreeSequence) -> Classification:
    """Run the full five-property battery on a graph conforming to ds.

    The columns are decoded once: the neighbour lists give the left degrees
    (their lengths) for the conformity test and the 4-cycles for the battery.
    """
    rows = _neighbour_lists(graph.n_left, graph.cols)
    if tuple(map(len, rows)) != ds.k or any(c.bit_count() != ds.r for c in graph.cols):
        raise NonConforming(
            f"graph degrees {graph.left_degrees()}/{graph.right_degrees()} "
            f"do not conform to r={ds.r}, k={ds.k}"
        )
    return _classification(graph.cols, ds.four_cycle_cap, _cycles_of_rows(rows))


def _classification(cols: tuple[int, ...], n2: int, cycles) -> Classification:
    """The battery's verdict on the columns ``cols``, whose 4-cycles are the
    sorted ``FourCycle`` list ``cycles``, however that list was found.

    This is the one verdict builder: ``classify`` and the switching walk
    call it, on the 30-60 columns of a sampled graph as on a desk-scale
    one, and it is the reference the exhaustive oracle's incremental
    verdict is tested against.
    """
    failed = set()
    # s vertices on one side sharing a pair on the other give C(s, 2) cycles
    # on that pair, so a K_{3,2} (K_{2,3}) is a right (left) pair on two cycles
    if len({c.right_pair for c in cycles}) < len(cycles):
        failed.add("i")
    if len({c.left_pair for c in cycles}) < len(cycles):
        failed.add("ii")
    # each cycle has two right vertices: all distinct iff none is on two
    if len({i for c in cycles for i in c.right_pair}) < 2 * len(cycles):
        failed.add("iii")
    if any(len({*a.left_pair, *b.left_pair, *c.left_pair}) < 5
           for a, b, c in combinations(cycles, 3)):
        failed.add("iv")
    if len(cycles) > n2:
        failed.add("v")
    in_b0 = len(set(cols)) == len(cols)
    return Classification(
        four_cycles=tuple(cycles),
        d=len(cycles),
        in_b0=in_b0,
        in_bplus=in_b0 and not failed,
        failed_properties=frozenset(failed),
    )


def hyper_properties(hg: Hypergraph) -> HyperProperties:
    """Loops, repeated edges, link multiplicities, simplicity and linearity."""
    loops = 0
    link_mult: Counter = Counter()
    for e in hg.edges:
        mult_in_edge = Counter(e)
        loops += sum(1 for v, c in mult_in_edge.items() if c >= 2)
        links = set()
        vals = sorted(mult_in_edge)
        for x, y in combinations(vals, 2):
            links.add((x, y))
        for v, c in mult_in_edge.items():
            if c >= 2:
                links.add((v, v))
        for link in links:
            link_mult[link] += 1

    repeated = len(hg.edges) - len(set(hg.edges))
    max_mult = max(link_mult.values(), default=0)
    doubles = tuple(sorted(link for link, c in link_mult.items() if c == 2))
    is_simple = loops == 0 and repeated == 0
    is_linear = loops == 0 and max_mult <= 1
    return HyperProperties(
        loops=loops,
        repeated_edges=repeated,
        max_link_multiplicity=max_mult,
        double_links=doubles,
        is_simple=is_simple,
        is_linear=is_linear,
    )


def dual_failed_properties(hg: Hypergraph, n2: int) -> set[str]:
    """Hypergraph-side analogues of the five-property battery.

    Input must be loop-free (which incidence graphs guarantee).  Returns the
    set of failed properties among {"i'", "ii'", "iii'", "iv'", "v'"}:

      i'    some two edges share three or more vertices,
      ii'   some link has multiplicity three or more,
      iii'  some edge contains two double links,
      iv'   some vertex lies in three double links, or lies in two whose other
            endpoints are themselves in more than one double link,
      v'    more than n2 double links.
    """
    props = hyper_properties(hg)
    if props.loops:
        raise LoopPresent("dual property battery requires a loop-free hypergraph")
    failed: set[str] = set()

    for e1, e2 in combinations(hg.edges, 2):
        if len(set(e1) & set(e2)) >= 3:
            failed.add("i'")
            break

    if props.max_link_multiplicity >= 3:
        failed.add("ii'")

    doubles = props.double_links
    double_set = set(doubles)
    for e in hg.edges:
        contained = sum(1 for link in double_set if link[0] in e and link[1] in e)
        if contained >= 2:
            failed.add("iii'")
            break

    per_vertex: Counter = Counter()
    for x, y in doubles:
        per_vertex[x] += 1
        per_vertex[y] += 1
    if any(c >= 3 for c in per_vertex.values()):
        failed.add("iv'")
    else:
        for v, c in per_vertex.items():
            if c == 2:
                others = [x if y == v else y for x, y in doubles if v in (x, y)]
                if any(per_vertex[o] != 1 for o in others):
                    failed.add("iv'")
                    break

    if len(doubles) > n2:
        failed.add("v'")
    return failed
