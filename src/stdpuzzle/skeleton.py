"""The skeleton model: order digraphs behind piece families.

A basic skeleton is a digraph on the four window corners

    a = top-left,  b = bottom-left,  c = top-right,  d = bottom-right

that is the Hasse diagram of a strict partial order on them: every edge
is a cover, with no corner between its ends.  On four vertices this is
the same as being acyclic with any two directed paths between the same
pair of vertices of equal length.  An edge u -> v asserts label(v) >
label(u).  The pieces whose grids extend the skeleton's partial order
form a "simple piece"; skeletons are classified 1..4 by the orientation
of the two column relations; the 80 simple pieces come from the orders,
among the 219 on the corners, that relate both columns.  Concatenating
a basic skeleton across a 2x(n+1) grid gives the puzzle's order poset,
whose linear extensions are exactly the supported puzzles.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .pieces import PIECES, Support

BASIC_VERTICES = ("a", "b", "c", "d")

#: Most vertices count_linear_extensions accepts (its memo has up to 2^n ideals).
EXTENSION_BOUND = 16


class _SkeletonFields(NamedTuple):
    vertices: tuple
    edges: frozenset


class SkeletonGraph(_SkeletonFields):
    """A finite digraph with labeled vertices; edges are (tail, head) pairs."""

    __slots__ = ()

    def __new__(cls, vertices, edges):
        vertices = tuple(vertices)
        edges = frozenset(tuple(e) for e in edges)
        vs = set(vertices)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            if u not in vs or v not in vs:
                raise ValueError(f"edge ({u!r}, {v!r}) leaves the vertex set")
        return super().__new__(cls, vertices, edges)

    def closure(self) -> frozenset:
        """Transitive closure as a set of ordered pairs (via nonempty paths)."""
        reach = set(self.edges)
        for w in self.vertices:  # Warshall: allow w as an inner vertex
            into = [u for u, x in reach if x == w]
            out = [v for x, v in reach if x == w]
            reach.update((u, v) for u in into for v in out)
        return frozenset(reach)


def basic_skeleton(edges) -> SkeletonGraph:
    """A skeleton candidate on the four canonical corner vertices."""
    return SkeletonGraph(BASIC_VERTICES, frozenset(edges))


def _covers(order, vertices) -> frozenset:
    """The pairs (u, v) of a relation with no w such that u < w < v.  On a
    cycle, u < u, so no pair on a cycle is a cover."""
    return frozenset((u, v) for u, v in order
                     if not any((u, w) in order and (w, v) in order
                                for w in vertices))


def validate_basic(g: SkeletonGraph) -> bool:
    """Acyclic, and all directed paths between any vertex pair share a length.

    On four vertices this holds exactly when every edge is a cover of the
    closure, i.e. g is the Hasse diagram of a strict partial order.
    """
    if len(g.vertices) != 4:
        raise ValueError("a basic skeleton has exactly four vertices")
    return g.edges == _covers(g.closure(), g.vertices)


def _order_class(order):
    left_up = ("b", "a") in order     # bottom-left below top-left
    left_down = ("a", "b") in order
    right_up = ("d", "c") in order
    right_down = ("c", "d") in order
    if left_up and right_up:
        return 1
    if left_up and right_down:
        return 2
    if left_down and right_up:
        return 3
    if left_down and right_down:
        return 4
    return None


def _extending_pieces(order) -> Support:
    members = set()
    for p in PIECES:
        val = {"a": p.tl, "b": p.bl, "c": p.tr, "d": p.br}
        if all(val[v] > val[u] for u, v in order):
            members.add(p)
    return Support(frozenset(members))


def classify(g: SkeletonGraph):
    """Class 1..4 from the orientation of the a-b and c-d relations, else None."""
    if not validate_basic(g):
        raise ValueError("not a valid basic skeleton")
    return _order_class(g.closure())


def simple_piece(g: SkeletonGraph) -> Support:
    """The pieces whose corner values extend the skeleton's partial order."""
    if not validate_basic(g):
        raise ValueError("not a valid basic skeleton")
    return _extending_pieces(g.closure())


@lru_cache(maxsize=None)
def _skeletons_by_class() -> dict:
    """class -> {simple piece support: generating basic skeleton}.

    The transitive relations on the 12 ordered corner pairs are the 219
    strict partial orders on the corners (A001035): one holding (u, v) and
    (v, u) would have to hold (u, u), which is not a corner pair.  Distinct
    orders have distinct sets of linear extensions, hence distinct
    supports, and each order's skeleton is its Hasse diagram.
    """
    pairs = [(u, v) for u in BASIC_VERTICES for v in BASIC_VERTICES if u != v]
    by_class: dict = {1: {}, 2: {}, 3: {}, 4: {}}
    for bits in range(1 << len(pairs)):
        order = frozenset(e for i, e in enumerate(pairs) if bits >> i & 1)
        if not all((u, w) in order for u, v in order for x, w in order if v == x):
            continue
        cls = _order_class(order)
        if cls is not None:
            hasse = basic_skeleton(_covers(order, BASIC_VERTICES))
            by_class[cls][_extending_pieces(order)] = hasse
    return by_class


def all_simple_pieces(class_i: int) -> list[Support]:
    """The distinct i-simple pieces, in canonical support order."""
    if class_i not in (1, 2, 3, 4):
        raise ValueError("class must be 1..4")
    return sorted(_skeletons_by_class()[class_i], key=lambda s: str(s))


def generating_skeleton(support: Support) -> SkeletonGraph:
    """The basic skeleton whose simple piece equals the given support."""
    for cls in (1, 2, 3, 4):
        got = _skeletons_by_class()[cls].get(support)
        if got is not None:
            return got
    raise ValueError(f"no generating basic skeleton for {support}")


def puzzle_skeleton(support: Support, n: int) -> SkeletonGraph:
    """The basic skeleton concatenated across a 2x(n+1) grid."""
    if n < 1:
        raise ValueError("puzzles need n >= 1 pieces")
    g = generating_skeleton(support)
    vertices = tuple(f"t{j}" for j in range(1, n + 2)) + \
        tuple(f"b{j}" for j in range(1, n + 2))
    edges = set()
    for k in range(1, n + 1):
        cell = {"a": f"t{k}", "b": f"b{k}", "c": f"t{k + 1}", "d": f"b{k + 1}"}
        for u, v in g.edges:
            edges.add((cell[u], cell[v]))
    return SkeletonGraph(vertices, frozenset(edges))


def drawn_edge_count(support: Support) -> int:
    """Edge count of the figure-style drawing of a simple piece's skeleton:
    both column edges are always drawn, plus the cross covers of the order.

    The generating Hasse diagram may omit a column edge implied by a longer
    chain; this statistic matches how the 20 families are usually pictured.
    """
    columns = ({"a", "b"}, {"c", "d"})
    covers = generating_skeleton(support).edges
    return 2 + sum(set(e) not in columns for e in covers)


def count_linear_extensions(g: SkeletonGraph) -> int:
    """Exact number of linear extensions, by DP over order ideals."""
    n = len(g.vertices)
    if n > EXTENSION_BOUND:
        raise ValueError(f"{n} vertices exceeds the extension-count bound "
                         f"{EXTENSION_BOUND}")
    index = {v: i for i, v in enumerate(g.vertices)}
    preds = [0] * n
    for u, v in g.edges:
        preds[index[v]] |= 1 << index[u]
    full = (1 << n) - 1
    memo = {full: 1}

    def rec(placed: int) -> int:
        got = memo.get(placed)
        if got is not None:
            return got
        total = 0
        for i in range(n):
            bit = 1 << i
            if not placed & bit and preds[i] & ~placed == 0:
                total += rec(placed | bit)
        memo[placed] = total
        return total

    return rec(0)


def export_dot(g: SkeletonGraph) -> str:
    """Graphviz DOT text, vertices in canonical order."""
    lines = ["digraph skeleton {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for u, v in sorted(g.edges, key=lambda e: (str(e[0]), str(e[1]))):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
