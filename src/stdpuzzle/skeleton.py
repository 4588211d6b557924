"""The skeleton model: order digraphs behind piece families.

A basic skeleton is a digraph on the four window corners

    a = top-left,  b = bottom-left,  c = top-right,  d = bottom-right

that is the Hasse diagram of a strict partial order on them: every edge
is a cover, with no corner between its ends.  On four vertices this is
the same as being acyclic with any two directed paths between the same
pair of vertices of equal length.  An edge u -> v asserts label(v) >
label(u).  The pieces whose grids extend the skeleton's partial order
form a "simple piece", and the order is the relations they share.  A
skeleton's class 1..4 is the category A..D all its pieces share, which
they do exactly when the order relates both columns (two unrelated
corners come in both orders among its extensions): 80 of the 219 orders
on the corners.  The table of simple pieces is read off that definition.
Concatenating a basic skeleton across a 2x(n+1) grid gives the puzzle's
order poset, whose linear extensions are exactly the supported puzzles.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import NamedTuple

from .pieces import PIECES, Support

BASIC_VERTICES = ("a", "b", "c", "d")

#: Most order ideals count_linear_extensions visits: every graph on at most
#: 16 vertices, and long sparse ones such as puzzle skeletons at large n.
IDEAL_BUDGET = 1 << 16


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
        if len(vs) < len(vertices):
            repeated = next(v for v, k in Counter(vertices).items() if k > 1)
            raise ValueError(f"repeated vertex {repeated!r}")
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            if u not in vs or v not in vs:
                raise ValueError(f"edge ({u!r}, {v!r}) leaves the vertex set")
        return super().__new__(cls, vertices, edges)


def basic_skeleton(edges) -> SkeletonGraph:
    """A skeleton candidate on the four canonical corner vertices."""
    return SkeletonGraph(BASIC_VERTICES, frozenset(edges))


#: The 12 ordered pairs of distinct corners.
_PAIRS = tuple((u, v) for u in BASIC_VERTICES for v in BASIC_VERTICES if u != v)


def _piece_order(p) -> frozenset:
    """The corner pairs (u, v) with label(u) < label(v) in piece p."""
    label = dict(zip(BASIC_VERTICES, (p.tl, p.bl, p.tr, p.br)))
    return frozenset((u, v) for u, v in _PAIRS if label[u] < label[v])


#: Each piece's linear order of the corners; every linear order is one piece.
_PIECE_ORDERS = {p: _piece_order(p) for p in PIECES}


def _extending_pieces(order) -> Support:
    """The pieces whose corner order contains every pair of `order`."""
    return Support(p for p in PIECES if _PIECE_ORDERS[p] >= order)


def _shared_order(support: Support) -> frozenset:
    """The corner pairs all the support's pieces order alike (all 12 if none)."""
    return frozenset(_PAIRS).intersection(*(_PIECE_ORDERS[p] for p in support))


def _covers(order) -> frozenset:
    """The pairs (u, v) of a corner relation with no w such that u < w < v.
    The relation of all 12 pairs, which no piece extends, has none."""
    return frozenset((u, v) for u, v in order
                     if not any((u, w) in order and (w, v) in order
                                for w in BASIC_VERTICES))


def _class(support: Support):
    """1..4 for the category A..D all the support's pieces share, else None."""
    categories = {p.category for p in support}
    return "ABCD".index(categories.pop()) + 1 if len(categories) == 1 else None


def validate_basic(g: SkeletonGraph) -> bool:
    """Acyclic, and all directed paths between any vertex pair share a length.

    On four vertices this holds exactly when g is the Hasse diagram of a
    strict partial order.  Every linear order of the corners is a piece,
    so the relations shared by the pieces extending an acyclic g are its
    transitive closure; a cyclic g has no extending piece.
    """
    if len(g.vertices) != 4 or set(g.vertices) != set(BASIC_VERTICES):
        raise ValueError("a basic skeleton has exactly the four corner "
                         "vertices a, b, c, d")
    return g.edges == _covers(_shared_order(_extending_pieces(g.edges)))


def classify(g: SkeletonGraph):
    """Class 1..4 from the category the skeleton's pieces share, else None."""
    return _class(simple_piece(g))


def simple_piece(g: SkeletonGraph) -> Support:
    """The pieces whose corner values extend the skeleton's partial order."""
    if not validate_basic(g):
        raise ValueError("not a valid basic skeleton")
    return _extending_pieces(g.edges)


@cache
def _skeletons() -> dict:
    """{support: generating basic skeleton} for the 80 simple pieces.

    A strict partial order is the intersection of its linear extensions,
    and every linear order of the corners is a piece, so a set S of pieces
    is an order's extension set exactly when it is that of the order S
    shares, whose Hasse diagram is its skeleton.  S lies in one category
    exactly when that order relates both columns: 4 x 63 candidate sets.
    """
    table = {}
    for k in range(0, 24, 6):
        for bits in range(1, 64):
            support = Support.from_mask(bits << k)
            order = _shared_order(support)
            if _extending_pieces(order) == support:
                table[support] = basic_skeleton(_covers(order))
    return table


def all_simple_pieces(class_i: int) -> list[Support]:
    """The distinct i-simple pieces, in canonical support order."""
    if class_i not in (1, 2, 3, 4):
        raise ValueError("class must be 1..4")
    return sorted((s for s in _skeletons() if _class(s) == class_i), key=str)


def generating_skeleton(support: Support) -> SkeletonGraph:
    """The basic skeleton whose simple piece equals the given support."""
    got = _skeletons().get(support)
    if got is None:
        raise ValueError(f"no generating basic skeleton for {support}")
    return got


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
    """Exact number of linear extensions, by a walk over the order ideals.

    Layer k maps each ideal of k vertices (a bitmask) to the number of
    ways to place its vertices first, with the mask of its ready vertices:
    those outside it whose predecessors all lie inside.  Each ideal grows
    by one ready vertex; past IDEAL_BUDGET ideals the walk gives up.
    """
    n = len(g.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    preds = [0] * n
    succs = [[] for _ in range(n)]
    for u, v in g.edges:
        preds[index[v]] |= 1 << index[u]
        succs[index[u]].append(index[v])
    layer = {0: [1, sum(1 << i for i, p in enumerate(preds) if not p)]}
    visited = 1
    for _ in range(n):
        grown = {}
        for ideal, (ways, ready) in layer.items():
            rest = ready
            while rest:
                bit = rest & -rest
                rest ^= bit
                bigger = ideal | bit
                if bigger in grown:
                    grown[bigger][0] += ways
                    continue
                visited += 1
                if visited > IDEAL_BUDGET:
                    raise ValueError(f"{n} vertices have more order "
                                     f"ideals than the budget {IDEAL_BUDGET}")
                freed = sum(1 << w for w in succs[bit.bit_length() - 1]
                            if preds[w] & ~bigger == 0)
                grown[bigger] = [ways, ready ^ bit | freed]
        layer = grown
    return sum(ways for ways, _ in layer.values())


def export_dot(g: SkeletonGraph) -> str:
    """Graphviz DOT text, vertices in canonical order."""
    lines = ["digraph skeleton {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for u, v in sorted(g.edges, key=lambda e: (str(e[0]), str(e[1]))):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
