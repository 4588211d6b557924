import pytest

from stdpuzzle.counting import count_bruteforce, count_dp
from stdpuzzle.pieces import Support
from stdpuzzle.skeleton import (SkeletonGraph, all_simple_pieces,
                                basic_skeleton, classify,
                                count_linear_extensions, drawn_edge_count,
                                export_dot, generating_skeleton,
                                puzzle_skeleton, simple_piece, validate_basic)

# The five-piece increasing family comes from this skeleton: both columns
# rise, and the bottom-left sits under the top-right.
FIVE_FAMILY = basic_skeleton({("b", "a"), ("d", "c"), ("b", "c")})


def test_validate_examples():
    assert validate_basic(FIVE_FAMILY)
    assert not validate_basic(basic_skeleton({("a", "b"), ("b", "a")}))
    # two b->c routes of lengths 1 and 2
    assert not validate_basic(basic_skeleton({("b", "a"), ("a", "c"), ("b", "c")}))


def path_lengths_agree(edges):
    """The path-length definition: acyclic, and all directed paths between
    any two vertices have one length (walked out in full)."""
    succ = {v: [y for x, y in edges if x == v] for v in "abcd"}
    lengths = {}

    def walk(start, u, length, seen):
        for v in succ[u]:
            if v in seen:
                return False  # a cycle
            lengths.setdefault((start, v), set()).add(length + 1)
            if not walk(start, v, length + 1, seen | {v}):
                return False
        return True

    if not all(walk(v, v, 0, {v}) for v in "abcd"):
        return False
    return all(len(found) == 1 for found in lengths.values())


def test_validate_matches_path_length_definition():
    pairs = [(u, v) for u in "abcd" for v in "abcd" if u != v]
    valid = []
    for bits in range(1 << len(pairs)):
        edges = frozenset(e for i, e in enumerate(pairs) if bits >> i & 1)
        g = basic_skeleton(edges)
        ok = validate_basic(g)
        assert ok == path_lengths_agree(edges), sorted(edges)
        if ok:
            valid.append(g)
    assert len(valid) == 219
    assert sum(classify(g) is not None for g in valid) == 80


def test_validate_needs_four_vertices():
    with pytest.raises(ValueError):
        validate_basic(SkeletonGraph(("a", "b"), frozenset({("a", "b")})))


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        basic_skeleton({("a", "a")})


def test_classify_examples():
    assert classify(FIVE_FAMILY) == 1
    flipped = basic_skeleton({(v, u) for (u, v) in FIVE_FAMILY.edges})
    assert classify(flipped) == 4
    assert classify(basic_skeleton({("b", "a")})) is None
    with pytest.raises(ValueError):
        classify(basic_skeleton({("a", "b"), ("b", "a")}))


def test_classify_reversal_symmetry():
    for cls, flipped in ((1, 4), (2, 3)):
        for support in all_simple_pieces(cls):
            g = generating_skeleton(support)
            rev = basic_skeleton({(v, u) for (u, v) in g.edges})
            assert classify(rev) == flipped


def test_simple_piece_examples():
    assert simple_piece(FIVE_FAMILY) == Support.parse("A1,A2,A3,A4,A5")
    two = basic_skeleton({("b", "d"), ("d", "a"), ("d", "c")})
    assert simple_piece(two) == Support.parse("A1,A2")
    assert len(simple_piece(basic_skeleton(frozenset()))) == 24


def test_all_simple_pieces_counts():
    for cls in (1, 2, 3, 4):
        assert len(all_simple_pieces(cls)) == 20
    union = {s for cls in (1, 2, 3, 4) for s in all_simple_pieces(cls)}
    assert len(union) == 80
    categories = {1: "A", 2: "B", 3: "C", 4: "D"}
    for cls, cat in categories.items():
        for support in all_simple_pieces(cls):
            assert {p.category for p in support} == {cat}


def test_drawn_edge_distribution():
    # Figure-style drawings group the 20 families as 1, 8, 9, 2 over
    # 2..5 edges (published as 1+9+8+2: middle entries transposed).
    counts = {}
    for support in all_simple_pieces(1):
        counts[drawn_edge_count(support)] = counts.get(drawn_edge_count(support), 0) + 1
    assert counts == {2: 1, 3: 8, 4: 9, 5: 2}
    assert sorted(counts.values()) == sorted((1, 9, 8, 2))


def test_hasse_edge_distribution():
    counts = {}
    for support in all_simple_pieces(1):
        e = len(generating_skeleton(support).edges)
        counts[e] = counts.get(e, 0) + 1
    assert counts == {2: 1, 3: 16, 4: 3}


def test_converter_classes_die_immediately():
    for cls in (2, 3):
        for support in all_simple_pieces(cls):
            assert count_dp(support, 1) >= 1
            assert count_dp(support, 2) == 0
            assert count_dp(support, 3) == 0


def test_puzzle_skeleton_shapes():
    g = puzzle_skeleton(Support.parse("A1,A2,A3"), 2)
    assert len(g.vertices) == 6
    assert count_linear_extensions(g) == 15
    assert count_linear_extensions(puzzle_skeleton(Support.parse("A1,A2,A3,A4,A5"), 1)) == 5
    one = puzzle_skeleton(Support.parse("A1,A2"), 1)
    base = generating_skeleton(Support.parse("A1,A2"))
    assert len(one.edges) == len(base.edges)


def test_puzzle_skeleton_rejects_non_simple():
    with pytest.raises(ValueError, match="no generating basic skeleton"):
        puzzle_skeleton(Support.parse("A1,B1"), 2)


def test_linear_extensions_basics():
    antichain = SkeletonGraph(tuple("wxyz"), frozenset())
    assert count_linear_extensions(antichain) == 24
    chain = SkeletonGraph(tuple("wxyz"),
                          frozenset({("w", "x"), ("x", "y"), ("y", "z")}))
    assert count_linear_extensions(chain) == 1


def test_linear_extensions_bound():
    big = SkeletonGraph(tuple(range(17)), frozenset())
    with pytest.raises(ValueError):
        count_linear_extensions(big)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_skeleton_extensions_equal_puzzle_counts(n):
    for support in all_simple_pieces(1):
        g = puzzle_skeleton(support, n)
        assert count_linear_extensions(g) == count_bruteforce(support, n)


def test_export_dot():
    text = export_dot(FIVE_FAMILY)
    assert text.startswith("digraph skeleton {")
    assert text.count("->") == 3
    empty = export_dot(SkeletonGraph((), frozenset()))
    assert empty == "digraph skeleton {\n}\n"
    two = export_dot(SkeletonGraph(("u", "v"), frozenset({("u", "v")})))
    assert two.count("->") == 1
