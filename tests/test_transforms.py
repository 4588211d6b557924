import random

from hypothesis import given, settings, strategies as st

from stdpuzzle.counting import count_bruteforce, count_prefix
from stdpuzzle.pieces import (PIECES, Puzzle, Support, minimal_support,
                              pieces_of)
from stdpuzzle.transforms import (F1, F2, F3, SYMMETRIES, f1, f2, f3, f12, f123,
                                  map_mask, t1, t2, t3)


def puzzles(max_n=4):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.permutations(range(1, 2 * n + 3)).map(
            lambda labels: Puzzle(tuple(labels[:n + 1]), tuple(labels[n + 1:]))))


def test_row_and_label_transforms():
    assert t2(Puzzle.parse("3 4 / 1 2")) == Puzzle.parse("1 2 / 3 4")
    assert t3(Puzzle.parse("3 4 / 1 2")) == Puzzle.parse("2 1 / 4 3")
    assert t1(Puzzle.parse("3 6 8 7 / 1 2 4 5")) == Puzzle.parse("7 8 6 3 / 5 4 2 1")


@given(puzzles())
def test_transforms_are_involutions(p):
    assert t1(t1(p)) == p and t2(t2(p)) == p and t3(t3(p)) == p


def test_piece_map_tables():
    assert f2(Support.parse("A1,A2,A3")) == Support.parse("D1,D2,D3")
    assert f1(Support.parse("A1")) == Support.parse("A4")
    assert f3(Support.parse("A2")) == Support.parse("D5")
    assert f1(Support.parse("B2")) == Support.parse("C5")
    assert f12(Support.parse("A1")) == Support.parse("D4")
    assert f123(Support.parse("C1")) == Support.parse("B4")


def test_maps_are_bijective_involutions():
    for perm in (F1, F2, F3):
        assert sorted(perm) == list(range(24))
        for p in PIECES:
            assert PIECES[perm[perm[p.ordinal]]] == p


def test_mask_maps_agree_with_support_maps_on_every_piece():
    # Each piece is the one window of a 1-puzzle; the grid transform of that
    # puzzle reduces to the piece's image under the companion map.
    for p in PIECES:
        puzzle = Puzzle((p.tl, p.tr), (p.bl, p.br))
        for t, perm, fmap in ((t1, F1, f1), (t2, F2, f2), (t3, F3, f3)):
            image = pieces_of(t(puzzle))[0]
            assert map_mask(perm, 1 << p.ordinal) == 1 << image.ordinal
            assert fmap(Support.of(p)) == Support.of(image)


def test_symmetries_are_the_group_of_order_8_that_f1_f2_f3_generate():
    assert len(SYMMETRIES) == 8 == len(set(SYMMETRIES))
    assert tuple(range(24)) in SYMMETRIES
    assert {F1, F2, F3} <= set(SYMMETRIES)
    for g in SYMMETRIES:
        assert sorted(g) == list(range(24))
        for h in SYMMETRIES:
            assert tuple(g[j] for j in h) in SYMMETRIES
    # Every image of a support counts alike (the sweep shares prefixes on it).
    support = Support.parse("A1,A2,B3,C5,D6")
    prefix = count_prefix(support, 5)
    images = {map_mask(g, support.mask) for g in SYMMETRIES}
    assert len(images) == 8
    for mask in images:
        assert count_prefix(Support.from_mask(mask), 5) == prefix


@given(puzzles())
@settings(max_examples=60)
def test_row_swap_windows_match_f2(p):
    flipped = t2(p)
    for k, q in enumerate(pieces_of(p)):
        window = pieces_of(flipped)[k]
        assert window == PIECES[F2[q.ordinal]]


@given(puzzles())
@settings(max_examples=60)
def test_support_level_consistency(p):
    assert minimal_support(t1(p)) == f1(minimal_support(p))
    assert minimal_support(t2(p)) == f2(minimal_support(p))
    assert minimal_support(t3(p)) == f3(minimal_support(p))


def counts_alike(support, n, fmap):
    """Whether a support and its image under fmap count alike, each
    enumerated on its own by the brute force."""
    return count_bruteforce(support, n) == count_bruteforce(fmap(support), n)


def test_check_invariance_examples():
    assert counts_alike(Support.parse("A1,A2"), 2, f2)
    assert count_bruteforce(Support.parse("A1,A2"), 2) == 8
    assert counts_alike(Support.parse("A2,A3"), 3, f1)
    assert count_bruteforce(Support.parse("A2,A3"), 3) == 14
    assert counts_alike(Support.parse(""), 2, f3)
    assert counts_alike(Support.parse("A1,B2,C3"), 3, f123)


def test_invariance_on_random_supports():
    rng = random.Random(7)
    for _ in range(12):
        support = Support(frozenset(rng.sample(PIECES, rng.randrange(0, 25))))
        for fmap in (f1, f2, f3):
            assert counts_alike(support, 3, fmap)


def test_invariance_via_dp_beyond_brute_bound():
    # The transfer engine extends the invariance property well past the
    # enumeration bound.
    from stdpuzzle.counting import count_prefix

    for text in ("A2,A3", "A1,A2,A3", "A1,B1,C1", "A1,A4,B3,B6,C3,C6,D1,D4"):
        support = Support.parse(text)
        prefix = count_prefix(support, 8)
        for fmap in (f1, f2, f3):
            assert count_prefix(fmap(support), 8) == prefix
