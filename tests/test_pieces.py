import re

import pytest
from hypothesis import given, strategies as st

from stdpuzzle.counting import CornerTable
from stdpuzzle.pieces import (FULL_SUPPORT, PIECES, Puzzle, StandardPiece,
                              Support, is_supported, minimal_support, piece,
                              pieces_of, reduce_window)
from stdpuzzle.sequences import SequenceId
from stdpuzzle.skeleton import SkeletonGraph
from stdpuzzle.theorems import CompositionQuery, ConverterForm, SimplePieceRow


def test_piece_table_canonical_order():
    assert len(PIECES) == 24
    assert [p.code for p in PIECES[:6]] == ["A1", "A2", "A3", "A4", "A5", "A6"]
    assert PIECES[0].letter == "A" and PIECES[0].grid == ((4, 3), (1, 2))
    assert PIECES[11].code == "B6" and PIECES[11].letter == "Q"
    assert PIECES[11].grid == ((4, 1), (3, 2))
    assert piece("D3").letter == "M" and piece("D3").grid == ((1, 3), (2, 4))


def test_piece_grids_distinct():
    assert len({p.grid for p in PIECES}) == 24


def test_category_column_orientations():
    # A: both columns rise bottom-to-top; B: only left; C: only right; D: neither.
    expectations = {"A": (True, True), "B": (True, False),
                    "C": (False, True), "D": (False, False)}
    for p in PIECES:
        assert (p.bl < p.tl, p.br < p.tr) == expectations[p.category], p


def test_piece_lookup_by_letter_and_code():
    assert piece("Q") == piece("B6") == piece("b6")
    with pytest.raises(ValueError):
        piece("Z9")


def test_reduce_window_examples():
    assert reduce_window(3, 6, 1, 2).code == "A2"
    assert reduce_window(8, 7, 4, 5).code == "A1"
    assert reduce_window(1, 2, 3, 4).code == "D2"


def test_reduce_window_rejects_duplicates():
    with pytest.raises(ValueError, match="not a valid piece window"):
        reduce_window(1, 2, 2, 4)


def test_reduce_idempotent_on_piece_grids():
    for p in PIECES:
        assert reduce_window(p.tl, p.tr, p.bl, p.br) == p


@given(st.sets(st.integers(min_value=1, max_value=10 ** 6), min_size=4, max_size=4),
       st.permutations(range(4)))
def test_reduce_invariant_under_order_preserving_relabeling(values, placement):
    ordered = sorted(values)
    window = [ordered[placement[k]] for k in range(4)]
    small = [placement[k] + 1 for k in range(4)]
    assert reduce_window(*window) == reduce_window(*small)


def test_puzzle_validation():
    with pytest.raises(ValueError):
        Puzzle((1, 2), (3,))
    with pytest.raises(ValueError):
        Puzzle((1,), (2,))
    with pytest.raises(ValueError):
        Puzzle((1, 2), (3, 5))


def test_puzzle_parse_roundtrip():
    p = Puzzle.parse("3 6 8 7 / 1 2 4 5")
    assert p.n == 3 and p.top == (3, 6, 8, 7)
    assert Puzzle.parse(str(p)) == p
    assert Puzzle.parse("3 4\n1 2") == Puzzle((3, 4), (1, 2))


def test_pieces_of_examples():
    assert [q.code for q in pieces_of(Puzzle.parse("3 6 8 7 / 1 2 4 5"))] == \
        ["A2", "A2", "A1"]
    assert [q.code for q in pieces_of(Puzzle.parse("4 5 6 / 1 2 3"))] == ["A2", "A2"]
    assert pieces_of(Puzzle.parse("4 3 / 1 2")) == [piece("A1")]


def test_minimal_support_examples():
    assert str(minimal_support(Puzzle.parse("3 6 8 7 / 1 2 4 5"))) == "A1,A2"
    assert str(minimal_support(Puzzle.parse("2 4 6 8 / 1 3 5 7"))) == "A3"
    assert len(minimal_support(Puzzle.parse("1 2 / 3 4"))) == 1


def test_is_supported_examples():
    p = Puzzle.parse("3 6 8 7 / 1 2 4 5")
    assert is_supported(p, Support.parse("A1,A2,A3"))
    assert is_supported(p, FULL_SUPPORT)
    assert not is_supported(Puzzle.parse("2 4 / 1 3"), Support.parse("A1"))


def test_minimal_support_is_minimal():
    p = Puzzle.parse("3 6 8 7 / 1 2 4 5")
    ms = minimal_support(p)
    assert is_supported(p, ms)
    for q in ms:
        smaller = Support(set(ms) - {q})
        assert not is_supported(p, smaller)


def test_support_parse_and_order():
    s = Support.parse("A3,A1,A2")
    assert [p.code for p in s] == ["A1", "A2", "A3"]
    assert str(Support.parse("A,B,D")) == "A1,A2,A3"  # Han letters
    assert Support.parse("") == Support([])
    assert not Support.parse("") and len(FULL_SUPPORT) == 24


def test_support_mask_and_union():
    s = Support.parse("A1")
    assert s.mask == 1
    assert (s | Support.parse("D6")).mask == 1 | 1 << 23
    assert piece("A1") in s and piece("A2") not in s


def test_support_is_a_value_over_its_mask():
    s = Support.parse("D6,A1,B3")
    assert s.mask == 1 | 1 << 8 | 1 << 23
    assert Support.from_mask(s.mask) == s == Support(set(s))
    assert hash(Support.from_mask(s.mask)) == hash(s)
    assert [p.code for p in s] == ["A1", "B3", "D6"] and len(s) == 3
    assert repr(s) == "Support.parse('A1,B3,D6')"
    with pytest.raises(AttributeError):
        s.mask = 0
    with pytest.raises(ValueError):
        Support.from_mask(1 << 24)
    with pytest.raises(TypeError):
        Support(["A1"])


def test_value_classes_compare_and_hash_by_fields():
    a, b = Puzzle.parse("3 4 / 1 2"), Puzzle((3, 4), [1, 2])
    assert a == b and len({a, b}) == 1 and a != Puzzle.parse("1 2 / 3 4")
    with pytest.raises(AttributeError):
        a.top = (1, 2)
    assert piece("A1") == StandardPiece("A", 1, "A", ((4, 3), (1, 2)))
    assert sorted(reversed(PIECES)) == list(PIECES) and piece("A6") < piece("B1")
    with pytest.raises(AttributeError):
        del Support.parse("A1").mask
    a3 = Support.parse("A3")
    cases = (
        (lambda: CornerTable(2, {(2, 3): 1, (2, 4): 1}), "columns",
         "CornerTable(columns=2, entries={(2, 3): 1, (2, 4): 1})"),
        (lambda: SimplePieceRow(2, a3, "1", abs), "count",
         "SimplePieceRow(x=2, support=Support.parse('A3'), sequence='1', "
         "count=<built-in function abs>, refinement=None, last=None)"),
        (lambda: ConverterForm("a2b", "thm47", 19, "B", abs), "kind",
         "ConverterForm(id='a2b', alias='thm47', x=19, kind='B', "
         "formula=<built-in function abs>, first=(1, 1, 1, 1, 1, 1), last=None)"),
        (lambda: SequenceId("catalan", "A000108", abs), "name",
         "SequenceId(name='catalan', oeis='A000108', generator=<built-in function abs>, "
         "first=0, last=None)"),
        (lambda: SkeletonGraph(("a", "b"), [("a", "b")]), "edges",
         "SkeletonGraph(vertices=('a', 'b'), edges=frozenset({('a', 'b')}))"),
        (lambda: CompositionQuery(4, 2, 9, 3), "n",
         "CompositionQuery(x=4, y=2, z=9, n=3, converter_kind='B')"),
    )
    for make, field, text in cases:
        value, same = make(), make()
        assert value == same and repr(value) == text
        if not isinstance(value, CornerTable):  # its entries are a dict
            assert hash(value) == hash(same)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    for vertices, edges, message in ((("a",), [("a", "a")], "self-loop at 'a'"),
                                     (("a",), [("a", "z")], "edge ('a', 'z') leaves")):
        with pytest.raises(ValueError, match=re.escape(message)):
            SkeletonGraph(vertices, edges)
    for args, message in (((4, 7, 9, 3), "converter index 7 out of range"),
                          ((4, 2, 9, 3, "D"), "converter kind must be 'B' or 'C'"),
                          ((4, 2, 9, 0), "puzzles need n >= 1 pieces")):
        with pytest.raises(ValueError, match=re.escape(message)):
            CompositionQuery(*args)
