import re
from itertools import combinations, islice

import pytest

from stdpuzzle.counting import (corner_tables, count_bruteforce, count_dp,
                                count_prefix)
from stdpuzzle.pieces import Support
from stdpuzzle.sequences import fibonacci, lattice_L
from stdpuzzle.skeleton import all_simple_pieces
from stdpuzzle.theorems import (CONVERTER_FORMS, CompositionQuery, SIMPLE_PIECES,
                                compose, compose_support, converter_prefixes,
                                px_refinement, q1, q2, q3, resolve_theorem,
                                simple_piece_row, simple_piece_count, ty)
from stdpuzzle.transforms import f123


def test_simple_piece_table_rows():
    assert len(SIMPLE_PIECES) == 20
    assert str(simple_piece_row(8).support) == "A1,A2,A3,A4,A5"
    assert simple_piece_row(10).refinement is None
    assert {row.support for row in SIMPLE_PIECES} == set(all_simple_pieces(1))
    with pytest.raises(ValueError):
        simple_piece_row(21)


@pytest.mark.parametrize("x", range(1, 21))
def test_simple_piece_formulas_match_engine(x):
    support = simple_piece_row(x).support
    for n in (1, 2, 3, 4):
        assert simple_piece_count(x, n) == count_dp(support, n)


FORMS = {form.id: form for form in CONVERTER_FORMS}


def test_converter_form_table():
    assert [(f.id, f.alias, f.x, f.kind) for f in CONVERTER_FORMS] == [
        ("a123b", "thm42", 4, "B"), ("a12b", "thm43", 11, "B"),
        ("a123c", "thm44", 4, "C"), ("a12c", None, 11, "C"),
        ("a23b", "thm46", 17, "B"), ("a2b", "thm47", 19, "B"),
        ("a12345b", "thm48", 8, "B")]
    assert str(FORMS["a12c"].support(5)) == "A1,A2,C5"
    assert str(FORMS["a12345b"].support(3)) == "A1,A2,A3,A4,A5,B3"
    for name, resolved in (("thm44", "a123c"), ("a12c", "a12c"), ("thm48", "a12345b"),
                           ("simple_piece", "simple_piece")):
        assert resolve_theorem(name)[0] == resolved
    assert resolve_theorem("simple_piece")[1] is simple_piece_count
    with pytest.raises(ValueError, match="unknown theorem id 'thm45'"):
        resolve_theorem("thm45")


def test_a123_plus_b_values():
    a123b = FORMS["a123b"].count
    assert a123b(1, 2) == 20
    assert a123b(4, 1) == 4
    assert a123b(6, 2) == 27


def test_a12_plus_b_values():
    a12b = FORMS["a12b"].count
    assert a12b(1, 2) == 12
    assert a12b(4, 1) == 3
    assert a12b(6, 1) == 3


def test_two_converter_values():
    a123c, a12c = FORMS["a123c"].count, FORMS["a12c"].count
    assert a123c(3, 2) == 18
    assert a12c(3, 2) == 10
    assert a123c(1, 1) == 4
    assert count_bruteforce(Support.parse("A1,A2,A3,C1"), 1) == 4
    # the n >= 2 families, frozen from the enumeration engines
    assert [a12c(5, n) for n in (2, 3, 4)] == [15, 108, 1000]


def test_a23_plus_b_values():
    a23b = FORMS["a23b"].count
    assert a23b(4, 2) == 10
    assert a23b(3, 2) == 7
    assert a23b(1, 1) == 3
    assert count_bruteforce(Support.parse("A2,A3,B1"), 1) == 3
    # repaired closed form for the B5 family
    assert [a23b(5, n) for n in (1, 2, 3, 4)] == [3, 12, 49, 198]


def test_a2_plus_b_values():
    a2b = FORMS["a2b"].count
    assert a2b(2, 2) == 4
    assert a2b(4, 2) == 4
    # catalan(n) + catalan(n-1), pinned by enumeration (3, not 2, at n=2)
    assert a2b(3, 2) == 3
    assert count_bruteforce(Support.parse("A2,B3"), 2) == 3


@pytest.mark.parametrize("i", range(1, 7))
def test_one_converter_forms_match_engine(i):
    for form in CONVERTER_FORMS:
        support = form.support(i)
        for n in range(form.first[i - 1], 5):
            assert form.count(i, n) == count_dp(support, n), (form.id, i, n)


def test_entringer_family_values():
    a12345b = FORMS["a12345b"].count
    assert [a12345b(i, 2) for i in range(1, 7)] == [75, 73, 70, 73, 75, 75]
    assert a12345b(1, 499) > 0  # the last n whose secant term exists


def test_domain_errors():
    for count, i, n, message in (
            (FORMS["a12345b"].count, 1, 1, "n must be in 2..499, got 1"),
            (FORMS["a12345b"].count, 1, 500, "n must be in 2..499, got 500"),
            (FORMS["a12c"].count, 1, 1, "n must be >= 2, got 1"),
            (FORMS["a123b"].count, 7, 2, "converter index 7 out of range 1..6"),
            (simple_piece_count, 5, 0, "n must be >= 1, got 0"),
            (simple_piece_count, 8, 500, "n must be in 1..499, got 500"),
            (simple_piece_count, 10, 12, "n must be in 1..11, got 12")):
        with pytest.raises(ValueError, match=re.escape(message)):
            count(i, n)
    assert simple_piece_count(9, 499) == simple_piece_count(8, 499)
    assert simple_piece_count(10, 11) == lattice_L(12)


def test_f123_converter_map():
    # Every simple family f123 fixes, plus C_i, counts like the family plus
    # the B_j that f123 sends C_i to.
    converters = [Support.parse(f"C{i}") for i in range(1, 7)]
    assert [str(f123(c)) for c in converters] == ["B4", "B2", "B3", "B1", "B5", "B6"]
    for x in (1, 2, 3, 8, 9, 10, 17, 18, 19, 20):
        family = simple_piece_row(x).support
        assert f123(family) == family
        for c in converters:
            for n in (1, 2, 3):
                assert count_dp(family | c, n) == count_dp(family | f123(c), n), (x, c, n)


def test_px_refinement_values():
    assert px_refinement(1, 1, 1, 2) == 1
    assert px_refinement(1, 2, 2, 3) == 6
    assert px_refinement(4, 2, 1, 2) == 1
    assert px_refinement(17, 3, 1, 2) == 1
    assert px_refinement(17, 1, 1, 1) == 1
    assert px_refinement(4, 1, 1, 3) == 0  # below the family's corner range
    assert px_refinement(8, 5, 5, 3) == 0  # i + j beyond 2m
    with pytest.raises(ValueError):
        px_refinement(10, 1, 1, 2)
    with pytest.raises(ValueError):
        px_refinement(4, 0, 1, 2)


@pytest.mark.parametrize("x", [x for x in range(1, 21) if x != 10])
def test_px_refinement_matches_corner_tables(x):
    support = simple_piece_row(x).support
    for m, entries in islice(corner_tables(support), 6):
        for i in range(1, 2 * m):
            for j in range(1, 2 * m + 1 - i):
                assert px_refinement(x, i, j, m) == entries.get((i, i + j), 0), \
                    (x, i, j, m)
    # The table stores only nonzero refinements.
    build = simple_piece_row(x).refinement
    assert all(0 not in build(m).values() for m in range(2, 7))


def test_q_counts_tiny_cases():
    assert q1(1, 1, 1, 1, 1, 1) == 1
    assert q2(1, 1, 1, 1, 1, 1) == 1
    assert q3(1, 1, 1, 1, 1, 1) == 1
    with pytest.raises(ValueError):
        q1(2, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        q3(1, 1, 0, 1, 1, 1)


def exhaustive_split_count(which, i, j, k, l, m, p):
    total = 2 * m + 2 * p
    count = 0
    for a_part in combinations(range(1, total + 1), 2 * m):
        b_part = [x for x in range(1, total + 1) if x not in a_part]
        ai, aij = a_part[i - 1], a_part[i + j - 1]
        bk, bkl = b_part[k - 1], b_part[k + l - 1]
        if which == 1:
            count += ai < bk < bkl < aij
        elif which == 2:
            count += ai < bk < aij < bkl
        else:
            count += ai < aij < bk < bkl
    return count


@pytest.mark.parametrize("m,p", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)])
def test_q_counts_match_exhaustive_partitions(m, p):
    for i in range(1, 2 * m):
        for j in range(1, 2 * m - i + 1):
            for k in range(1, 2 * p):
                for l in range(1, 2 * p - k + 1):
                    for which, fn in ((1, q1), (2, q2), (3, q3)):
                        assert fn(i, j, k, l, m, p) == \
                            exhaustive_split_count(which, i, j, k, l, m, p)


def test_ty_block_swap():
    cases = [(1, 1, 1, 1, 1, 1), (1, 2, 1, 1, 2, 1), (2, 1, 1, 2, 2, 2),
             (1, 3, 2, 1, 2, 3)]
    for args in cases:
        i, j, k, l, m, p = args
        assert ty(1, *args) == q1(*args)
        assert ty(2, *args) == q2(*args)
        assert ty(4, *args) == q1(k, l, i, j, p, m)
        assert ty(6, *args) == q3(k, l, i, j, p, m)
    with pytest.raises(ValueError):
        ty(7, 1, 1, 1, 1, 1, 1)


@pytest.mark.parametrize("x,y,z,n", [(4, 1, 4, 2), (16, 1, 16, 1), (17, 4, 19, 3)])
def test_compose_examples(x, y, z, n):
    query = CompositionQuery(x, y, z, n)
    assert compose(query) == count_dp(compose_support(query), n)


@pytest.mark.parametrize("k", range(4))
def test_converter_prefixes_add_each_converters_excess(k):
    base = [2, 10 ** 30, 7]
    singles = [[3 + j, 10 ** 30 + 5 ** j, 7 - j] for j in range(k)]
    prefixes = converter_prefixes(base, singles)
    assert len(prefixes) == 2 ** k
    assert prefixes[0] == base
    assert [prefixes[1 << j] for j in range(k)] == singles
    for bits, prefix in enumerate(prefixes):
        chosen = [single for j, single in enumerate(singles) if bits >> j & 1]
        assert prefix == [b + sum(single[t] - b for single in chosen)
                          for t, b in enumerate(base)]


def test_compose_rejects_family_ten():
    with pytest.raises(ValueError):
        CompositionQuery(10, 1, 4, 2)
    with pytest.raises(ValueError):
        CompositionQuery(4, 1, 10, 2)


def counts_twice(codes: str, all_a: str, n: int) -> bool:
    """Whether the support `codes` counts twice `all_a` at every n' <= n."""
    return count_prefix(Support.parse(codes), n) == \
        [2 * c for c in count_prefix(Support.parse(all_a), n)]


def test_flip_identity_examples():
    assert counts_twice("A2,A3,D2,D3", "A2,A3", 2)
    assert count_dp(Support.parse("A2,A3,D2,D3"), 2) == 10
    assert counts_twice("B1,B2,B3,B4,B5,B6,C1,C2,C3,C4,C5,C6",
                        "A1,A2,A3,A4,A5,A6", 2)


def test_flip_corollary_examples():
    assert counts_twice("A2,B2,C5,D5", "A2,A5", 2)
    # the vortex support is one instance of the identity
    knuth = Support.parse("A1,A4,B3,B6,C3,C6,D1,D4")
    assert count_dp(knuth, 2) == 2 * count_dp(Support.parse("A1,A3,A4,A6"), 2)


def test_product_identity_examples():
    # {X_i : X in classes, i in alpha} counts A_alpha times {X_1 : X in classes}
    for spread, a_alpha, ones, n in (("A1,B1,C1", "A1", "A1,B1,C1", 3),
                                     ("A2,A5", "A2,A5", "A1", 3),
                                     ("A1,A2,B1,B2,C1,C2", "A1,A2", "A1,B1,C1", 2)):
        lhs, a, b = (count_prefix(Support.parse(s), n) for s in (spread, a_alpha, ones))
        assert lhs == [x * y for x, y in zip(a, b)]


def test_fibonacci_family():
    # {A1,B1,C1} counts F(n+3).
    family = Support.parse("A1,B1,C1")
    assert count_bruteforce(family, 1) == 3
    assert count_prefix(family, 8) == [fibonacci(n + 3) for n in range(1, 9)]
