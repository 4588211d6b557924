import hashlib
import json
from itertools import combinations, product

import pytest

from stdpuzzle import families
from stdpuzzle.counting import count_prefix
from stdpuzzle.families import sweep
from stdpuzzle.pieces import Support
from stdpuzzle.theorems import (SIMPLE_PIECES, CompositionQuery, a123_plus_b,
                                compose, compose_support, simple_piece_row)
from stdpuzzle.transforms import f1, f2

DESCRIPTOR_KEYS = ("x", "converter_kind", "converter_subset", "z", "mirrored",
                   "support")


def a_indices(x):
    """The indices of simple piece x's pieces, all of category A."""
    codes = str(simple_piece_row(x).support).split(",")
    assert all(code[0] == "A" for code in codes)
    return [int(code[1:]) for code in codes]


def reference_rows(kind, xs):
    """The descriptor and support text of each sweep row, in the sweep's
    order, spelt from piece codes: every simple piece is a set of A pieces;
    f2, applied to mirrored rows, sends A_i to D_i, and f12, applied to z,
    sends A_i to D_(i+3 mod 6)."""
    subsets = [s for r in range(7) for s in combinations(range(1, 7), r)]
    if kind == 1:
        descriptors = [(x, ck, s, "", mirrored) for x, ck, s, mirrored
                       in product(xs, "BC", subsets, (False, True))]
    else:
        descriptors = [(x, ck, s, z, False)
                       for x, z, ck, s in product(xs, xs, "BC", subsets)]
    rows = []
    for x, ck, s, z, mirrored in descriptors:
        codes = [f"{'D' if mirrored else 'A'}{i}" for i in a_indices(x)]
        codes += [f"{ck}{y}" for y in s]
        if z:
            codes += [f"D{(i + 2) % 6 + 1}" for i in a_indices(z)]
        rows.append((x, ck, ",".join(map(str, s)), z, mirrored,
                     ",".join(sorted(codes))))
    return rows


def as_reference(rows):
    """The rows in the form reference_rows gives."""
    return [tuple(r[k] for k in DESCRIPTOR_KEYS) for r in rows]


def test_descriptor_counts_match_family_arithmetic():
    # ... and the rows come in the reference order, with its supports.
    closed = [x for x in range(1, 21) if x != 10]
    for kind, count in ((1, 19 * 2 ** 6 * 2 * 2), (2, 19 * 19 * 2 ** 6 * 2)):
        rows = as_reference(sweep(kind, 1))
        assert len(rows) == count
        assert rows == reference_rows(kind, closed)


def test_include_open_adds_family_ten():
    rows = list(sweep(1, 1, include_open=True))
    assert len(rows) == 20 * 2 ** 6 * 2 * 2
    assert {r["x"] for r in rows if r["formula_free"]} == {10}
    assert all(r["formula_free"] for r in rows if r["x"] == 10)


def test_support_assembly():
    rows = {tuple(r[k] for k in DESCRIPTOR_KEYS[:5]): r["support"]
            for kind, xs in ((1, [4]), (2, [4, 16])) for r in sweep(kind, 1, xs=xs)}
    assert rows[4, "B", "1", "", False] == "A1,A2,A3,B1"
    assert rows[4, "C", "2", "", True] == "C2,D1,D2,D3"
    assert Support.parse("C2,D1,D2,D3") == f2(Support.parse("A1,A2,A3")) | Support.parse("C2")
    assert rows[4, "B", "1", 16, False] == "A1,A2,A3,B1,D4"


def test_single_family_prefix_matches_closed_form():
    row = next(r for r in sweep(1, 3, xs=[4])
               if r["converter_kind"] == "B" and r["converter_subset"] == "1"
               and not r["mirrored"])
    assert [int(v) for v in row["prefix"]] == [a123_plus_b(1, n) for n in (1, 2, 3)]
    assert row["match"] == "double_factorial_odd"


def test_sweep_rows_unique_and_duplicates_flagged():
    rows = list(sweep(1, 2, xs=[17]))
    assert len(rows) == 2 ** 6 * 2 * 2
    descriptors = {(r["x"], r["converter_kind"], r["converter_subset"],
                    r["mirrored"], r["z"]) for r in rows}
    assert len(descriptors) == len(rows)
    # the empty B-subset and empty C-subset assemble the same support
    empty = [r for r in rows if r["converter_subset"] == ""]
    assert sum(1 for r in empty if r["duplicate_support"]) == 2
    # rows with equal support must carry equal prefixes
    by_support = {}
    for r in rows:
        by_support.setdefault(r["support"], set()).add(tuple(r["prefix"]))
    assert all(len(v) == 1 for v in by_support.values())


def test_sweep_kind2_slice():
    rows = list(sweep(2, 2, xs=[16, 17]))
    assert len(rows) == 2 * 2 * 2 * 2 ** 6
    assert all(r["kind"] == 2 and r["z"] in (16, 17) for r in rows)


@pytest.mark.parametrize("kind", (1, 2))
def test_every_row_equals_a_direct_count(kind):
    xs = [4, 8, 10, 17]
    rows = list(sweep(kind, 6, include_open=True, xs=xs))
    assert as_reference(rows) == reference_rows(kind, xs)
    for row in rows:
        assert row["kind"] == kind
        assert row["prefix"] == [str(v) for v in
                                 count_prefix(Support.parse(row["support"]), 6)]


def test_sweep_counts_only_base_and_single_converter_supports(monkeypatch):
    counted = []

    def counting(support, nmax):
        counted.append(support)
        return count_prefix(support, nmax)

    # The sweep runs the DP through this name alone, so every run is seen.
    monkeypatch.setattr(families, "count_prefix", counting)
    rows = list(sweep(1, 4, xs=[4]))
    assert len(rows) == 2 ** 6 * 2 * 2
    # 2 converter kinds x 2 mirrorings x (base + 6 single converters) are
    # 26 distinct supports; f2 sends each plain group onto the mirrored
    # group of the other converter kind, so they form 13 symmetry orbits.
    assert len(counted) == 13
    small = {r["support"] for r in rows if len(r["converter_subset"]) < 2}
    assert {str(s) for s in counted} <= small
    counted.clear()
    assert sum(1 for _ in sweep(2, 1)) == 19 * 19 * 2 ** 6 * 2
    assert len(counted) == 631  # of 4693 distinct base and single supports


@pytest.mark.parametrize("kind, xs, rows", ((1, None, 19 * 2 * 2 * 7),
                                            (2, [4, 8], 2 * 2 * 2 * 7)))
def test_shared_prefixes_equal_direct_counts(kind, xs, rows):
    small = [r for r in sweep(kind, 4, xs=xs) if len(r["converter_subset"]) < 2]
    assert len(small) == rows
    for row in small:
        assert row["prefix"] == [
            str(v) for v in count_prefix(Support.parse(row["support"]), 4)]


# sha256 of the JSON lines `families --out` writes for these sweeps, taken
# before the sweep moved to masks and shared prefixes across symmetry orbits.
@pytest.mark.parametrize("kind, xs, digest", (
    (1, None, "41cbaf458abdfa67e77882e9fe492e1f8804ac433ecb381a6ef4a53d416afa01"),
    (2, [4, 8], "11ed83fe99eb106349304f9b5a70c6972ea4d191f7a005dd6c54acee1560a6ff"),
))
def test_sweep_rows_are_byte_identical_to_the_pinned_jsonl(kind, xs, digest):
    sha = hashlib.sha256()
    for row in sweep(kind, 4, xs=xs):
        sha.update((json.dumps(row) + "\n").encode())
    assert sha.hexdigest() == digest


# The same, for sweeps that include family 10 and list the indices out of
# order; taken before the sweep stopped keeping a store of seen supports.
@pytest.mark.parametrize("kind, nmax, xs, digest", (
    (1, 5, None, "0223d4f835f061a0145b3f5f0d91955ad1f7a8bd5461ff54a589ac30372a2fdc"),
    (2, 4, [10, 4, 9], "48a4856d9ba129b04fbdf79306527c6b1c76348df0e815ffc3d59e87e3e8f005"),
))
def test_open_sweep_rows_are_byte_identical_to_the_pinned_jsonl(kind, nmax, xs, digest):
    sha = hashlib.sha256()
    for row in sweep(kind, nmax, include_open=True, xs=xs):
        sha.update((json.dumps(row) + "\n").encode())
    assert sha.hexdigest() == digest


@pytest.mark.parametrize("kind, xs, duplicates", ((1, None, 19 * 2), (2, [4, 8], 2 * 2)))
def test_duplicates_are_exactly_the_converter_free_c_rows(kind, xs, duplicates):
    rows = list(sweep(kind, 4, xs=xs))
    flagged = [r for r in rows if r["duplicate_support"]]
    assert len(flagged) == duplicates
    assert all(r["converter_kind"] == "C" and r["converter_subset"] == ""
               for r in flagged)
    # ... and every other row has a support of its own
    assert len({r["support"] for r in rows}) == len(rows) - duplicates


def test_sweep_checks_its_arguments_before_the_first_row():
    with pytest.raises(ValueError, match="nmax"):
        sweep(1, 0)
    with pytest.raises(ValueError, match="nmax must be in 1..24"):
        sweep(1, families.NMAX_BOUND + 1)
    with pytest.raises(ValueError, match="x out of range"):
        sweep(2, 2, xs=[4, 25])
    with pytest.raises(ValueError, match="kind"):
        sweep(3, 2)
    # a repeated index would list every one of its rows twice
    with pytest.raises(ValueError, match="distinct"):
        sweep(1, 2, xs=[4, 4])
    # family 10, named without include_open, is not dropped without a word
    for xs in ([10], [4, 10]):
        with pytest.raises(ValueError, match="--include-open"):
            sweep(1, 2, xs=xs)


def _f1_maps():
    """The simple family f1 sends each family to, and the B index it sends
    each C converter to."""
    by_support = {row.support: row.x for row in SIMPLE_PIECES}
    families_map = {row.x: by_support[f1(row.support)] for row in SIMPLE_PIECES}
    converters = {y: next(iter(f1(Support.of(f"C{y}")).members)).index
                  for y in range(1, 7)}
    return families_map, converters


def _mapped(subset, converters):
    return ",".join(sorted(str(converters[int(y)]) for y in subset.split(",") if y))


def test_kind2_c_rows_are_f1_images_of_b_rows():
    # The C row (x, S, z) is f1 of the B row (x', S + 3 mod 6, z'), with
    # x' and z' the families f1 maps x and z to; the slice is closed under
    # that map (4 <-> 5, 8 <-> 9, 10 fixed).
    xbar, converters = _f1_maps()
    rows = list(sweep(2, 4, include_open=True, xs=[4, 5, 8, 9, 10]))
    b_rows = {(r["x"], r["converter_subset"], r["z"]): r
              for r in rows if r["converter_kind"] == "B"}
    c_rows = [r for r in rows if r["converter_kind"] == "C"]
    assert len(c_rows) == 5 * 5 * 2 ** 6
    for row in c_rows:
        image = b_rows[xbar[row["x"]], _mapped(row["converter_subset"], converters),
                       xbar[row["z"]]]
        assert str(f1(Support.parse(row["support"]))) == image["support"]
        assert row["prefix"] == image["prefix"]


def test_single_converter_c_rows_match_compose():
    xbar, converters = _f1_maps()
    rows = [r for r in sweep(2, 4, xs=[4, 8, 17])
            if r["converter_kind"] == "C" and len(r["converter_subset"]) == 1]
    assert len(rows) == 3 * 3 * 6
    for row in rows:
        y = converters[int(row["converter_subset"])]
        assert row["prefix"] == [
            str(compose(CompositionQuery(xbar[row["x"]], y, xbar[row["z"]], n, "B")))
            for n in range(1, 5)]


def test_single_converter_b_rows_are_compose_supports():
    # The sweep glues a group's support as compose_support does, and the
    # C query's support is the f2 image of the B query's.
    rows = [r for r in sweep(2, 3, xs=[4, 8, 17])
            if r["converter_kind"] == "B" and len(r["converter_subset"]) == 1]
    assert len(rows) == 3 * 3 * 6
    for row in rows:
        x, y, z = row["x"], int(row["converter_subset"]), row["z"]
        b_support = compose_support(CompositionQuery(x, y, z, 3, "B"))
        assert row["support"] == str(b_support)
        assert compose_support(CompositionQuery(x, y, z, 3, "C")) == f2(b_support)
