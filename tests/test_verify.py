import random
from collections import Counter
from fractions import Fraction

import pytest

from stdpuzzle import families, theorems, transforms, verify
from stdpuzzle.counting import count_prefix, enumerate_puzzles
from stdpuzzle.families import sweep
from stdpuzzle.pieces import PIECES, Support, piece, pieces_of
from stdpuzzle.theorems import converter_prefixes
from stdpuzzle.verify import STATUS_FAIL, STATUS_PASS, run_verification

# (claim, n_range at --nmax 1, status at 1, n_range at --nmax 8, status at 8):
# each claim's reported range is the runner's contract with the reader.
RANGES = [
    ("pieces", "-", "pass", "-", "pass"),
    ("catalan", "1..1", "pass", "1..8", "pass"),
    ("double-factorial", "1..1", "pass", "1..8", "pass"),
    ("secant", "1..1", "pass", "1..5", "pass"),
    ("lattice-paths", "1..1", "pass", "1..6", "pass"),
    ("fibonacci", "1..1", "pass", "1..8", "pass"),
    ("fibonacci-alt-offset", "1..1", "flagged", "1..6", "flagged"),
    ("linear-family", "1..1", "pass", "1..6", "pass"),
    ("corner-refinements", "1..1", "pass", "1..5", "pass"),
    ("corner-entringer", "1..1", "pass", "1..4", "pass"),
    ("hypergeometric-sums", "1..1", "pass", "1..8", "pass"),
    ("simple-piece-table", "1..1", "pass", "1..4", "pass"),
    ("simple-pieces", "-", "pass", "-", "pass"),
    ("converter-closed-forms", "1..1", "pass", "1..4", "pass"),
    ("entringer-closed-forms", "-", "skipped", "2..3", "pass"),
    ("converter-images", "-", "pass", "-", "pass"),
    ("q-partition-lemma", "m+p<=4", "pass", "m+p<=4", "pass"),
    ("refinement-table", "m<=2", "pass", "m<=4", "pass"),
    ("composition", "n<=1", "pass", "n<=3", "pass"),
    ("flip-pair-identity", "-", "pass", "-", "pass"),
    ("whirlpool", "1..1", "pass", "1..3", "pass"),
    ("product-identity", "-", "pass", "-", "pass"),
    ("flip-invariance", "-", "pass", "-", "pass"),
    ("engine-equivalence", "1..1", "pass", "1..3", "pass"),
    ("converter-additivity", "-", "pass", "-", "pass"),
]


@pytest.mark.parametrize("nmax, column", ((1, 1), (8, 3)))
def test_each_claim_reports_its_range_and_status(nmax, column):
    report = run_verification(nmax=nmax)
    assert [r.claim for r in report.results] == [row[0] for row in RANGES]
    assert [(r.n_range, r.status) for r in report.results] == \
        [row[column:column + 2] for row in RANGES]


def test_hypergeometric_odd_sum_is_a_failed_check(monkeypatch):
    # Each term (2n-k)(k+1)T is even for an integral T; a half-integral
    # triangle makes the sum odd, which must grade as a mismatch.
    monkeypatch.setattr(verify, "triangle_T", lambda n, k: Fraction(1, 2))
    result = run_verification(["hypergeometric-sums"], nmax=3).results[0]
    assert result.status == STATUS_FAIL


def test_hypergeometric_halves_print_as_integers():
    result = run_verification(["hypergeometric-sums"], nmax=8).results[0]
    assert result.status == STATUS_PASS
    assert all(v.isdigit() for v in result.to_dict()["computed"])


@pytest.fixture
def counted_masks(monkeypatch):
    """The mask of each support verify hands count_prefix, in call order."""
    masks = []
    count_prefix = verify.count_prefix

    def recorder(support, nmax):
        masks.append(support.mask)
        return count_prefix(support, nmax)

    monkeypatch.setattr(verify, "count_prefix", recorder)
    return masks


_AD, _B, _C = ("A1,A2,A3,A4,A5,A6,D1,D2,D3,D4,D5,D6", "B1,B2,B3,B4,B5,B6",
                "C1,C2,C3,C4,C5,C6")


@pytest.mark.parametrize("claim, supports", (
    ("catalan", ["A2,A3"]),
    ("double-factorial", ["A1,A2,A3", "A1,A2"]),
    ("lattice-paths", ["A1,A2,A4,A5"]),
    ("secant", ["A1,A2,A3,A4,A5"]),
    ("fibonacci", ["A1,B1,C1", "B1,C1,D1"]),
    ("linear-family", ["A1,B1,D1", "A1,C1,D1"]),
    ("whirlpool", ["A1,A4,B3,B6,C3,C6,D1,D4"]),
    ("converter-closed-forms",
     [f"{family},{converter}{i}" for i in range(1, 7) for family, converter in (
         ("A1,A2,A3", "B"), ("A1,A2", "B"), ("A1,A2,A3", "C"), ("A1,A2", "C"),
         ("A2,A3", "B"), ("A2", "B"))]),
    ("entringer-closed-forms", [f"A1,A2,A3,A4,A5,B{i}" for i in range(1, 7)]),
))
def test_formula_claims_count_the_supports_they_name(counted_masks, claim, supports):
    # Families 17 and 18 share their counts, so only the supports a claim
    # hands the engine show which family it checks.
    assert run_verification([claim], nmax=3).results[0].status == STATUS_PASS
    assert set(counted_masks) == {Support.parse(codes).mask for codes in supports}
    assert len(set(counted_masks)) == len(supports)


@pytest.mark.parametrize("converters, mixed", (
    (_B, False), (_C, False), ("B1,C1", True)), ids=("only-B", "only-C", "B1-and-C1"))
def test_additivity_fails_where_the_converter_kinds_mix(converters, mixed):
    # The DP evidence for converter-additivity, deeper than the claim ever
    # counted: one converter kind adds up at every n <= 6, while a B window
    # then a C window turns a column down and back up, so a support with
    # both kinds has puzzles with two distinct converters.
    base = Support.parse(_AD)
    codes = converters.split(",")
    singles = [count_prefix(base | Support.parse(code), 6) for code in codes]
    computed = count_prefix(base | Support.parse(converters), 6)
    expected = converter_prefixes(count_prefix(base, 6), singles)[-1]
    if mixed:
        assert computed[0] == expected[0]
        assert all(c > e for c, e in zip(computed[1:], expected[1:]))
    else:
        assert computed == expected


def test_sweep_and_additivity_claim_share_one_sum_rule(monkeypatch):
    # The claim certifies the function the sweep builds its rows with:
    # the sweep calls theorems.converter_prefixes once per group, the
    # claim once on its basis input.
    assert families.converter_prefixes is theorems.converter_prefixes
    calls = []

    def recorder(base, singles):
        calls.append(len(singles))
        return converter_prefixes(base, singles)

    monkeypatch.setattr(families, "converter_prefixes", recorder)
    monkeypatch.setattr(theorems, "converter_prefixes", recorder)
    assert len(list(sweep(1, 2, xs=[4]))) == 2 ** 6 * 2 * 2
    assert calls == [6] * 4  # 2 converter kinds x 2 mirrorings
    calls.clear()
    result = run_verification(["converter-additivity"], nmax=2).results[0]
    assert result.status == STATUS_PASS
    assert calls == [6]


def test_every_sweep_support_lies_inside_a_one_kind_support():
    # So converter-additivity, which holds on these two supports at every
    # n, covers every row.
    one_kind = [Support.parse(f"{_AD},{kind}").mask for kind in (_B, _C)]
    rows = [row for kind in (1, 2) for row in sweep(kind, 1, include_open=True)]
    assert len(rows) == 56320
    assert all(any(Support.parse(row["support"]).mask & ~mask == 0 for mask in one_kind)
               for row in rows)


@pytest.mark.parametrize("claim, nmax", [
    (claim, nmax)
    for claim in ("flip-invariance", "flip-pair-identity", "product-identity",
                  "converter-images", "converter-additivity", "simple-pieces")
    for nmax in (1, 3, 8)])
def test_flip_invariance_is_checked_on_the_pieces_alone(counted_masks, monkeypatch,
                                                         claim, nmax):
    # The certificate claims run no DP and draw nothing at random.
    monkeypatch.delattr(verify, "random")
    result = run_verification([claim], nmax=nmax).results[0]
    assert (result.n_range, result.status) == ("-", STATUS_PASS)
    assert counted_masks == []


def test_claims_without_a_cap_do_not_read_nmax():
    uncapped = [name for name, claim in verify.CLAIMS.items() if claim.cap is None]
    assert run_verification(uncapped, nmax=1) == run_verification(uncapped, nmax=10 ** 9)


def test_orientation_factorization_matches_the_dp():
    # count(S, n) = sum over w of a(w) * 1^T M_{w_1} ... M_{w_n} 1: a(w) is
    # read off the listing of the all-A puzzles, and each category's column
    # orientations off its pieces' grids.
    orientations = {p.category: (p.bl < p.tl, p.br < p.tr) for p in PIECES}
    a_words = [Counter(tuple(q.index for q in pieces_of(puzzle)) for puzzle in
                       enumerate_puzzles(Support.parse("A1,A2,A3,A4,A5,A6"), n))
               for n in (1, 2, 3)]

    def paths(held, word):
        """1^T M_{w_1} ... M_{w_n} 1 for the (index, left, right) entries held."""
        ends = {False: 1, True: 1}
        for i in word:
            ends = {right: sum(ends[left] for left in (False, True) if (i, left, right) in held)
                    for right in (False, True)}
        return sum(ends.values())

    rng = random.Random(36)
    for _ in range(100):
        support = Support(rng.sample(PIECES, rng.randrange(0, 25)))
        held = {(p.index, *orientations[p.category]) for p in support}
        assert [sum(a * paths(held, w) for w, a in words.items())
                for words in a_words] == count_prefix(support, 3), support


def test_identity_claims_fail_when_a_column_swap_keeps_the_orientation(monkeypatch):
    # A2 with its left column swapped is C2; a reduction to C3 breaks the
    # piece fact both identities and converter additivity rest on.
    a2, c3, reduce_window = piece("A2"), piece("C3"), verify.reduce_window
    swapped = (a2.bl, a2.tr, a2.tl, a2.br)
    monkeypatch.setattr(verify, "reduce_window",
                        lambda *window: c3 if window == swapped else reduce_window(*window))
    results = run_verification(["flip-pair-identity", "product-identity",
                                "converter-additivity"]).results
    assert [r.status for r in results] == [STATUS_FAIL] * 3


def _swaps(perm):
    """perm with each pair of cyclically adjacent entries swapped."""
    for i in range(len(perm)):
        j = (i + 1) % len(perm)
        swapped = list(perm)
        swapped[i], swapped[j] = perm[j], perm[i]
        yield tuple(swapped)


def test_flip_invariance_tells_the_maps_apart(monkeypatch):
    # f1 o f2 preserves counts too, so recounting supports and their
    # images cannot tell it from f2; the pieces' images can.
    monkeypatch.setattr(transforms, "F2", tuple(transforms.F1[j] for j in transforms.F2))
    assert run_verification(["flip-invariance"]).results[0].status == STATUS_FAIL


def test_flip_invariance_fails_for_every_adjacent_swap(monkeypatch):
    statuses = []
    for name in ("F1", "F2", "F3"):
        for perm in _swaps(getattr(transforms, name)):
            with monkeypatch.context() as patch:
                patch.setattr(transforms, name, perm)
                statuses.append(run_verification(["flip-invariance"]).results[0].status)
    assert statuses == [STATUS_FAIL] * 72


@pytest.mark.parametrize("swapped", (slice(0, 5), slice(12, 17)), ids=("A", "C"))
def test_f123_images_fail_for_every_adjacent_swap(monkeypatch, swapped):
    # Entries 0..5 of F3 are the images of A1..A6 and entries 12..17 those of
    # C1..C6: a swap of two A images changes which simple families f123
    # fixes, and a swap of two C images sends some C_i to the wrong B_j.
    statuses = []
    for perm in list(_swaps(transforms.F3))[swapped]:
        with monkeypatch.context() as patch:
            patch.setattr(transforms, "F3", perm)
            statuses.append(run_verification(["converter-images"]).results[0].status)
    assert statuses == [STATUS_FAIL] * 5


def _swap_bits_0_and_1(prefixes):
    """prefixes with the entries of subsets b and b ^ 0b11 swapped where
    b has exactly one of bits 0 and 1."""
    return [prefixes[b ^ 0b11 if (b ^ (b >> 1)) & 1 else b] for b in range(len(prefixes))]


@pytest.mark.parametrize("claim, mutate", (
    ("converter-additivity", lambda patch: patch.setattr(
        theorems, "converter_prefixes",
        lambda base, singles: _swap_bits_0_and_1(converter_prefixes(base, singles)))),
    ("converter-additivity",
     lambda patch: patch.setitem(verify._ORIENTATIONS, "C", (True, False))),
    ("simple-pieces", lambda patch: patch.setitem(verify._ORIENTATIONS, "B", (True, True))),
), ids=("swapped-subset-bits", "c-turns-down", "b-keeps-its-column"))
def test_converter_certificates_fail_for_their_mutants(monkeypatch, claim, mutate):
    mutate(monkeypatch)
    assert run_verification([claim]).results[0].status == STATUS_FAIL
