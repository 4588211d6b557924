from fractions import Fraction

import pytest

from stdpuzzle import families, theorems, verify
from stdpuzzle.counting import count_prefix
from stdpuzzle.families import sweep
from stdpuzzle.pieces import Support
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
    ("converter-images", "1..1", "pass", "1..3", "pass"),
    ("q-partition-lemma", "m+p<=4", "pass", "m+p<=4", "pass"),
    ("refinement-table", "m<=2", "pass", "m<=4", "pass"),
    ("composition", "n<=1", "pass", "n<=3", "pass"),
    ("flip-pair-identity", "n<=1", "pass", "n<=3", "pass"),
    ("whirlpool", "1..1", "pass", "1..3", "pass"),
    ("product-identity", "n<=1", "pass", "n<=3", "pass"),
    ("flip-invariance", "1..1", "pass", "1..4", "pass"),
    ("engine-equivalence", "1..1", "pass", "1..3", "pass"),
    ("converter-additivity", "1..1", "pass", "1..4", "pass"),
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


@pytest.mark.parametrize("claim, passes, vector", (
    ("flip-pair-identity", 508, [True, 548]),
    ("product-identity", 315, [0, 945]),
))
def test_identity_claims_count_each_support_once(counted_masks, claim, passes, vector):
    result = run_verification([claim], nmax=3).results[0]
    assert len(counted_masks) == len(set(counted_masks)) == passes
    assert result.computed == result.expected == vector


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
    # the base is counted once per kind: 16 counts of 15 supports
    ("converter-additivity",
     [_AD, f"{_AD},{_B}", f"{_AD},{_C}",
      *(f"{_AD},{kind}{i}" for kind in "BC" for i in range(1, 7))]),
))
def test_formula_claims_count_the_supports_they_name(counted_masks, claim, supports):
    # Families 17 and 18 share their counts, so only the supports a claim
    # hands the engine show which family it checks.
    assert run_verification([claim], nmax=3).results[0].status == STATUS_PASS
    assert set(counted_masks) == {Support.parse(codes).mask for codes in supports}
    assert len(set(counted_masks)) == len(supports)


def test_additivity_fails_where_the_converter_kinds_mix():
    # A B window then a C window turns a column down and back up, so a
    # support with both kinds has puzzles with two distinct converters.
    base = Support.parse(_AD)
    singles = [count_prefix(base | Support.of(code), 4) for code in ("B1", "C1")]
    computed = count_prefix(base | Support.of("B1", "C1"), 4)
    expected = converter_prefixes(count_prefix(base, 4), singles)[-1]
    assert computed[0] == expected[0]
    assert all(c > e for c, e in zip(computed[1:], expected[1:]))


def test_sweep_and_additivity_claim_share_one_sum_rule(monkeypatch):
    # The claim certifies the function the sweep builds its rows with:
    # both call theorems.converter_prefixes, once per group and per kind.
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
    assert calls == [6] * 2  # B, then C


def test_every_sweep_support_lies_inside_a_one_kind_support():
    # So converter-additivity, checked on these two supports, covers every row.
    one_kind = [Support.parse(f"{_AD},{kind}").mask for kind in (_B, _C)]
    rows = [row for kind in (1, 2) for row in sweep(kind, 1, include_open=True)]
    assert len(rows) == 56320
    assert all(any(Support.parse(row["support"]).mask & ~mask == 0 for mask in one_kind)
               for row in rows)
