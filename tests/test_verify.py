from fractions import Fraction

import pytest

from stdpuzzle import verify
from stdpuzzle.pieces import Support
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


@pytest.mark.parametrize("claim, supports", (
    ("catalan", ["A2,A3"]),
    ("double-factorial", ["A1,A2,A3", "A1,A2"]),
    ("lattice-paths", ["A1,A2,A4,A5"]),
    ("secant", ["A1,A2,A3,A4,A5"]),
    ("fibonacci", ["A1,B1,C1", "B1,C1,D1"]),
    ("linear-family", ["A1,B1,D1", "A1,C1,D1"]),
    ("whirlpool", ["A1,A4,B3,B6,C3,C6,D1,D4"]),
))
def test_formula_claims_count_the_supports_they_name(counted_masks, claim, supports):
    # Families 17 and 18 share their counts, so only the supports a claim
    # hands the engine show which family it checks.
    assert run_verification([claim], nmax=3).results[0].status == STATUS_PASS
    assert set(counted_masks) == {Support.parse(codes).mask for codes in supports}
