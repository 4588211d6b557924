"""Tour of sequence identification, the family sweep, and verification.

registry_matches() names a support's count prefix against the built-in
registry, as the identify command does.
The family sweep enumerates every converter family descriptor.
run_verification() recomputes all of the package's headline results and
reports pass/fail per claim.
"""

from itertools import islice

from stdpuzzle import Support, count_prefix, registry_matches
from stdpuzzle.families import sweep
from stdpuzzle.verify import run_verification

for codes in ("A2,A3", "A1,A2,A4,A5", "A1,A3"):
    prefix = count_prefix(Support.parse(codes), 6)
    names = [f"{m['name']} (offset {m['offset']}, factor {m['factor']})"
             for m in registry_matches(prefix)]
    print(f"{{{codes}}}: prefix {[str(v) for v in prefix]}")
    print("   matches:", names or "none (an open family)")

print()
kind1 = sum(1 for _ in sweep(1, 1))
kind2 = sum(1 for _ in sweep(2, 1))
print(f"Sweepable family descriptors: kind 1: {kind1}, kind 2: {kind2}")
print(f"(19*2^6*2*2 + 19*19*2^6*2 = {kind1 + kind2} enumerable families)")

print()
print("A few rows of the kind-1 sweep restricted to family 4:")
for row in islice(sweep(1, 3, xs=[4]), 4):
    print(f"  x={row['x']} {row['converter_kind']}{{{row['converter_subset']}}}"
          f" mirrored={row['mirrored']}: {row['prefix']} -> {row['match'] or '?'}")

print()
print("Verification suite at n <= 3:")
report = run_verification(nmax=3)
for claim in report.results:
    print(f"  [{claim.status.upper():7s}] {claim.claim}")
summary = report.summary
print(f"summary: {summary['pass']} pass, {summary['fail']} fail, "
      f"{summary['flagged']} flagged, {summary['skipped']} skipped")
