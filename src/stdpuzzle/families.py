"""Sweeping the enumerable converter families.

Two sweep kinds, mirroring how the 51072 enumerable families arise:

  kind 1:  a simple piece (plain or mirrored to its decreasing twin) plus
           any subset of same-kind converters: 19 * 2 * 64 * 2 descriptors.
  kind 2:  a simple piece plus converters plus a mirrored simple piece:
           19 * 19 * 64 * 2 descriptors.

A group is the descriptors that differ only in their converter subset S:
one (x, z, converter kind, mirrored).  A puzzle of a converter family
changes orientation at one converter window at most (the one-junction
rule behind `theorems.compose`), so converter effects add up:

  prefix(S) = prefix({}) + sum over y in S of (prefix({y}) - prefix({})).

The sweep therefore runs `count_prefix` only on the base ({}) and the six
single-converter supports of each group, which the descriptor order
yields first, and builds every row with two or more converters by that
sum, in exact integers.  The `converter-additivity` claim of `verify`
recounts a sample of the added rows directly.

Family 10 (the smooth-lattice-path family) has no refinement formula; it
is excluded by default and included, flagged, on request.  Distinct
descriptors can assemble the same support (e.g. the empty converter
subset); rows carry a duplicate marker and duplicate supports reuse the
prefix already found instead of recounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

from .counting import count_prefix
from .pieces import Support
from .sequences import registry_matches
from .theorems import SIMPLE_PIECES, simple_piece_support
from .transforms import f2, f12

_FORMULA_FREE = frozenset(r.x for r in SIMPLE_PIECES if not r.refinement_known)


def _check_index(name: str, value) -> None:
    if value not in range(1, 21):
        raise ValueError(f"{name} out of range 1..20")


@dataclass(frozen=True)
class FamilySpec:
    """One descriptor in a sweep."""

    kind: int                       # 1 or 2
    x: int                          # simple piece index 1..20
    converter_kind: str             # "B" or "C"
    converter_subset: frozenset
    z: Optional[int] = None         # kind 2 only
    mirrored: bool = False          # kind 1 only: use the decreasing twin

    def __post_init__(self):
        if self.kind not in (1, 2):
            raise ValueError("kind must be 1 or 2")
        _check_index("x", self.x)
        if self.converter_kind not in ("B", "C"):
            raise ValueError("converter kind must be 'B' or 'C'")
        if not frozenset(self.converter_subset) <= frozenset(range(1, 7)):
            raise ValueError("converter subset must lie in 1..6")
        if (self.kind == 2) != (self.z is not None):
            raise ValueError("z is required exactly for kind 2")
        if self.kind == 2:
            _check_index("z", self.z)
        if self.kind == 2 and self.mirrored:
            raise ValueError("mirrored applies to kind 1 only")

    @property
    def formula_free(self) -> bool:
        return self.x in _FORMULA_FREE or self.z in _FORMULA_FREE

    def support(self) -> Support:
        converters = Support.of(
            *[f"{self.converter_kind}{i}" for i in sorted(self.converter_subset)])
        if self.kind == 1:
            base = simple_piece_support(self.x)
            if self.mirrored:
                base = f2(base)
            return base | converters
        return simple_piece_support(self.x) | converters | f12(simple_piece_support(self.z))

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "x": self.x,
            "converter_kind": self.converter_kind,
            "converter_subset": ",".join(map(str, sorted(self.converter_subset))),
            "z": self.z if self.z is not None else "",
            "mirrored": self.mirrored,
        }


def _subsets() -> list[frozenset]:
    """The 64 converter subsets by size, then lexicographically."""
    return [frozenset(c) for r in range(7) for c in combinations(range(1, 7), r)]


def iter_family_specs(kind: int, include_open: bool = False,
                      xs=None) -> Iterator[FamilySpec]:
    """All descriptors of one kind, in a deterministic order: within each
    group the converter subsets come by size, so the base and the single
    converters precede every larger subset.

    xs restricts the simple-piece indices (for partial sweeps); family 10
    only appears with include_open.  The kind and every index are checked
    here, before the first descriptor is asked for.
    """
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    indices = list(xs) if xs is not None else list(range(1, 21))
    for x in indices:
        _check_index("x", x)
    if not include_open:
        indices = [x for x in indices if x not in _FORMULA_FREE]
    subsets = _subsets()
    if kind == 1:
        return (FamilySpec(1, x, converter_kind, subset, mirrored=mirrored)
                for x in indices for converter_kind in ("B", "C")
                for subset in subsets for mirrored in (False, True))
    return (FamilySpec(2, x, converter_kind, subset, z=z)
            for x in indices for z in indices for converter_kind in ("B", "C")
            for subset in subsets)


def sweep(kind: int, nmax: int, include_open: bool = False,
          xs=None) -> Iterator[dict]:
    """Rows, one per descriptor: support, count prefix, registry match.

    The arguments are checked at the call; the rows come lazily.  Each
    group's base and single-converter supports are counted, its larger
    subsets are added up from them, and a descriptor assembling a support
    seen before is marked duplicate_support and reuses its prefix.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    return _rows(iter_family_specs(kind, include_open=include_open, xs=xs), nmax)


def _rows(specs: Iterator[FamilySpec], nmax: int) -> Iterator[dict]:
    seen: dict[str, list[int]] = {}
    # (group, subset) -> prefix, for the empty and single-converter subsets
    counted: dict[tuple, list[int]] = {}
    for spec in specs:
        subset = spec.converter_subset
        group = (spec.x, spec.z, spec.converter_kind, spec.mirrored)
        support = spec.support()
        key = str(support)
        duplicate = key in seen
        if duplicate:
            prefix = seen[key]
        elif len(subset) < 2:
            prefix = count_prefix(support, nmax)
        else:
            base = counted[group, frozenset()]
            singles = [counted[group, frozenset({y})] for y in subset]
            prefix = [b + sum(s) - len(s) * b for b, *s in zip(base, *singles)]
        seen.setdefault(key, prefix)
        if len(subset) < 2:
            counted[group, subset] = prefix
        matches = registry_matches(prefix)
        row = spec.descriptor()
        row.update({
            "support": key,
            "formula_free": spec.formula_free,
            "duplicate_support": duplicate,
            "prefix": [str(v) for v in prefix],
            "match": matches[0]["name"] if matches else "",
            "match_detail": matches[0] if matches else None,
        })
        yield row
