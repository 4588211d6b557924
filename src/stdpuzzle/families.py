"""Sweeping the enumerable converter families.

Two sweep kinds, mirroring how the 51072 enumerable families arise:

  kind 1:  a simple piece (plain or mirrored to its decreasing twin) plus
           any subset of same-kind converters: 19 * 2 * 64 * 2 descriptors.
  kind 2:  a simple piece plus converters plus a mirrored simple piece:
           19 * 19 * 64 * 2 descriptors.

Family 10 (the smooth-lattice-path family) has no refinement formula; it
is excluded by default and included, flagged, on request.  Distinct
descriptors can assemble the same support (e.g. the empty converter
subset); rows carry a duplicate marker and duplicate supports reuse the
cached prefix instead of recounting.
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
        if self.x not in range(1, 21):
            raise ValueError("x out of range 1..20")
        if self.converter_kind not in ("B", "C"):
            raise ValueError("converter kind must be 'B' or 'C'")
        if not frozenset(self.converter_subset) <= frozenset(range(1, 7)):
            raise ValueError("converter subset must lie in 1..6")
        if (self.kind == 2) != (self.z is not None):
            raise ValueError("z is required exactly for kind 2")
        if self.kind == 2 and self.z not in range(1, 21):
            raise ValueError("z out of range 1..20")
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
    """All descriptors of one kind, in a deterministic order.

    xs restricts the simple-piece indices (for partial sweeps); family 10
    only appears with include_open.
    """
    indices = list(xs) if xs is not None else list(range(1, 21))
    if not include_open:
        indices = [x for x in indices if x not in _FORMULA_FREE]
    subsets = _subsets()
    if kind == 1:
        for x in indices:
            for converter_kind in ("B", "C"):
                for subset in subsets:
                    for mirrored in (False, True):
                        yield FamilySpec(1, x, converter_kind, subset,
                                         mirrored=mirrored)
    elif kind == 2:
        for x in indices:
            for z in indices:
                for converter_kind in ("B", "C"):
                    for subset in subsets:
                        yield FamilySpec(2, x, converter_kind, subset, z=z)
    else:
        raise ValueError("kind must be 1 or 2")


def sweep(kind: int, nmax: int, include_open: bool = False,
          xs=None) -> Iterator[dict]:
    """Yield one row per descriptor: support, count prefix, registry match.

    Each distinct support is counted once; later descriptors assembling
    the same support are marked duplicate_support and reuse the prefix.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    seen: dict[str, list] = {}
    for spec in iter_family_specs(kind, include_open=include_open, xs=xs):
        support = spec.support()
        key = str(support)
        duplicate = key in seen
        if duplicate:
            prefix = seen[key]
        else:
            prefix = count_prefix(support, nmax)
            seen[key] = prefix
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
