"""Sweeping the enumerable converter families.

Two sweep kinds, mirroring how the 51072 enumerable families arise:

  kind 1:  a simple piece (plain or mirrored to its decreasing twin) plus
           any subset of same-kind converters: 19 * 2 * 64 * 2 descriptors.
  kind 2:  a simple piece plus converters plus a mirrored simple piece:
           19 * 19 * 64 * 2 descriptors.

A group is the descriptors that differ only in their converter subset S:
one (x, z, converter kind, mirrored).  Converter effects add up, by the
corollary in `verify._orientation_factorization` that `verify`'s
`converter-additivity` claim checks: the prefix of S is the base plus
each converter's excess, `theorems.converter_prefixes`.  So the sweep
runs `count_prefix` only on each group's base and single-converter supports.

It also counts each such support at most once up to symmetry.  The maps
f1, f2 and f3 send the puzzles of a support onto those of its image, and
as commuting involutions they generate 8 maps (`transforms.SYMMETRIES`).
The sweep works on 24-bit support masks: a row's mask is its group's base
with the subset's converter bits shifted into their category's block, and
each counted prefix is filed under the least of the support's 8 images.
A base or single-converter support with the same least image reuses that
prefix: the full kind-2 sweep runs the DP on 631 supports instead of 4693.

A group's base is `theorems.glued_support(x, z)`, the support to which
`theorems.compose_support` adds B_y, or for a mirrored kind-1 group its
f2 image, as `compose`'s C support is the f2 image of its B support.

A row's prefix therefore rests on the DP and two certificates, `verify`'s
`converter-additivity` and `flip-invariance` claims.

Family 10 (the smooth-lattice-path family) has no refinement formula; it
is excluded by default and included, flagged, on request.  A sweep's
indices are distinct, so the one support two descriptors share is a
group's converter-free support, listed under B and under C; the C row
is marked duplicate_support.
"""

from __future__ import annotations

from itertools import combinations
from operator import or_
from typing import Iterator

from .counting import count_prefix
from .pieces import Support, piece
from .sequences import registry_matches
from .theorems import SIMPLE_PIECES, converter_prefixes, glued_support
from .transforms import SYMMETRIES, f2, map_mask

_FORMULA_FREE = frozenset(r.x for r in SIMPLE_PIECES if r.refinement is None)

#: Largest nmax a sweep accepts.  In-process on a 2-CPU machine (Python
#: 3.11.7), the full kind-2 sweep with family 10 takes about 11 s at nmax =
#: 24 (3.7 s at 16, 24 s at 32), and the full kind-1 sweep 1 s.
NMAX_BOUND = 24

#: The 64 converter subsets by size, then lexicographically, as (text, bits):
#: converter y of kind K is bit y - 1 of bits, bit _SHIFT[K] + y - 1 of a mask.
_SUBSETS = tuple((",".join(map(str, c)), sum(1 << y - 1 for y in c))
                 for r in range(7) for c in combinations(range(1, 7), r))
_SHIFT = {kind: piece(f"{kind}1").ordinal for kind in "BC"}


def _images(mask: int) -> list[int]:
    """The mask's images under the 8 symmetries, in SYMMETRIES order."""
    return [map_mask(perm, mask) for perm in SYMMETRIES]


def _indices(kind: int, include_open: bool, xs) -> list[int]:
    """The simple-piece indices of a sweep, checked along with the kind."""
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    indices = list(xs) if xs is not None else list(range(1, 21))
    if any(x not in range(1, 21) for x in indices):
        raise ValueError("x out of range 1..20")
    if len(set(indices)) < len(indices):
        raise ValueError(f"x indices must be distinct, got {indices}")
    if not include_open:
        if xs is not None and _FORMULA_FREE.intersection(indices):
            raise ValueError("family 10 has no refinement formula; it is swept "
                             "only with include_open (--include-open)")
        indices = [x for x in indices if x not in _FORMULA_FREE]
    return indices


def sweep(kind: int, nmax: int, include_open: bool = False,
          xs=None) -> Iterator[dict]:
    """Rows, one per descriptor: support, count prefix, registry match.

    The rows come in this order: x (then z, for kind 2) over the given
    indices in their order; converter kind B, then C; the 64 converter
    subsets by size, then lexicographically; and for kind 1 the plain
    row, then the mirrored one.  xs restricts the simple-piece indices,
    given once each; family 10 only appears with include_open.

    The arguments are checked at the call; the rows come lazily.  Each
    group's base and single-converter supports are counted, once per
    symmetry orbit, and every row is the base plus each converter's
    excess, `theorems.converter_prefixes`.
    """
    if not 1 <= nmax <= NMAX_BOUND:
        raise ValueError(f"nmax must be in 1..{NMAX_BOUND}, got {nmax}")
    return _rows(kind, _indices(kind, include_open, xs), nmax)


def _rows(kind: int, indices: list[int], nmax: int) -> Iterator[dict]:
    # per kind, the single converters 1..6 and their images
    single_converters = {ck: [(1 << shift + j, _images(1 << shift + j)) for j in range(6)]
                         for ck, shift in _SHIFT.items()}
    orbits: dict[int, list[int]] = {}  # least symmetry image -> prefix

    def counted(mask: int, images) -> list[int]:
        """The prefix of a mask with these symmetry images, once per orbit."""
        least = min(images)
        if least not in orbits:
            orbits[least] = count_prefix(Support.from_mask(mask), nmax)
        return orbits[least]

    pairs = ([(x, None) for x in indices] if kind == 1
             else [(x, z) for x in indices for z in indices])
    mirrorings = (False, True) if kind == 1 else (False,)
    for x, z in pairs:
        formula_free = x in _FORMULA_FREE or z in _FORMULA_FREE
        glued = glued_support(x, z)
        bases = [(f2(glued) if mirrored else glued).mask for mirrored in mirrorings]
        base_images = [_images(base) for base in bases]
        for converter_kind in ("B", "C"):
            tables = []  # per mirroring, the group's prefixes indexed by subset bits
            for base, images in zip(bases, base_images):
                counts = [counted(base | mask, map(or_, images, mask_images))
                          for mask, mask_images in single_converters[converter_kind]]
                tables.append(converter_prefixes(counted(base, images), counts))
            for text, bits in _SUBSETS:
                for mirrored, base, prefixes in zip(mirrorings, bases, tables):
                    prefix = prefixes[bits]
                    matches = registry_matches(prefix)
                    yield {
                        "kind": kind,
                        "x": x,
                        "converter_kind": converter_kind,
                        "converter_subset": text,
                        "z": "" if z is None else z,
                        "mirrored": mirrored,
                        "support": str(Support.from_mask(base | bits << _SHIFT[converter_kind])),
                        "formula_free": formula_free,
                        "duplicate_support": converter_kind == "C" and not bits,
                        "prefix": [str(v) for v in prefix],
                        "match": matches[0]["name"] if matches else "",
                        "match_detail": matches[0] if matches else None,
                    }
