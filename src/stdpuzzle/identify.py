"""Sequence identification: a support's count prefix named by the registry.

Identification is a naming aid, never an oracle: each match is a
`registry_matches` hit, labelled "candidate match", in the same form as a
`families` row's `match_detail`.
"""

from __future__ import annotations

from .counting import count_prefix
from .pieces import Support
from .sequences import registry_matches


def identify(support: Support, nmax: int) -> dict:
    """Compute the count prefix for a support and rank candidate names.

    Registry matches try small shifts and prefactors.
    """
    if nmax < 4:
        raise ValueError("identification needs nmax >= 4")
    prefix = count_prefix(support, nmax)
    return {
        "support": str(support),
        "nmax": nmax,
        "prefix": [str(v) for v in prefix],
        "matches": registry_matches(prefix),
    }
