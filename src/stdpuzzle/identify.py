"""Sequence identification: registry matching plus an optional OEIS client.

Identification is a naming aid, never an oracle: matches are labeled
"candidate match" and the OEIS round trip is opt-in, cached on disk, and
degrades to registry-only on any network trouble.  The modules that only
the OEIS path and its cache need are imported there.
"""

from __future__ import annotations

import json

from .counting import count_prefix
from .pieces import Support
from .sequences import registry_matches

OEIS_SEARCH_URL = "https://oeis.org/search"
CACHE_ENV_VAR = "STDPUZZLE_CACHE_DIR"
_DEFAULT_CACHE = "~/.cache/stdpuzzle/oeis"


def default_cache_dir():
    """The OEIS cache directory, a pathlib.Path."""
    import os
    from pathlib import Path

    return Path(os.environ.get(CACHE_ENV_VAR, _DEFAULT_CACHE)).expanduser()


def _http_get(url: str, params: dict, timeout: float):
    """GET url?params and return the decoded JSON payload.

    Separated out so tests can stub the network away; HTTP errors raise.
    urllib is imported here because only OEIS lookups need it and
    urllib.request adds about 40 ms to every command's start-up.
    """
    import urllib.parse
    import urllib.request

    full = f"{url}?{urllib.parse.urlencode(params)}"
    with urllib.request.urlopen(full, timeout=timeout) as response:
        return json.load(response)


def _parse_oeis_payload(payload) -> list[tuple[str, str]]:
    if isinstance(payload, dict):
        results = payload.get("results") or []
    elif isinstance(payload, list):
        results = payload
    else:
        raise ValueError("unrecognized OEIS response shape")
    out = []
    for entry in results:
        number = entry.get("number")
        if number is None:
            continue
        out.append((f"A{int(number):06d}", str(entry.get("name", ""))))
    return out


def oeis_lookup(prefix, cache_dir=None, timeout: float = 10.0) -> list[tuple[str, str]]:
    """Look a term prefix up on OEIS, consulting the on-disk cache first.

    Needs at least five terms.  Network or parse failures emit a warning
    and return an empty list; they never raise.
    """
    import hashlib
    import warnings
    from pathlib import Path

    terms = [int(t) for t in prefix]
    if len(terms) < 5:
        raise ValueError("OEIS lookups need at least 5 terms")
    query = ",".join(str(t) for t in terms)
    cache = Path(cache_dir) if cache_dir else default_cache_dir()
    key = hashlib.sha256(query.encode()).hexdigest()
    cache_file = cache / f"{key}.json"
    if cache_file.exists():
        try:
            stored = json.loads(cache_file.read_text())
            return [(str(a), str(b)) for a, b in stored["entries"]]
        except (ValueError, KeyError):
            pass  # corrupt cache entry; fall through to the network
    try:
        payload = _http_get(OEIS_SEARCH_URL, {"q": query, "fmt": "json"}, timeout)
        entries = _parse_oeis_payload(payload)
    except Exception as exc:  # timeouts, HTTP errors, bad JSON: degrade
        warnings.warn(f"OEIS lookup failed ({exc}); continuing without it")
        return []
    cache.mkdir(parents=True, exist_ok=True)
    cache_file.write_text(json.dumps({"query": query, "entries": entries}))
    return entries


def identify(support: Support, nmax: int, use_oeis: bool = False,
             cache_dir=None) -> dict:
    """Compute the count prefix for a support and rank candidate names.

    Registry matches try small shifts and prefactors; with use_oeis the
    prefix is also sent to OEIS (results appended, labeled oeis).
    """
    if nmax < 4:
        raise ValueError("identification needs nmax >= 4")
    prefix = count_prefix(support, nmax)
    matches = registry_matches(prefix)
    for match in matches:
        match["kind"] = "registry"
    if use_oeis:
        for entry_id, name in oeis_lookup(prefix, cache_dir=cache_dir):
            matches.append({
                "name": name,
                "oeis": entry_id,
                "offset": None,
                "factor": None,
                "label": "candidate match",
                "kind": "oeis",
            })
    return {
        "support": str(support),
        "nmax": nmax,
        "prefix": [str(v) for v in prefix],
        "matches": matches,
    }
