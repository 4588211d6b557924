import json

import pytest

from stdpuzzle import identify as identify_mod
from stdpuzzle.identify import identify, oeis_lookup
from stdpuzzle.pieces import Support


def test_identify_catalan_family():
    result = identify(Support.parse("A2,A3"), 6)
    assert result["prefix"] == ["2", "5", "14", "42", "132", "429"]
    assert any(m["name"] == "catalan" and m["offset"] == 1
               for m in result["matches"])


def test_identify_lattice_family():
    result = identify(Support.parse("A1,A2,A4,A5"), 5)
    assert any(m["name"] == "lattice_smooth_paths" and m["offset"] == 1
               for m in result["matches"])


def test_identify_open_family_has_no_match():
    result = identify(Support.parse("A1,A3"), 6)
    assert result["matches"] == []


def test_identify_needs_enough_terms():
    with pytest.raises(ValueError):
        identify(Support.parse("A2,A3"), 3)


def test_oeis_lookup_parses_and_caches(tmp_path, monkeypatch):
    calls = []

    def fake_get(url, params, timeout):
        calls.append(params["q"])
        return {"results": [{"number": 108, "name": "Catalan numbers"}]}

    monkeypatch.setattr(identify_mod, "_http_get", fake_get)
    prefix = [2, 5, 14, 42, 132]
    got = oeis_lookup(prefix, cache_dir=tmp_path)
    assert got == [("A000108", "Catalan numbers")]
    assert len(calls) == 1
    assert len(list(tmp_path.glob("*.json"))) == 1

    # second call must come from the cache, even with the network gone
    def broken_get(url, params, timeout):
        raise RuntimeError("network disabled")

    monkeypatch.setattr(identify_mod, "_http_get", broken_get)
    again = oeis_lookup(prefix, cache_dir=tmp_path)
    assert again == [("A000108", "Catalan numbers")]


def test_oeis_lookup_bare_list_payload(tmp_path, monkeypatch):
    monkeypatch.setattr(
        identify_mod, "_http_get",
        lambda url, params, timeout: [{"number": 364, "name": "secant"}])
    assert oeis_lookup([1, 1, 5, 61, 1385], cache_dir=tmp_path) == \
        [("A000364", "secant")]


def test_oeis_lookup_degrades_on_error(tmp_path, monkeypatch):
    def broken_get(url, params, timeout):
        raise RuntimeError("boom")

    monkeypatch.setattr(identify_mod, "_http_get", broken_get)
    with pytest.warns(UserWarning, match="OEIS lookup failed"):
        assert oeis_lookup([9, 9, 9, 9, 9], cache_dir=tmp_path) == []
    assert list(tmp_path.glob("*.json")) == []


def test_oeis_lookup_short_prefix():
    with pytest.raises(ValueError):
        oeis_lookup([1, 2, 3])


def test_oeis_lookup_recovers_from_corrupt_cache(tmp_path, monkeypatch):
    prefix = [2, 5, 14, 42, 132]
    monkeypatch.setattr(
        identify_mod, "_http_get",
        lambda url, params, timeout: {"results": [{"number": 1}]})
    first = oeis_lookup(prefix, cache_dir=tmp_path)
    cache_file = next(tmp_path.glob("*.json"))
    cache_file.write_text("{not json")
    again = oeis_lookup(prefix, cache_dir=tmp_path)
    assert first == again == [("A000001", "")]
    assert json.loads(cache_file.read_text())["entries"]


def test_identify_with_oeis_appends(tmp_path, monkeypatch):
    monkeypatch.setattr(
        identify_mod, "_http_get",
        lambda url, params, timeout:
            {"results": [{"number": 108, "name": "Catalan numbers"}]})
    result = identify(Support.parse("A2,A3"), 6, use_oeis=True, cache_dir=tmp_path)
    kinds = {m["kind"] for m in result["matches"]}
    assert kinds == {"registry", "oeis"}


def test_http_get_decodes_json_and_raises_on_http_error(monkeypatch):
    import http.server
    import threading
    import urllib.error

    seen = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            seen.append(self.path)
            if self.path.startswith("/missing"):
                self.send_error(404)
                return
            body = json.dumps({"results": [{"number": 108}]}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    monkeypatch.setenv("no_proxy", "127.0.0.1")  # never route via a proxy
    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.server_address[1]}"
        payload = identify_mod._http_get(f"{base}/search",
                                         {"q": "2,5,14", "fmt": "json"}, 5.0)
        assert payload == {"results": [{"number": 108}]}
        assert seen == ["/search?q=2%2C5%2C14&fmt=json"]
        with pytest.raises(urllib.error.HTTPError):
            identify_mod._http_get(f"{base}/missing", {}, 5.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
