import pytest

from stdpuzzle.identify import identify
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
