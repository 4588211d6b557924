import csv
import importlib.util
import io
import json
import math
import os
import shlex
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from stdpuzzle import FULL_SUPPORT
from stdpuzzle import cli, sequences
from stdpuzzle.cli import main
from stdpuzzle.counting import count_prefix
from stdpuzzle.families import sweep
from stdpuzzle.pieces import Support
from stdpuzzle.sequences import REGISTRY, registry_matches
from stdpuzzle.theorems import CONVERTER_FORMS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_count_catalan(capsys):
    payload = run_json(capsys, "count", "--support", "A2,A3", "--n", "5")
    assert payload["count"] == "132" and payload["engine"] == "dp"


def test_count_single_piece_and_dead_family(capsys):
    assert run_json(capsys, "count", "--support", "A1", "--n", "7")["count"] == "1"
    assert run_json(capsys, "count", "--support", "B1", "--n", "3")["count"] == "0"


def test_count_brute_engine_and_corner(capsys):
    payload = run_json(capsys, "count", "--support", "A2,A3", "--n", "3",
                       "--engine", "brute")
    assert payload["count"] == "14"
    corner = run_json(capsys, "count", "--support", "A1,A2,A3", "--n", "1",
                      "--corner", "bottom=3")
    assert corner["count"] == "1"


def test_count_rejects_brute_engine_with_corner(capsys):
    # Corner counts come from the DP table; labelling them "brute" (and
    # skipping the brute-force bound) would misreport the engine.
    code, out, err = run(capsys, "count", "--support", "A1,A2,A3", "--n", "9",
                         "--engine", "brute", "--corner", "bottom=5")
    assert code == 2
    assert out == ""
    assert "--engine brute" in err


def test_enumerate(capsys):
    payload = run_json(capsys, "enumerate", "--support", "A2,A3", "--n", "2")
    assert payload["count"] == "5"
    assert payload["puzzles"][0] == "4 5 6 / 1 2 3"


def test_enumerate_refuses_oversized_listing(capsys):
    # Every filling counts under the full support: 12! puzzles at n=5,
    # within the brute-force bound but far too many to hold and sort.
    code, out, err = run(capsys, "enumerate", "--support", str(FULL_SUPPORT),
                         "--n", "5")
    assert code == 2
    assert out == ""
    assert "479001600" in err


def test_pieces_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "pieces")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 24
    assert rows[0]["code"] == "A1" and rows[0]["letter"] == "A"


def test_reduce(capsys):
    payload = run_json(capsys, "reduce", "--window", "3,6,1,2")
    assert payload["piece"] == "A2"


def test_transform(capsys):
    payload = run_json(capsys, "transform", "--map", "f2",
                       "--support", "A1,A2,A3")
    assert payload["image"] == "D1,D2,D3"


def test_seq(capsys):
    payload = run_json(capsys, "seq", "--name", "secant", "--upto", "4")
    assert payload["values"] == ["1", "1", "5", "61", "1385"]
    payload = run_json(capsys, "seq", "--name", "ordered_pair_arrangements",
                       "--upto", "3")
    assert payload["values"] == ["1", "1", "6", "90"]
    # (2k-1)!!, A001147, as in the registry that identify reports from
    payload = run_json(capsys, "seq", "--name", "double_factorial_odd", "--upto", "3")
    assert payload["values"] == ["1", "1", "3", "15"]
    payload = run_json(capsys, "seq", "--name", "lattice_smooth_paths", "--start", "1",
                       "--upto", "4")
    assert payload["name"] == "lattice_smooth_paths"
    assert payload["values"] == ["1", "4", "44", "896"]
    # Without --start, a sequence that rejects index 0 starts at 1.
    for name, values in (("lattice_smooth_paths", ["1", "4", "44"]),
                         ("whirlpool", ["2", "8", "84"])):
        payload = run_json(capsys, "seq", "--name", name, "--upto", "3")
        assert payload["start"] == 1 and payload["values"] == values


def test_seq_prints_counts_past_the_str_digit_limit(capsys):
    # (3000)!! = 2^1500 * 1500!; Decimal spells an int with no digit limit.
    payload = run_json(capsys, "seq", "--name", "double_factorial_even",
                       "--start", "1500", "--upto", "1500")
    value, = payload["values"]
    assert len(value) > 4300
    assert value == str(Decimal(2 ** 1500 * math.factorial(1500)))


def test_seq_reads_registry(capsys):
    for seq in REGISTRY:
        code, out, err = run(capsys, "seq", "--name", seq.name, "--start", "1",
                             "--upto", "6")
        if seq.last is not None and seq.last < 6:  # past the row's last: a usage error
            assert code == 2 and out == "" and "error" in err, seq.name
        else:
            assert code == 0, seq.name
            assert json.loads(out)["values"] == [str(seq.generator(k))
                                                 for k in range(1, 7)], seq.name


def test_seq_builds_each_entringer_row_once(capsys, monkeypatch):
    step, calls = sequences._entringer_step, []

    def counted(prev, n):
        calls.append(n)
        return step(prev, n)

    monkeypatch.setattr(sequences, "_entringer_step", counted)
    monkeypatch.setattr(sequences, "_ROWS", {})
    code, _, _ = run(capsys, "seq", "--name", "secant", "--upto", "500")
    assert code == 0
    assert len(calls) <= 1000


def test_theorem_aliases(capsys):
    direct = run_json(capsys, "theorem", "--id", "a23b", "--i", "4", "--n", "5")
    alias = run_json(capsys, "theorem", "--id", "thm46", "--i", "4", "--n", "5")
    assert direct["value"] == alias["value"] == "462"
    assert run_json(capsys, "theorem", "--id", "thm44", "--i", "3",
                    "--n", "2")["resolved"] == "a123c"
    two_piece = run_json(capsys, "theorem", "--id", "a12c", "--i", "3", "--n", "2")
    assert two_piece["value"] == "10" and two_piece["resolved"] == "a12c"


def test_compose_with_verification(capsys):
    payload = run_json(capsys, "compose", "--x", "4", "--y", "1", "--z", "4",
                       "--n", "3", "--verify")
    assert payload["verified"] is True
    assert payload["value"] == payload["engine_count"]


def test_skeleton_dot_file(tmp_path, capsys):
    out_file = tmp_path / "graph.dot"
    payload = run_json(capsys, "skeleton", "--support", "A1,A2,A3",
                       "--n", "3", "--dot", str(out_file))
    assert payload["vertices"] == 8
    text = out_file.read_text()
    assert text.startswith("digraph") and "->" in text


def test_skeleton_dot_stdout(capsys):
    code, out, _ = run(capsys, "skeleton", "--support", "A1,A2", "--n", "2",
                       "--dot", "-")
    assert code == 0 and out.startswith("digraph")


def test_skeleton_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "skeleton", "--support", "A2,A3",
                       "--n", "1")
    assert code == 0
    assert out.splitlines()[0] == "support,n,vertices,edges,dot_text"
    [row] = csv.DictReader(io.StringIO(out))
    assert row["support"] == "A2,A3" and row["dot_text"].startswith("digraph")


def test_compose_verify_failure_csv(capsys, monkeypatch):
    from stdpuzzle import theorems
    true_compose = theorems.compose
    monkeypatch.setattr(theorems, "compose", lambda query: true_compose(query) + 1)
    code, out, _ = run(capsys, "--format", "csv", "compose", "--x", "4", "--y", "1",
                       "--z", "4", "--n", "3", "--verify")
    assert code == 1
    [row] = csv.DictReader(io.StringIO(out))
    assert row["verified"] == "False"
    assert int(row["value"]) == int(row["engine_count"]) + 1


def test_verify_single_claim(capsys):
    code, out, err = run(capsys, "verify", "--claim", "catalan", "--nmax", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["claims"][0]["status"] == "pass"
    assert payload["claims"][0]["computed"][:3] == ["2", "5", "14"]
    assert "[PASS" in err


def test_verify_secant_claim_values(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "secant", "--nmax", "3")
    assert code == 0
    claim = json.loads(out)["claims"][0]
    assert claim["status"] == "pass"
    assert claim["computed"][:3] == ["5", "61", "1385"]


def test_verify_order_count_claims_keep_their_vectors(capsys):
    # Both oracles count linear extensions; these are the vectors the
    # permutation and partition enumerators gave before them.
    code, out, _ = run(capsys, "verify", "--claim", "secant",
                       "--claim", "q-partition-lemma", "--nmax", "5")
    assert code == 0
    secant, q_lemma = json.loads(out)["claims"]
    assert (secant["status"], secant["n_range"]) == ("pass", "1..5")
    assert secant["computed"] == secant["expected"] == \
        ["5", "61", "1385", "50521", "2702765", "1", "5", "61", "1385", "50521"]
    assert (q_lemma["status"], q_lemma["n_range"]) == ("pass", "m+p<=4")
    assert q_lemma["computed"] == q_lemma["expected"]
    assert (len(q_lemma["expected"]), sum(map(int, q_lemma["expected"]))) == (237, 1773)


def test_verify_flagged_claim_is_not_failure(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "fibonacci-alt-offset",
                       "--nmax", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["claims"][0]["status"] == "flagged"
    assert payload["summary"]["flagged"] == 1


def test_verify_skips_claim_below_its_first_n(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "entringer-closed-forms",
                       "--nmax", "1")
    assert code == 0
    claim = json.loads(out)["claims"][0]
    assert claim["status"] == "skipped"
    assert claim["detail"] == "needs nmax >= 2"
    assert claim["n_range"] == "-" and claim["computed"] == []


def test_verify_runs_a_repeated_claim_once(capsys):
    payload = run_json(capsys, "verify", "--claim", "catalan", "--claim", "pieces",
                       "--claim", "catalan")
    assert [c["claim"] for c in payload["claims"]] == ["catalan", "pieces"]
    assert payload["summary"]["pass"] == 2


def test_verify_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "--claim", "nonsense")
    assert code == 2 and "unknown claim" in err


def test_identify(capsys):
    payload = run_json(capsys, "identify", "--support", "A2,A3", "--nmax", "6")
    assert list(payload) == ["support", "nmax", "prefix", "matches"]
    assert payload["support"] == "A2,A3" and payload["nmax"] == 6


def test_identify_catalan_family(capsys):
    payload = run_json(capsys, "identify", "--support", "A2,A3", "--nmax", "6")
    assert payload["prefix"] == ["2", "5", "14", "42", "132", "429"]
    assert any(m["name"] == "catalan" and m["offset"] == 1
               for m in payload["matches"])


def test_identify_lattice_family(capsys):
    payload = run_json(capsys, "identify", "--support", "A1,A2,A4,A5", "--nmax", "5")
    assert any(m["name"] == "lattice_smooth_paths" and m["offset"] == 1
               for m in payload["matches"])


@pytest.mark.parametrize("nmax", (12, 16))
def test_identify_keeps_a_match_past_the_sequences_last_term(capsys, nmax):
    # lattice_L stops at LATTICE_BOUND = 12, which offset 1 reaches at n = 11;
    # the terms past it end the comparison instead of failing it.
    payload = run_json(capsys, "identify", "--support", "A1,A2,A4,A5",
                       "--nmax", str(nmax))
    assert payload["matches"] == [
        {"name": "lattice_smooth_paths", "oeis": "A227656", "offset": 1,
         "factor": "1", "label": "candidate match", "checked_through": 11}]


def test_identify_open_family_has_no_match(capsys):
    payload = run_json(capsys, "identify", "--support", "A1,A3", "--nmax", "6")
    assert payload["matches"] == []
    code, out, _ = run(capsys, "--format", "csv", "identify", "--support", "A1,A3",
                       "--nmax", "6")
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out))) == [
        {"name": "", "oeis": "", "offset": "", "factor": "",
         "label": "no registry match", "checked_through": ""}]
    # so the CSV of several runs stacks under one header
    _, hit, _ = run(capsys, "--format", "csv", "identify", "--support", "A2,A3")
    assert hit.splitlines()[0] == out.splitlines()[0]


def test_identify_needs_enough_terms(capsys):
    assert run(capsys, "identify", "--support", "A2,A3", "--nmax", "3") \
        == (2, "", "error: identification needs nmax >= 4\n")


# The retired OEIS options.  The second is spelled in two parts, so that a
# search for the removed names finds only code that still uses them.
@pytest.mark.parametrize("flag", (["--oeis"], ["--cache" "-dir", "d"]),
                         ids=("oeis", "cache"))
def test_identify_has_no_oeis_options(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["identify", "--support", "A2,A3", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_identify_matches_are_registry_matches_as_in_families(capsys):
    matches = run_json(capsys, "identify", "--support", "A2,A3", "--nmax", "6")["matches"]
    assert matches == registry_matches(count_prefix(Support.parse("A2,A3"), 6))
    [row] = [r for r in sweep(1, 6, xs=[17]) if r["converter_kind"] == "B"
             and r["converter_subset"] == "" and not r["mirrored"]]
    assert matches[0] == row["match_detail"]


def test_nmax_belongs_to_each_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--nmax", "3", "verify", "--claim", "catalan"])
    assert exc.value.code == 2
    capsys.readouterr()
    claim = run_json(capsys, "verify", "--claim", "catalan")["claims"][0]
    assert claim["n_range"] == "1..3"
    assert run_json(capsys, "identify", "--support", "A2,A3")["nmax"] == 6
    code, out, _ = run(capsys, "families", "--kind", "1", "--x", "16")
    assert code == 0
    assert len(json.loads(out.splitlines()[0])["prefix"]) == 4


def test_families_csv(tmp_path, capsys):
    out_file = tmp_path / "families.csv"
    code, _, _ = run(capsys, "--format", "csv", "families", "--kind", "1",
                     "--nmax", "2", "--x", "4", "--out", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(out_file.read_text().splitlines()))
    assert len(rows) == 2 ** 6 * 2 * 2
    assert {r["x"] for r in rows} == {"4"}


def test_families_jsonl(capsys):
    code, out, _ = run(capsys, "families", "--kind", "1", "--nmax", "1",
                       "--x", "16")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 2 ** 6 * 2 * 2
    assert all(row["prefix"] for row in rows)


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "count", "--support", "Z9", "--n", "2")
    assert code == 2 and "error" in err
    # an unknown name, the retired names of two registry sequences, and
    # plain k!!, which the registry serves as double_factorial_odd/_even
    for name in ("nonsense", "lattice", "multinomial_pairs", "double_factorial"):
        code, _, err = run(capsys, "seq", "--name", name, "--upto", "3")
        assert code == 2 and f"unknown sequence {name!r}" in err
    # a start past --upto, a start below the sequence's first index and an
    # --upto past its last index are one usage error naming the domain
    assert run(capsys, "seq", "--name", "catalan", "--start", "5", "--upto", "2") \
        == (2, "", "error: seq catalan takes 0 <= --start <= --upto, "
                   "got --start 5, --upto 2\n")
    assert run(capsys, "seq", "--name", "naturals", "--start", "-3", "--upto", "2") \
        == (2, "", "error: seq naturals takes 0 <= --start <= --upto, "
                   "got --start -3, --upto 2\n")
    assert run(capsys, "seq", "--name", "whirlpool", "--start", "0", "--upto", "3") \
        == (2, "", "error: seq whirlpool takes 1 <= --start <= --upto <= 5, "
                   "got --start 0, --upto 3\n")
    # simple piece indices past 1..20, as x and as z
    for x, z, v in (("21", "9", 21), ("4", "0", 0)):
        assert run(capsys, "compose", "--x", x, "--y", "2", "--z", z, "--n", "3") \
            == (2, "", f"error: simple piece index {v} out of range 1..20\n")
    # a retired theorem id: F(n+3) is `seq --name fibonacci --start N+3 --upto N+3`
    assert run(capsys, "theorem", "--id", "fibonacci", "--i", "99", "--n", "3") \
        == (2, "", "error: unknown theorem id 'fibonacci'\n")
    code, _, _ = run(capsys, "count", "--support", "A1", "--n", "9",
                     "--engine", "brute")
    assert code == 2
    # Errors found by the argument parser are one line too, with no usage.
    for argv, message in ((["families", "--kind", "3"],
                           "error: argument --kind: invalid choice: 3"),
                          (["count", "--support", "A2,A3", "--n"],
                           "error: argument --n: expected one argument"),
                          (["theorem", "--id", "thm44", "--base", "Q", "--n", "2"],
                           "error: unrecognized arguments: --base Q"),
                          (["--nmax", "3", "verify"],
                           "error: --nmax goes after the subcommand; "
                           "only --format goes before it")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1


def test_io_error_exit_3(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    code, _, err = run(capsys, "families", "--kind", "1", "--nmax", "1",
                       "--x", "16", "--out", str(missing))
    assert code == 3 and "i/o error" in err


# An empty --x is a malformed list like "4,,8", not a request for every index.
@pytest.mark.parametrize("bad", (["--nmax", "0"], ["--x", "25"], ["--x", "4,25"],
                                 ["--x", ""]))
def test_rejected_families_command_keeps_the_out_file(tmp_path, capsys, bad):
    out_file = tmp_path / "rows.jsonl"
    out_file.write_text("old rows\n")
    code, out, err = run(capsys, "families", "--kind", "2", "--nmax", "2",
                         *bad, "--out", str(out_file))
    assert code == 2 and "error" in err and out == ""
    assert out_file.read_text() == "old rows\n"


@pytest.mark.parametrize("xs", ("4,a", "4,,8", ""))
def test_malformed_x_names_the_option(capsys, xs):
    code, out, err = run(capsys, "families", "--kind", "1", "--x", xs)
    assert code == 2 and out == ""
    assert err == f"error: --x expects comma-separated integers 1..20, got {xs!r}\n"


@pytest.mark.parametrize("argv, message", (
    (["count", "--support", "A1,A2,A3", "--n", "3", "--corner", "bottom=abc"],
     "error: --corner expects bottom=X or top=X with an integer X, got 'bottom=abc'\n"),
    (["count", "--support", "A1,A2,A3", "--n", "3", "--corner", "side=2"],
     "error: --corner expects bottom=X or top=X with an integer X, got 'side=2'\n"),
    (["reduce", "--window", "1,2,3,x"],
     "error: --window expects four integer labels TL,TR,BL,BR, got '1,2,3,x'\n"),
    (["reduce", "--window", "1,2,3"],
     "error: --window expects four integer labels TL,TR,BL,BR, got '1,2,3'\n"),
    (["families", "--kind", "1", "--x", "4,4"],
     "error: x indices must be distinct, got [4, 4]\n"),
    (["families", "--kind", "1", "--x", "4,10", "--nmax", "2"],
     "error: family 10 has no refinement formula; it is swept only with include_open "
     "(--include-open)\n"),
    (["count", "--support", "A1,A2,A3", "--n", "0", "--corner", "bottom=1"],
     "error: puzzles need n >= 1 pieces\n"),
    (["count", "--support", "A1,A2,A3", "--n", "-2", "--corner", "top=1"],
     "error: puzzles need n >= 1 pieces\n"),
    (["count", "--support", str(FULL_SUPPORT), "--n", "60", "--corner", "bottom=999"],
     "error: --corner rank 999 out of range 1..122\n"),
    (["count", "--support", "A1,A2,A3", "--n", "3", "--corner", "top=0"],
     "error: --corner rank 0 out of range 1..8\n"),
), ids=("corner-rank", "corner-side", "window-label", "window-size", "repeated-x",
        "open-x", "corner-n-zero", "corner-n-negative", "corner-rank-past-2n+2",
        "corner-rank-zero"))
def test_malformed_option_values_name_the_option(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", message)


# Arguments each subcommand parses, by subcommand; every subcommand has a row.
MINIMAL_ARGV = {
    "pieces": [],
    "reduce": ["--window", "1,2,3,4"],
    "transform": ["--map", "f1", "--support", "A1"],
    "skeleton": ["--support", "A1,A2,A3", "--n", "1"],
    "count": ["--support", "A1", "--n", "1"],
    "enumerate": ["--support", "A1", "--n", "1"],
    "seq": ["--name", "catalan", "--upto", "3"],
    "theorem": ["--id", "a123b", "--n", "1"],
    "compose": ["--x", "4", "--y", "1", "--z", "4", "--n", "1"],
    "verify": [],
    "identify": ["--support", "A1"],
    "families": ["--kind", "1"],
}


@pytest.mark.parametrize("exc, code, message", (
    (ValueError("bad"), 2, "error: bad\n"),
    (OSError("disk"), 3, "i/o error: disk\n"),
    (RuntimeError("cross-check failed"), 4, "error: RuntimeError: cross-check failed\n"),
    (RecursionError("maximum recursion depth exceeded"), 4,
     "error: RecursionError: maximum recursion depth exceeded\n"),
    (MemoryError(), 4, "error: MemoryError\n"),
    # No user value reaches a lookup unchecked, so a KeyError is a fault.
    (KeyError("x"), 4, "error: KeyError: 'x'\n"),
), ids=("ValueError", "OSError", "RuntimeError", "RecursionError", "MemoryError",
        "KeyError"))
@pytest.mark.parametrize("command", cli.build_parser()[1])
def test_every_subcommand_maps_a_handler_failure_to_its_exit_code(
        monkeypatch, capsys, command, exc, code, message):
    def handler(args):
        raise exc
    monkeypatch.setattr(cli, f"cmd_{command}", handler)
    assert run(capsys, command, *MINIMAL_ARGV[command]) == (code, "", message)


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stderr_keeps_the_io_exit_code(monkeypatch):
    # With stdout and stderr on a closed pipe (`... 2>&1 | head -1`), the
    # error report itself fails; exit 1 stays reserved for verification.
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    monkeypatch.setattr(sys, "stderr", _ClosedPipe())
    assert main(["families", "--kind", "1", "--nmax", "1", "--x", "4"]) == 3


_STARTUP_PROBE = """
import contextlib, io, json, sys
loaded = lambda: sorted(m for m in sys.modules if m.startswith("stdpuzzle"))
import stdpuzzle
bare = loaded()
from stdpuzzle.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["count", "--support", "A2,A3", "--n", "5"])
after_count = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    main(["identify", "--support", "A2,A3", "--nmax", "5"])
after_identify = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    main(["verify", "--nmax", "1"])
after_verify = loaded()
star = {}
exec("from stdpuzzle import *", star)
print(json.dumps({"bare": bare, "code": code, "out": out.getvalue(),
                  "after_count": after_count, "after_identify": after_identify,
                  "after_verify": after_verify,
                  "all": stdpuzzle.__all__,
                  "star": sorted(k for k in star if k != "__builtins__")}))
"""

# The closed-form commands, in a fresh process: without --verify they
# load no counting code.
_CLOSED_FORM_PROBE = """
import contextlib, io, json, sys
from stdpuzzle.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["theorem", "--id", "a23b", "--i", "4", "--n", "5"]),
             main(["compose", "--x", "4", "--y", "2", "--z", "9", "--n", "3"])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("stdpuzzle"))]))
"""


def run_probe(code: str):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_commands_import_only_the_modules_they_run():
    probe = run_probe(_STARTUP_PROBE)
    assert probe["bare"] == ["stdpuzzle"]
    assert probe["code"] == 0 and json.loads(probe["out"])["count"] == "132"
    assert probe["after_count"] == ["stdpuzzle", "stdpuzzle.cli",
                                    "stdpuzzle.counting", "stdpuzzle.pieces"]
    assert probe["after_identify"] == ["stdpuzzle", "stdpuzzle.cli",
                                       "stdpuzzle.counting", "stdpuzzle.pieces",
                                       "stdpuzzle.sequences", "stdpuzzle.skeleton"]
    # verify's claims load every module but the sweep's.
    assert probe["after_verify"] == probe["after_identify"] + [
        "stdpuzzle.theorems", "stdpuzzle.transforms", "stdpuzzle.verify"]
    # Every public name resolves, and `import *` binds exactly those.
    assert len(probe["all"]) == 48 and probe["star"] == sorted(probe["all"])
    assert run_probe(_CLOSED_FORM_PROBE) == [
        [0, 0], ["stdpuzzle", "stdpuzzle.cli", "stdpuzzle.pieces", "stdpuzzle.sequences",
                 "stdpuzzle.theorems", "stdpuzzle.transforms"]]


_DATACLASSES_PROBE = """
import contextlib, io, json, sys
from stdpuzzle.cli import main
seen = {}
for argv in (["count", "--support", "A2,A3", "--n", "5"],
             ["identify", "--support", "A2,A3", "--nmax", "5"],
             ["families", "--kind", "1", "--nmax", "2", "--x", "16"],
             ["compose", "--x", "4", "--y", "2", "--z", "9", "--n", "3"],
             ["verify", "--nmax", "1"],
             ["skeleton", "--support", "A1,A2,A3", "--n", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen[argv[0]] = [code, "dataclasses" in sys.modules]
print(json.dumps(seen))
"""


def test_cold_commands_do_not_import_dataclasses():
    assert run_probe(_DATACLASSES_PROBE) == {
        name: [0, False] for name in ("count", "identify", "families", "compose",
                                      "verify", "skeleton")}


# Every `theorem --id` but the aliases, and one alias.
THEOREM_IDS = (*(form.id for form in CONVERTER_FORMS), "simple_piece", "thm44")


@pytest.mark.parametrize("argv, message", (
    (["families", "--kind", "1", "--nmax", "200", "--x", "4"],
     "error: nmax must be in 1..24, got 200\n"),
    (["seq", "--name", "catalan", "--upto", "2001"],
     "error: --upto 2001 exceeds the ceiling 2000\n"),
    (["seq", "--name", "secant", "--upto", "501"],
     "error: seq secant takes 0 <= --start <= --upto <= 500, got --start 0, --upto 501\n"),
    (["theorem", "--id", "a12345b", "--n", "2000"],
     "error: theorem a12345b (--i 1, --n 2000): n must be in 2..499, got 2000\n"),
    (["theorem", "--id", "a12345b", "--n", "501"],
     "error: theorem a12345b (--i 1, --n 501): n must be in 2..499, got 501\n"),
    (["theorem", "--id", "simple_piece", "--i", "10", "--n", "12"],
     "error: theorem simple_piece (--i 10, --n 12): n must be in 1..11, got 12\n"),
    *((["theorem", "--id", theorem_id, "--n", "2001"],
       "error: --n 2001 exceeds the ceiling 2000\n")
      for theorem_id in THEOREM_IDS),
    (["count", "--support", "A2,A3", "--n", "101"],
     "error: --n 101 exceeds the ceiling 100\n"),
    (["count", "--support", "A2,A3", "--n", "100000", "--corner", "top=1"],
     "error: --n 100000 exceeds the ceiling 100\n"),
    (["count", "--support", "A2,A3", "--n", "101", "--engine", "brute"],
     "error: --n 101 exceeds the ceiling 100\n"),
    (["compose", "--x", "4", "--y", "2", "--z", "9", "--n", "13"],
     "error: --n 13 exceeds the ceiling 12\n"),
    (["identify", "--support", "A2,A3", "--nmax", "101"],
     "error: --nmax 101 exceeds the ceiling 100\n"),
    (["skeleton", "--support", "A1,A2,A3", "--n", "10001", "--dot", "-"],
     "error: --n 10001 exceeds the ceiling 10000\n"),
), ids=("families", "seq", "secant", "entringer", "theorem-secant",
         "theorem-lattice-paths",
        *(f"theorem-{t}" for t in THEOREM_IDS),
        "count", "count-corner", "count-brute", "compose", "identify", "skeleton"))
def test_inputs_past_a_ceiling_exit_2_with_one_line(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", message)


def test_inputs_at_a_ceiling_run(capsys):
    payload = run_json(capsys, "seq", "--name", "naturals", "--upto", "2000")
    assert payload["values"][-1] == "2000"
    payload = run_json(capsys, "theorem", "--id", "a123b", "--n", "2000")
    assert payload["value"] == str(4 * math.prod(range(1, 4002, 2)) // 3)  # (4/3)·4001!!
    code, out, _ = run(capsys, "families", "--kind", "1", "--nmax", "24",
                       "--x", "16")
    assert code == 0
    assert json.loads(out.splitlines()[0])["prefix"] == ["1"] * 24
    payload = run_json(capsys, "count", "--support", "A3", "--n", "100",
                       "--corner", "top=202")
    assert payload["count"] == "1"
    payload = run_json(capsys, "compose", "--x", "2", "--y", "3", "--z", "3",
                       "--n", "12", "--verify")
    assert payload["verified"] is True
    payload = run_json(capsys, "identify", "--support", "A3", "--nmax", "100")
    assert payload["prefix"] == ["1"] * 100
    code, out, _ = run(capsys, "skeleton", "--support", "A3", "--n", "10000",
                       "--dot", "-")
    assert code == 0 and out.count(" -> ") == 2 * 10000 + 1


def readme_commands():
    """The arguments of each `stdpuzzle …` line in the README's command-line
    block, with its `#` comment stripped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("stdpuzzle ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_commands_run(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where the commands write their files
    try:
        code = main(argv)
    except SystemExit as exc:  # an argparse usage error
        code = exc.code
    assert code == 0, capsys.readouterr().err


def test_every_subcommand_has_a_readme_example():
    parser, commands = cli.build_parser()
    assert {parser.parse_args(argv).command for argv in readme_commands()} == set(commands)


def test_readme_library_tour_runs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md (Library tour)", "exec"), {})


def test_empty_csv_table_prints_nothing(capsys):
    # {B1} has no 2-puzzles: no rows, so no header line either, as with
    # an empty families CSV.
    code, out, _ = run(capsys, "--format", "csv", "enumerate", "--support", "B1",
                       "--n", "2")
    assert code == 0 and out == ""



def _digest_script():
    """tests/golden/make_cli_digests.py, which lists the pinned command lines."""
    path = Path(__file__).parent / "golden" / "make_cli_digests.py"
    spec = importlib.util.spec_from_file_location("make_cli_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_DIGEST_SCRIPT = _digest_script()


def test_digest_file_pins_exactly_the_listed_commands():
    # A line dropped from COMMANDS must not leave a digest no test reads.
    pinned = json.loads(_DIGEST_SCRIPT.DIGESTS.read_text())
    assert list(pinned) == list(_DIGEST_SCRIPT.COMMANDS)


@pytest.mark.parametrize("line", _DIGEST_SCRIPT.COMMANDS)
def test_cli_output_matches_its_digest(line):
    pinned = json.loads(_DIGEST_SCRIPT.DIGESTS.read_text())
    assert _DIGEST_SCRIPT.digest(line) == pinned[line]
