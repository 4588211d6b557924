"""Regenerate cli_digests.json, the pinned output of each command in COMMANDS.

Each command line runs in-process through `stdpuzzle.cli.main`; the file
maps it to its exit code and the sha256 of its stdout and of its stderr.
`tests/test_cli.py::test_cli_output_matches_its_digest` runs every line
again and compares.  A change that alters some output regenerates the
file and names each changed line:

    PYTHONPATH=src python tests/golden/make_cli_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

from stdpuzzle.cli import main

DIGESTS = Path(__file__).with_name("cli_digests.json")

FULL = ("A1,A2,A3,A4,A5,A6,B1,B2,B3,B4,B5,B6,"
        "C1,C2,C3,C4,C5,C6,D1,D2,D3,D4,D5,D6")

COMMANDS = (
    "verify --nmax 1",
    "verify --nmax 3",
    "verify --nmax 8",
    "--format csv verify --nmax 3",
    "families --kind 1 --nmax 5",
    "families --kind 2 --nmax 4 --include-open",
    "families --kind 2 --x 4,8,10 --nmax 6 --include-open",
    "compose --x 4 --y 1 --z 4 --n 6 --converter B --verify",
    "compose --x 4 --y 1 --z 4 --n 6 --converter C --verify",
    "count --support A1,A2,A3,A4,A5 --n 6 --corner bottom=5",
    "count --support A1,A2,A3 --n 6 --corner top=9",
    "identify --support A2,A3 --nmax 8",
    "--format csv identify --support A1,A2,A4,A5 --nmax 8",
    "identify --support A1,A2,A4,A5 --nmax 12",
    "seq --name secant --upto 12",
    "skeleton --support A1,A2,A3 --n 3 --dot -",
    "enumerate --support A2,A3 --n 3",
    # One line past each ceiling: exit 2 with one error line.
    "count --support A2,A3 --n 101",
    "count --support A2,A3 --n 6 --engine brute",
    f"enumerate --support {FULL} --n 5",
    "identify --support A2,A3 --nmax 101",
    "compose --x 4 --y 2 --z 9 --n 13",
    "skeleton --support A1,A2,A3 --n 10001 --dot -",
    "seq --name catalan --upto 2001",
    "theorem --id a123b --n 2001",
    "families --kind 1 --nmax 200 --x 4",
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(line: str) -> dict:
    """The exit code and the stdout and stderr digests of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(shlex.split(line))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return {"exit": code, "stdout": _sha256(out.getvalue()),
            "stderr": _sha256(err.getvalue())}


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({line: digest(line) for line in COMMANDS},
                                  indent=2) + "\n")
