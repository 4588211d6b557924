"""Command-line surface.

Subcommands: pieces, reduce, transform, skeleton, count, enumerate, seq,
theorem, compose, verify, identify, families.  Structured results go to
stdout as JSON (or CSV with --format csv); human-oriented progress lines
go to stderr.  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 I/O error, 4 a computation that could not finish (a failed
internal cross-check, too deep a recursion or no memory left).

Each handler imports the modules it runs, so a command loads only those.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .pieces import Support, piece_table, reduce_window

# Theorem id -> its function's name in `theorems`; every one takes (i, n).
_THEOREM_FUNCS = {
    "a123b": "a123_plus_b", "a12b": "a12_plus_b", "a123c": "a123_plus_c",
    "a12c": "a12_plus_c", "a23b": "a23_plus_b", "a2b": "a2_plus_b",
    "a12345b": "a12345_plus_b", "simple_piece": "simple_piece_count",
}

# Theorem numbers as aliases of the descriptive ids.
_THEOREM_ALIASES = {"thm42": "a123b", "thm43": "a12b", "thm44": "a123c",
                    "thm46": "a23b", "thm47": "a2b", "thm48": "a12345b"}

_MAPS = ("f1", "f2", "f3", "f12", "f123")  # bijections in `transforms`

# Ceilings of the size options, each checked by `_check_ceiling`; the
# costs are from a 2-CPU machine.

# Largest `count --n` and `identify --nmax`.  On the full support, where
# the DP layers are largest, a cold `count` takes about 5 s and 62 MB at
# 100 (2.8 s at 80) and a cold `identify` 6 s; smaller supports take less.
COUNT_N_BOUND = 100

# Largest `compose --n`.  The triple sum grows fastest on (1, y, 1): a cold
# `compose --verify` of (1, 5, 1) takes about 3 s at 12, and in-process
# (1, 2, 1) takes 9.4 s at 14 and (4, 2, 9) 27 s at 20.
COMPOSE_N_BOUND = 12

# Largest `skeleton --n`.  At 10000 a cold command takes about 0.3 s and
# 31 MB, with up to 1.1 MB of DOT; at 100000 it takes up to 2.8 s and
# 156 MB, with 12 MB of DOT.
SKELETON_N_BOUND = 10000

# Largest `seq --upto`.  At 2000 the largest term, (4000)!/2^2000, has
# 12072 digits, and the whole prefix takes about 2 s and 11 MB of output;
# str() of an int is quadratic in its length.
SEQ_UPTO_BOUND = 2000

# Largest `theorem --n`.  At 2000 every id answers cold in about 0.15 s
# with at most 12 KB of output; at 100000 several ids run for longer
# than 5 s.
THEOREM_N_BOUND = 2000


def _check_ceiling(option: str, value: int, ceiling: int) -> None:
    """Reject a size option past its ceiling."""
    if value > ceiling:
        raise ValueError(f"{option} {value} exceeds the ceiling {ceiling}")


def _ints(option: str, form: str, text: str, tokens, count=None) -> list[int]:
    """The integer tokens of an option's value `text`, or an error naming the option."""
    try:
        values = [int(tok) for tok in tokens]
        if count in (None, len(values)):
            return values
    except ValueError:
        pass
    raise ValueError(f"{option} expects {form}, got {text!r}")


def _write_csv(rows, out=None) -> None:
    """Stream dict rows as CSV (default stdout), headed by the first row's keys."""
    writer = None
    for row in rows:  # no rows: nothing at all, not even a header
        if writer is None:
            writer = csv.DictWriter(out or sys.stdout, fieldnames=list(row))
            writer.writeheader()
        writer.writerow(row)


def _emit(args, payload, csv_rows=None) -> None:
    """Print a payload as JSON, or as CSV when rows are tabular."""
    if args.format == "csv" and csv_rows is not None:
        _write_csv(csv_rows)
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")


def cmd_pieces(args) -> int:
    rows = [{"code": p.code, "letter": p.letter, "category": p.category,
             "index": p.index,
             "grid": f"[{p.tl} {p.tr} / {p.bl} {p.br}]"} for p in piece_table()]
    _emit(args, rows, csv_rows=rows)
    return 0


def cmd_reduce(args) -> int:
    values = _ints("--window", "four integer labels TL,TR,BL,BR", args.window,
                   args.window.replace(",", " ").split(), count=4)
    p = reduce_window(*values)
    payload = {"window": values, "piece": p.code, "letter": p.letter}
    _emit(args, payload, csv_rows=[payload | {"window": args.window}])
    return 0


def cmd_transform(args) -> int:
    from . import transforms
    support = Support.parse(args.support)
    image = getattr(transforms, args.map)(support)
    payload = {"map": args.map, "support": str(support), "image": str(image)}
    _emit(args, payload, csv_rows=[payload])
    return 0


def cmd_skeleton(args) -> int:
    from .skeleton import export_dot, puzzle_skeleton
    support = Support.parse(args.support)
    _check_ceiling("--n", args.n, SKELETON_N_BOUND)
    graph = puzzle_skeleton(support, args.n)
    dot = export_dot(graph)
    payload = {"support": str(support), "n": args.n,
               "vertices": len(graph.vertices), "edges": len(graph.edges)}
    if args.dot == "-":
        sys.stdout.write(dot)
        return 0
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(dot)
        payload["dot"] = args.dot
    else:
        payload["dot_text"] = dot
    _emit(args, payload)
    return 0


def cmd_count(args) -> int:
    from .counting import (count_bruteforce, count_corner_bottom,
                           count_corner_top, count_dp)
    support = Support.parse(args.support)
    _check_ceiling("--n", args.n, COUNT_N_BOUND)
    if args.corner and args.engine == "brute":
        raise ValueError("--corner reads the DP's corner table; "
                         "it cannot be combined with --engine brute")
    if args.corner:
        where, _, rank = args.corner.partition("=")
        corners = {"bottom": count_corner_bottom, "top": count_corner_top}
        [x] = _ints("--corner", "bottom=X or top=X with an integer X", args.corner,
                    [rank] if where in corners else [], count=1)
        value = corners[where](support, args.n, x)
    elif args.engine == "brute":
        value = count_bruteforce(support, args.n)
    else:
        value = count_dp(support, args.n)
    payload = {"support": str(support), "n": args.n, "engine": args.engine,
               "count": str(value)}
    if args.corner:
        payload["corner"] = args.corner
    _emit(args, payload, csv_rows=[payload])
    return 0


def cmd_enumerate(args) -> int:
    from .counting import enumerate_puzzles
    support = Support.parse(args.support)
    puzzles = enumerate_puzzles(support, args.n)
    payload = {"support": str(support), "n": args.n,
               "count": str(len(puzzles)),
               "puzzles": [str(p) for p in puzzles]}
    _emit(args, payload, csv_rows=[{"puzzle": str(p)} for p in puzzles])
    return 0


def cmd_seq(args) -> int:
    from .sequences import REGISTRY
    generators = {seq.name: seq.generator for seq in REGISTRY}
    if args.name not in generators:
        raise ValueError(f"unknown sequence {args.name!r}; "
                         f"choose from {', '.join(sorted(generators))}")
    _check_ceiling("--upto", args.upto, SEQ_UPTO_BOUND)
    fn = generators[args.name]
    if args.start is None:  # 0, or 1 for a generator that rejects 0
        args.start = 0
        try:
            fn(0)
        except ValueError:
            args.start = 1
    if args.start < 0:
        raise ValueError(f"--start {args.start} is below the floor 0")
    if args.start > args.upto:
        raise ValueError(f"--start {args.start} exceeds --upto {args.upto}")
    # The last term first, so a term past its generator's reach fails at
    # once; then the rest in ascending order, in which a triangle's cached
    # row extends instead of being rebuilt from row 0 for each term.
    try:
        last = str(fn(args.upto))
        values = [str(fn(k)) for k in range(args.start, args.upto)] + [last]
    except ValueError as exc:
        raise ValueError(f"seq {args.name} (--start {args.start}, "
                         f"--upto {args.upto}): {exc}") from exc
    payload = {"name": args.name, "start": args.start, "upto": args.upto,
               "values": values}
    _emit(args, payload, csv_rows=[{"k": k, "value": v} for k, v in
                                   zip(range(args.start, args.upto + 1), values)])
    return 0


def cmd_theorem(args) -> int:
    name = _THEOREM_ALIASES.get(args.id, args.id)
    if name not in _THEOREM_FUNCS:
        raise ValueError(f"unknown theorem id {args.id!r}")
    _check_ceiling("--n", args.n, THEOREM_N_BOUND)
    from . import theorems
    fn = getattr(theorems, _THEOREM_FUNCS[name])
    try:
        value = fn(args.i, args.n)
    except ValueError as exc:
        raise ValueError(f"theorem {args.id} (--i {args.i}, --n {args.n}): {exc}") from exc
    payload = {"id": args.id, "resolved": name, "i": args.i, "n": args.n,
               "value": str(value)}
    _emit(args, payload, csv_rows=[payload])
    return 0


def cmd_compose(args) -> int:
    from . import theorems
    _check_ceiling("--n", args.n, COMPOSE_N_BOUND)
    query = theorems.CompositionQuery(args.x, args.y, args.z, args.n,
                                      args.converter)
    value = theorems.compose(query)
    payload = {"x": args.x, "y": args.y, "z": args.z, "n": args.n,
               "converter": args.converter,
               "support": str(theorems.compose_support(query)),
               "value": str(value)}
    if args.verify:
        from .counting import count_dp
        check = count_dp(theorems.compose_support(query), args.n)
        payload["engine_count"] = str(check)
        payload["verified"] = check == value
        if not payload["verified"]:
            _emit(args, payload)
            return 1
    _emit(args, payload, csv_rows=[payload])
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verification
    scope = "all" if not args.claim else args.claim
    report = run_verification(scope=scope, nmax=args.nmax)
    for result in report.results:
        print(f"[{result.status.upper():7s}] {result.claim}: {result.description}",
              file=sys.stderr)
    _emit(args, report.to_dict(),
          csv_rows=[r.to_dict() | {"computed": ";".join(map(str, r.computed)),
                                   "expected": ";".join(map(str, r.expected))}
                    for r in report.results])
    return 0 if report.ok else 1


def cmd_identify(args) -> int:
    from .counting import count_prefix
    from .sequences import registry_matches
    support = Support.parse(args.support)
    _check_ceiling("--nmax", args.nmax, COUNT_N_BOUND)
    if args.nmax < 4:
        raise ValueError("identification needs nmax >= 4")
    prefix = count_prefix(support, args.nmax)
    payload = {"support": str(support), "nmax": args.nmax,
               "prefix": [str(v) for v in prefix], "matches": registry_matches(prefix)}
    _emit(args, payload, csv_rows=payload["matches"] or
          [{"name": "", "oeis": "", "offset": "", "factor": "",
            "label": "no registry match"}])
    return 0


def cmd_families(args) -> int:
    from .families import sweep
    xs = None if args.x is None else _ints(
        "--x", "comma-separated integers 1..20", args.x, args.x.split(","))
    # sweep checks its arguments at the call, so a rejected sweep exits
    # before --out is opened and truncated.
    rows = sweep(args.kind, args.nmax, include_open=args.include_open, xs=xs)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        if args.format == "csv":
            _write_csv(({k: ";".join(v) if k == "prefix" else v
                         for k, v in row.items() if k != "match_detail"}
                        for row in rows), out)
        else:
            for row in rows:  # JSON lines: one family per line
                out.write(json.dumps(row) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one `error:` line, exit 2,
    as for every other bad input; its subparsers share the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stdpuzzle",
        description="enumerate, count, and verify standard puzzles")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("pieces", help="list the 24 standard pieces")

    p = sub.add_parser("reduce", help="standardize a 2x2 window")
    p.add_argument("--window", required=True, help="TL,TR,BL,BR labels")

    p = sub.add_parser("transform", help="apply a piece-set bijection")
    p.add_argument("--map", required=True, choices=sorted(_MAPS))
    p.add_argument("--support", required=True)

    p = sub.add_parser("skeleton", help="order digraph of a simple family")
    p.add_argument("--support", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dot", default=None,
                   help="write DOT here ('-' for raw stdout)")

    p = sub.add_parser("count", help="count supported puzzles")
    p.add_argument("--support", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--engine", choices=("dp", "brute"), default="dp")
    p.add_argument("--corner", default=None, help="bottom=X or top=X")

    p = sub.add_parser("enumerate", help="list supported puzzles")
    p.add_argument("--support", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("seq", help="emit a reference sequence prefix")
    p.add_argument("--name", required=True)
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--start", type=int, help="default 0, or 1 if the sequence starts there")

    p = sub.add_parser("theorem", help="evaluate a closed-form family count")
    p.add_argument("--id", required=True)
    p.add_argument("--i", type=int, default=1,
                   help="converter index 1..6, or the family 1..20 for simple_piece")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("compose", help="count a glued family by the triple sum")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--converter", choices=("B", "C"), default="B")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the DP engine")

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--claim", action="append", default=None,
                   help="claim id (repeatable); default all")
    p.add_argument("--nmax", type=int, default=3)

    p = sub.add_parser("identify", help="name a support's count sequence")
    p.add_argument("--support", required=True)
    p.add_argument("--nmax", type=int, default=6)

    p = sub.add_parser("families", help="sweep converter families")
    p.add_argument("--kind", type=int, choices=(1, 2), required=True)
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--out", default=None)
    p.add_argument("--include-open", action="store_true",
                   help="include the refinement-free family 10, flagged")
    p.add_argument("--x", default=None,
                   help="restrict simple-piece indices, e.g. 4,8,17")

    return parser


_HANDLERS = {
    "pieces": cmd_pieces,
    "reduce": cmd_reduce,
    "transform": cmd_transform,
    "skeleton": cmd_skeleton,
    "count": cmd_count,
    "enumerate": cmd_enumerate,
    "seq": cmd_seq,
    "theorem": cmd_theorem,
    "compose": cmd_compose,
    "verify": cmd_verify,
    "identify": cmd_identify,
    "families": cmd_families,
}


def main(argv=None) -> int:
    # Exact counts print in full, past Python's 4300-digit str() limit
    # (which Pythons before 3.10.7 do not have).
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    # Before the subcommand, argparse would take an option's value for the command.
    for token in sys.argv[1:] if argv is None else argv:
        if token in _HANDLERS:
            break
        option = token.partition("=")[0]
        if option[:1] == "-" and not any(o.startswith(option) for o in ("--format", "--help", "-h")):
            parser.error(f"{option} goes after the subcommand; only --format goes before it")
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, MemoryError) as exc:  # RecursionError is a RuntimeError
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
