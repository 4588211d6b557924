"""The three workloads: the CLI commands of one pass and their output checks.

A pass runs every command of a workload once, each in a fresh
interpreter, one after another.  An operation is one command together with
its output check.  A check returns the number of result rows the command
produced, raises `Failed` when the command did not produce a readable
answer, and raises `Wrong` when the answer disagrees with the benchmark's
own computation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles

FULL = ",".join(f"{c}{i}" for c in "ABCD" for i in range(1, 7))

#: count-deep: label -> (support, n, closed form).  The n values put about
#: a second of DP work on each support on a 2-CPU machine.
COUNT_DEEP = {
    "full": (FULL, 11, oracles.full_count),
    "a1-a6": ("A1,A2,A3,A4,A5,A6", 14, oracles.a1_a6_count),
    "a1-a5": ("A1,A2,A3,A4,A5", 14, None),  # secant(n+1), from the boustrophedon
    "a1-a3": ("A1,A2,A3", 20, oracles.a1_a3_count),
    "a2-a3": ("A2,A3", 32, oracles.a2_a3_count),
}
CORNER_SUPPORT, CORNER_N = "A1,A2,A3,A4,A5", 13

SWEEP_NMAX = 4
SWEEP_KIND2_X = (4, 8)
IDENTIFY = (("A1,A2,A4,A5", 9, "lattice_smooth_paths"),
            ("A1,A2,A3,A4,A5", 9, "secant"))
RECOUNT_NMAX = 3
RECOUNT_SAMPLE = 24      # rows per families command recounted by filtering

COMPOSE_N = 8
COMPOSE_SAMPLE = 8
#: The compose sample is fixed: its DP cost swings by a third between
#: samples, which would drown the run-to-run spread of wall_s.
COMPOSE_SEED = 20240809
VERIFY_NMAX = 3
BRUTE = (("A1,A2,A3,A4,A5", 5), (FULL, 5))

#: The claim ids of the verification suite, in suite order.
CLAIM_IDS = (
    "pieces", "catalan", "double-factorial", "secant", "lattice-paths",
    "fibonacci", "fibonacci-alt-offset", "linear-family",
    "corner-refinements", "corner-entringer", "hypergeometric-sums",
    "simple-piece-table", "simple-pieces", "converter-closed-forms",
    "entringer-closed-forms", "converter-images", "q-partition-lemma",
    "refinement-table", "composition", "flip-pair-identity", "whirlpool",
    "product-identity", "flip-invariance", "engine-equivalence",
)
FLAGGED_CLAIMS = ["fibonacci-alt-offset"]


class Failed(Exception):
    """The command gave no readable answer (crash, usage error, bad output)."""


class Wrong(Exception):
    """The command's answer disagrees with the independent computation."""


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[int, bytes], int]  # (exit code, stdout) -> rows
    rated: bool = True  # its rows and wall time go into rows_per_s
    out_file: Path | None = None


@dataclass
class Context:
    """Oracles shared by every pass of one run."""

    seed: int
    workdir: Path
    table: oracles.Boustrophedon = field(default_factory=oracles.Boustrophedon)
    _recount: oracles.FillingRecount | None = None

    def recount(self) -> oracles.FillingRecount:
        if self._recount is None:
            from stdpuzzle.pieces import reduce_window
            self._recount = oracles.FillingRecount(reduce_window, RECOUNT_NMAX)
        return self._recount


def corner_rank(seed: int) -> int:
    """The bottom-right label of the corner query, from the seed."""
    return random.Random(seed).randrange(1, 2 * CORNER_N + 2)


def deep_expected(ctx: Context, label: str) -> int:
    _, n, closed = COUNT_DEEP[label]
    return ctx.table.secant(n + 1) if closed is None else closed(n)


def _json(code: int, out: bytes, ok_codes=(0,)):
    if code not in ok_codes:
        raise Failed(f"exit code {code}")
    try:
        return json.loads(out)
    except ValueError as exc:
        raise Failed(f"unreadable output: {exc}") from None


def expect(what: str, got, want) -> None:
    if got != want:
        raise Wrong(f"{what}: got {str(got)[:200]}, expected {str(want)[:200]}")


def _count_op(label: str, support: str, n: int, want: int, *extra: str) -> Op:
    def check(code: int, out: bytes) -> int:
        expect(f"{label} count", _json(code, out).get("count"), str(want))
        return 1
    return Op(label, ["count", "--support", support, "--n", str(n), *extra], check)


def count_deep(ctx: Context) -> list[Op]:
    ops = [_count_op(f"count {label} n={n}", support, n, deep_expected(ctx, label))
           for label, (support, n, _) in COUNT_DEEP.items()]
    x = corner_rank(ctx.seed)
    ops.append(_count_op(f"corner bottom={x}", CORNER_SUPPORT, CORNER_N,
                         oracles.corner_bottom_a1_a5(ctx.table, CORNER_N, x),
                         "--corner", f"bottom={x}"))
    random.Random(ctx.seed).shuffle(ops)
    return ops


def _families_op(ctx: Context, kind: int, xs, want_rows: int) -> Op:
    out_file = ctx.workdir / f"families-kind{kind}.jsonl"
    argv = ["families", "--kind", str(kind), "--nmax", str(SWEEP_NMAX),
            "--out", str(out_file)]
    if xs:
        argv += ["--x", ",".join(map(str, xs))]

    def check(code: int, out: bytes) -> int:
        if code != 0:
            raise Failed(f"exit code {code}")
        try:
            rows = [json.loads(line) for line in out_file.read_text().splitlines()]
        except (OSError, ValueError) as exc:
            raise Failed(f"unreadable family rows: {exc}") from None
        expect(f"kind {kind} row total", len(rows), want_rows)
        first: dict[str, list] = {}
        for row in rows:
            key = row["support"]
            expect(f"duplicate marker of {key}", row["duplicate_support"], key in first)
            expect(f"prefix of {key}", row["prefix"], first.setdefault(key, row["prefix"]))
        recount = ctx.recount()
        rng = random.Random(f"{ctx.seed}:{kind}")
        for row in rng.sample(rows, RECOUNT_SAMPLE):
            codes = row["support"].split(",") if row["support"] else []
            for n in range(1, RECOUNT_NMAX + 1):
                expect(f"recount of {row['support']} at n={n}",
                       int(row["prefix"][n - 1]), recount.count(codes, n))
        return len(rows)
    return Op(f"families kind {kind}", argv, check, out_file=out_file)


def _identify_op(ctx: Context, support: str, nmax: int, name: str) -> Op:
    def check(code: int, out: bytes) -> int:
        payload = _json(code, out)
        matches = payload.get("matches") or [{}]
        expect(f"identify {support}", matches[0].get("name"), name)
        expect(f"identify {support} prefix length", len(payload["prefix"]), nmax)
        if name == "secant":
            expect(f"identify {support} prefix", payload["prefix"],
                   [str(ctx.table.secant(n + 1)) for n in range(1, nmax + 1)])
        return 1
    return Op(f"identify {support}",
              ["identify", "--support", support, "--nmax", str(nmax)], check,
              rated=False)


def sweep_identify(ctx: Context) -> list[Op]:
    ops = [_families_op(ctx, 1, None, 4864),
           _families_op(ctx, 2, SWEEP_KIND2_X, len(SWEEP_KIND2_X) ** 2 * 128)]
    ops += [_identify_op(ctx, *spec) for spec in IDENTIFY]
    random.Random(ctx.seed).shuffle(ops)
    return ops


def compose_queries() -> list[tuple[int, int, int, str]]:
    """(x, y, z, converter) for the compose sample; family 10 has no rule."""
    rng = random.Random(COMPOSE_SEED)
    xs = [x for x in range(1, 21) if x != 10]
    return [(rng.choice(xs), rng.randrange(1, 7), rng.choice(xs), rng.choice("BC"))
            for _ in range(COMPOSE_SAMPLE)]


def _verify_op(ctx: Context) -> Op:
    def check(code: int, out: bytes) -> int:
        report = _json(code, out, ok_codes=(0, 1))
        claims = {c["claim"]: c for c in report["claims"]}
        flagged = [c for c, r in claims.items() if r["status"] == "flagged"]
        failing = [c for c, r in claims.items() if r["status"] not in ("pass", "flagged")]
        expect("claims not passing", failing, [])
        expect("flagged claims", flagged, FLAGGED_CLAIMS)
        expect("verify exit code", code, 0)
        expect("catalan claim values", claims["catalan"]["computed"],
               [str(oracles.a2_a3_count(n)) for n in range(1, VERIFY_NMAX + 1)])
        expect("secant claim engine values", claims["secant"]["computed"][:VERIFY_NMAX],
               [str(ctx.table.secant(n + 1)) for n in range(1, VERIFY_NMAX + 1)])
        return len(claims)
    return Op("verify", ["verify", "--nmax", str(VERIFY_NMAX)], check)


def _compose_op(x: int, y: int, z: int, converter: str) -> Op:
    def check(code: int, out: bytes) -> int:
        payload = _json(code, out, ok_codes=(0, 1))
        expect(f"compose {x},{y},{z},{converter} verified", payload.get("verified"), True)
        expect("compose exit code", code, 0)
        expect("compose value", payload["value"], payload["engine_count"])
        return 1
    return Op(f"compose x={x} y={y} z={z} {converter}",
              ["compose", "--x", str(x), "--y", str(y), "--z", str(z),
               "--n", str(COMPOSE_N), "--converter", converter, "--verify"], check)


def verify_suite(ctx: Context) -> list[Op]:
    ops = [_verify_op(ctx)]
    ops += [_compose_op(*q) for q in compose_queries()]
    for support, n in BRUTE:
        want = oracles.full_count(n) if support == FULL else ctx.table.secant(n + 1)
        ops.append(_count_op(f"brute {len(support.split(','))} pieces n={n}",
                             support, n, want, "--engine", "brute"))
    random.Random(ctx.seed).shuffle(ops)
    return ops


WORKLOADS = {
    "count-deep": count_deep,
    "sweep-identify": sweep_identify,
    "verify-suite": verify_suite,
}
