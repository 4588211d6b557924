"""Cold-process benchmark of the stdpuzzle command line.

Usage:
    python3 benchmarks/run.py --workload count-deep|sweep-identify|verify-suite|all
                              --seed N --seconds S --trace 0|1

Run from the repository root.  Every command runs in a fresh interpreter
on the package under src/, because the DP and oracle caches live inside a
process and every CLI user pays to fill them again.  Passes over the
workload's commands repeat, one command at a time, until S seconds have
gone; every output is checked against a computation made apart from the
program (see oracles.py and workloads.py).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with traced ones (every public function of every stdpuzzle module
wrapped by traced_cli.py, imports timed by -X importtime), runs the
in-process probes of probes.py and prints the per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(1, str(SRC))  # the parent imports only pieces.reduce_window

import oracles  # noqa: E402  (after the path set-up above)
import workloads  # noqa: E402

LAYERS = ("pieces", "counting", "skeleton", "theorems", "transforms",
          "sequences", "identify", "families", "verify", "cli")
SETUPS_PER_PASS = 4  # spread over the run, so one slow spell moves setup_s less
CHILD_TIMEOUT_S = 150


class Child:
    """Outcome of one child interpreter."""

    def __init__(self, code, out, err, wall, rss_mb):
        self.code, self.out, self.err = code, out, err
        self.wall, self.rss_mb = wall, rss_mb
        self.trace = None
        self.rows = 0


def spawn(argv: list[str]) -> Child:
    """Run a child to completion; wall time and max RSS come from wait4.

    A child still running after CHILD_TIMEOUT_S is killed; its exit code
    is then negative.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(proc.returncode, out, err.read(), wall, usage.ru_maxrss / 1024)


def cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "stdpuzzle.cli", *argv]


class Tally:
    """Operations attempted and failed, and whether every answer was right."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong: list[str] = []

    def run(self, label: str, child: Child, check) -> object:
        """Count one operation; return check's value, or None if it failed."""
        self.attempted += 1
        try:
            if child.code < 0:
                raise workloads.Failed(f"killed by signal {-child.code}")
            return check(child.code, child.out)
        except workloads.Failed as exc:
            self.failed += 1
            print(f"FAILED {label}: {exc}; stderr: {child.err[-300:]!r}")
        except workloads.Wrong as exc:
            self.wrong.append(f"{label}: {exc}")
            print(f"WRONG {label}: {exc}")
        return None


def run_pass(ops, tally: Tally, launch) -> list[Child]:
    """One cold pass: every op once, in order.  launch(op) -> Child."""
    children = []
    for op in ops:
        child = launch(op)
        child.rows = tally.run(op.label, child, op.check) or 0
        if op.out_file is not None:
            op.out_file.unlink(missing_ok=True)
        children.append(child)
    return children


def summarize(ops, passes: list[list[Child]]) -> dict:
    """End-to-end figures of a run's passes.

    wall_s sums each command's median over the passes rather than taking
    the median pass, so that a slow spell of the shared machine during one
    command does not carry the whole pass with it.
    """
    medians = [statistics.median(p[i].wall for p in passes) for i in range(len(ops))]
    rated = [i for i, op in enumerate(ops) if op.rated]
    rows = statistics.median(sum(p[i].rows for i in rated) for p in passes)
    return {"wall_s": sum(medians),
            "peak_rss_mb": statistics.median(max(c.rss_mb for c in p) for p in passes),
            "rows_per_s": rows / sum(medians[i] for i in rated)}


def setup_time() -> float:
    """Wall time of a fresh interpreter importing stdpuzzle.cli."""
    child = spawn([sys.executable, "-c", "import stdpuzzle.cli"])
    if child.code != 0:
        sys.exit(f"importing stdpuzzle.cli failed: {child.err[-500:]!r}")
    return child.wall


# -- traced passes ----------------------------------------------------------

def import_times(stderr: bytes) -> dict[str, float]:
    """Per stdpuzzle module: its import time from -X importtime, counting
    the non-stdpuzzle modules it pulled in but not nested stdpuzzle ones."""
    own: dict[str, float] = {}
    # Children print before their parent, one indentation level deeper.
    pending: dict[int, list] = defaultdict(list)  # depth -> [(name, cum_us, nested)]
    for line in stderr.decode(errors="replace").splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        name, cum_us = name.strip(), int(cumulative)
        nested = []  # cumulative times of the nearest stdpuzzle descendants
        for child, child_cum, child_nested in pending.pop(depth + 1, []):
            if child.startswith("stdpuzzle."):
                nested.append(child_cum)
            else:
                nested.extend(child_nested)
        if name.startswith("stdpuzzle."):
            own[name.partition(".")[2]] = (cum_us - sum(nested)) / 1e6
        pending[depth].append((name, cum_us, nested))
    return own


def span_totals(path: Path) -> tuple[dict, dict]:
    """Self seconds and call counts per module from one spans file.

    A span's self time is its duration minus that of its direct child
    spans, so a module's total excludes its nested calls into other modules.
    """
    data = json.loads(path.read_text())
    names, spans = data["names"], data["spans"]
    child_ns = [0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (fid, _, start, end, is_call) in enumerate(spans):
        layer = names[fid].partition(".")[0]
        self_s[layer] += (end - start - child_ns[i]) / 1e9
        calls[layer] += is_call
    return self_s, calls


def traced(op) -> Child:
    """Launch one command under traced_cli.py and -X importtime; the
    child's trace attribute holds (self_s, calls, import_s) per module."""
    spans = WORK / "spans.json"
    child = spawn([sys.executable, "-X", "importtime", str(HERE / "traced_cli.py"),
                   str(spans), *op.argv])
    try:
        child.trace = (*span_totals(spans), import_times(child.err))
    except (OSError, ValueError) as exc:
        child.trace = None
        if child.code == 0:
            child.code = -1
        child.err += f" no readable spans: {exc}".encode()
    spans.unlink(missing_ok=True)
    return child


def probe(tally: Tally, which: str, seed: int, check) -> dict:
    """Run one probes.py probe as an operation; {} if it failed."""
    child = spawn([sys.executable, str(HERE / "probes.py"), which, str(seed)])

    def parse(code, out):
        if code != 0:
            raise workloads.Failed(f"exit code {code}")
        try:
            result = json.loads(out)
        except ValueError as exc:
            raise workloads.Failed(f"unreadable probe output: {exc}") from None
        check(result)
        return result
    return tally.run(f"probe {which}", child, parse) or {}


def per_layer(ctx, ops, tally: Tally, plain: list, traced_passes: list) -> dict:
    metrics = {}
    for layer in LAYERS:
        selfs, calls, imports = [], [], []
        for p in traced_passes:
            done = [c.trace for c in p if c.trace]
            selfs.append(sum(t[0].get(layer, 0.0) for t in done))
            calls.append(sum(t[1].get(layer, 0) for t in done))
            imports += [t[2][layer] for t in done if layer in t[2]]
        metrics[f"{layer}.self_s"] = (statistics.median(selfs), "s")
        metrics[f"{layer}.calls"] = (statistics.median(calls), "count")
        metrics[f"{layer}.import_s"] = (statistics.median(imports) if imports else 0.0, "s")

    def check_claims(result):
        for claim in workloads.CLAIM_IDS:
            want = "flagged" if claim in workloads.FLAGGED_CLAIMS else "pass"
            workloads.expect(f"claim {claim} status", result[claim]["status"], want)
    claims = probe(tally, "claims", ctx.seed, check_claims)
    for claim in workloads.CLAIM_IDS:
        metrics[f"verify.claim_s.{claim}"] = (claims.get(claim, {}).get("s", 0.0), "s")

    def check_counting(result):
        for label in workloads.COUNT_DEEP:
            workloads.expect(f"{label} table total", result[label]["total"],
                             str(workloads.deep_expected(ctx, label)))
    counting = probe(tally, "counting", ctx.seed, check_counting)
    for label in workloads.COUNT_DEEP:
        got = counting.get(label, {})
        metrics[f"counting.count_s.{label}"] = (got.get("count_s", 0.0), "s")
        metrics[f"counting.layer_s.{label}"] = (got.get("layer_s", 0.0), "s")
        metrics[f"counting.states.{label}"] = (got.get("states", 0), "count")

    def check_corner(result):
        want = oracles.corner_bottom_a1_a5(ctx.table, workloads.CORNER_N, result["x"])
        workloads.expect("corner probe", result["value"], str(want))
    corner = probe(tally, "corner", ctx.seed, check_corner)
    metrics["counting.corner_s"] = (corner.get("s", 0.0), "s")
    metrics["trace.overhead_s"] = (summarize(ops, traced_passes)["wall_s"]
                                   - summarize(ops, plain)["wall_s"], "s")
    return metrics


# -- one workload -------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool):
    ctx = workloads.Context(seed, WORK)
    oracles.self_check(ctx.table)
    ops = workloads.WORKLOADS[name](ctx)
    tally = Tally()
    setups, plain, traced_passes = [], [], []
    start = time.perf_counter()
    while True:
        if not trace:
            setups += [setup_time() for _ in range(SETUPS_PER_PASS)]
        plain.append(run_pass(ops, tally, lambda op: spawn(cli(op.argv))))
        if trace:
            traced_passes.append(run_pass(ops, tally, traced))
        if time.perf_counter() - start >= seconds:
            break
    if trace:
        metrics = per_layer(ctx, ops, tally, plain, traced_passes)
    else:
        figures = summarize(ops, plain)
        metrics = {"setup_s": (statistics.median(setups), "s")}
        for key, unit in (("wall_s", "s"), ("peak_rss_mb", "MB"), ("rows_per_s", "rows/s")):
            metrics[key] = (figures[key], unit)
    print(f"# {name}: seed {seed}, {len(plain)} pass(es) of {len(ops)} commands"
          + (f" plus {len(traced_passes)} traced" if trace else ""))
    return tally, metrics


def describe() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "stdpuzzle").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return (f"# machine: {platform.system()} {platform.release()} {platform.machine()}, "
            f"{os.cpu_count()} cpus; "
            f"python {platform.python_version()}; git {git_sha()}; "
            f"src sha256 {digest.hexdigest()[:16]}")


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "stdpuzzle" / "cli.py").is_file():
        print(f"error: no stdpuzzle sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        # Also warms the file cache for every module the commands import.
        found = spawn([sys.executable, "-c",
                       "import stdpuzzle.cli; print(stdpuzzle.cli.__file__)"])
        if found.code != 0 or not Path(found.out.decode().strip()).is_relative_to(SRC):
            print(f"error: stdpuzzle does not import from {SRC}: {found.err[-500:]!r}",
                  file=sys.stderr)
            return 2
        print(describe())
        names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        total, combined = Tally(), {}
        for name in names:
            tally, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace))
            for key, (value, unit) in metrics.items():
                print(f"{name:>14}  {key:<44} {value:>14.6g} {unit}")
                combined[key if len(names) == 1 else f"{name}.{key}"] = \
                    {"value": value, "unit": unit}
            total.attempted += tally.attempted
            total.failed += tally.failed
            total.wrong += tally.wrong
            print(f"# {name}: operations attempted {tally.attempted}, failed {tally.failed}, "
                  f"wrong {len(tally.wrong)}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": not total.wrong, "attempted": total.attempted,
                      "failed": total.failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
