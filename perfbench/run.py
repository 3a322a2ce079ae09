#!/usr/bin/env python3
"""diamondkit benchmark: CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed sequence of `diamondkit` CLI commands (see
WORKLOADS).  Every command runs in a fresh interpreter, as a real CLI call
does, and gets only files this script generated from --seed or that earlier
commands of the sequence wrote.  One pass runs the whole sequence; passes
repeat while --seconds lasts (at least one pass).  After the first pass, a
command runs again only if its first-pass time still fits, so the last pass
may cover only a prefix of the sequence.  A sequence time is the sum over its commands of each command's
fastest wall time over the passes of the run.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
each command untraced and then through traced_cli.py, which records a span
around every public function of each diamondkit module, and reports the
per-layer metrics (busy time `.s`, self time `.self_s`, call counts, sizes)
plus the tracing overhead.

Every command's exit code and JSON report are checked against known answers.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it list every metric with its unit.
A full result file (seed, machine, every command) goes to perfbench/out/.
The exit code is 0 when every check passed, 1 when one failed and 2 when the
program is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from traced_cli import MODULES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
TRACED_CLI = BENCH / "traced_cli.py"

CLI = ["-c", "import sys; from diamondkit.cli import main; sys.exit(main())"]
IMPORT_ONLY = ["-c", "import diamondkit.cli"]
SETUP_SAMPLES = 7
HARD_CAP_S = 170  # the run must end within 180 s whatever --seconds says

COMMAND_KINDS = ("construct", "count", "verify", "baber", "delete", "extend", "search")
EXHAUSTIVE_N = 7
LOCAL = {"n": 32, "restarts": 2, "steps": 2000}

# Operations left out of every workload, and why.  A change that lifts a
# limit adds the operation in a benchmark-only change; the entry stays.
LIMITS = [
    {"operation": "count --method both (default) or naive", "left_out_above": "n=128",
     "why": "the C(n,4) x 4 int64 index array of count_diamonds_naive takes about "
            "1.4 GB at n=128 and exhausts memory beyond"},
    {"operation": "verify --checks extremal-charpoly", "left_out_above": "n=44",
     "why": "char_poly is O(n^4) on Python ints; at n~500 it would take hours"},
    {"operation": "baber, verify --checks ff4,design, extend", "left_out_above": "n=44",
     "why": "pure-Python O(n^4)/O(n^5) loops; n=44 already takes seconds per call"},
    {"operation": "search --mode exhaustive", "left_out_above": "n=7",
     "why": "n=8 scans 2^28 encodings, about 205 s on one thread"},
]


# ---------------------------------------------------------------- oracles

def star_paley_diamonds(n):
    return n * n * (n - 1) * (n - 2) // 96


def paley_diamonds(q):
    return q * (q - 1) * (q - 3) * (q + 1) // 96


def count_diamonds(trn_text):
    """Diamonds of a .trn tournament, independently of diamondkit.

    Each diamond is a 3-cycle inside the out- or in-neighbourhood of exactly
    one vertex, and a sub-tournament on m vertices with scores s_w has
    C(m,3) - sum C(s_w,2) 3-cycles.  Exact in int64 for n <= 512.
    """
    lines = trn_text.split()
    n = int(lines[0])
    a = np.array([[ch == "1" for ch in row] for row in lines[1:n + 1]], dtype=np.int64)
    out_deg = a.sum(axis=1)
    in_deg = n - 1 - out_deg
    within_out = (a @ a.T).T  # [v, w]: out-degree of w inside N+(v)
    within_in = (a @ a).T  # [v, w]: out-degree of w inside N-(v)
    c2_out = within_out * (within_out - 1) // 2
    c2_in = within_in * (within_in - 1) // 2
    cyc_out = out_deg * (out_deg - 1) * (out_deg - 2) // 6 - (a * c2_out).sum(axis=1)
    cyc_in = in_deg * (in_deg - 1) * (in_deg - 2) // 6 - (a.T * c2_in).sum(axis=1)
    return int(cyc_out.sum() + cyc_in.sum())


def random_trn(n, rng):
    """A uniformly random tournament as .trn text, one fair bit per pair."""
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                rows[i][j] = "1"
            else:
                rows[j][i] = "1"
    return f"{n}\n" + "".join("".join(r) + "\n" for r in rows)


# ---------------------------------------------------------------- workloads

@dataclass
class Step:
    kind: str  # CLI subcommand; its wall time adds to <kind>_s
    argv: list
    check: Callable  # (results, ctx) -> list of problems
    tag: str = ""  # names the command for per-command metrics


def expect(**want):
    def check(res, ctx):
        return [f"{k}={res.get(k)!r}, expected {v!r}" for k, v in want.items() if res.get(k) != v]
    return check


def extend_check(n):
    def check(res, ctx):
        problems = expect(n=n, skew_conference=True)(res, ctx)
        if not set(res["kernel_column"]) <= {-1, 1}:
            problems.append("kernel column is not +-1 valued")
        return problems
    return check


def paley_pipeline(seed, work):
    steps = []
    for q in (31, 43):
        n = q + 1
        s, h, p = f"s{q}.trn", f"s{q}.hyp", f"p{q}.trn"
        star, paley = star_paley_diamonds(n), paley_diamonds(q)
        steps += [
            Step("construct", ["construct", "star-paley", "--q", str(q), "--out", s],
                 expect(n=n, diamonds=star, skew_conference=True)),
            Step("count", ["count", "--in", s],
                 expect(naive=star, spectral=star, attained=True)),
            Step("verify", ["verify", "--in", s, "--checks", "conference,extremal-charpoly"],
                 expect(conference=True, extremal_charpoly="even-extremal")),
            Step("baber", ["baber", "--in", s, "--out", h], expect(n=n, m=star)),
            Step("verify", ["verify", "--in", h, "--checks", "ff4,design"],
                 expect(m=star, ff4=True, design=True, design_lambda=n // 4)),
            Step("delete", ["delete", "--in", s, "--vertices", str(q), "--out", p],
                 expect(n=q, diamonds=paley)),
            Step("extend", ["extend", "--in", p], extend_check(n)),
        ]
    return steps


def paley_large(seed, work):
    steps = []
    for kind, q in (("star-paley", 499), ("star-paley", 343), ("paley", 503), ("paley", 243)):
        star = kind == "star-paley"
        n = q + 1 if star else q
        want = star_paley_diamonds(n) if star else paley_diamonds(q)
        f, d = f"{kind}{q}.trn", f"deleted{q}.trn"
        steps += [
            Step("construct", ["construct", kind, "--q", str(q), "--out", f],
                 expect(n=n, diamonds=want, skew_conference=star)),
            Step("count", ["count", "--in", f, "--method", "spectral"],
                 expect(n=n, spectral=want, attained=True)),
        ]
        if star:
            steps += [
                Step("verify", ["verify", "--in", f, "--checks", "conference"],
                     expect(conference=True)),
                Step("delete", ["delete", "--in", f, "--vertices", str(q), "--out", d],
                     expect(n=q, diamonds=paley_diamonds(q))),
                Step("count", ["count", "--in", d, "--method", "spectral"],
                     expect(n=q, spectral=paley_diamonds(q), attained=True)),
            ]
    return steps


def count_random(seed, work):
    steps = []
    for n in (64, 96, 128):
        text = random_trn(n, random.Random(f"count_random/{seed}/{n}"))
        (work / f"random{n}.trn").write_text(text)
        want = count_diamonds(text)
        steps.append(Step("count", ["count", "--in", f"random{n}.trn"],
                          expect(n=n, naive=want, spectral=want)))
    return steps


def search(seed, work):
    def exhaustive(threads):
        def check(res, ctx):
            problems = expect(max_diamonds=14, explored=1 << 21)(res, ctx)
            witness = res["witness_trn"]
            if count_diamonds(witness) != 14:
                problems.append("witness does not have 14 diamonds")
            if ctx.setdefault("witness", witness) != witness:
                problems.append("witness differs between thread counts")
            return problems
        return Step("search", ["search", "--mode", "exhaustive", "--n", str(EXHAUSTIVE_N),
                               "--threads", str(threads)], check, f"exhaustive_t{threads}")

    def local_check(res, ctx):
        bound, best = res["bound"], res["max_diamonds"]
        if best * bound["den"] > bound["num"]:
            return [f"max_diamonds={best} exceeds bound {bound}"]
        witness = (work / "local.trn").read_text()
        if witness != res["witness_trn"] or count_diamonds(witness) != best:
            return ["--out witness does not recount to max_diamonds"]
        return []

    return [
        exhaustive(1),
        exhaustive(2),
        Step("search", ["search", "--mode", "local", "--n", str(LOCAL["n"]),
                        "--restarts", str(LOCAL["restarts"]), "--steps", str(LOCAL["steps"]),
                        "--seed", str(seed), "--out", "local.trn"], local_check, "local"),
    ]


# Each workload concatenates two command sequences.  On a shared 2-vCPU VM
# whose speed changed by up to 1.4x for about a minute at a time, each
# sequence measured alone at 30 s a run spread by 10-29% (IQR/median of wall
# time over ten seeds).  Pairing them keeps every command and size within the
# run budget while doubling the time each run averages over.  The
# pairs keep the exercise/bypass split: `exact` runs the pure-Python
# O(n^4)-O(n^5) checks and the search layer at small n, `large` the O(n^2)
# conversions, GF(p^k) tables, S @ S and the C(n,4) scan near MAX_N.
WORKLOADS = {
    "exact": (paley_pipeline, search),
    "large": (paley_large, count_random),
}


# ---------------------------------------------------------------- running

@dataclass
class Command:
    kind: str
    tag: str
    argv: list
    traced: bool
    wall_s: float
    cpu_s: float
    minflt: int
    maxrss_mb: float
    exit_code: int
    problems: list
    spans: list | None = None

    def record(self):
        return {k: getattr(self, k) for k in
                ("kind", "tag", "argv", "traced", "wall_s", "cpu_s", "minflt", "maxrss_mb",
                 "exit_code", "problems")}


def spawn(args, work, stdout, stderr, deadline):
    """Run the interpreter with args; return (wall seconds, exit code, rusage).

    The child is killed at the deadline and always reaped before returning.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=work, env=env,
                            stdout=stdout, stderr=stderr)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def run_step(step, work, traced, ctx, deadline):
    out_path, err_path, spans_path = work / "stdout", work / "stderr", work / "spans.json"
    spans_path.unlink(missing_ok=True)
    args = [str(TRACED_CLI), str(spans_path), *step.argv] if traced else [*CLI, *step.argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        wall, code, usage = spawn(args, work, out, err, deadline)
    stderr = err_path.read_text(errors="replace")
    problems = []
    report = None
    if code != 0:
        problems.append(f"exit code {code}: {stderr.strip()[-300:]}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    try:
        report = json.loads(out_path.read_text())
    except ValueError:
        problems.append("stdout is not one JSON report")
    if isinstance(report, dict):
        if report.get("status") != "ok":
            problems.append(f"status {report.get('status')!r}")
        results = report.get("results")
        try:
            problems += step.check(results if isinstance(results, dict) else {}, ctx)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError) as exc:
            problems.append(f"output check failed: {exc!r}")
    spans = None
    if traced and spans_path.exists():
        spans = json.loads(spans_path.read_text())
    return Command(step.kind, step.tag, step.argv, traced, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_minflt, usage.ru_maxrss / 1024, code, problems, spans)


def run_pass(steps, work, modes, deadline, expected=None, soft_end=None):
    """Run the sequence once; {traced: commands} for each mode in modes.

    With both modes, each command runs untraced and then traced before the
    next one, so the two see the same machine load and their difference is
    the tracing overhead.  Given expected seconds per step, the pass stops
    before the first step that would not end by soft_end.
    """
    ctx = {traced: {} for traced in modes}
    cmds = {traced: [] for traced in modes}
    for i, step in enumerate(steps):
        if expected and time.monotonic() + expected[i] > soft_end:
            return cmds
        for traced in modes:
            if time.monotonic() >= deadline:
                return cmds
            cmds[traced].append(run_step(step, work, traced, ctx[traced], deadline))
    return cmds


def measure_setup(work, deadline):
    """Median wall time of a fresh interpreter importing diamondkit.cli."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        wall, code, _ = spawn(IMPORT_ONLY, work, subprocess.DEVNULL, subprocess.DEVNULL,
                              deadline)
        if code != 0:
            raise SystemExit("error: `import diamondkit.cli` failed")
        if i:  # the first import writes the bytecode cache; users pay that once
            samples.append(wall)
    return statistics.median(samples), samples


# ---------------------------------------------------------------- metrics

def per_command(passes, attr, reduce):
    """Per command of the sequence, reduce(attr over the passes that ran it)."""
    return [(p0.kind, p0.tag, reduce([getattr(p[i], attr) for p in passes if len(p) > i]))
            for i, p0 in enumerate(passes[0])]


def command_walls(passes):
    """Per command of the sequence, its fastest wall time over the passes.

    On a shared VM whose host slows it by up to 1.5x for seconds to a minute
    at a time, in wall and CPU time alike, the noise only adds time, so each
    command's fastest pass is the steadiest estimate of its own cost.  Over
    ten runs, the sum of these minimums spread 0.08 on `exact` where the sum
    of medians spread 0.17 (IQR/median).
    """
    return per_command(passes, "wall_s", min)


def e2e_metrics(passes, setup_s):
    """Every end-to-end metric that applies to the passes' commands.

    A sequence time is the sum of command_walls.  Returns {name: (value,
    unit, source)}; source is "computed" for a rate whose work count comes
    from input sizes.
    """
    walls = command_walls(passes)
    m = {
        "setup_s": (setup_s, "s", "measured"),
        "wall_s": (sum(w for _, _, w in walls), "s", "measured"),
        "peak_rss_mb": (max(r for _, _, r in per_command(passes, "maxrss_mb",
                                                         statistics.median)), "MB",
                        "measured"),
    }
    for kind in COMMAND_KINDS:
        if any(k == kind for k, _, _ in walls):
            m[f"{kind}_s"] = (sum(w for k, _, w in walls if k == kind), "s", "measured")
    by_tag = {tag: w for _, tag, w in walls}
    encodings = 1 << (EXHAUSTIVE_N * (EXHAUSTIVE_N - 1) // 2)
    flips = LOCAL["restarts"] * LOCAL["steps"]
    for name, tag, work in (("encodings_per_s_t1", "exhaustive_t1", encodings),
                            ("encodings_per_s_t2", "exhaustive_t2", encodings),
                            ("flips_per_s", "local", flips)):
        if tag in by_tag:
            m[name] = (work / by_tag[tag], "1/s", "computed")
    return m


def span_table(cmds):
    """Per traced function: busy s, self s, calls, minflt, sizes, parent names.

    Busy time counts a span only when no enclosing span has the same name,
    so recursion is not counted twice; self time subtracts child spans.
    """
    t = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "minflt": 0,
                             "sizes": [], "parents": defaultdict(int), "tagged_minflt": []})
    outside = 0.0
    for c in cmds:
        spans = c.spans or []
        child = [0.0] * len(spans)
        for name, t0, t1, parent, flt, size in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, flt, size) in enumerate(spans):
            row = t[name]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child[i]
            row["sizes"].append(size)
            row["parents"][spans[parent][0] if parent >= 0 else None] += 1
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][3]
            if anc < 0:
                row["s"] += t1 - t0
                row["minflt"] += flt
                if name == "search.exhaustive_max_diamonds":
                    row["tagged_minflt"].append((c.tag, flt))
        main_s = sum(t1 - t0 for name, t0, t1, parent, *_ in spans
                     if name == "cli.main" and parent < 0)
        outside += c.wall_s - main_s
    return t, outside


def per_layer_values(cmds):
    """{name: (value, source)} of every per-layer metric for one traced pass."""
    t, outside = span_table(cmds)  # a defaultdict: layers not called read 0

    def size_sum(name, fn):
        return sum(fn(s) for s in t[name]["sizes"] if s is not None)

    def rate(count, secs):
        return count / secs if secs > 0 else 0.0

    v = {}
    for name, key in [
        ("tournament.count_diamonds_naive", "s"), ("tournament.Tournament.adjacency", "s"),
        ("spectral.char_poly", "s"), ("spectral.char_poly", "calls"),
        ("spectral.matches_extremal_charpoly", "self_s"),
        ("hypergraph.verify_ff4", "s"), ("hypergraph.verify_ff4", "calls"),
        ("hypergraph.triple_profile", "s"), ("hypergraph.is_ff4_design", "self_s"),
        ("hypergraph.baber", "s"), ("hypergraph.parse_hyp", "s"),
        ("hypergraph.format_hyp", "s"), ("constructions.extend_to_conference", "self_s"),
        ("spectral.sigma_from_traces", "s"), ("spectral.is_skew_conference", "s"),
        ("spectral.count_diamonds_spectral", "self_s"),
        ("spectral.seidel_from_tournament", "s"), ("spectral.SeidelMatrix.__post_init__", "s"),
        ("tournament.parse_trn", "s"), ("tournament.format_trn", "s"),
        ("tournament.validate", "s"), ("constructions.delete_vertices", "s"),
        ("gf.gf_build", "s"), ("gf.gf_build", "calls"),
        ("constructions.paley_tournament", "self_s"), ("constructions.star_paley", "self_s"),
        ("search.exhaustive_max_diamonds", "s"), ("search.exhaustive_max_diamonds", "minflt"),
        ("tournament.diamond_delta_on_flip", "s"), ("tournament.diamond_delta_on_flip", "calls"),
        ("tournament.flip_arc", "calls"), ("search.local_search_max_diamonds", "self_s"),
        ("search.encode", "s"), ("search.encode", "calls"),
        ("tournament.random_tournament", "s"), ("cli.main", "self_s"),
    ]:
        v[f"{name}.{key}"] = (t[name][key], "measured")

    subsets = size_sum("tournament.count_diamonds_naive", lambda n: math.comb(n, 4))
    v["tournament.count_diamonds_naive.subsets"] = (subsets, "computed")
    v["tournament.count_diamonds_naive.subsets_per_s"] = (
        rate(subsets, t["tournament.count_diamonds_naive"]["s"]), "computed")
    v["hypergraph.verify_ff4.five_sets"] = (
        size_sum("hypergraph.verify_ff4", lambda n: math.comb(n, 5)), "computed")
    v["hypergraph.baber.quads"] = (size_sum("hypergraph.baber", lambda n: math.comb(n, 4)),
                                   "computed")
    v["spectral.sigma_from_traces.flops"] = (
        size_sum("spectral.sigma_from_traces", lambda n: 2 * n ** 3), "computed")
    v["tournament.parse_trn.bytes"] = (size_sum("tournament.parse_trn", lambda n: n),
                                       "computed")
    v["constructions.paley_tournament.pairs"] = (
        size_sum("constructions.paley_tournament", lambda q: q * q), "computed")

    exh = "search.exhaustive_max_diamonds"
    encodings = size_sum(exh, lambda n: 1 << (n * (n - 1) // 2))
    v[f"{exh}.encodings"] = (encodings, "computed")
    v[f"{exh}.encodings_per_s"] = (rate(encodings, t[exh]["s"]), "computed")
    for threads in (1, 2):
        v[f"{exh}.minflt_t{threads}"] = (sum(
            f for tag, f in t[exh]["tagged_minflt"] if tag == f"exhaustive_t{threads}"),
            "measured")

    delta_calls = t["tournament.diamond_delta_on_flip"]["calls"]
    accepted = t["tournament.flip_arc"]["parents"]["search.local_search_max_diamonds"]
    v["search.local_search_max_diamonds.accept_ratio"] = (rate(accepted, delta_calls),
                                                          "measured")

    for mod in MODULES:
        v[f"module.{mod}.self_s"] = (sum(row["self_s"] for name, row in t.items()
                                         if name.startswith(mod + ".")), "measured")
    v["proc.outside_main_s"] = (outside, "measured")
    return v


def proc_values(cmds):
    return {
        "proc.cpu_s": (sum(c.cpu_s for c in cmds), "measured"),
        "proc.minflt": (sum(c.minflt for c in cmds), "measured"),
        "proc.maxrss_mb": (max(c.maxrss_mb for c in cmds), "measured"),
    }


def layer_metrics(untraced, traced):
    """Median over passes of every per-layer metric, with tracing overhead."""
    rows = [per_layer_values(p) for p in traced]
    procs = [proc_values(p) for p in untraced]
    m = {}
    for name in rows[0]:
        m[name] = (statistics.median(r[name][0] for r in rows), rows[0][name][1])
    for name in procs[0]:
        m[name] = (statistics.median(r[name][0] for r in procs), procs[0][name][1])
    traced_wall = sum(w for _, _, w in command_walls(traced))
    untraced_wall = sum(w for _, _, w in command_walls(untraced))
    m["trace.wall_s"] = (traced_wall, "measured")
    m["trace.untraced_wall_s"] = (untraced_wall, "measured")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "measured")
    return m


def breakdown(traced):
    """Per command kind: traced wall per pass and the functions with most self time.

    The self times of all spans plus the time outside cli.main add up to the
    traced wall time, so the shares show where each command's time goes.
    """
    out = {}
    for kind in COMMAND_KINDS:
        cmds = [c for p in traced for c in p if c.kind == kind]
        if not cmds:
            continue
        t, outside = span_table(cmds)
        wall = sum(c.wall_s for c in cmds)
        rows = sorted([(name, row["self_s"]) for name, row in t.items()]
                      + [("(outside cli.main)", outside)], key=lambda r: -r[1])
        out[kind] = {"wall_s": wall / len(traced),
                     "self_s": [[name, s / len(traced), s / wall] for name, s in rows[:6]]}
    return out


# ---------------------------------------------------------------- output

def machine_info():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "diamondkit" / "cli.py").is_file():
        print(f"error: no diamondkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # on SIGTERM, unwind so that the running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    soft_end, hard_end = start + min(args.seconds, HARD_CAP_S), start + HARD_CAP_S
    modes = (False, True) if args.trace else (False,)
    passes = {False: [], True: []}
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        setup_s, setup_samples = measure_setup(work, hard_end)
        steps = [step for section in WORKLOADS[args.workload]
                 for step in section(args.seed, work)]
        expected = None
        while True:
            pass_cmds = run_pass(steps, work, modes, hard_end, expected, soft_end)
            if pass_cmds[False]:
                for traced, cmds in pass_cmds.items():
                    passes[traced].append(cmds)
            if any(len(cmds) < len(steps) or any(c.problems for c in cmds)
                   for cmds in pass_cmds.values()):
                break
            expected = expected or [sum(passes[traced][0][i].wall_s for traced in modes)
                                    for i in range(len(steps))]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_cmds = [c for traced in modes for p in passes[traced] for c in p]
    # every command of the first pass counts as attempted, even one that the
    # hard deadline kept from running; later passes count what they ran
    first_ran = len(passes[False][0]) if passes[False] else 0
    attempted = len(all_cmds) + len(modes) * (len(steps) - first_ran)
    failures = [{"argv": c.argv, "traced": c.traced, "problems": c.problems}
                for c in all_cmds if c.problems]
    n_failed = attempted - len(all_cmds) + len(failures)
    correct = n_failed == 0

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    complete = [p for p in passes[False] if len(p) == len(steps)]
    complete_traced = [p for p in passes[True] if len(p) == len(steps)]
    metrics = {}
    if complete:
        metrics = e2e_metrics(passes[False], setup_s)
        if complete_traced:
            metrics.update({name: (value, units[name], source) for name, (value, source)
                            in layer_metrics(complete, complete_traced).items()})
    reported = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                for m in wanted if m["name"] in metrics}

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "ops": attempted,
        "ops_failed": n_failed,
        "ops_failed_frac": n_failed / attempted,
        "passes": {"untraced": len(passes[False]), "traced": len(passes[True]),
                   "complete": len(complete)},
        "setup_samples_s": setup_samples,
        "metrics": {name: {"value": value, "unit": unit, "source": source}
                    for name, (value, unit, source) in metrics.items()},
        "breakdown": breakdown(complete_traced) if complete_traced else {},
        "limits": LIMITS,
        "failures": failures,
        "commands": [c.record() for c in all_cmds],
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")

    for name, (value, unit, source) in metrics.items():
        print(f"{name:58s} {value:>16.6g} {unit:6s} {source}")
    print(f"{'ops':58s} {attempted:>16d}")
    print(f"{'ops_failed':58s} {n_failed:>16d}")
    print(f"{'ops_failed_frac':58s} {result['ops_failed_frac']:>16.6g}")
    for kind, b in result["breakdown"].items():
        print(f"traced {kind}_s = {b['wall_s']:.4g} s per pass; self time: " + ", ".join(
            f"{name} {share:.1%}" for name, _, share in b["self_s"]))
    for f in failures:
        print(f"FAILED {' '.join(f['argv'])}: {'; '.join(f['problems'])}")
    print(f"result file: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": n_failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
