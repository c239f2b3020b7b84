"""Benchmark of the macdonald command line: the walk, fill and verify workloads.

Run from the repository root:

    python3 perfbench/run.py --workload walk --seed 1 --seconds 36 --trace 0

Each run is one fresh interpreter acting as a single closed-loop client: it
calls ``macdonald.cli.main(argv)`` in-process, one operation after another,
capturing the exact stdout bytes a user would get.  The program caches are
cleared before every operation, so each one starts as cold as a new CLI
process.  A pass is the workload's operation list once; passes repeat while
another one would end nearer to ``--seconds`` than stopping now, so a run
measures ``--seconds`` give or take half a pass, and timings are means over
the run's passes.  Outputs are checked after the passes, outside the
timed interval; a failed operation counts against ``ok_ratio`` and never
stops the run.

Workloads (at most ``--jobs 2``, so that a 2-core machine is not oversubscribed):

* ``walk``: ``compute --formula ram-yip`` on one n=4 shape, picked by the seed
  from the dual pair (5,3,1,0) / (5,4,2,0); 49,152 folding pairs each.
* ``fill``: ``compute --formula compressed --jobs 2`` on (5,4,2,1,0), with
  552,960 fillings, then ``table --jobs 2``.  The seed does not change it.
* ``verify``: ``verify --per-class`` on (5,2,1,0), 4,608 fibers, then
  ``verify --oracle`` on (4,3,2,1,0) with the run's seed.

End-to-end metrics (``--trace 0``): ``setup_s`` is the median over several
fresh interpreters of the time from interpreter start until the workload's
inputs are ready (imports, references, chains); ``wall_s`` and ``cpu_s`` are
the time inside the run's operations (the cache clearing between them left
out) divided by its passes, CPU counting reaped pool workers; ``peak_rss_mb``
is the larger of the process's and its children's peak resident size;
``ok_ratio`` is passed over attempted operations.

``--trace 1`` alternates untraced and traced passes (at least one of each) and
reports the per-layer metrics of ``layers.py`` (medians over traced passes),
``chain.build_s`` from a traced set-up, and ``trace.overhead_s``, the traced
minus the untraced median pass time.  The last stdout line is the result object; the line before it,
also appended to ``.perfbench/runs.jsonl``, holds the raw per-pass samples,
exact counts, checks and a stamp of the code and machine.

Reference outputs in ``ref/`` were taken at commit 1061746 with, for example,

    PYTHONPATH=src python3 -m macdonald.cli compute --lambda 5,3,1,0 \\
        --formula ram-yip --out json --jobs 1 | gzip -n -9 > ref/walk-5_3_1_0.json.gz

and ``table --jobs 2 > ref/table.txt``.  A compute output passes when its
bytes equal the reference or, failing that, when every coefficient is equal
as a rational function.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from layers import LAYER_METRICS, SETUP_METRIC, Stats, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REF = BENCH / "ref"
WORK = ROOT / ".perfbench"

WALK_SHAPES = ("5,3,1,0", "5,4,2,0")
FILL_SHAPE = "5,4,2,1,0"
PER_CLASS_SHAPE = "5,2,1,0"
ORACLE_SHAPE = "4,3,2,1,0"

# Exact counts every run must reproduce.
WALK_PAIRS = 49_152
FILL_FILLINGS = 552_960
FILL_PAIRS = 7_864_320
PER_CLASS_PAIRS = 24_576
PER_CLASS_FIBERS = 4_608
ORACLE_POINTS = 3

SETUP_PROBES = 9

Check = Callable[[str], "tuple[str | None, dict]"]


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Check


@dataclass
class Plan:
    """A workload's operations, expected counts and post-run checks."""

    ops: list[Op]
    jobs: int
    counts: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    trace_expect: dict = field(default_factory=dict)
    post_checks: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Correctness checks


def parse_expansion(text: str):
    """(lambda, n, {content: RationalQT}) from a ``compute --out json`` line."""
    from macdonald.qt import RationalQT

    obj = json.loads(text)
    coefs = {
        tuple(mono["exp"]): RationalQT({(a, b): c for a, b, c in mono["num"]},
                                       [tuple(f) for f in mono["den"]])
        for mono in obj["monomials"]
    }
    if len(coefs) != len(obj["monomials"]):
        raise ValueError("repeated monomial exponent")
    return obj["lambda"], obj["n"], coefs


def compare_expansions(out: str, ref: str) -> str | None:
    """None when out equals ref byte for byte or coefficient by coefficient."""
    if out == ref:
        return None
    lam, n, got = parse_expansion(out)
    ref_lam, ref_n, want = parse_expansion(ref)
    if (lam, n) != (ref_lam, ref_n):
        return f"lambda/n {lam}/{n} instead of {ref_lam}/{ref_n}"
    if got.keys() != want.keys():
        return f"{len(got.keys() ^ want.keys())} monomials differ from the reference"
    bad = [exp for exp in sorted(want) if not got[exp] == want[exp]]
    if bad:
        return f"{len(bad)} coefficients differ, first at x^{list(bad[0])}"
    return None


def expansion_check(ref: str) -> Check:
    return lambda out: (compare_expansions(out, ref), {})


def table_check(ref: str) -> Check:
    row = "(" + ", ".join(FILL_SHAPE.split(",")) + ")"

    def check(out: str):
        fillings = [int(line.split()[-3].replace(",", ""))
                    for line in out.splitlines() if line.startswith(row)]
        counts = {"fillings": fillings[0] if fillings else None}
        if out != ref:
            return "table differs from the reference", counts
        if counts["fillings"] != FILL_FILLINGS:
            return f"t{row} = {counts['fillings']}, expected {FILL_FILLINGS}", counts
        return None, counts

    return check


def per_class_check(out: str):
    report = json.loads(out)
    classes = report["classes"]
    counts = {"fibers": len(classes), "pairs": sum(c["pairs"] for c in classes)}
    checks = {c["name"]: c for c in report["checks"]}
    want_detail = {
        "per-class": f"{PER_CLASS_FIBERS}/{PER_CLASS_FIBERS} classes",
        "fibers-partition": f"{PER_CLASS_PAIRS} pairs over {PER_CLASS_FIBERS} fibers",
    }
    if report["ok"] is not True or not all(c["ok"] for c in classes):
        return "per-class verification not ok", counts
    if counts != {"fibers": PER_CLASS_FIBERS, "pairs": PER_CLASS_PAIRS}:
        return f"counts {counts}, expected {PER_CLASS_FIBERS} fibers", counts
    for name, detail in want_detail.items():
        entry = checks.get(name, {})
        if entry.get("ok") is not True or entry.get("detail") != detail:
            return f"check {name} reads {entry}", counts
    return None, counts


def oracle_check(out: str):
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    counts = {"oracle_points": sum(name.startswith("oracle@") for name in names)}
    if report["ok"] is not True or not all(c["ok"] for c in report["checks"]):
        return "oracle verification not ok", counts
    if counts["oracle_points"] != ORACLE_POINTS:
        return f"{counts['oracle_points']} oracle points, expected {ORACLE_POINTS}", counts
    missing = {"symmetry", "monic", "schur"} - set(names)
    if missing:
        return f"checks {sorted(missing)} missing", counts
    return None, counts


def corrupt_one_coefficient(text: str) -> str:
    """The expansion with its first numerator coefficient 1 changed to 7."""
    obj = json.loads(text)
    for mono in obj["monomials"]:
        for term in mono["num"]:
            if term[2] == 1:
                term[2] = 7
                return json.dumps(obj, separators=(",", ":")) + "\n"
    raise ValueError("no coefficient equal to 1")


def self_test_corruption(ref: str) -> tuple[bool, str]:
    """The expansion checker must count a one-coefficient corruption as failed."""
    problem, _ = run_check(expansion_check(ref), 0, corrupt_one_coefficient(ref))
    if problem:
        return True, f"corrupted expansion counted as failed: {problem}"
    return False, "corrupted expansion passed the check"


def cross_formula(shape: str, out: str) -> tuple[bool, str]:
    """The ram-yip expansion equals compressed_sum on the same shape."""
    from macdonald.chain import Partition
    from macdonald.fillings import compressed_sum

    lam, n, got = parse_expansion(out)
    want = compressed_sum(Partition(lam), n)
    if got == want:
        return True, f"{len(got)} coefficients equal to compressed_sum"
    return False, "ram-yip and compressed expansions differ"


def run_check(check: Check, rc, out: str) -> tuple[str | None, dict]:
    if rc != 0:
        return f"exit code {rc}", {}
    try:
        return check(out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unreadable output: {exc!r}", {}


# ---------------------------------------------------------------------------
# Workloads


def read_ref(name: str) -> str:
    path = REF / name
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            return fh.read()
    return path.read_text(encoding="utf-8")


def folding_pairs(shape: str) -> int:
    from macdonald.chain import Partition, build_chain

    lam = Partition([int(p) for p in shape.split(",")])
    return (1 << build_chain(lam).m) * math.factorial(lam.n)


def ref_name(prefix: str, shape: str) -> str:
    return f"{prefix}-{shape.replace(',', '_')}.json.gz"


def set_up(workload: str, seed: int) -> Plan:
    """Generate the workload's inputs from the seed; load its references."""
    if workload == "walk":
        shape = random.Random(seed).choice(WALK_SHAPES)
        ref = read_ref(ref_name("walk", shape))
        argv = ["compute", "--lambda", shape, "--formula", "ram-yip",
                "--out", "json", "--jobs", "1"]
        return Plan(
            ops=[Op("compute-ram-yip", argv, expansion_check(ref))],
            jobs=1,
            counts={"setup.folding_pairs": folding_pairs(shape)},
            expect={"setup.folding_pairs": WALK_PAIRS},
            trace_expect={"ramyip.term_calls": WALK_PAIRS,
                          "qt.add_calls": WALK_PAIRS},
            post_checks=[
                ("cross-formula", lambda outs: cross_formula(shape, outs[0])),
                ("self-test-corruption", lambda outs: self_test_corruption(ref)),
            ],
        )
    if workload == "fill":
        argv = ["compute", "--lambda", FILL_SHAPE, "--formula", "compressed",
                "--out", "json", "--jobs", "2"]
        return Plan(
            ops=[Op("compute-compressed", argv,
                    expansion_check(read_ref(ref_name("fill", FILL_SHAPE)))),
                 Op("table", ["table", "--jobs", "2"],
                    table_check(read_ref("table.txt")))],
            jobs=2,
            counts={"setup.folding_pairs": folding_pairs(FILL_SHAPE)},
            expect={"setup.folding_pairs": FILL_PAIRS,
                    "table.fillings": FILL_FILLINGS},
            trace_expect={"fillings.term_calls": FILL_FILLINGS},
        )
    if workload == "verify":
        return Plan(
            ops=[Op("verify-per-class",
                    ["verify", "--lambda", PER_CLASS_SHAPE, "--per-class"],
                    per_class_check),
                 Op("verify-oracle",
                    ["verify", "--oracle", "--lambda", ORACLE_SHAPE,
                     "--seed", str(seed)],
                    oracle_check)],
            jobs=1,
            counts={"setup.folding_pairs": folding_pairs(PER_CLASS_SHAPE)},
            expect={"setup.folding_pairs": PER_CLASS_PAIRS,
                    "verify-per-class.fibers": PER_CLASS_FIBERS,
                    "verify-per-class.pairs": PER_CLASS_PAIRS,
                    "verify-oracle.oracle_points": ORACLE_POINTS},
            trace_expect={"compression.pairs": PER_CLASS_PAIRS,
                          "compression.fibers": PER_CLASS_FIBERS,
                          "compression.class_calls": PER_CLASS_FIBERS},
        )
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Measurement


def import_program():
    """Import the checkout's macdonald.cli, refusing any other copy."""
    if not (SRC / "macdonald" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import macdonald.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "macdonald":
        sys.exit(f"perfbench: imported {cli.__file__}, not the checkout's copy")
    return cli


def program_caches() -> list:
    """Every functools cache defined in the program's modules."""
    seen: dict[int, object] = {}
    for name, module in sorted(sys.modules.items()):
        if name.startswith("macdonald."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    seen.setdefault(id(value), value)
    return list(seen.values())


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def run_op(cli, argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ops: list = field(default_factory=list)     # (label, wall, rc, out, err, stats)


def run_pass(cli, caches: list, plan: Plan, tracer) -> Pass:
    """One closed-loop pass over the workload's ops; the ops alone are timed."""
    gc.collect()
    result = Pass(traced=tracer is not None)
    for op in plan.ops:
        for cache in caches:
            cache.cache_clear()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        rc, out, err = run_op(cli, op.argv)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        stats = tracer.collect() if tracer is not None else None
        result.wall_s += wall
        result.cpu_s += cpu
        result.ops.append((op.label, wall, rc, out, err, stats))
    return result


def measure(cli, caches: list, plan: Plan, seconds: float, tracer) -> list[Pass]:
    """Passes while another would end nearer to ``seconds`` than stopping now.

    Traced runs alternate untraced and traced passes and make at least one of
    each, so they may overrun.
    """
    min_passes = 1 if tracer is None else 2
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(cli, caches, plan, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s for p in passes)
        if len(passes) >= min_passes and elapsed + typical / 2 > seconds:
            return passes


def setup_samples(workload: str, seed: int) -> list[float]:
    """Seconds from interpreter start to ready inputs, in fresh interpreters."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = probe.communicate(timeout=60)
        if probe.returncode != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe failed: {err.strip()[-500:]}")
        samples.append(elapsed)
    return samples


def stamp(plan: Plan) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "macdonald").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "jobs": plan.jobs,
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def median_layers(passes: list[Pass], absent: list[str]) -> tuple[dict, list]:
    """Per-layer medians over traced passes, plus the per-op values."""
    per_pass, per_op = [], []
    for p in passes:
        if not p.traced:
            continue
        merged = Stats()
        for label, _wall, _rc, _out, _err, stats in p.ops:
            merged.merge(stats)
            values = layer_metrics(stats, absent)
            per_op.append({"op": label,
                           "layers": {k: v for k, v in values.items() if v}})
        per_pass.append(layer_metrics(merged, absent))
    medians = {}
    for name in per_pass[0]:
        if all(name in v for v in per_pass):
            values = [v[name] for v in per_pass]
            exact = all(isinstance(v, int) for v in values)
            medians[name] = (statistics.median_low if exact else statistics.median)(values)
    return medians, per_op


def spans_of(passes: list[Pass]) -> list:
    """Coarse spans of each traced pass: op, name, parent, pid, start, length."""
    out = []
    for p in passes:
        if p.traced:
            start = min((s[3] for *_x, stats in p.ops for s in stats.spans), default=0.0)
            out.append([[label, name, parent, pid, round(t0 - start, 6), round(t1 - t0, 6)]
                        for label, *_x, stats in p.ops
                        for name, parent, pid, t0, t1 in stats.spans])
    return out


def check_run(plan: Plan, passes: list[Pass]):
    """Check every op of every pass, the exact counts and the post-run checks."""
    attempted = failed = 0
    failures: list[dict] = []
    counts = dict(plan.counts)
    problems: dict[str, str] = {}
    for index, p in enumerate(passes):
        for op, (label, _wall, rc, out, err, _stats) in zip(plan.ops, p.ops):
            attempted += 1
            problem, op_counts = run_check(op.check, rc, out)
            if problem:
                failed += 1
                failures.append({"pass": index, "op": label, "problem": problem,
                                 "stderr": err[-2000:]})
            for key, value in op_counts.items():
                key = f"{label}.{key}"
                if counts.setdefault(key, value) != value:
                    problems[f"count {key} repeats"] = f"{value} != {counts[key]}"
    for key, value in plan.expect.items():
        if counts.get(key) != value:
            problems[f"count {key}"] = f"{counts.get(key)}, expected {value}"
    first_outputs = [op[3] for op in passes[0].ops]
    checks = {}
    for name, check in plan.post_checks:
        try:
            ok, detail = check(first_outputs)
        except (ValueError, KeyError, TypeError) as exc:
            ok, detail = False, f"unreadable output: {exc!r}"
        checks[name] = {"ok": ok, "detail": detail}
        if not ok:
            problems[name] = detail
    return attempted, failed, failures, counts, checks, problems


def end_to_end(setup: list[float], passes: list[Pass], peak: float,
               attempted: int, failed: int) -> dict:
    # The host's speed changes in bursts of tens of seconds.  A mean over the
    # whole run weighs them by their share of it, where a median of a few
    # passes jumps between the fast and the slow level.
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.fmean(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.fmean(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (peak, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(passes: list[Pass], tracer: Tracer, setup_stats: Stats):
    """Per-layer metrics with units, and each traced op's own values."""
    values, per_op = median_layers(passes, tracer.absent)
    units = {name: unit for name, unit, _h, _v in LAYER_METRICS}
    metrics = {name: (value, units[name]) for name, value in values.items()}
    name, unit, hooks, value = SETUP_METRIC
    if not set(hooks) & (set(tracer.absent) | setup_stats.broken):
        metrics[name] = (value(setup_stats), unit)
    traced = [p.wall_s for p in passes if p.traced]
    untraced = [p.wall_s for p in passes if not p.traced]
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s")
    return metrics, per_op


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("walk", "fill", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in ("MACDONALD_JOBS", "MACDONALD_TERM_CAP"):
        os.environ.pop(var, None)
    cli = import_program()
    if args.probe_setup:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup = setup_samples(args.workload, args.seed)
    caches = program_caches()
    tracer = setup_stats = None
    WORK.mkdir(exist_ok=True)
    spool = WORK / f"spool-{os.getpid()}"
    if args.trace:
        spool.mkdir()
        tracer = Tracer(spool)
        tracer.install()
    try:
        plan = set_up(args.workload, args.seed)
        if tracer is not None:
            tracer.uninstall()
            setup_stats = tracer.collect()
        passes = measure(cli, caches, plan, args.seconds, tracer)
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    peak = peak_rss_mb()

    attempted, failed, failures, counts, checks, problems = check_run(plan, passes)
    if tracer is None:
        metrics = end_to_end(setup, passes, peak, attempted, failed)
    else:
        metrics, per_op = per_layer(passes, tracer, setup_stats)
        for key, want in plan.trace_expect.items():
            got = metrics.get(key, (None,))[0]
            if got is not None and got != want:
                problems[f"traced {key}"] = f"{got}, expected {want}"

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "stamp": stamp(plan),
        "setup_s": setup,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                    "ops": {label: wall for label, wall, *_x in p.ops}}
                   for p in passes],
        "counts": counts,
        "checks": checks,
        "problems": problems,
        "failures": failures,
    }
    if tracer is not None:
        every = [name for name, *_x in LAYER_METRICS] + [SETUP_METRIC[0]]
        record.update(absent=[name for name in every if name not in metrics],
                      per_op=per_op, spans=spans_of(passes))
    line = json.dumps({"raw": record}, separators=(",", ":"))
    with open(WORK / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
