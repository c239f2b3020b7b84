"""Outside-in tracing of the macdonald layers for the benchmark's traced runs.

The tracer replaces the module-level entry points of each layer with timing
wrappers defined here; nothing in the program changes.  A hooked name is
replaced in every ``macdonald`` module that holds it, so a name imported
elsewhere (``compression`` imports ``_walk_term_raw`` from ``ramyip``,
``parallel`` imports ``walk_shard`` and ``_count_values``) is traced on every
path.  Pool workers are forked with the wrappers in place; each worker task
writes its own statistics to a spool directory, which the parent merges after
the operation.

Hot entry points (one call per term) are aggregated per name; coarse ones
(shards, pools, oracle stages, grouping, emitting) also keep their individual
spans.  A layer's self time is its inclusive time minus the
time of the traced calls made inside it, wrapper bookkeeping included.
Worker times are summed over processes.  A layer that a workload never
reaches reads 0 (``oracle.point_yield`` too, when no point is drawn).
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import sys
import time
import uuid
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, NamedTuple


class Stats:
    """Per-process aggregates of traced calls."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, str | None, int, float, float]] = []
        self.add_keys: set = set()
        self.lift_factors = 0
        self.pairs = 0
        self.fibers = 0
        self.broken: set[str] = set()        # hooks whose observer failed
        self.stack: list[list] = []          # open frames: [name, child_time]

    def merge(self, other: "Stats") -> None:
        self.calls.update(other.calls)
        self.errors.update(other.errors)
        for mine, theirs in ((self.total, other.total),
                             (self.self_time, other.self_time)):
            for key, value in theirs.items():
                mine[key] += value
        self.spans.extend(other.spans)
        self.add_keys |= other.add_keys
        self.broken |= other.broken
        self.lift_factors += other.lift_factors
        self.pairs += other.pairs
        self.fibers += other.fibers


# Observers run after the traced call; their time is charged to no layer.

def _observe_add(st: Stats, args, result) -> None:
    acc, content, _num, den = args
    st.add_keys.add((content, frozenset(den.items())))
    st.lift_factors += sum((acc.den - den).values())


def _observe_fibers(st: Stats, args, result) -> None:
    st.fibers += len(result)
    st.pairs += sum(len(pairs) for pairs in result.values())


PARALLEL_ENTRIES = ("parallel.parallel_ram_yip_sum",
                    "parallel.parallel_compressed_sum",
                    "parallel.parallel_count")
WORKERS = ("parallel._ry_worker", "parallel._fill_worker",
           "parallel._count_worker")


class Hook(NamedTuple):
    module: str
    path: str                       # attribute path inside the module
    spans: bool = False             # keep each call's span, not only totals
    observe: Callable | None = None
    worker: bool = False            # a pool task: runs on fresh, spooled Stats
    callers: tuple[str, ...] = ()   # if set, trace only calls made from these


HOOKS = [
    Hook("qt", "ContentAccumulator.add", observe=_observe_add),
    # only the parent's merge of shard sums, not the call inside add
    Hook("qt", "ContentAccumulator.add_lifted", callers=PARALLEL_ENTRIES),
    Hook("qt", "ContentAccumulator.finalize", spans=True),
    Hook("ramyip", "_walk_term_raw"),
    Hook("ramyip", "walk_shard", spans=True),
    Hook("fillings", "_term_raw"),
    Hook("fillings", "compressed_shard", spans=True),
    Hook("fillings", "compressed_sum", spans=True),
    Hook("fillings", "_count_values"),
    Hook("parallel", "parallel_ram_yip_sum", spans=True),
    Hook("parallel", "parallel_compressed_sum", spans=True),
    Hook("parallel", "parallel_count", spans=True),
    Hook("parallel", "_ry_worker", spans=True, worker=True),
    Hook("parallel", "_fill_worker", spans=True, worker=True),
    Hook("parallel", "_count_worker", spans=True, worker=True),
    Hook("compression", "group_fibers", spans=True, observe=_observe_fibers),
    Hook("compression", "class_sum"),
    Hook("oracle", "power_in_monomials", spans=True),
    Hook("oracle", "_invert", spans=True),
    Hook("oracle", "_solve", spans=True),
    Hook("oracle", "schur_oracle", spans=True),
    Hook("oracle", "macdonald_oracle", spans=True),
    Hook("cli", "_emit_symfun", spans=True),
    Hook("chain", "build_chain", spans=True),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics: (name, unit, hooks they read, value from merged Stats).
# Each comment names the end-to-end metric and workload the group should move.
LAYER_METRICS = [
    # qt lifting: wall_s and cpu_s on walk and fill; no change on verify
    ("qt.add_s", "s", ["qt.ContentAccumulator.add"],
     lambda st: st.total["qt.ContentAccumulator.add"]),
    ("qt.add_calls", "count", ["qt.ContentAccumulator.add"],
     lambda st: st.calls["qt.ContentAccumulator.add"]),
    ("qt.add_keys", "count", ["qt.ContentAccumulator.add"],
     lambda st: len(st.add_keys)),
    ("qt.lift_factors", "count", ["qt.ContentAccumulator.add"],
     lambda st: st.lift_factors),
    # qt reduction: wall_s on every workload
    ("qt.finalize_s", "s", ["qt.ContentAccumulator.finalize"],
     lambda st: st.total["qt.ContentAccumulator.finalize"]),
    # walk terms and enumeration: wall_s on walk
    ("ramyip.term_s", "s", ["ramyip._walk_term_raw"],
     lambda st: st.total["ramyip._walk_term_raw"]),
    ("ramyip.term_calls", "count", ["ramyip._walk_term_raw"],
     lambda st: st.calls["ramyip._walk_term_raw"]),
    ("ramyip.enum_s", "s", ["ramyip.walk_shard"],
     lambda st: st.self_time["ramyip.walk_shard"]),
    # filling terms, enumeration and counting: wall_s on fill
    ("fillings.term_s", "s", ["fillings._term_raw"],
     lambda st: st.total["fillings._term_raw"]),
    ("fillings.term_calls", "count", ["fillings._term_raw"],
     lambda st: st.calls["fillings._term_raw"]),
    ("fillings.enum_s", "s", ["fillings.compressed_shard", "fillings.compressed_sum"],
     lambda st: st.self_time["fillings.compressed_shard"]
     + st.self_time["fillings.compressed_sum"]),
    ("fillings.count_s", "s", ["fillings._count_values"],
     lambda st: st.total["fillings._count_values"]),
    # process pools: wall_s, cpu_s and peak_rss_mb on fill
    ("parallel.wall_s", "s", list(PARALLEL_ENTRIES),
     lambda st: sum(st.total[name] for name in PARALLEL_ENTRIES)),
    ("parallel.shards", "count", list(WORKERS),
     lambda st: sum(st.calls[name] for name in WORKERS)),
    ("parallel.merge_s", "s", list(PARALLEL_ENTRIES) + ["qt.ContentAccumulator.add_lifted"],
     lambda st: st.total["qt.ContentAccumulator.add_lifted"]),
    # fiber grouping and class sums: wall_s and peak_rss_mb on verify
    ("compression.group_s", "s", ["compression.group_fibers"],
     lambda st: st.total["compression.group_fibers"]),
    ("compression.pairs", "count", ["compression.group_fibers"],
     lambda st: st.pairs),
    ("compression.fibers", "count", ["compression.group_fibers"],
     lambda st: st.fibers),
    ("compression.class_sum_s", "s", ["compression.class_sum"],
     lambda st: st.total["compression.class_sum"]),
    ("compression.class_calls", "count", ["compression.class_sum"],
     lambda st: st.calls["compression.class_sum"]),
    # oracle stages: wall_s on verify
    ("oracle.p2m_s", "s", ["oracle.power_in_monomials"],
     lambda st: st.total["oracle.power_in_monomials"]),
    ("oracle.invert_s", "s", ["oracle._invert"],
     lambda st: st.total["oracle._invert"]),
    ("oracle.solve_s", "s", ["oracle._solve"],
     lambda st: st.total["oracle._solve"]),
    ("oracle.schur_s", "s", ["oracle.schur_oracle"],
     lambda st: st.total["oracle.schur_oracle"]),
    ("oracle.point_yield", "ratio", ["oracle.macdonald_oracle"],
     lambda st: _ratio(st.calls["oracle.macdonald_oracle"]
                       - st.errors["oracle.macdonald_oracle"],
                       st.calls["oracle.macdonald_oracle"])),
    # JSON emission: wall_s on fill
    ("cli.emit_s", "s", ["cli._emit_symfun"],
     lambda st: st.total["cli._emit_symfun"]),
]
# chain.build_s (setup_s on every workload) is read from the traced set-up.
SETUP_METRIC = ("chain.build_s", "s", ["chain.build_chain"],
                lambda st: st.total["chain.build_chain"])


class Tracer:
    """Installs and removes the timing wrappers; owns the live Stats."""

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.stats = Stats()
        self.patches: list[tuple[object, str, object, object]] = []
        self.absent: list[str] = []
        for hook in HOOKS:
            name = f"{hook.module}.{hook.path}"
            owner, attr, original = _resolve(hook.module, hook.path)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, hook)
            if hook.worker:
                wrapper = self._wrap_worker(wrapper)
            for target in _holders(owner, attr, original):
                self.patches.append((target, attr, original, wrapper))

    def install(self) -> None:
        for target, attr, _original, wrapper in self.patches:
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original, _wrapper in self.patches:
            setattr(target, attr, original)

    def collect(self) -> Stats:
        """Take this process's Stats plus every worker's spooled Stats."""
        merged, self.stats = self.stats, Stats()
        for path in sorted(self.spool.glob("*.pkl")):
            with open(path, "rb") as fh:
                merged.merge(pickle.load(fh))
            path.unlink()
        return merged

    def _wrap(self, name: str, fn, hook: Hook):
        tracer = self
        perf = time.perf_counter
        keep_span, observe, callers = hook.spans, hook.observe, hook.callers

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer.stats
            stack = st.stack
            if callers and not (stack and stack[-1][0] in callers):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            failed = True
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                dt = perf() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                st.calls[name] += 1
                st.total[name] += dt
                st.self_time[name] += dt - frame[1]
                if failed:
                    st.errors[name] += 1
                if keep_span:
                    st.spans.append((name, parent and parent[0], os.getpid(), t0, t0 + dt))
                if observe is not None and not failed:
                    try:
                        observe(st, args, result)
                    except Exception:
                        # the program changed shape; its metrics read absent
                        st.broken.add(name)
                if parent is not None:
                    parent[1] += perf() - t0
            return result

        return wrapper

    def _wrap_worker(self, traced):
        """Run a pool task on fresh Stats and spool them for the parent."""
        tracer = self

        @functools.wraps(traced)
        def worker(*args, **kwargs):
            inherited, tracer.stats = tracer.stats, Stats()
            try:
                return traced(*args, **kwargs)
            finally:
                own, tracer.stats = tracer.stats, inherited
                path = tracer.spool / f"{os.getpid()}-{uuid.uuid4().hex}.pkl"
                with open(path, "wb") as fh:
                    pickle.dump(own, fh)

        return worker


def _resolve(module: str, path: str):
    """(owner, attribute, current value) of a hook, or a None value if gone."""
    try:
        owner = importlib.import_module(f"macdonald.{module}")
    except ImportError:
        return None, None, None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    return owner, attr, getattr(owner, attr, None)


def _holders(owner, attr: str, original) -> list:
    """The owner plus every other macdonald module that bound the same object."""
    if isinstance(owner, type):
        return [owner]
    out = [owner]
    for name, module in sorted(sys.modules.items()):
        if (name.startswith("macdonald.") and module is not owner
                and getattr(module, attr, None) is original):
            out.append(module)
    return out


def layer_metrics(st: Stats, absent: list[str]) -> dict[str, float]:
    """Values of every per-layer metric whose hooks all worked."""
    gone = set(absent) | st.broken
    return {name: value(st) for name, _unit, hooks, value in LAYER_METRICS
            if not gone.intersection(hooks)}
