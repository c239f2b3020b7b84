"""Deterministic sharding of the exponential enumerations.

Both sums follow one pattern: split the work into shards by a fixed rule
(permutations for the walk formula, first-column assignments for fillings),
evaluate the shards, and merge the partial results in shard order.  A serial
sum is simply one shard, evaluated in the calling process; more shards run
in a process pool, one worker per shard.  The parent fixes the packed window
of the whole computation and ships it with every task, so each shard returns
one packed integer per content and the merge adds integers: the merged
result is bit-identical whatever the scheduling or the worker count.
Counting is a transfer-matrix push that takes milliseconds, so it always
runs in the calling process as one shard.
"""

from __future__ import annotations

import os
from multiprocessing import get_context

from .chain import Partition, cached_chain
from .fillings import (
    check_filling_cap,
    column_prefixes,
    compressed_shard,
    count_nonattacking,
    filling_window,
)
from .qt import Content, ContentAccumulator, PackedWindow, SymFun
from .ramyip import check_term_cap, walk_shard, walk_window
from .weyl import all_perms


def resolve_jobs(requested: int | None) -> int:
    """Worker count: requested, else MACDONALD_JOBS, else 1; clamped to the CPUs."""
    if requested is None:
        raw = os.environ.get("MACDONALD_JOBS", "") or "1"
        try:
            requested = int(raw)
        except ValueError:
            raise ValueError(f"MACDONALD_JOBS must be an integer, got {raw!r}") from None
    return max(1, min(requested, os.cpu_count() or 1))


def _chunks(items: list, k: int) -> list[list]:
    k = max(1, min(k, len(items)))
    size, extra = divmod(len(items), k)
    out, at = [], 0
    for i in range(k):
        step = size + (1 if i < extra else 0)
        out.append(items[at:at + step])
        at += step
    return [c for c in out if c]


def _merge_into(acc: ContentAccumulator, shard_sums) -> None:
    """Add each shard's packed sums to acc as it arrives, in shard order.

    Each sum leaves its shard's dict as it is added, so the parent holds the
    merged sums and at most one shard's that are not yet merged.
    """
    for sums in shard_sums:
        while sums:
            acc.add_lifted(*sums.popitem())


def _sum_shards(window: PackedWindow, worker, tasks: list) -> SymFun:
    """Map worker over the shards' tasks, merge their sums in order, finalize.

    One shard runs in the calling process; more run in a pool.
    """
    acc = ContentAccumulator(window)
    if len(tasks) <= 1:
        _merge_into(acc, map(worker, tasks))
    else:
        with get_context().Pool(len(tasks)) as pool:
            _merge_into(acc, pool.imap(worker, tasks))
    return acc.finalize()


def _ry_worker(args) -> dict[Content, int]:
    parts, perms, window = args
    return walk_shard(cached_chain(parts), perms, window).packed


def parallel_ram_yip_sum(lam: Partition, n: int, jobs: int) -> SymFun:
    """The walk sum over the permutations, split into up to jobs shards.

    The chain is built once, by ``cached_chain``: the in-process shard reads
    the parent's, and a forked worker inherits it.
    """
    check_term_cap(lam)
    window = walk_window(cached_chain(lam.parts))
    return _sum_shards(window, _ry_worker, [(lam.parts, s, window)
                                            for s in _chunks(all_perms(n), jobs)])


def _fill_worker(args) -> dict[Content, int]:
    parts, n, prefixes, window = args
    return compressed_shard(Partition(parts), n, prefixes, window).packed


def parallel_compressed_sum(lam: Partition, n: int, jobs: int) -> SymFun:
    """The filling sum over the first columns, split into up to jobs shards.

    The filling cap is checked from the parts, before any shape is built.
    """
    check_filling_cap(lam, n)
    window = filling_window(lam, n)
    return _sum_shards(window, _fill_worker,
                       [(lam.parts, n, s, window)
                        for s in _chunks(column_prefixes(lam, n), jobs)])


def _count_worker(args) -> int:
    parts, n, convention = args
    return count_nonattacking(Partition(parts), n, convention)


def parallel_count(lam: Partition, n: int, convention: str) -> int:
    """The number of nonattacking fillings, counted here as one shard.

    ``count_nonattacking`` does the work; this entry point and its worker
    remain as the names the benchmark's tracer times counting by.
    """
    return _count_worker((lam.parts, n, convention))
