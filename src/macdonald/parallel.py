"""Deterministic multiprocess sharding for the exponential enumerations.

Both sums follow one pattern: split the work into shards by a fixed rule
(permutations for the walk formula, first-column assignments for fillings),
evaluate shards in worker processes, and merge the partial results in shard
order.  The parent fixes the packed window of the whole computation and
ships it with every task, so each shard returns one packed integer per
content and the merge adds integers: the merged result is bit-identical to
the serial one regardless of scheduling or worker count.  Counting is a
transfer-matrix push that takes milliseconds, so it runs in the calling
process as one shard.
"""

from __future__ import annotations

import os
from multiprocessing import get_context

from .chain import Partition, build_chain
from .fillings import (
    _count_values,
    check_filling_cap,
    column_prefixes,
    column_table,
    compressed_shard,
    filling_window,
)
from .qt import Content, ContentAccumulator, SymFun
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

    A shard's dict is dropped before the next one is awaited, so the parent
    holds the merged sums and at most two shards' (one arriving).
    """
    for sums in shard_sums:
        for content, value in sums.items():
            acc.add_lifted(content, value)
        sums = value = None


def _ry_worker(args) -> dict[Content, int]:
    parts, perms, window = args
    return walk_shard(build_chain(Partition(parts)), perms, window).packed


def parallel_ram_yip_sum(lam: Partition, n: int, jobs: int) -> SymFun:
    chain = build_chain(lam)
    check_term_cap(chain)
    window = walk_window(chain)
    shards = _chunks(all_perms(n), jobs)
    acc = ContentAccumulator(window)
    with get_context().Pool(len(shards)) as pool:
        _merge_into(acc, pool.imap(_ry_worker,
                                   [(lam.parts, s, window) for s in shards]))
    return acc.finalize()


def _fill_worker(args) -> dict[Content, int]:
    parts, n, prefixes, window = args
    return compressed_shard(Partition(parts), n, prefixes, window).packed


def parallel_compressed_sum(lam: Partition, n: int, jobs: int) -> SymFun:
    window = filling_window(lam, n)
    shards = _chunks(column_prefixes(lam, n), jobs)
    acc = ContentAccumulator(window)
    with get_context().Pool(len(shards)) as pool:
        _merge_into(acc, pool.imap(_fill_worker,
                                   [(lam.parts, n, s, window) for s in shards]))
    return acc.finalize()


def _count_worker(args) -> int:
    parts, n, convention, prefixes = args
    return _count_values(column_table(parts, n, convention), prefixes)


def parallel_count(lam: Partition, n: int, convention: str) -> int:
    """The number of nonattacking fillings, counted here as one shard."""
    check_filling_cap(lam, n)
    return _count_worker((lam.parts, n, convention,
                          column_prefixes(lam, n, convention)))
