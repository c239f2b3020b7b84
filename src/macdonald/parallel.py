"""Deterministic multiprocess sharding for the exponential enumerations.

All parallel paths follow one pattern: split the work into shards by a fixed
rule (permutations for the walk formula, first-column assignments for
fillings), evaluate shards in worker processes, and merge the partial results
in shard order.  Because per-content accumulation is a plain integer-dict sum
over a shared denominator, the merged result is bit-identical to the serial
one regardless of scheduling or worker count.
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
    diagram_denominator,
    shape_of,
)
from .qt import ContentAccumulator, SymFun
from .ramyip import chain_denominator, check_term_cap, walk_shard
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
    """Add each shard's lifted sums to acc as it arrives, in shard order.

    A shard's dict is dropped before the next one is awaited, so the parent
    holds the merged sums and at most two shards' (one arriving).
    """
    for sums in shard_sums:
        for content, num in sums.items():
            acc.add_lifted(content, num)
        sums = num = None


def _ry_worker(args) -> dict:
    parts, perms = args
    chain = build_chain(Partition(parts))
    return walk_shard(chain, perms).sums


def parallel_ram_yip_sum(lam: Partition, n: int, jobs: int) -> SymFun:
    chain = build_chain(lam)
    check_term_cap(chain)
    shards = _chunks(all_perms(n), jobs)
    acc = ContentAccumulator(chain_denominator(chain))
    with get_context().Pool(len(shards)) as pool:
        _merge_into(acc, pool.imap(_ry_worker, [(lam.parts, s) for s in shards]))
    return acc.finalize()


def _fill_worker(args) -> dict:
    parts, n, prefixes = args
    return compressed_shard(Partition(parts), n, prefixes).sums


def parallel_compressed_sum(lam: Partition, n: int, jobs: int) -> SymFun:
    shape = shape_of(lam.parts)
    shards = _chunks(column_prefixes(lam, n), jobs)
    acc = ContentAccumulator(diagram_denominator(shape))
    with get_context().Pool(len(shards)) as pool:
        _merge_into(acc, pool.imap(_fill_worker, [(lam.parts, n, s) for s in shards]))
    return acc.finalize()


def _count_worker(args) -> int:
    parts, n, convention, prefixes = args
    return _count_values(column_table(parts, n, convention), prefixes)


def parallel_count(lam: Partition, n: int, convention: str, jobs: int) -> int:
    check_filling_cap(lam, n)
    if jobs <= 1:
        from .fillings import count_nonattacking

        return count_nonattacking(lam, n, convention)
    shards = _chunks(column_prefixes(lam, n, convention), jobs)
    with get_context().Pool(len(shards)) as pool:
        return sum(
            pool.map(_count_worker,
                     [(lam.parts, n, convention, s) for s in shards])
        )
