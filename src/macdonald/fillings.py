"""Nonattacking fillings of a Young diagram and their q,t-statistics.

Diagrams are drawn Japanese style: cell (i, j) sits in row i, column j, with
column 1 rightmost.  Two cells attack each other when they share a column, or
when they lie in consecutive columns with the left-column cell strictly above
the right-column cell -- for u = (i, j) and v = (k, j-1) that means i < k.
(The Haglund-Haiman-Loehr convention uses the opposite inequality i > k in
the consecutive-column case; it is supported here only for counting.)

The reading order runs through columns right to left (column 1 first), top to
bottom within a column.  Statistics:

  Des(sigma)  = cells whose entry exceeds the entry of the cell to their left,
  Diff(sigma) = cells whose entry differs from the entry to their left,
  Inv(sigma)  = attacking pairs u before v in reading order with
                sigma(u) > sigma(v),
  maj(sigma)  = sum of arms over Des,
  inv(sigma)  = |Inv(sigma)| - sum of legs over Des.

The compressed formula for the Macdonald polynomial P_lambda(X;q,t) sums
t^(n(lambda)-inv) q^maj prod_{u in Diff} (1-t)/(1-q^arm(u) t^(leg(u)+1))
x^content over all nonattacking fillings; its terms are exactly the fiber
sums of the alcove-walk formula under the filling map.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .chain import Partition
from .qt import (
    Content,
    ContentAccumulator,
    DenomFactor,
    RationalQT,
    SymFun,
    term_value,
)
from .ramyip import TermCapExceeded, term_cap

Cell = tuple[int, int]


class AttackViolation(ValueError):
    """A filling assigns equal values to an attacking pair of cells."""


def attacks(u: Cell, v: Cell) -> bool:
    """Symmetric attack predicate under this module's convention."""
    (i, j), (k, l) = u, v
    if j == l:
        return i != k
    if j == l + 1:
        return i < k
    if l == j + 1:
        return k < i
    return False


def reading_precedes(u: Cell, v: Cell) -> bool:
    """Strictly earlier in reading order: smaller column first, then row."""
    return (u[1], u[0]) < (v[1], v[0])


class Shape:
    """Precomputed cell geometry of a partition diagram."""

    __slots__ = (
        "parts", "nrows", "conjugate", "cells", "pos",
        "left_index", "diff_factor", "attackers", "attackers_hhl", "n_lambda",
    )

    def __init__(self, partition: Partition):
        self.parts = partition.parts
        self.conjugate = partition.conjugate
        self.nrows = self.conjugate[0]
        self.cells = tuple(
            (i, j)
            for j in range(1, self.parts[0] + 1)
            for i in range(1, self.conjugate[j - 1] + 1)
        )
        self.pos = {cell: idx for idx, cell in enumerate(self.cells)}
        # index of (i, j+1), the cell to the LEFT, or -1
        self.left_index = tuple(
            self.pos.get((i, j + 1), -1) for (i, j) in self.cells
        )
        # the factor (arm, leg + 1) a cell contributes when it is in Diff
        self.diff_factor = tuple(
            (self.arm(cell), self.leg(cell) + 1) for cell in self.cells
        )
        self.attackers = self._attacker_lists(hhl=False)
        self.attackers_hhl = self._attacker_lists(hhl=True)
        self.n_lambda = sum((i - 1) * p for i, p in enumerate(self.parts, start=1))

    def _attacker_lists(self, hhl: bool) -> tuple[tuple[int, ...], ...]:
        """For each cell, the reading-earlier cells attacking it."""
        out = []
        for idx, (i, j) in enumerate(self.cells):
            prev = []
            for kdx in range(idx):
                k, l = self.cells[kdx]
                if l == j and k < i:
                    prev.append(kdx)
                elif l == j - 1:
                    # (i, j) is in the left column of the pair
                    if (i > k) if hhl else (i < k):
                        prev.append(kdx)
            out.append(tuple(prev))
        return tuple(out)

    def arm(self, cell: Cell) -> int:
        return self.parts[cell[0] - 1] - cell[1]

    def leg(self, cell: Cell) -> int:
        return self.conjugate[cell[1] - 1] - cell[0]


@lru_cache(maxsize=None)
def shape_of(parts: tuple[int, ...]) -> Shape:
    return Shape(Partition(parts))


@dataclass(frozen=True)
class Filling:
    """Values on the cells of a diagram, stored in reading order."""

    parts: tuple[int, ...]
    n: int
    values: tuple[int, ...]

    @property
    def shape(self) -> Shape:
        return shape_of(self.parts)

    def __getitem__(self, cell: Cell) -> int:
        return self.values[self.shape.pos[cell]]

    def content(self) -> Content:
        counts = [0] * self.n
        for v in self.values:
            counts[v - 1] += 1
        return tuple(counts)

    def is_nonattacking(self) -> bool:
        vals, shape = self.values, self.shape
        return all(
            vals[idx] != vals[kdx]
            for idx in range(len(vals))
            for kdx in shape.attackers[idx]
        )

    def render(self) -> str:
        """Rows in Japanese layout, leftmost column = largest j."""
        rows = []
        for i in range(1, self.shape.nrows + 1):
            width = self.parts[i - 1]
            rows.append(" ".join(str(self[(i, j)]) for j in range(width, 0, -1)))
        return "\n".join(rows)


@dataclass(frozen=True)
class FillingStats:
    des: frozenset[Cell]
    diff: frozenset[Cell]
    inv_pairs: frozenset[tuple[Cell, Cell]]
    maj: int
    inv: int
    content: Content


def filling_stats(sigma: Filling) -> FillingStats:
    shape = sigma.shape
    vals = sigma.values
    des, diff = [], []
    for idx, cell in enumerate(shape.cells):
        lft = shape.left_index[idx]
        if lft < 0:
            continue
        if vals[idx] != vals[lft]:
            diff.append(cell)
            if vals[idx] > vals[lft]:
                des.append(cell)
    inv_pairs = [
        (shape.cells[kdx], shape.cells[idx])
        for idx in range(len(vals))
        for kdx in shape.attackers[idx]
        if vals[kdx] > vals[idx]
    ]
    maj = sum(shape.arm(c) for c in des)
    inv = len(inv_pairs) - sum(shape.leg(c) for c in des)
    return FillingStats(
        des=frozenset(des),
        diff=frozenset(diff),
        inv_pairs=frozenset(inv_pairs),
        maj=maj,
        inv=inv,
        content=sigma.content(),
    )


def _enumerate_values(
    shape: Shape, n: int, attackers: tuple[tuple[int, ...], ...],
    prefix: tuple[int, ...] = (),
) -> Iterator[tuple[int, ...]]:
    """All admissible value tuples extending prefix, lexicographically."""
    ncells = len(shape.cells)
    chosen = list(prefix) + [0] * (ncells - len(prefix))

    def rec(idx: int) -> Iterator[tuple[int, ...]]:
        if idx == ncells:
            yield tuple(chosen)
            return
        banned = {chosen[kdx] for kdx in attackers[idx]}
        for v in range(1, n + 1):
            if v not in banned:
                chosen[idx] = v
                yield from rec(idx + 1)
        chosen[idx] = 0

    for kdx in range(len(prefix)):
        if any(chosen[kdx] == chosen[a] for a in attackers[kdx]):
            return
    yield from rec(len(prefix))


def enumerate_nonattacking(lam: Partition, n: int) -> Iterator[Filling]:
    """Every nonattacking filling exactly once, in reading-order-lex order."""
    shape = shape_of(lam.parts)
    for values in _enumerate_values(shape, n, shape.attackers):
        yield Filling(lam.parts, n, values)


def _count_values(
    shape: Shape, n: int, attackers: tuple[tuple[int, ...], ...],
    prefix: tuple[int, ...] = (),
) -> int:
    """Backtracking count of admissible value tuples extending prefix."""
    ncells = len(shape.cells)
    chosen = list(prefix) + [0] * (ncells - len(prefix))
    full_mask = (1 << (n + 1)) - 2      # bits 1..n

    def rec(idx: int) -> int:
        banned = 0
        for kdx in attackers[idx]:
            banned |= 1 << chosen[kdx]
        free = full_mask & ~banned
        if idx == ncells - 1:
            return free.bit_count()
        total = 0
        for v in range(1, n + 1):
            if free & (1 << v):
                chosen[idx] = v
                total += rec(idx + 1)
        return total

    for kdx in range(len(prefix)):
        if any(chosen[kdx] == chosen[a] for a in attackers[kdx]):
            return 0
    if ncells == len(prefix):
        return 1
    return rec(len(prefix))


def check_filling_cap(lam: Partition, n: int, cap: int | None = None) -> int:
    """Bound the fillings before any work starts; raise past the term cap.

    Under either attack convention the cells of a column attack each other,
    so a nonattacking filling is column-injective and there are at most
    prod_j n!/(n - lambda'_j)! of them.  Returns that bound; stops
    multiplying as soon as it passes the cap.
    """
    cap = term_cap() if cap is None else cap
    total = 1
    for height in lam.conjugate:
        total *= math.perm(n, height)
        if total > cap:
            raise TermCapExceeded(
                f"more than {cap} column-injective fillings of {lam.parts} "
                f"exceed the term cap {cap}"
            )
    return total


def count_nonattacking(lam: Partition, n: int, convention: str = "paper") -> int:
    """Number of nonattacking fillings under either attack convention."""
    check_filling_cap(lam, n)
    shape = shape_of(lam.parts)
    if convention == "paper":
        attackers = shape.attackers
    elif convention == "hhl":
        attackers = shape.attackers_hhl
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return _count_values(shape, n, attackers)


def hhl_nonattacking_count(lam: Partition, n: int) -> int:
    return count_nonattacking(lam, n, convention="hhl")


def column_prefixes(lam: Partition, n: int,
                    convention: str = "paper") -> list[tuple[int, ...]]:
    """Admissible assignments of the first column, used as work shards."""
    shape = shape_of(lam.parts)
    attackers = shape.attackers if convention == "paper" else shape.attackers_hhl
    height = shape.conjugate[0]
    prefixes: list[tuple[int, ...]] = []

    def rec(acc: list[int]) -> None:
        if len(acc) == height:
            prefixes.append(tuple(acc))
            return
        banned = {acc[k] for k in attackers[len(acc)]}
        for v in range(1, n + 1):
            if v not in banned:
                acc.append(v)
                rec(acc)
                acc.pop()

    rec([])
    return prefixes


def _term_raw(shape: Shape, vals: tuple[int, ...], n: int):
    """Bare numerator, denominator multiset, and content of one filling term.

    The numerator is the monomial q^maj t^(n(lambda)-inv) alone; the term's
    value is num * (1-t)^|den| / prod(den) (see ``qt.term_value``).
    """
    attackers, left_index, diff_factor = (
        shape.attackers, shape.left_index, shape.diff_factor
    )
    diff_factors: list[DenomFactor] = []
    maj = 0
    inv_count = 0
    leg_des = 0
    for idx, v in enumerate(vals):
        for kdx in attackers[idx]:
            if vals[kdx] > v:
                inv_count += 1
        lft = left_index[idx]
        if lft < 0 or v == vals[lft]:
            continue
        a, b = factor = diff_factor[idx]
        diff_factors.append(factor)
        if v > vals[lft]:
            maj += a
            leg_des += b - 1
    inv = inv_count - leg_des
    counts = [0] * n
    for v in vals:
        counts[v - 1] += 1
    return {(maj, shape.n_lambda - inv): 1}, Counter(diff_factors), tuple(counts)


def compressed_term(sigma: Filling) -> tuple[RationalQT, Content]:
    """The coefficient and content of one nonattacking filling's term."""
    if not sigma.is_nonattacking():
        raise AttackViolation("filling has an attacking pair with equal values")
    num, den, content = _term_raw(sigma.shape, sigma.values, sigma.n)
    return term_value(num, den), content


def diagram_denominator(shape: Shape) -> list[DenomFactor]:
    """All possible Diff factors: one per cell with a left neighbour."""
    return [
        factor
        for factor, lft in zip(shape.diff_factor, shape.left_index)
        if lft >= 0
    ]


def compressed_shard(lam: Partition, n: int,
                     prefixes: list[tuple[int, ...]]) -> ContentAccumulator:
    """Accumulate filling terms whose first column matches one of prefixes.

    Terms are grouped by denominator multiset and content over the whole
    shard, and each group is lifted once when the shard ends.
    """
    shape = shape_of(lam.parts)
    acc = ContentAccumulator(diagram_denominator(shape))
    for prefix in prefixes:
        for vals in _enumerate_values(shape, n, shape.attackers, prefix):
            num, den, content = _term_raw(shape, vals, n)
            acc.add(content, num, den)
    acc.flush()
    return acc


def compressed_sum(lam: Partition, n: int, jobs: int = 1) -> SymFun:
    """Macdonald P_lambda via the nonattacking-filling formula."""
    if n != lam.n:
        raise ValueError(f"n={n} does not match partition {lam.parts}")
    check_filling_cap(lam, n)
    if jobs > 1:
        from .parallel import parallel_compressed_sum

        return parallel_compressed_sum(lam, n, jobs)
    return compressed_shard(lam, n, column_prefixes(lam, n)).finalize()
