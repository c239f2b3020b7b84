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

Attacks and every statistic couple only a column and its neighbour, so the
fillings are walks through a ``ColumnTable``: states are one column's value
tuple, steps go to the admissible tuples of the next column and carry their
share of the statistics (the transfer-matrix method, Stanley, EC I 4.7).
One depth-first walk, ``_walk``, yields each filling's values and running
packed statistics in reading-order-lex order: enumeration keeps the values,
and the filling sum has ``_term_raw`` decode each total once
(``_filling_total`` re-walks a given value tuple).  Counting pushes a
vector of first columns through the steps.  Tables are built lazily, only
as far as the walk reaches, per (parts, n, convention) by the cached
``column_table``; callers check the filling cap first.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .chain import Partition
from .qt import (
    Content,
    ContentAccumulator,
    DenomFactor,
    PackedWindow,
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
        """For each cell, the reading-earlier cells attacking it, in order.

        Those are the cells of the previous column that attack it, then the
        cells above it in its own column; no other cell can attack it.
        """
        pos = self.pos
        out = []
        for i, j in self.cells:
            if j == 1:
                rows = range(0)
            elif hhl:
                rows = range(1, min(i, self.conjugate[j - 2] + 1))
            else:
                # (i, j) is in the left column of the pair
                rows = range(i + 1, self.conjugate[j - 2] + 1)
            out.append(tuple(pos[(k, j - 1)] for k in rows)
                       + tuple(pos[(k, j)] for k in range(1, i)))
        return tuple(out)

    def arm(self, cell: Cell) -> int:
        return self.parts[cell[0] - 1] - cell[1]

    def leg(self, cell: Cell) -> int:
        return self.conjugate[cell[1] - 1] - cell[0]


@lru_cache(maxsize=None)
def shape_of(parts: tuple[int, ...]) -> Shape:
    return Shape(Partition(parts))


@dataclass(frozen=True, slots=True)
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


def check_filling_cap(lam: Partition, n: int) -> int:
    """Bound the fillings before any work starts; raise past the term cap.

    Under either attack convention the cells of a column attack each other,
    so a nonattacking filling is column-injective and there are at most
    prod_j n!/(n - lambda'_j)! of them.  Returns that bound.  It is one
    power per run of the conjugate (``Partition.conjugate_runs``), and it
    stops as soon as the product passes the cap.  Each factor is at least
    2, so a run as long as the cap's bit length passes it alone: no power
    is formed for a run as long as a huge lambda_1.
    """
    cap = term_cap()
    total = 1
    for height, count in lam.conjugate_runs():
        total *= math.perm(n, height) ** min(count, cap.bit_length())
        if total > cap:
            raise TermCapExceeded(
                f"more than {cap} column-injective fillings of {lam.parts} "
                f"exceed the term cap {cap}"
            )
    return total


class _State:
    """One column's value tuple, with its admissible steps to the next column."""

    __slots__ = ("values", "column", "weight", "succ")

    def __init__(self, values: tuple[int, ...], column: int, weight: int):
        self.values = values
        self.column = column
        self.weight = weight
        # {next column's values: (packed weight of the step, next state)},
        # in lexicographic order; None until the state is first visited
        self.succ: dict[tuple[int, ...], tuple[int, _State]] | None = None


class ColumnTable:
    """The column states and transitions of one shape's nonattacking fillings.

    Cells attack only within a column or across adjacent columns, so a
    filling is a sequence of column value tuples, column 1 first, in which
    each column is admissible given the one before it.  A state is one
    column's tuple; its successors are the admissible tuples of the next
    column, in lexicographic order, so walking the states depth first yields
    the fillings in reading-order-lex order.  States are made when first
    reached and their successors are built on the first visit, so the table
    never holds more than the walk over it reaches.

    Every statistic of the compressed term is a sum of per-column and
    per-step parts: a column's content and inversions among its own cells;
    a step's inversions across the two columns, its Diff cells, and the arms
    and legs of its Des cells.  Each state and each step carries its part as
    one packed integer with four fields, low to high: maj, a bit per Diff
    cell, a count per value, and on top the t-exponent ``n(lambda) - inv``.
    A step's weight includes the next state's own part, so a filling's
    packed statistics are its first state's weight plus its steps' weights.
    The lower fields only grow and a complete filling's sums fit their
    widths; the top field may take any sign, and the arithmetic shift reads
    it back exactly.

    ``dens`` and ``contents`` memoise the decoded Diff multisets (one shared
    ``Counter`` per multiset) and content tuples.  The table is built per
    ``(parts, n, convention)`` by ``column_table`` and held only by its
    cache; the statistics follow the convention's attack relation, and only
    the paper convention's are terms of the compressed formula.
    """

    def __init__(self, parts: tuple[int, ...], n: int, convention: str):
        shape = shape_of(parts)
        if convention == "paper":
            attackers = shape.attackers
        elif convention == "hhl":
            attackers = shape.attackers_hhl
        else:
            raise ValueError(f"unknown convention {convention!r}")
        self.n = n
        self.n_lambda = shape.n_lambda
        self.diff_factor = shape.diff_factor
        heights = shape.conjugate
        self.starts = starts = [0, *itertools.accumulate(heights)]
        self.first_height = heights[0]
        self.slices = tuple(zip(starts[1:-1], starts[2:]))
        # per column and row: the rows of the previous column and of the same
        # column whose cells attack this one (all read earlier)
        self.rows = tuple(
            tuple(
                (tuple(k - starts[j - 1] for k in attackers[idx] if k < starts[j]),
                 tuple(k - starts[j] for k in attackers[idx] if k >= starts[j]))
                for idx in range(starts[j], starts[j + 1])
            )
            for j in range(len(heights))
        )
        self.states: list[dict[tuple[int, ...], _State]] = [{} for _ in heights]
        self.dens: dict[int, Counter] = {}
        self.contents: dict[int, Content] = {}
        self._den_by_multiset: dict[tuple[DenomFactor, ...], Counter] = {}

        inner = [f for f, lft in zip(shape.diff_factor, shape.left_index) if lft >= 0]
        self.dshift = sum(a for a, _b in inner).bit_length()    # maj is lowest
        self.cshift = self.dshift + len(shape.cells)
        self.cbits = len(heights).bit_length()   # a value fills <= 1 cell per column
        self.tshift = self.cshift + self.cbits * n
        self.mmask = (1 << self.dshift) - 1
        self.dmask = (1 << len(shape.cells)) - 1
        self.cmask = (1 << (self.tshift - self.cshift)) - 1

    def column_tuples(self, j: int, left: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """Admissible tuples of column j after ``left``, lexicographically."""
        rows = self.rows[j]
        height = len(rows)
        banned = [{left[k] for k in prev} for prev, _above in rows]
        chosen = [0] * height
        values = range(1, self.n + 1)

        def rec(i: int) -> Iterator[tuple[int, ...]]:
            bad = banned[i].union([chosen[k] for k in rows[i][1]])
            for v in values:
                if v not in bad:
                    chosen[i] = v
                    if i + 1 == height:
                        yield tuple(chosen)
                    else:
                        yield from rec(i + 1)

        return rec(0)

    def _column_weight(self, j: int, d: tuple[int, ...]) -> int:
        """Packed content and within-column inversions of tuple d in column j."""
        t_exp = self.n_lambda if j == 0 else 0
        weight = 0
        for (_prev, above), v in zip(self.rows[j], d):
            weight += 1 << (self.cshift + self.cbits * (v - 1))
            t_exp -= sum(1 for k in above if d[k] > v)
        return weight + (t_exp << self.tshift)

    def _step_weight(self, j: int, c: tuple[int, ...], d: tuple[int, ...]) -> int:
        """Packed statistics of the step from c in column j to d in column j+1.

        Columns are counted from 0 here.  Row i of the step pairs a cell of
        column j with its left neighbour in column j+1: the cell is in Diff
        when the two values differ, and in Des when its own is the larger.
        """
        weight = t_exp = 0
        for i, ((prev, _above), v) in enumerate(zip(self.rows[j + 1], d)):
            t_exp -= sum(1 for k in prev if c[k] > v)
            u = c[i]
            if u != v:
                idx = self.starts[j] + i
                weight += 1 << (self.dshift + idx)
                if u > v:
                    arm, leg = self.diff_factor[idx]
                    weight += arm
                    t_exp += leg - 1
        return weight + (t_exp << self.tshift)

    def first_state(self, values: tuple[int, ...]) -> _State:
        """The state of a first-column tuple; raises if it is not admissible."""
        state = self.states[0].get(values)
        if state is None:
            rows = self.rows[0]
            if len(values) != len(rows) or any(
                not 1 <= v <= self.n or any(values[k] == v for k in above)
                for (_prev, above), v in zip(rows, values)
            ):
                raise AttackViolation(f"first column {values} is not admissible")
            state = self.states[0][values] = _State(
                values, 0, self._column_weight(0, values))
        return state

    def successors(self, state: _State) -> dict[tuple[int, ...], tuple[int, _State]]:
        """The state's steps to the next column, built on the first visit."""
        succ = state.succ
        if succ is None:
            j, c = state.column, state.values
            states = self.states[j + 1]
            succ = state.succ = {}
            for d in self.column_tuples(j + 1, c):
                nxt = states.get(d)
                if nxt is None:
                    nxt = states[d] = _State(d, j + 1, self._column_weight(j + 1, d))
                succ[d] = (self._step_weight(j, c, d) + nxt.weight, nxt)
        return succ

    def den(self, diff: int) -> Counter:
        """The Diff multiset of a Diff-cell bit mask, one Counter per multiset."""
        factors = tuple(sorted(self.diff_factor[idx] for idx in range(diff.bit_length())
                               if diff >> idx & 1))
        den = self._den_by_multiset.get(factors)
        if den is None:
            den = self._den_by_multiset[factors] = Counter(factors)
        self.dens[diff] = den
        return den

    def content(self, counts: int) -> Content:
        """The content tuple of a packed per-value count field."""
        mask = (1 << self.cbits) - 1
        content = self.contents[counts] = tuple(
            counts >> (self.cbits * v) & mask for v in range(self.n))
        return content


@lru_cache(maxsize=None)
def column_table(parts: tuple[int, ...], n: int, convention: str) -> ColumnTable:
    return ColumnTable(parts, n, convention)


def _walk(table: ColumnTable, firsts: Iterable[tuple[int, ...]]
          ) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every filling whose first column is one of firsts, with its packed total.

    A depth-first walk over the column states with an explicit stack, which
    carries each path's values and running packed statistics (the first
    state's weight plus each step's).  For first columns in lexicographic
    order the fillings come out in reading-order-lex order.
    """
    last = len(table.slices) - 1
    successors = table.successors
    for first in firsts:
        state = table.first_state(first)
        if last < 0:
            yield first, state.weight
            continue
        stack = [(state, first, state.weight, 0)]
        while stack:
            state, head, total, level = stack.pop()
            succ = state.succ
            if succ is None:
                succ = successors(state)
            if level == last:
                for d, (weight, _nxt) in succ.items():
                    yield head + d, total + weight
            else:
                level += 1
                # pushed in reverse, so the fillings come out in reading-order-lex order
                stack.extend([(nxt, head + d, total + weight, level)
                              for d, (weight, nxt) in reversed(succ.items())])


def enumerate_nonattacking(lam: Partition, n: int) -> Iterator[Filling]:
    """Every nonattacking filling exactly once, in reading-order-lex order."""
    table = column_table(lam.parts, n, "paper")
    for values, _total in _walk(table, table.column_tuples(0, ())):
        yield Filling(lam.parts, n, values)


def _count_values(table: ColumnTable, firsts: Iterable[tuple[int, ...]]) -> int:
    """Count the fillings whose first column is one of firsts.

    Transfer-matrix count: a vector of fillings per state, one per first
    column, pushed through each column's steps.
    """
    vector = {table.first_state(first): 1 for first in firsts}
    for _ in table.slices:
        pushed: dict[_State, int] = {}
        for state, count in vector.items():
            for _w, nxt in table.successors(state).values():
                pushed[nxt] = pushed.get(nxt, 0) + count
        vector = pushed
    return sum(vector.values())


def count_nonattacking(lam: Partition, n: int, convention: str = "paper") -> int:
    """Number of nonattacking fillings under either attack convention."""
    check_filling_cap(lam, n)
    table = column_table(lam.parts, n, convention)
    return _count_values(table, table.column_tuples(0, ()))


def column_prefixes(lam: Partition, n: int) -> list[tuple[int, ...]]:
    """Admissible assignments of the first column, used as work shards."""
    return list(column_table(lam.parts, n, "paper").column_tuples(0, ()))


def _filling_total(table: ColumnTable, vals: tuple[int, ...]) -> int:
    """The packed statistics of one value tuple, walked column by column.

    The sum of its first state's weight and its steps' weights in ``table``;
    raises ``AttackViolation`` when a column is not admissible after the one
    before it.
    """
    state = table.first_state(vals[:table.first_height])
    total = state.weight
    try:
        for a, b in table.slices:
            weight, state = table.successors(state)[vals[a:b]]
            total += weight
    except KeyError:
        raise AttackViolation(
            f"filling {vals} has an attacking pair with equal values") from None
    return total


def _term_raw(table: ColumnTable, total: int):
    """Bare numerator, denominator multiset, and content of one filling term.

    ``total`` is the filling's packed statistics in ``table`` (a paper
    convention ``column_table``).  The numerator is the monomial
    q^maj t^(n(lambda)-inv) alone; the term's value is
    num * (1-t)^|den| / prod(den) (see ``qt.term_value``).  The returned
    multiset is shared by every term with the same Diff factors.
    """
    diff = total >> table.dshift & table.dmask
    try:
        den = table.dens[diff]
    except KeyError:
        den = table.den(diff)
    counts = total >> table.cshift & table.cmask
    try:
        content = table.contents[counts]
    except KeyError:
        content = table.content(counts)
    return {(total & table.mmask, total >> table.tshift): 1}, den, content


def compressed_term(sigma: Filling) -> tuple[RationalQT, Content]:
    """The coefficient and content of one nonattacking filling's term."""
    if not sigma.is_nonattacking():
        raise AttackViolation("filling has an attacking pair with equal values")
    table = column_table(sigma.parts, sigma.n, "paper")
    num, den, content = _term_raw(table, _filling_total(table, sigma.values))
    return term_value(num, den), content


def diagram_denominator(shape: Shape) -> list[DenomFactor]:
    """All possible Diff factors: one per cell with a left neighbour."""
    return [
        factor
        for factor, lft in zip(shape.diff_factor, shape.left_index)
        if lft >= 0
    ]


def filling_t_range(shape: Shape) -> tuple[int, int]:
    """The t exponents of filling terms: ``0 .. n(lambda)``.

    A numerator is q^maj t^(n(lambda) - inv), and maj sums arms, so q >= 0;
    inv is |Inv| minus the legs of the Des cells.  Take a cell u = (i, j)
    with a left neighbour l = (i, j+1), and a cell w = (k, j) below it.  w
    attacks both u and l, so in a nonattacking filling its value differs
    from both, and w is read after u and before l.

    * If u is in Des (sigma(u) > sigma(l)), one of (u, w) and (w, l) is an
      inversion, whatever sigma(w) is.  Either pair names its triple, and u
      has leg(u) cells w below it, so |Inv| >= the legs of Des: inv >= 0.
    * If u is not in Des (sigma(u) <= sigma(l)) and (w, l) is an inversion,
      then sigma(w) > sigma(u), so (u, w) is not one.  Every attacking pair
      across two columns is such a (w, l), so the inversions across columns
      are at most the legs of Des plus the same-column pairs that are not
      inversions.  Same-column pairs number sum_j C(lambda'_j, 2) =
      n(lambda), so |Inv| <= n(lambda) + the legs of Des: inv <= n(lambda).
    """
    return 0, shape.n_lambda


def filling_window(lam: Partition, n: int) -> PackedWindow:
    """The packed window of the filling formula's sums.

    The shared denominator is the diagram's, numerators lie in
    ``filling_t_range``, and each nonattacking filling contributes one
    monomial with coefficient 1; the fillings are counted exactly on the
    cached column table.
    """
    shape = shape_of(lam.parts)
    return PackedWindow.bounded(diagram_denominator(shape), *filling_t_range(shape),
                                count_nonattacking(lam, n))


def compressed_shard(lam: Partition, n: int, prefixes: list[tuple[int, ...]],
                     window: PackedWindow) -> ContentAccumulator:
    """Accumulate filling terms whose first column matches one of prefixes.

    ``_walk`` reaches every filling once with its packed statistics, and
    ``_term_raw`` decodes each once.  The sums are packed in ``window``, the
    caller's ``filling_window``.  Terms are grouped by denominator multiset
    and content over the whole shard, and each group is lifted once when the
    shard ends.
    """
    table = column_table(lam.parts, n, "paper")
    acc = ContentAccumulator(window)
    add, term_raw = acc.add, _term_raw
    for _values, total in _walk(table, prefixes):
        num, den, content = term_raw(table, total)
        add(content, num, den)
    acc.flush()
    return acc


def compressed_sum(lam: Partition, n: int, jobs: int = 1) -> SymFun:
    """Macdonald P_lambda via the nonattacking-filling formula.

    The first columns are split into up to ``jobs`` shards; one shard runs in
    the calling process (see ``parallel``).
    """
    if n != lam.n:
        raise ValueError(f"n={n} does not match partition {lam.parts}")
    from .parallel import parallel_compressed_sum

    return parallel_compressed_sum(lam, n, jobs)
