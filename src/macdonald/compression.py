"""The filling map from folding pairs to fillings, fibers, and class checks.

A folding pair (w, J) determines, for each column j, the permutation pi_j
obtained from w by applying the folded transpositions of all columns to the
left of j (columns factor the chain; the walk runs through columns in
decreasing j).  The filling map sets column j of the filling to the first
lambda'_j entries of pi_j.  Its image is exactly the nonattacking fillings,
and summing walk coefficients over a fiber reproduces the corresponding
compressed-formula term; checking that identity class by class is the
per-class verification below.  The map runs the walk's own swap schedule,
so a fold set's plan (``ramyip._fold_data``) compiles it: ``plan.image``
reads the filling of (w, J) off w, for the map, the witness round trip and
the grouping alike.

Fibers are computed by brute-force grouping of the whole folding-pair space.
That is deliberate: the verifier stays independent of the column structure it
verifies.

The check is one walk over the fillings' column table
(``fillings._walk``), which yields each filling's values and packed
statistics; the values pick the fiber and the statistics give the filling's
term.  Each class identity is decided exactly on integers.  Both sides are
lifted to one denominator, the multiset union of the chain and diagram
denominators, and packed (Kronecker substitution) into one
``qt.PackedWindow``, fixed for the whole run by ``ClassWindow`` from the
bounds each formula proves for its terms, so the identity holds exactly
when two Python ints are equal.  A class result is its verdict alone; a
``Filling`` and ``RationalQT`` values are built only to render the first
failing class.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from collections.abc import Sequence
from typing import NamedTuple

from .chain import (
    InternalInvariantError,
    LambdaChain,
    Partition,
    cached_chain,
)
from .fillings import (
    ColumnTable,
    Filling,
    _term_raw,
    _walk,
    check_filling_cap,
    column_table,
    compressed_term,
    diagram_denominator,
    filling_t_range,
    shape_of,
)
from .qt import PackedWindow, RationalQT, rational_reduce, rational_str
from .ramyip import (
    FoldingPair,
    FoldPlan,
    _fold_data,
    _walk_term_raw,
    chain_denominator,
    check_term_cap,
    fold_list,
    walk_t_range,
)
from .weyl import (
    Perm,
    all_perms,
    is_bruhat_descent,
    render_perm,
    right_mul_transposition,
)


def filling_map(w: Perm, folds, lam: Partition) -> Filling:
    """Image of the folding pair (w, folds) under the filling map."""
    plan = _fold_data(sorted(folds), cached_chain(lam.parts))
    return Filling(lam.parts, lam.n, plan.image(w))


def fiber_witness(sigma: Filling, lam: Partition) -> FoldingPair:
    """One folding pair mapping to sigma, built column by column.

    Column 1 pins the first entries of the walk's final permutation; each
    later column swaps position i with the position holding its new value
    whenever the value changes.  The emitted fold set is validated to be an
    order-compatible subsequence of the chain and to round-trip through the
    filling map; a failure of either check is fatal, since the construction
    guarantees both.
    """
    chain = cached_chain(lam.parts)
    conj = sigma.shape.conjugate
    width = lam.parts[0]
    n = lam.n
    # reading order runs column by column, so column j is one slice of values
    values = sigma.values
    starts = list(itertools.accumulate(conj, initial=0))
    columns = [()] + [values[start:stop]
                      for start, stop in zip(starts, starts[1:])]
    first_col = list(columns[1])
    missing = set(range(1, n + 1)) - set(first_col)
    if len(first_col) != n - 1 or len(missing) != 1:
        raise InternalInvariantError("column 1 does not determine a permutation")
    cur = first_col + [missing.pop()]
    roots_by_col: dict[int, list[tuple[int, int]]] = {}
    for j in range(2, width + 1):
        column, previous = columns[j], columns[j - 1]
        if column == previous[:len(column)]:
            continue
        swaps: list[tuple[int, int]] = []
        for i, (v, u) in enumerate(zip(column, previous), start=1):
            if v == u:
                continue
            p = cur.index(v) + 1
            if p <= conj[j - 2]:
                raise InternalInvariantError(
                    f"value {v} for cell {(i, j)} found at protected position {p}"
                )
            cur[i - 1], cur[p - 1] = cur[p - 1], cur[i - 1]
            swaps.append((i, p))
        # the factor for column j lists these roots in decreasing row order
        roots_by_col[j] = swaps[::-1]
    w = tuple(cur)
    positions: list[int] = []
    for j in reversed(roots_by_col):
        segment = chain.column_positions[j]
        idx = 0
        for root in roots_by_col[j]:
            found = None
            while idx < len(segment):
                p = segment[idx]
                idx += 1
                if chain.entries[p].root == root:
                    found = p + 1
                    break
            if found is None:
                raise InternalInvariantError(
                    f"root {root} is not a forward match in column {j} "
                    f"of the chain for {lam.parts}"
                )
            positions.append(found)
    folds = sorted(positions)
    if _fold_data(folds, chain).image(w) != values:
        raise InternalInvariantError(
            f"witness ({render_perm(w)}, {folds}) maps to a different filling"
        )
    return FoldingPair(w, frozenset(folds))


class ClassWindow:
    """The packed window and the lift memos shared by the fibers of one check.

    A class identity says that the fiber's walk terms, each a bare term
    ``num * (1-t)^|den| / prod(den)``, sum to the filling's bare term over
    ``den_r``.  Every walk ``den`` lies inside the chain denominator, so the
    fiber's lcm does too, and ``den_r`` lies inside the diagram denominator;
    so ``lcm | den_r`` lies inside their multiset union ``U``, which the
    window takes as its factors.  Multiplying both sides by ``prod(U)``
    multiplies the identity over ``lcm | den_r`` by the remaining factors,
    nonzero polynomials: an equality stays an equality and an inequality an
    inequality.  Each side then becomes a polynomial, a bare term over
    ``den`` turning into ``num * lift(den)`` with
    ``lift(den) = (1-t)^|den| * prod(U - den)`` (``PackedWindow.lift``), so
    the identity holds exactly when two packed ints are equal.

    Every lifted term carries exactly ``|U|`` factors, so
    ``PackedWindow.bounded`` sizes the span and the digits for ``|U|``
    factors over both formulas' t ranges (``ramyip.walk_t_range``,
    ``fillings.filling_t_range``), with weight ``max_fiber``, the most walk
    terms a fiber holds.  A numerator outside the window, or a fiber over
    its budget, raises ``InternalInvariantError``: no packed comparison ever
    reads a wrapped digit.

    The memos hold each lift by multiset, and each fold set's lift by its
    mask (``Fiber``), for the fibers of one ``group_fibers`` table.
    ``verify_all_classes`` makes one window per run, so they end with the
    run.
    """

    def __init__(self, chain: LambdaChain, max_fiber: int):
        shape = shape_of(chain.partition.parts)
        self.diagram = Counter(diagram_denominator(shape))
        union = Counter(chain_denominator(chain)) | self.diagram
        (w_lo, w_hi), (f_lo, f_hi) = walk_t_range(chain), filling_t_range(shape)
        self.packing = PackedWindow.bounded(
            union.elements(), min(w_lo, f_lo), max(w_hi, f_hi), max_fiber)
        self.mask_lifts: dict[int, int] = {}
        self._lifts: dict[tuple, int] = {}

    def lift(self, den: Counter) -> int:
        """``PackedWindow.lift(den)``, memoised by multiset."""
        # the factors themselves, sorted: no (factor, count) tuple per key
        key = tuple(sorted(den.elements()))
        lift = self._lifts.get(key)
        if lift is None:
            lift = self._lifts[key] = self.packing.lift(den)
        return lift


class ClassResult(NamedTuple):
    """The verdict of one nonattacking filling's class identity."""

    size: int               # folding pairs in the fiber
    ok: bool
    contents_ok: bool       # every walk term of the fiber has the filling's content


class ClassReport(NamedTuple):
    total_pairs: int
    classes: dict[tuple[int, ...], ClassResult]
    missing_fillings: list[tuple[int, ...]]
    ok: bool
    first_failure: str | None


class Fiber(Sequence):
    """The folding pairs of one filling, in enumeration order, one code each.

    The code of (w, J) is ``i << m | mask``: w is the i-th permutation of
    the table's ``perms`` and J the fold set whose positions are the set
    bits of ``mask`` (``ramyip.fold_list``), compiled once as the table's
    ``plans[mask]``.  An ``array`` holds 8 bytes a pair, where a list of
    ``FoldingPair`` objects holds about 60; the class sum reads the codes
    directly, and a pair's ``FoldingPair`` is built only when it is read,
    to render it.  A fiber equals any sequence of the same pairs in the
    same order.
    """

    __slots__ = ("codes", "table")

    def __init__(self, table: tuple[list[Perm], list[FoldPlan], int]):
        self.codes = array("Q")
        self.table = table

    def _pair(self, code: int) -> FoldingPair:
        perms, plans, m = self.table
        return FoldingPair(perms[code >> m],
                           frozenset(plans[code & ((1 << m) - 1)].folds))

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index: int) -> FoldingPair:
        return self._pair(self.codes[index])

    def __iter__(self):
        return map(self._pair, self.codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


def group_fibers(lam: Partition, n: int) -> dict[tuple[int, ...], Fiber]:
    """All folding pairs grouped by image filling, in enumeration order.

    Each fold set's plan (``ramyip._fold_data``) is compiled once, into the
    fibers' shared table; every w is then read through the plans' ``image``.
    """
    check_term_cap(lam)
    chain = cached_chain(lam.parts)
    m = chain.m
    plans = [_fold_data(fold_list(mask), chain) for mask in range(1 << m)]
    images = [plan.image for plan in plans]
    perms = all_perms(n)
    table = (perms, plans, m)
    out: dict[tuple[int, ...], Fiber] = {}
    for i, w in enumerate(perms):
        code = i << m
        for image in images:
            values = image(w)
            fiber = out.get(values)
            if fiber is None:
                fiber = out[values] = Fiber(table)
            fiber.codes.append(code)
            code += 1
    return out


def class_sum(fiber: Fiber, expected_content: tuple[int, ...],
              window: ClassWindow) -> tuple[int, bool]:
    """Sum of walk coefficients over a fiber, plus a content-match flag.

    Every walk term of the fiber is built, from its code's permutation and
    fold plan in the fiber's table, and its content checked; the terms of
    the expected content are summed over the window's factors, each bare
    term lifted by its fold set's lift (``ClassWindow``).  The sum is one
    packed integer of ``window.packing``: each term adds its lift shifted to
    its monomial.  The lifts are memoised by mask in the window, which
    ``verify_all_classes`` shares among all of its fibers.
    """
    perms, plans, m = fiber.table
    low = (1 << m) - 1
    lifts = window.mask_lifts
    packing = window.packing
    total = weight = 0
    contents_ok = True
    for code in fiber.codes:
        mask = code & low
        plan = plans[mask]
        num, _den, content = _walk_term_raw(perms[code >> m], plan)
        if content != expected_content:
            contents_ok = False
            continue
        lift = lifts.get(mask)
        if lift is None:
            lift = lifts[mask] = window.lift(plan.den)
        value, num_weight = packing.pack(num, lift)
        total += value
        weight += num_weight
    packing.check_weight(weight)
    return total, contents_ok


def _check_class(table: ColumnTable, total: int, pairs: Fiber,
                 window: ClassWindow) -> tuple[ClassResult, int]:
    """The class identity of one filling, decided on packed integers.

    ``total`` is the filling's packed statistics in ``table``.  Its bare
    term ``(num_r, den_r)``, unreduced, is lifted like the walk terms, so
    the identity is one comparison of two ints.  Returns the verdict and
    the fiber's packed sum.
    """
    num_r, den_r, content = _term_raw(table, total)
    if den_r - window.diagram:
        raise InternalInvariantError(
            f"filling denominator {sorted(den_r.elements())} is not "
            f"part of the diagram denominator")
    lhs, contents_ok = class_sum(pairs, content, window)
    packing = window.packing
    rhs, weight = packing.pack(num_r, window.lift(den_r))
    packing.check_weight(weight)
    return ClassResult(len(pairs), contents_ok and lhs == rhs, contents_ok), lhs


def verify_all_classes(lam: Partition, n: int) -> ClassReport:
    """Run the per-class check over every nonattacking filling.

    One walk over the column table (``fillings._walk``) yields each filling's
    values and packed statistics; each class identity is one integer
    equality in a ``ClassWindow`` shared by all fibers.  A ``Filling`` and
    ``RationalQT`` values are built only to render the first failure.
    """
    check_filling_cap(lam, n)
    fibers = group_fibers(lam, n)
    chain = cached_chain(lam.parts)
    total_pairs = sum(map(len, fibers.values()))
    window = ClassWindow(chain, max(map(len, fibers.values()), default=0))
    table = column_table(lam.parts, n, "paper")
    classes: dict[tuple[int, ...], ClassResult] = {}
    missing: list[tuple[int, ...]] = []
    first_failure: str | None = None
    # each fiber leaves the dict, and is freed, once its class is decided;
    # what is left at the end maps outside the nonattacking set
    for values, total in _walk(table, table.column_tuples(0, ())):
        pairs = fibers.pop(values, None)
        if not pairs:
            missing.append(values)
            if first_failure is None:
                sigma = Filling(lam.parts, n, values)
                first_failure = f"empty fiber for filling\n{sigma.render()}"
            continue
        result, lhs = _check_class(table, total, pairs, window)
        classes[values] = result
        if not result.ok and first_failure is None:
            sigma = Filling(lam.parts, n, values)
            first_failure = render_counterexample(
                sigma, pairs, window.packing.rational(lhs),
                compressed_term(sigma)[0], chain)
    if fibers and first_failure is None:
        first_failure = f"{len(fibers)} fibers map outside the nonattacking set"
    return ClassReport(
        total_pairs=total_pairs,
        classes=classes,
        missing_fillings=missing,
        ok=first_failure is None,
        first_failure=first_failure,
    )


def render_broken_column(w: Perm, break_at: int) -> str:
    head = "".join(map(str, w[:break_at]))
    tail = "".join(map(str, w[break_at:]))
    return f"{head}/{tail}"


def render_pair_chain(pair: FoldingPair, chain: LambdaChain) -> str:
    """The Bruhat chain of a pair in broken-column notation."""
    conj = chain.partition.conjugate
    width = chain.partition.parts[0]
    cur = pair.w
    pieces = [render_broken_column(cur, conj[width - 1])]
    last_col = width
    for p in sorted(pair.folds):
        entry = chain.entries[p - 1]
        sign = ">" if is_bruhat_descent(cur, entry.root) else "<"
        cur = right_mul_transposition(cur, entry.root)
        sep = " | " if entry.column != last_col else " "
        last_col = entry.column
        pieces.append(f"{sep}{sign} {render_broken_column(cur, conj[entry.column - 2])}")
    return "".join(pieces)


def render_counterexample(sigma: Filling, pairs: Sequence[FoldingPair],
                          lhs: RationalQT, rhs: RationalQT,
                          chain: LambdaChain) -> str:
    lines = ["class identity failed for filling:", sigma.render()]
    lines.append(f"fiber sum      = {rational_str(rational_reduce(lhs))}")
    lines.append(f"filling term   = {rational_str(rhs)}")
    for pair in pairs:
        lines.append(
            f"  (w={render_perm(pair.w)}, J={sorted(pair.folds)}): "
            f"{render_pair_chain(pair, chain)}"
        )
    return "\n".join(lines)
