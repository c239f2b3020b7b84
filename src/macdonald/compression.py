"""The filling map from folding pairs to fillings, fibers, and class checks.

A folding pair (w, J) determines, for each column j, the permutation pi_j
obtained from w by applying the folded transpositions of all columns to the
left of j (columns factor the chain; the walk runs through columns in
decreasing j).  The filling map sets column j of the filling to the first
lambda'_j entries of pi_j.  Its image is exactly the nonattacking fillings,
and summing walk coefficients over a fiber reproduces the corresponding
compressed-formula term; checking that identity class by class is the
per-class verification below.

Fibers are computed by brute-force grouping of the whole folding-pair space.
That is deliberate: the verifier stays independent of the column structure it
verifies.

Each class identity is decided exactly on integers.  Both sides are lifted
to a common denominator and packed (Kronecker substitution) into one
``qt.PackedWindow``, fixed for the whole run by ``ClassWindow`` from the
bounds each formula proves for its terms, so the identity holds exactly
when two Python ints are equal.  The filling's term is never
reduced on that path; ``RationalQT`` values are built only to render a
failing class, or on demand.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .chain import (
    InternalInvariantError,
    LambdaChain,
    Partition,
    build_chain,
    cached_chain,
)
from .fillings import (
    Filling,
    _filling_total,
    _term_raw,
    check_filling_cap,
    column_table,
    compressed_term,
    diagram_denominator,
    enumerate_nonattacking,
    filling_t_range,
    shape_of,
)
from .qt import (
    ONE_MINUS_T,
    DenomFactor,
    Laurent,
    PackedWindow,
    RationalQT,
    rational_reduce,
    rational_str,
)
from .ramyip import (
    FoldingPair,
    WalkMemo,
    _fold_data,
    _walk_term_raw,
    chain_denominator,
    check_term_cap,
    walk_t_range,
)
from .weyl import (
    Perm,
    all_perms,
    is_bruhat_descent,
    render_perm,
    right_mul_transposition,
)


def _filling_values(w: Perm, fold_list: list[int], chain: LambdaChain,
                    shape) -> tuple[int, ...]:
    """Reading-order values of the image filling of (w, folds).

    Reading order runs column by column, so the values are the columns'
    entries laid end to end.
    """
    conj = shape.conjugate
    entries = chain.entries
    roots_by_col: dict[int, list[tuple[int, int]]] = {}
    for p in fold_list:
        entry = entries[p - 1]
        roots_by_col.setdefault(entry.column, []).append(entry.root)
    cur = list(w)
    columns = []        # columns width, width - 1, ..., 1
    for j in range(chain.partition.parts[0], 0, -1):
        for i, k in roots_by_col.get(j + 1, ()):
            cur[i - 1], cur[k - 1] = cur[k - 1], cur[i - 1]
        columns.append(cur[:conj[j - 1]])
    return tuple(itertools.chain.from_iterable(reversed(columns)))


def filling_map(w: Perm, folds, lam: Partition) -> Filling:
    """Image of the folding pair (w, folds) under the filling map."""
    chain = cached_chain(lam.parts)
    shape = shape_of(lam.parts)
    return Filling(lam.parts, lam.n, _filling_values(w, sorted(folds), chain, shape))


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
    shape = sigma.shape
    conj = shape.conjugate
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
    fold_list = sorted(positions)
    image = Filling(lam.parts, n, _filling_values(w, fold_list, chain, shape))
    if image.values != sigma.values:
        raise InternalInvariantError(
            f"witness ({render_perm(w)}, {fold_list}) maps to a different filling"
        )
    return FoldingPair(w, frozenset(fold_list))


class FiberSum:
    """A fiber's walk terms summed over the lcm of their denominators.

    The numerator is one packed integer of a ``ClassWindow``; ``value``
    unpacks it, on first use, into the unreduced ``RationalQT`` over the lcm,
    and ``num``, ``den`` and ``==`` read that value.
    """

    __slots__ = ("packed", "lcm_id", "window", "_value")

    def __init__(self, packed: int, lcm_id: int, window: "ClassWindow"):
        self.packed = packed
        self.lcm_id = lcm_id
        self.window = window
        self._value: RationalQT | None = None

    @property
    def value(self) -> RationalQT:
        if self._value is None:
            window = self.window
            self._value = RationalQT(window.packing.unpack(self.packed),
                                     window.multisets[self.lcm_id])
        return self._value

    @property
    def num(self) -> Laurent:
        return self.value.num

    @property
    def den(self) -> tuple[DenomFactor, ...]:
        return self.value.den

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FiberSum):
            other = other.value
        return self.value == other

    __hash__ = None  # type: ignore[assignment]


class ClassWindow:
    """The packed window and the memos shared by the fibers of one check.

    One ``qt.PackedWindow`` holds both sides of every class identity, so
    each side is one integer.  Its numerators are the walk terms
    (``ramyip.walk_t_range``) and the filling terms
    (``fillings.filling_t_range``) of the chain's partition, and its weight
    is ``max_fiber``, the most walk terms a fiber holds.  Both sides of a
    class are lifted to ``lcm | den_r``, with ``lcm`` the lcm of the fiber's
    walk denominators and ``den_r`` the filling's: a walk term over ``den``
    by ``(1-t)^|den|``, the binomials of ``lcm - den`` and then those of
    ``den_r - lcm``, the filling's numerator by ``(1-t)^|den_r|`` and the
    binomials of ``lcm - den_r``.  Either way that is one factor per element of
    ``lcm | den_r``, a sub-multiset of the chain and diagram denominators
    together, which the window takes as its factors.

    A numerator outside the window, or a fiber over its budget, raises
    ``InternalInvariantError``: no packed comparison ever reads a wrapped
    digit.

    The memos live as long as the window: each fold set's fold plan
    (``ramyip._fold_data``) and multiset id, the walk terms' lengths and
    weight readers (``ramyip.WalkMemo``), each fiber's lcm by the set of its
    terms' multiset ids, and each packed lift by ``(lcm id, multiset id)``.
    Multisets are interned as small ints (``multisets`` maps an id back to
    its sorted factors).
    """

    def __init__(self, chain: LambdaChain, max_fiber: int):
        self.chain = chain
        shape = shape_of(chain.partition.parts)
        self.diagram = Counter(diagram_denominator(shape))
        (w_lo, w_hi), (f_lo, f_hi) = walk_t_range(chain), filling_t_range(shape)
        t_lo, t_hi = min(w_lo, f_lo), max(w_hi, f_hi)
        self.packing = PackedWindow.bounded(
            [*chain_denominator(chain), *self.diagram.elements()], t_lo, t_hi,
            max_fiber)
        self.multisets: list[tuple[DenomFactor, ...]] = []
        self._ids: dict[tuple[DenomFactor, ...], int] = {}
        self.memo = WalkMemo()
        self._folds: dict[frozenset[int], tuple] = {}
        self._lcms: dict[frozenset[int], int] = {}
        self._lifts: dict[tuple[int, int], int] = {}
        self._extra: dict[tuple[int, int], list] = {}

    def intern(self, den: Counter) -> int:
        """The id of a denominator multiset."""
        key = tuple(sorted(den.elements()))
        idx = self._ids.get(key)
        if idx is None:
            idx = self._ids[key] = len(self.multisets)
            self.multisets.append(key)
        return idx

    def fold_set(self, folds: frozenset[int]) -> tuple:
        """(fold list, fold plan, multiset id) of a fold set."""
        entry = self._folds.get(folds)
        if entry is None:
            fold_list = sorted(folds)
            fold_data = _fold_data(fold_list, self.chain)
            entry = self._folds[folds] = (fold_list, fold_data,
                                          self.intern(fold_data[1]))
        return entry

    def lcm(self, den_ids: frozenset[int]) -> int:
        """The id of the multiset lcm of the given multisets."""
        idx = self._lcms.get(den_ids)
        if idx is None:
            lcm: Counter = Counter()
            for den_id in den_ids:
                lcm |= Counter(self.multisets[den_id])
            idx = self._lcms[den_ids] = self.intern(lcm)
        return idx

    def lift(self, lcm_id: int, den_id: int) -> int:
        """(1-t)^|den| times the binomials of lcm - den, packed."""
        key = (lcm_id, den_id)
        lift = self._lifts.get(key)
        if lift is None:
            den = Counter(self.multisets[den_id])
            missing = Counter(self.multisets[lcm_id]) - den
            lift = self._lifts[key] = self.packing.times_binomials(
                1, [*missing.items(), (ONE_MINUS_T, sum(den.values()))])
        return lift

    def identity_holds(self, lhs: FiberSum, num_r: Laurent, den_r: Counter) -> bool:
        """lhs * lift(den_r - lcm) == num_r * (1-t)^|den_r| * lift(lcm - den_r).

        ``(num_r, den_r)`` is the filling's bare term, unreduced.
        """
        key = (lhs.lcm_id, self.intern(den_r))
        extra = self._extra.get(key)
        if extra is None:
            if den_r - self.diagram:
                raise InternalInvariantError(
                    f"filling denominator {sorted(den_r.elements())} is not "
                    f"part of the diagram denominator")
            lcm = Counter(self.multisets[lhs.lcm_id])
            extra = self._extra[key] = list((den_r - lcm).items())
        packing = self.packing
        right, weight = packing.pack(num_r, self.lift(*key))
        packing.check_weight(weight)
        return packing.times_binomials(lhs.packed, extra) == right


@dataclass(slots=True)
class ClassResult:
    """Per-fiber verification data for one nonattacking filling.

    ``lhs`` (the fiber sum over its own lcm, unreduced) and ``rhs`` (the
    filling's reduced term) are built on first use; a failing class keeps
    the ``lhs`` its check computed.
    """

    pairs: list[FoldingPair]
    ok: bool
    contents_ok: bool
    sigma: Filling
    _lhs: RationalQT | None = None

    @property
    def lhs(self) -> RationalQT:
        if self._lhs is None:
            chain = cached_chain(self.sigma.parts)
            self._lhs = class_sum(self.pairs, chain, self.sigma.content())[0].value
        return self._lhs

    @property
    def rhs(self) -> RationalQT:
        return compressed_term(self.sigma)[0]


@dataclass
class ClassReport:
    lam: tuple[int, ...]
    n: int
    total_pairs: int
    classes: dict[tuple[int, ...], ClassResult]
    missing_fillings: list[tuple[int, ...]]
    ok: bool
    first_failure: str | None


def _gather(slots: tuple[int, ...]):
    """A function taking a tuple to its entries at slots, as a tuple."""
    if len(slots) == 1:
        (slot,) = slots
        return lambda w: (w[slot],)
    return itemgetter(*slots)


def group_fibers(lam: Partition, n: int
                 ) -> dict[tuple[int, ...], list[FoldingPair]]:
    """All folding pairs grouped by image filling, in enumeration order.

    The filling map's column swaps move positions, not values, so the image
    of (w, J) is w read at slots fixed by J.  Each fold set's slots, and its
    shared frozenset, are found once by running its swap schedule on the
    identity; every w is then read through them.
    """
    chain = build_chain(lam)
    check_term_cap(chain)
    shape = shape_of(lam.parts)
    m = chain.m
    identity = tuple(range(n))
    schedule = []
    for mask in range(1 << m):
        fold_list = [p for p in range(1, m + 1) if mask >> (p - 1) & 1]
        slots = _filling_values(identity, fold_list, chain, shape)
        schedule.append((_gather(slots), frozenset(fold_list)))
    out: dict[tuple[int, ...], list[FoldingPair]] = {}
    for w in all_perms(n):
        for gather, folds in schedule:
            values = gather(w)
            pairs = out.get(values)
            if pairs is None:
                out[values] = [FoldingPair(w, folds)]
            else:
                pairs.append(FoldingPair(w, folds))
    return out


def class_sum(pairs: list[FoldingPair], chain: LambdaChain,
              expected_content: tuple[int, ...],
              window: ClassWindow | None = None,
              ) -> tuple[FiberSum, bool]:
    """Sum of walk coefficients over a fiber, plus a content-match flag.

    Every walk term of the fiber is built and its content checked; the terms
    of the expected content are summed over the lcm of the fiber's own
    denominators rather than the whole chain's.  A bare term over ``den`` is
    lifted to that lcm by ``(1-t)^|den|`` times the binomials of
    ``lcm - den``.  The sum is one packed integer of ``window``, and each
    term adds its lift, a packed integer memoised by the window, shifted to
    the term's monomial.  Pairs are grouped by fold set, whose fold plan
    (``ramyip._fold_data``), multiset and lift are shared by all of the
    set's terms, as are the window's memoised lengths and weight readers.
    ``verify_all_classes`` passes one window for all of its fibers; without
    one, a window is made for this fiber alone.
    """
    if window is None:
        window = ClassWindow(chain, len(pairs))
    by_folds: dict[frozenset[int], list[Perm]] = {}
    for pair in pairs:
        perms = by_folds.get(pair.folds)
        if perms is None:
            by_folds[pair.folds] = [pair.w]
        else:
            perms.append(pair.w)
    batches = [(window.fold_set(folds), perms) for folds, perms in by_folds.items()]
    lcm_id = window.lcm(frozenset(entry[2] for entry, _perms in batches))
    packing = window.packing
    memo = window.memo
    total = weight = 0
    contents_ok = True
    for (fold_list, fold_data, den_id), perms in batches:
        lift = window.lift(lcm_id, den_id)
        for w in perms:
            num, _den, content = _walk_term_raw(w, fold_list, chain, None,
                                                fold_data, memo)
            if content != expected_content:
                contents_ok = False
                continue
            value, num_weight = packing.pack(num, lift)
            total += value
            weight += num_weight
    packing.check_weight(weight)
    return FiberSum(total, lcm_id, window), contents_ok


def _check_class(sigma: Filling, pairs: list[FoldingPair],
                 window: ClassWindow) -> ClassResult:
    """The class identity of one filling, decided on packed integers."""
    table = column_table(sigma.parts, sigma.n, "paper")
    num_r, den_r, content = _term_raw(table, _filling_total(table, sigma.values))
    lhs, contents_ok = class_sum(pairs, window.chain, content, window)
    ok = contents_ok and window.identity_holds(lhs, num_r, den_r)
    return ClassResult(pairs, ok, contents_ok, sigma, None if ok else lhs.value)


def verify_all_classes(lam: Partition, n: int) -> ClassReport:
    """Run the per-class check over every nonattacking filling.

    Each class identity is one integer equality in a ``ClassWindow`` shared
    by all fibers; ``RationalQT`` values are built only to render a failure.
    """
    check_filling_cap(lam, n)
    chain = build_chain(lam)
    fibers = group_fibers(lam, n)
    total_pairs = sum(len(v) for v in fibers.values())
    window = ClassWindow(chain, max(map(len, fibers.values()), default=0))
    classes: dict[tuple[int, ...], ClassResult] = {}
    missing: list[tuple[int, ...]] = []
    first_failure: str | None = None
    ok = True
    seen = set()
    for sigma in enumerate_nonattacking(lam, n):
        seen.add(sigma.values)
        pairs = fibers.get(sigma.values, [])
        if not pairs:
            missing.append(sigma.values)
            ok = False
            if first_failure is None:
                first_failure = f"empty fiber for filling\n{sigma.render()}"
            continue
        result = classes[sigma.values] = _check_class(sigma, pairs, window)
        if not result.ok:
            ok = False
            if first_failure is None:
                first_failure = render_counterexample(
                    sigma, pairs, result.lhs, result.rhs, chain)
    stray = set(fibers) - seen
    if stray:
        ok = False
        if first_failure is None:
            first_failure = f"{len(stray)} fibers map outside the nonattacking set"
    return ClassReport(
        lam=lam.parts,
        n=n,
        total_pairs=total_pairs,
        classes=classes,
        missing_fillings=missing,
        ok=ok,
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


def render_counterexample(sigma: Filling, pairs: list[FoldingPair],
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
