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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .chain import (
    ChainEntry,
    InternalInvariantError,
    LambdaChain,
    Partition,
    build_chain,
    cached_chain,
)
from .fillings import (
    Filling,
    check_filling_cap,
    compressed_term,
    enumerate_nonattacking,
    shape_of,
)
from .qt import (
    ONE_MINUS_T,
    Laurent,
    RationalQT,
    _add_into,
    _add_product_into,
    _factors_product,
    rational_reduce,
    rational_str,
)
from .ramyip import FoldingPair, _fold_data, _walk_term_raw, check_term_cap
from .weyl import (
    Perm,
    all_perms,
    is_bruhat_descent,
    render_perm,
    right_mul_transposition,
)


@dataclass(frozen=True)
class ColumnFactored:
    """A fold set presented as per-column subsequences of the chain."""

    factors: tuple[tuple[int, tuple[ChainEntry, ...]], ...]

    def positions(self, chain: LambdaChain) -> list[int]:
        out = []
        for column, entries in self.factors:
            segment = chain.column_positions[column]
            start = 0
            for entry in entries:
                found = None
                for p in segment[start:]:
                    if chain.entries[p] == entry:
                        found = p
                        break
                if found is None:
                    raise ValueError(
                        f"{entry} is not a forward match in column {column}"
                    )
                start = segment.index(found) + 1
                out.append(found + 1)
        return out


def column_factored(folds, chain: LambdaChain) -> ColumnFactored:
    """Group fold positions by chain column, preserving chain order."""
    by_col: dict[int, list[ChainEntry]] = {col: [] for col, _, _ in chain.segments}
    for p in sorted(folds):
        entry = chain.entries[p - 1]
        by_col[entry.column].append(entry)
    return ColumnFactored(
        tuple((col, tuple(by_col[col])) for col, _, _ in chain.segments)
    )


def _filling_values(w: Perm, fold_list: list[int], chain: LambdaChain,
                    shape) -> tuple[int, ...]:
    """Reading-order values of the image filling of (w, folds)."""
    parts = chain.partition.parts
    conj = shape.conjugate
    width = parts[0]
    by_col: dict[int, list[int]] = {}
    for p in fold_list:
        by_col.setdefault(chain.entries[p - 1].column, []).append(p)
    cur = list(w)
    columns: dict[int, tuple[int, ...]] = {width: tuple(cur[: conj[width - 1]])}
    for j in range(width, 1, -1):
        for p in by_col.get(j, ()):
            i, k = chain.entries[p - 1].root
            cur[i - 1], cur[k - 1] = cur[k - 1], cur[i - 1]
        columns[j - 1] = tuple(cur[: conj[j - 2]])
    values = []
    for j in range(1, width + 1):
        values.extend(columns[j])
    return tuple(values)


def filling_map(w: Perm, T: ColumnFactored | list[int] | frozenset[int],
                lam: Partition) -> Filling:
    """Image of a folding pair under the filling map."""
    chain = cached_chain(lam.parts)
    if isinstance(T, ColumnFactored):
        fold_list = sorted(T.positions(chain))
    else:
        fold_list = sorted(T)
    shape = shape_of(lam.parts)
    return Filling(lam.parts, lam.n, _filling_values(w, fold_list, chain, shape))


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
    first_col = [sigma[(i, 1)] for i in range(1, conj[0] + 1)]
    missing = set(range(1, n + 1)) - set(first_col)
    if len(first_col) != n - 1 or len(missing) != 1:
        raise InternalInvariantError("column 1 does not determine a permutation")
    cur = first_col + [missing.pop()]
    roots_by_col: dict[int, list[tuple[int, int]]] = {}
    for j in range(2, width + 1):
        swaps: list[tuple[int, int]] = []
        for i in range(1, conj[j - 1] + 1):
            v = sigma[(i, j)]
            if v == sigma[(i, j - 1)]:
                continue
            p = cur.index(v) + 1
            if p <= conj[j - 2]:
                raise InternalInvariantError(
                    f"value {v} for cell {(i, j)} found at protected position {p}"
                )
            cur[i - 1], cur[p - 1] = cur[p - 1], cur[i - 1]
            swaps.append((i, p))
        # the factor for column j lists these roots in decreasing row order
        roots_by_col[j] = list(reversed(swaps))
    w = tuple(cur)
    positions: list[int] = []
    for j in range(width, 1, -1):
        segment = chain.column_positions[j]
        idx = 0
        for root in roots_by_col.get(j, ()):
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


@dataclass
class ClassResult:
    """Per-fiber verification data for one nonattacking filling."""

    pairs: list[FoldingPair]
    ok: bool
    contents_ok: bool
    lhs: RationalQT
    rhs: RationalQT


@dataclass
class ClassReport:
    lam: tuple[int, ...]
    n: int
    total_pairs: int
    classes: dict[tuple[int, ...], ClassResult]
    missing_fillings: list[tuple[int, ...]]
    ok: bool
    first_failure: str | None


def group_fibers(lam: Partition, n: int
                 ) -> dict[tuple[int, ...], list[FoldingPair]]:
    """All folding pairs grouped by image filling, in enumeration order."""
    chain = build_chain(lam)
    check_term_cap(chain)
    shape = shape_of(lam.parts)
    m = chain.m
    out: dict[tuple[int, ...], list[FoldingPair]] = {}
    for w in all_perms(n):
        for mask in range(1 << m):
            fold_list = [p for p in range(1, m + 1) if mask >> (p - 1) & 1]
            values = _filling_values(w, fold_list, chain, shape)
            out.setdefault(values, []).append(
                FoldingPair(w, frozenset(fold_list))
            )
    return out


def fiber(sigma: Filling, lam: Partition, n: int) -> set[FoldingPair]:
    """All folding pairs mapping to sigma, by brute-force grouping."""
    return set(group_fibers(lam, n).get(sigma.values, []))


def class_sum(pairs: list[FoldingPair], chain: LambdaChain,
              expected_content: tuple[int, ...],
              lifts: dict[frozenset, Laurent] | None = None,
              ) -> tuple[RationalQT, bool]:
    """Sum of walk coefficients over a fiber, plus a content-match flag.

    Every walk term of the fiber is built and its content checked; the terms
    of the expected content are summed over the lcm of the fiber's own
    denominators rather than the whole chain's.  Pairs are grouped by fold
    set, whose fold data (``ramyip._fold_data``) and denominator are shared
    by all of the set's terms.  A bare term over ``den`` is lifted to that
    lcm by the factor multiset ``lcm - den`` plus ``(1-t)^|den|``; terms are
    grouped by that lift key and each group is multiplied by its lift
    polynomial once.  ``lifts`` memoises those polynomials by key:
    ``verify_all_classes`` passes one dict for all of its fibers, which
    share most keys, so it lives for one call.  The sum is returned over the
    lcm unreduced; ``RationalQT`` equality is semantic.
    """
    if lifts is None:
        lifts = {}
    by_folds: dict[frozenset[int], list[Perm]] = {}
    for pair in pairs:
        by_folds.setdefault(pair.folds, []).append(pair.w)
    batches = []
    lcm: Counter = Counter()
    for folds, perms in by_folds.items():
        fold_list = sorted(folds)
        fold_data = _fold_data(fold_list, chain)
        lcm |= fold_data[1]
        batches.append((fold_list, fold_data, perms))
    groups: dict[frozenset, Laurent] = {}
    contents_ok = True
    for fold_list, fold_data, perms in batches:
        den = fold_data[1]
        key = frozenset(
            (lcm - den + Counter({ONE_MINUS_T: sum(den.values())})).items()
        )
        for w in perms:
            num, _den, content = _walk_term_raw(w, fold_list, chain,
                                                fold_data=fold_data)
            if content != expected_content:
                contents_ok = False
                continue
            slot = groups.get(key)
            if slot is None:
                groups[key] = dict(num)
            else:
                _add_into(slot, num)
    total: Laurent = {}
    for key, num in groups.items():
        lift = lifts.get(key)
        if lift is None:
            lift = lifts[key] = _factors_product(Counter(dict(key)))
        _add_product_into(total, num, lift)
    return RationalQT(total, lcm.elements()), contents_ok


def verify_class(sigma: Filling, lam: Partition, n: int) -> bool:
    """Check one fiber: coefficients sum to the filling's term, contents match."""
    pairs = sorted(fiber(sigma, lam, n), key=lambda p: (p.w, sorted(p.folds)))
    chain = build_chain(lam)
    rhs, content = compressed_term(sigma)
    lhs, contents_ok = class_sum(pairs, chain, content)
    return bool(pairs) and contents_ok and lhs == rhs


def verify_all_classes(lam: Partition, n: int) -> ClassReport:
    """Run the per-class check over every nonattacking filling."""
    check_filling_cap(lam, n)
    chain = build_chain(lam)
    fibers = group_fibers(lam, n)
    total_pairs = sum(len(v) for v in fibers.values())
    classes: dict[tuple[int, ...], ClassResult] = {}
    missing: list[tuple[int, ...]] = []
    first_failure: str | None = None
    ok = True
    seen = set()
    lifts: dict[frozenset, Laurent] = {}
    for sigma in enumerate_nonattacking(lam, n):
        seen.add(sigma.values)
        pairs = fibers.get(sigma.values, [])
        rhs, content = compressed_term(sigma)
        if not pairs:
            missing.append(sigma.values)
            ok = False
            if first_failure is None:
                first_failure = f"empty fiber for filling\n{sigma.render()}"
            continue
        lhs, contents_ok = class_sum(pairs, chain, content, lifts)
        good = contents_ok and lhs == rhs
        classes[sigma.values] = ClassResult(pairs, good, contents_ok, lhs, rhs)
        if not good:
            ok = False
            if first_failure is None:
                first_failure = render_counterexample(sigma, pairs, lhs, rhs, chain)
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
