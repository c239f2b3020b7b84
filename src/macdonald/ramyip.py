"""The alcove-walk formula for Macdonald P-polynomials, over folding pairs.

A folding pair is a permutation w together with a set of positions in the
fixed root chain.  Walking the folded positions in increasing order and
multiplying the running permutation by the corresponding transpositions
yields a Bruhat chain; a fold is positive when the step goes down in Bruhat
order (the running permutation has a descent at the root), negative when it
goes up.  The Ram-Yip formula attaches to each pair the coefficient

  t^((len(w) - len(w*phi) - |J|)/2) * (1-t)^|J|
    * prod over positive folds of 1/(1 - q^l t^h)
    * prod over negative folds of q^l t^h/(1 - q^l t^h)

where l is the chain multiplicity of the folded root, h its coroot height,
and phi the product of the folded transpositions; the attached monomial
exponent is w applied to the weight obtained from lambda by the affine
reflections at the folded positions, innermost (largest position) first.
Summing over all n! * 2^m pairs gives P_lambda(X;q,t).
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, NamedTuple

from .chain import InternalInvariantError, LambdaChain, Partition, chain_length
from .qt import (
    Content,
    ContentAccumulator,
    PackedWindow,
    RationalQT,
    SymFun,
    term_value,
)
from .weyl import (
    Perm,
    Weight,
    affine_reflect,
    is_bruhat_descent,
    perm_length,
    right_mul_transposition,
)

DEFAULT_TERM_CAP = 1 << 26


class TermCapExceeded(RuntimeError):
    """The folding-pair space is larger than the configured cap."""


def term_cap() -> int:
    """``MACDONALD_TERM_CAP``, else ``DEFAULT_TERM_CAP``; a non-negative integer."""
    raw = os.environ.get("MACDONALD_TERM_CAP", "")
    if not raw:
        return DEFAULT_TERM_CAP
    try:
        cap = int(raw)
        if cap < 0:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"MACDONALD_TERM_CAP must be a non-negative integer, got {raw!r}") from None
    return cap


def folding_pair_count(lam: Partition) -> int:
    """2^m * n!: every fold subset of the chain with every permutation.

    m is read from the parts (``chain_length``), so no chain is built.
    """
    return (1 << chain_length(lam.parts)) * math.factorial(lam.n)


def folding_pairs_text(lam: Partition) -> str:
    """The folding-pair count 2^m * n!, written as that formula past 1024 bits.

    Python refuses to convert an int of over 4300 digits to text, and 2^m
    is not formed past that: n! << m has m + len(n!) bits.
    """
    m = chain_length(lam.parts)
    if m + math.factorial(lam.n).bit_length() <= 1024:
        return str(folding_pair_count(lam))
    return f"2^{m} * {lam.n}!"


def check_term_cap(lam: Partition) -> int:
    """The folding-pair count of ``lam``; raises past the term cap.

    It needs only the parts, so it runs before the chain is built; 2^m
    alone passes the cap once m reaches the cap's bit length, so the count
    is formed only below that.
    """
    cap = term_cap()
    if chain_length(lam.parts) < cap.bit_length():
        total = folding_pair_count(lam)
        if total <= cap:
            return total
    raise TermCapExceeded(
        f"{folding_pairs_text(lam)} folding pairs exceed the term cap {cap}")


@dataclass(frozen=True, slots=True)
class FoldingPair:
    w: Perm
    folds: frozenset[int]       # positions in 1..m


@dataclass(frozen=True)
class ClassifiedFolds:
    """The Bruhat chain of a folding pair and its sign partition."""

    perms: tuple[Perm, ...]     # w, w*r_{j1}, ..., w*phi
    plus: frozenset[int]
    minus: frozenset[int]

    @property
    def final(self) -> Perm:
        return self.perms[-1]


def classify_folds(w: Perm, folds, chain: LambdaChain) -> ClassifiedFolds:
    """Walk the folds in increasing position order, signing each one.

    A position joins the positive part exactly when the running permutation
    has a Bruhat descent at that position's root.
    """
    perms = [w]
    plus, minus = [], []
    cur = w
    for p in sorted(folds):
        root = chain.entries[p - 1].root
        (plus if is_bruhat_descent(cur, root) else minus).append(p)
        cur = right_mul_transposition(cur, root)
        perms.append(cur)
    return ClassifiedFolds(tuple(perms), frozenset(plus), frozenset(minus))


def folded_weight(folds, chain: LambdaChain) -> Weight:
    """lambda reflected at the folded positions, largest position first."""
    mu: Weight = chain.partition.parts
    for p in sorted(folds, reverse=True):
        entry = chain.entries[p - 1]
        mu = affine_reflect(mu, entry.root, entry.mult)
    return mu


class FoldPlan(NamedTuple):
    """Everything a walk term, or the filling map, needs from a fold set.

    The walk multiplies w on the right by the folded transpositions in
    position order.  Those swaps move positions, not values, so the running
    permutation is always w read at positions fixed by the fold set: before
    the fold at root (i, k) it reads ``w[a]`` at slot i and ``w[b]`` at slot
    k, and the fold is negative (an ascent, weighted q^l t^h) exactly when
    ``w[a] < w[b]``.  ``steps`` holds ``a, b, l, h`` for each fold in order,
    as one flat tuple (one tuple per fold would cost an object per fold held),
    and ``final`` reads w*phi off w.  The filling map runs the same swap
    schedule, column by column, so ``image`` reads the filling of (w, J) off
    w too.  The part of a term that depends on w alone is read from
    ``perm_tables(n)``, which ``lengths`` and ``readers`` hold.
    """

    mu: Weight                  # lambda reflected at the folded positions
    den: Counter                # the denominator multiset, shared by the set's terms
    steps: tuple[int, ...]      # a, b, mult, height per fold, 0-based positions
    final: itemgetter           # w -> w*phi
    image: Callable[[Perm], tuple[int, ...]]    # w -> the filling's values, read in order
    k: int                      # the number of folds
    folds: tuple[int, ...]      # the folded positions, increasing
    lengths: dict[Perm, int]    # perm_tables(n)
    readers: dict[Perm, itemgetter]


def fold_list(mask: int) -> list[int]:
    """The fold positions a mask encodes, increasing: bit p - 1 is position p."""
    return [p for p in range(1, mask.bit_length() + 1) if mask >> (p - 1) & 1]


def fold_mask(folds) -> int:
    """The mask of a fold set, the inverse of ``fold_list``."""
    return sum(1 << (p - 1) for p in folds)


def _fold_data(folds: list[int], chain: LambdaChain) -> FoldPlan:
    """The fold plan of an increasing fold list: every part of a walk term but w.

    ``pos`` starts as the identity and takes each fold's swap, so the
    running permutation is ``w`` read at ``pos``; a partition has n >= 2
    parts, so ``final`` returns a tuple.  The chain runs through columns
    lambda_1 down to 2, and column j of the image is the first lambda'_j
    entries of the running permutation before the first fold of a column
    j or lower; those prefixes of ``pos``, column 1 first, are the slots
    ``image`` reads, as a tuple even for one cell.
    """
    entries = [chain.entries[p - 1] for p in folds]
    lam = chain.partition
    conj = lam.conjugate
    pos = list(range(lam.n))
    steps: list[int] = []
    # image columns lambda_1 down to j + 1, each prefix reversed, so that one
    # reverse at the end puts column 1 first and every column in row order
    slots: list[int] = []
    j = lam.parts[0]
    for entry in entries:
        col = entry.column
        while col <= j:
            slots += pos[conj[j - 1] - 1::-1]
            j -= 1
        i, k = entry.root
        a, b = pos[i - 1], pos[k - 1]
        steps += (a, b, entry.mult, entry.height)
        pos[i - 1], pos[k - 1] = b, a
    for col in range(j, 0, -1):
        slots += pos[conj[col - 1] - 1::-1]
    slots.reverse()
    image = (itemgetter(*slots) if len(slots) > 1
             else lambda w, slot=slots[0]: (w[slot],))
    den = Counter([e.factor for e in entries])
    return FoldPlan(folded_weight(folds, chain), den, tuple(steps),
                    itemgetter(*pos), image, len(entries), tuple(folds),
                    *perm_tables(lam.n))


class _Memo(dict):
    """A dict that fills a missing key with ``fn(key)``."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _weight_reader(w: Perm) -> itemgetter:
    """Reads ``permute_weight(w, mu)`` off mu: its entry j is mu at w^-1(j)."""
    inverse = [0] * len(w)
    for i, wi in enumerate(w):
        inverse[wi - 1] = i
    return itemgetter(*inverse)


@lru_cache(maxsize=None)
def perm_tables(n: int) -> tuple[dict[Perm, int], dict[Perm, itemgetter]]:
    """The length and the weight reader (``_weight_reader``) of each w in S_n.

    Both dicts fill a permutation's entry on first use, so a caller that
    reads a few permutations of a large S_n (``verify --map-properties``
    samples them) pays for those alone.  Like ``chain.cached_chain``, the
    tables live at module level, shared by every walk over S_n, until the
    cache is cleared.  Contents are read afresh rather
    than memoised per (w, mu): holding one tuple per (w, mu) raised the peak
    resident size of ``verify --per-class`` on (5,2,1,0) by about 0.7 MB.
    """
    return _Memo(perm_length), _Memo(_weight_reader)


def _walk_term_raw(w: Perm, plan: FoldPlan):
    """Bare numerator, denominator multiset, and content of one walk term.

    The numerator is the monomial q^a t^b alone; the term's value is
    num * (1-t)^|den| / prod(den) (see ``qt.term_value``).  The multiset is
    the plan's own Counter, shared by every term of its fold set.
    """
    mu, den, steps, final, _image, k, folds, lengths, readers = plan
    qexp = 0
    textra = 0
    it = iter(steps)
    for a, b, mult, height in zip(it, it, it, it):
        if w[a] < w[b]:
            qexp += mult
            textra += height
    parity_num = lengths[w] - lengths[final(w)] - k
    if parity_num % 2:
        raise InternalInvariantError(
            f"odd t-exponent numerator {parity_num} for w={w}, folds={list(folds)}")
    return {(qexp, parity_num // 2 + textra): 1}, den, readers[w](mu)


def walk_term(w: Perm, folds, chain: LambdaChain) -> tuple[RationalQT, Content]:
    """Coefficient and monomial exponent of a single folding pair."""
    num, den, content = _walk_term_raw(w, _fold_data(sorted(folds), chain))
    return term_value(num, den), content


def chain_denominator(chain: LambdaChain) -> list[tuple[int, int]]:
    """All binomial factors any folding subset can produce."""
    return [e.factor for e in chain.entries]


def walk_t_range(chain: LambdaChain) -> tuple[int, int]:
    """The t exponents of walk-term numerators: ``0 .. sum(h - 1)`` over the chain.

    A numerator is q^a t^b, where a sums the multiplicities of the negative
    folds, so a >= 0, and 2b is ``len(w) - len(w*phi) - |J|`` plus twice the
    heights of the negative folds.  A fold at a root (i, k) of height
    h = k - i changes the running length by an odd d in 1 .. 2h-1, down for
    a positive fold and up for a negative one.  So a positive fold adds
    d - 1 to 2b and a negative one 2h - d - 1, each in 0 .. 2h-2, and b
    lies in ``0 .. sum(h - 1)`` over the folds, hence over the chain.
    """
    return 0, sum(b - 1 for _a, b in chain_denominator(chain))


def walk_window(chain: LambdaChain) -> PackedWindow:
    """The packed window of the walk formula's sums.

    The shared denominator is the chain's, numerators lie in
    ``walk_t_range``, and each of the 2^m * n! folding pairs contributes one
    monomial with coefficient 1.
    """
    return PackedWindow.bounded(chain_denominator(chain), *walk_t_range(chain),
                                folding_pair_count(chain.partition))


def walk_shard(chain: LambdaChain, perms: list[Perm],
               window: PackedWindow) -> ContentAccumulator:
    """Accumulate walk terms for every fold subset of the given permutations.

    The sums are packed in ``window``, the caller's ``walk_window(chain)``,
    so shards of one computation add as integers.  Everything a term needs
    from its fold set is compiled once per fold set into a ``FoldPlan``
    (``_fold_data``); the lengths and weight readers of the permutations come
    with it, from ``perm_tables``.  Fold sets with equal multisets are
    walked together, over every permutation, and the accumulator is flushed
    after each such batch: it holds one pending group at a time, builds its
    lift once and shifts that once per distinct monomial.
    """
    factors = chain_denominator(chain)
    acc = ContentAccumulator(window)
    batches: dict[tuple[tuple[int, int], ...], list[list[int]]] = {}
    for mask in range(1 << chain.m):
        folds = fold_list(mask)
        den = sorted(factors[p - 1] for p in folds)
        batches.setdefault(tuple(den), []).append(folds)
    for batch in batches.values():
        for folds in batch:
            plan = _fold_data(folds, chain)
            for w in perms:
                num, den, content = _walk_term_raw(w, plan)
                acc.add(content, num, den)
        acc.flush()
    return acc


def ram_yip_sum(lam: Partition, n: int, jobs: int = 1) -> SymFun:
    """Macdonald P_lambda via the alcove-walk formula over all folding pairs.

    The permutations are split into up to ``jobs`` shards; one shard runs in
    the calling process (see ``parallel``).
    """
    if n != lam.n:
        raise ValueError(f"n={n} does not match partition {lam.parts}")
    from .parallel import parallel_ram_yip_sum

    return parallel_ram_yip_sum(lam, n, jobs)
