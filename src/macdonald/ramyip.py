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

from .chain import InternalInvariantError, LambdaChain, Partition, build_chain
from .qt import Content, ContentAccumulator, RationalQT, SymFun, term_value
from .weyl import (
    Perm,
    Weight,
    affine_reflect,
    all_perms,
    is_bruhat_descent,
    perm_length,
    permute_weight,
    right_mul_transposition,
)

DEFAULT_TERM_CAP = 1 << 26


class TermCapExceeded(RuntimeError):
    """The folding-pair space is larger than the configured cap."""


def term_cap() -> int:
    raw = os.environ.get("MACDONALD_TERM_CAP", "")
    return int(raw) if raw else DEFAULT_TERM_CAP


def folding_pairs_text(chain: LambdaChain) -> str:
    """The folding-pair count 2^m * n!, written as that formula past 1024 bits.

    Python refuses to convert an int of over 4300 digits to text.
    """
    n = chain.partition.n
    total = (1 << chain.m) * math.factorial(n)
    return str(total) if total.bit_length() <= 1024 else f"2^{chain.m} * {n}!"


def check_term_cap(chain: LambdaChain, cap: int | None = None) -> int:
    total = (1 << chain.m) * math.factorial(chain.partition.n)
    cap = term_cap() if cap is None else cap
    if total > cap:
        raise TermCapExceeded(
            f"{folding_pairs_text(chain)} folding pairs exceed the term cap {cap}")
    return total


@dataclass(frozen=True)
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


def _fold_data(fold_list: list[int], chain: LambdaChain) -> tuple[Weight, Counter]:
    """The parts of a walk term that depend only on its fold set.

    These are the folded weight and the denominator multiset.
    """
    entries = [chain.entries[p - 1] for p in fold_list]
    den = Counter([(e.mult, e.height) for e in entries])
    return folded_weight(fold_list, chain), den


def _walk_term_raw(w: Perm, fold_list: list[int], chain: LambdaChain,
                   w_length: int | None = None,
                   fold_data: tuple[Weight, Counter] | None = None):
    """Bare numerator, denominator multiset, and content of one walk term.

    The numerator is the monomial q^a t^b alone; the term's value is
    num * (1-t)^|den| / prod(den) (see ``qt.term_value``).  ``fold_data``
    is ``_fold_data(fold_list, chain)``, passed in when many permutations
    share one fold set; the returned multiset is then that shared Counter.
    """
    mu, den = _fold_data(fold_list, chain) if fold_data is None else fold_data
    entries = chain.entries
    cur = w
    qexp = 0
    textra = 0
    for p in fold_list:
        entry = entries[p - 1]
        if not is_bruhat_descent(cur, entry.root):
            qexp += entry.mult
            textra += entry.height
        cur = right_mul_transposition(cur, entry.root)
    lw = perm_length(w) if w_length is None else w_length
    parity_num = lw - perm_length(cur) - len(fold_list)
    if parity_num % 2:
        raise InternalInvariantError(
            f"odd t-exponent numerator {parity_num} for w={w}, folds={fold_list}"
        )
    return {(qexp, parity_num // 2 + textra): 1}, den, permute_weight(w, mu)


def walk_term(w: Perm, folds, chain: LambdaChain) -> tuple[RationalQT, Content]:
    """Coefficient and monomial exponent of a single folding pair."""
    num, den, content = _walk_term_raw(w, sorted(folds), chain)
    return term_value(num, den), content


def chain_denominator(chain: LambdaChain) -> list[tuple[int, int]]:
    """All binomial factors any folding subset can produce."""
    return [(e.mult, e.height) for e in chain.entries]


def walk_shard(chain: LambdaChain, perms: list[Perm]) -> ContentAccumulator:
    """Accumulate walk terms for every fold subset of the given permutations.

    A term's denominator multiset and folded weight depend only on its fold
    set, so both are computed once per fold set (``_fold_data``) rather than
    once per permutation.  Fold sets with equal multisets are walked
    together, over every permutation, and the accumulator is flushed after
    each such batch: it holds one pending group at a time and lifts it once
    per content.
    """
    factors = chain_denominator(chain)
    acc = ContentAccumulator(factors)
    positions = range(1, chain.m + 1)
    batches: dict[tuple[tuple[int, int], ...], list[int]] = {}
    for mask in range(1 << chain.m):
        den = sorted(factors[p - 1] for p in positions if mask >> (p - 1) & 1)
        batches.setdefault(tuple(den), []).append(mask)
    lengths = [(w, perm_length(w)) for w in perms]
    for masks in batches.values():
        for mask in masks:
            fold_list = [p for p in positions if mask >> (p - 1) & 1]
            fold_data = _fold_data(fold_list, chain)
            for w, lw in lengths:
                num, den, content = _walk_term_raw(w, fold_list, chain, lw,
                                                   fold_data)
                acc.add(content, num, den)
        acc.flush()
    return acc


def ram_yip_sum(lam: Partition, n: int, jobs: int = 1,
                cap: int | None = None) -> SymFun:
    """Macdonald P_lambda via the alcove-walk formula over all folding pairs."""
    if n != lam.n:
        raise ValueError(f"n={n} does not match partition {lam.parts}")
    chain = build_chain(lam)
    check_term_cap(chain, cap)
    if jobs > 1:
        from .parallel import parallel_ram_yip_sum

        return parallel_ram_yip_sum(lam, n, jobs)
    return walk_shard(chain, all_perms(n)).finalize()
