"""Folding-pair classification and the alcove-walk formula."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macdonald.chain import Partition, build_chain
from macdonald.fillings import compressed_sum
from macdonald.parallel import _merge_into
from macdonald.qt import RationalQT, rational_one
from macdonald.ramyip import (
    TermCapExceeded,
    WalkMemo,
    _fold_data,
    _walk_term_raw,
    classify_folds,
    folded_weight,
    ram_yip_sum,
    walk_shard,
    walk_t_range,
    walk_term,
    walk_window,
)
from macdonald.weyl import all_perms, identity_perm, perm_length, permute_weight


def chain4310():
    return build_chain(Partition((4, 3, 1, 0)))


def test_classify_worked_example():
    cf = classify_folds((2, 3, 4, 1), {1, 4, 6, 7}, chain4310())
    assert cf.plus == {1, 7}
    assert cf.minus == {4, 6}
    assert cf.perms == (
        (2, 3, 4, 1),
        (1, 3, 4, 2),
        (1, 4, 3, 2),
        (3, 4, 1, 2),
        (3, 2, 1, 4),
    )


def test_classify_empty_folds():
    cf = classify_folds((2, 3, 4, 1), set(), chain4310())
    assert cf.plus == cf.minus == frozenset()
    assert cf.perms == ((2, 3, 4, 1),)


def test_identity_folds_negative():
    chain = chain4310()
    for p in range(1, chain.m + 1):
        cf = classify_folds(identity_perm(4), {p}, chain)
        assert cf.minus == {p} and not cf.plus


def test_folded_weight_empty():
    chain = chain4310()
    assert folded_weight(set(), chain) == (4, 3, 1, 0)


def test_folded_weight_single_reflection():
    chain = build_chain(Partition((2, 1, 0)))
    assert chain.entries[0].root == (1, 3) and chain.entries[0].mult == 1
    assert folded_weight({1}, chain) == (1, 1, 1)


def test_folded_weight_worked_example():
    assert folded_weight({1, 4, 6, 7}, chain4310()) == (2, 3, 1, 2)


def test_walk_term_unfolded():
    lam = Partition((2, 1, 0))
    chain = build_chain(lam)
    coef, content = walk_term(identity_perm(3), set(), chain)
    assert coef == rational_one() and content == (2, 1, 0)


def test_walk_term_negative_fold():
    lam = Partition((2, 1, 0))
    chain = build_chain(lam)
    coef, content = walk_term(identity_perm(3), {1}, chain)
    # t^((0-3-1)/2) (1-t) q t^2/(1-q t^2) = q(1-t)/(1-q t^2)
    assert coef == RationalQT({(1, 0): 1, (1, 1): -1}, [(1, 2)])
    assert content == (1, 1, 1)


def test_walk_term_positive_fold():
    lam = Partition((2, 0))
    chain = build_chain(lam)
    coef, content = walk_term((2, 1), {1}, chain)
    assert coef == RationalQT({(0, 0): 1, (0, 1): -1}, [(1, 1)])
    assert content == (1, 1)


def test_sum_single_box():
    P = ram_yip_sum(Partition((1, 0)), 2)
    assert P == {(1, 0): rational_one(), (0, 1): rational_one()}


def test_sum_p20_hand_expansion():
    P = ram_yip_sum(Partition((2, 0)), 2)
    middle = RationalQT(
        {(0, 0): 1, (1, 0): 1, (0, 1): -1, (1, 1): -1}, [(1, 1)]
    )
    assert P == {
        (2, 0): rational_one(),
        (0, 2): rational_one(),
        (1, 1): middle,
    }


def test_term_count_3210():
    chain = build_chain(Partition((3, 2, 1, 0)))
    assert (1 << chain.m) * 24 == 384


def test_term_cap():
    with pytest.raises(TermCapExceeded):
        ram_yip_sum(Partition((3, 2, 1, 0)), 4, cap=100)


def test_fold_parity_exhaustive_small():
    # len(w) - len(w*phi) - |J| is even for every pair, lambda_1 <= 3, n <= 4
    for parts in [(2, 0), (3, 0), (2, 1, 0), (3, 1, 0), (3, 2, 0), (3, 2, 1, 0)]:
        lam = Partition(parts)
        chain = build_chain(lam)
        n = lam.n
        for w in all_perms(n):
            lw = perm_length(w)
            for mask in range(1 << chain.m):
                folds = [p for p in range(1, chain.m + 1) if mask >> (p - 1) & 1]
                cf = classify_folds(w, folds, chain)
                assert (lw - perm_length(cf.final) - len(folds)) % 2 == 0


def symmetric_and_monic(P, lam):
    from math import factorial

    top = P.get(lam.parts)
    assert top is not None and top == rational_one()
    groups = {}
    for content, coef in P.items():
        groups.setdefault(tuple(sorted(content, reverse=True)), []).append(coef)
    for rep, coefs in groups.items():
        mult = {}
        for v in rep:
            mult[v] = mult.get(v, 0) + 1
        orbit = factorial(lam.n)
        for m in mult.values():
            orbit //= factorial(m)
        assert len(coefs) == orbit
        assert all(c == coefs[0] for c in coefs[1:])


@pytest.mark.parametrize("parts", [(2, 0), (3, 0), (2, 1, 0), (3, 1, 0)])
def test_sum_symmetric_and_monic(parts):
    lam = Partition(parts)
    symmetric_and_monic(ram_yip_sum(lam, lam.n), lam)


@pytest.mark.parametrize(
    "parts",
    [(1, 0), (2, 0), (3, 0), (2, 1, 0), (3, 1, 0), (3, 2, 0), (3, 2, 1, 0),
     (5, 1, 0), (5, 2, 1, 0)],
)
def test_matches_compressed_formula(parts):
    lam = Partition(parts)
    assert ram_yip_sum(lam, lam.n) == compressed_sum(lam, lam.n)


def test_enumeration_is_complete():
    # every (w, J) contributes exactly one term: spot-check the count by
    # accumulating into a list-valued dict
    lam = Partition((2, 1, 0))
    chain = build_chain(lam)
    total = 0
    for w in all_perms(3):
        for mask in range(1 << chain.m):
            total += 1
    assert total == (1 << chain.m) * 6 == 12


def test_walk_shard_split_and_merged_equals_unsplit():
    chain = build_chain(Partition((3, 1, 0)))
    perms = all_perms(3)
    window = walk_window(chain)
    whole = walk_shard(chain, perms, window)
    split = walk_shard(chain, perms[:2], window)
    _merge_into(split, [walk_shard(chain, perms[2:], window).packed])
    assert split.packed == whole.packed
    assert split.finalize() == whole.finalize()


def _walk_shapes() -> list[Partition]:
    """Every regular partition with at most 4 parts, parts <= 5."""
    return [Partition(body + (0,))
            for rows in (1, 2, 3)
            for body in itertools.combinations(range(5, 0, -1), rows)]


def reference_walk_term(w, fold_list, chain):
    """A walk term read off the module docstring, one fold at a time."""
    cf = classify_folds(w, fold_list, chain)
    entries = chain.entries
    parity = perm_length(w) - perm_length(cf.final) - len(fold_list)
    assert parity % 2 == 0
    qexp = sum(entries[p - 1].mult for p in cf.minus)
    texp = parity // 2 + sum(entries[p - 1].height for p in cf.minus)
    den = Counter((entries[p - 1].mult, entries[p - 1].height) for p in fold_list)
    return ({(qexp, texp): 1}, den,
            permute_weight(w, folded_weight(fold_list, chain)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_walk_shapes()), st.data())
def test_walk_term_with_and_without_a_plan_matches_the_definition(lam, data):
    chain = build_chain(lam)
    fold_sets = data.draw(st.lists(
        st.sets(st.integers(1, chain.m)) if chain.m else st.just(set()),
        min_size=1, max_size=3))
    memo = WalkMemo()      # shared by every fold set, as in walk_shard
    for folds in fold_sets:
        fold_list = sorted(folds)
        plan = _fold_data(fold_list, chain)
        assert plan.k == len(fold_list)
        for w in all_perms(lam.n):
            want = reference_walk_term(w, fold_list, chain)
            assert _walk_term_raw(w, fold_list, chain) == want
            assert _walk_term_raw(w, fold_list, chain, None, plan, memo) == want
            assert _walk_term_raw(w, fold_list, chain, perm_length(w), plan,
                                  memo) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_walk_shapes()), st.data())
def test_walk_terms_lie_in_the_stated_range(lam, data):
    # the packed window of every walk sum is fixed from these bounds
    chain = build_chain(lam)
    t_lo, t_hi = walk_t_range(chain)
    fold_sets = data.draw(st.lists(
        st.sets(st.integers(1, chain.m)) if chain.m else st.just(set()),
        min_size=1, max_size=4))
    for folds in fold_sets:
        for w in all_perms(lam.n):
            num, _den, _content = _walk_term_raw(w, sorted(folds), chain)
            ((a, b), c), = num.items()
            assert c == 1 and a >= 0 and t_lo <= b <= t_hi
