"""Filling map, fibers, surjectivity witness, per-class identities."""

import random

from macdonald.chain import Partition, build_chain
import macdonald.compression as compression
from macdonald.compression import (
    class_sum,
    fiber_witness,
    filling_map,
    group_fibers,
    verify_all_classes,
)
from macdonald.fillings import Filling, enumerate_nonattacking
from macdonald.qt import RationalQT, rational_reduce, rational_str
from macdonald.ramyip import FoldingPair, folded_weight
from macdonald.weyl import all_perms, permute_weight


def test_filling_map_worked_example():
    lam = Partition((4, 3, 1, 0))
    sigma = filling_map((2, 3, 4, 1), [1, 4, 6, 7], lam)
    assert sigma.render() == "2 1 3 3\n3 4 2\n1"
    assert sigma[(1, 4)] == 2 and sigma[(2, 2)] == 4 and sigma[(3, 1)] == 1


def test_filling_map_empty_folds():
    lam = Partition((3, 2, 1, 0))
    w = (3, 1, 4, 2)
    sigma = filling_map(w, [], lam)
    conj = lam.conjugate
    for j in range(1, 4):
        for i in range(1, conj[j - 1] + 1):
            assert sigma[(i, j)] == w[i - 1]
    assert sigma.content() == permute_weight(w, lam.parts)


def test_content_identity_random_pairs():
    lam = Partition((3, 2, 1, 0))
    chain = build_chain(lam)
    rng = random.Random(7)
    perms = all_perms(4)
    for _ in range(100):
        w = rng.choice(perms)
        folds = sorted(rng.sample(range(1, chain.m + 1),
                                  rng.randint(0, chain.m)))
        sigma = filling_map(w, folds, lam)
        assert sigma.content() == permute_weight(w, folded_weight(folds, chain))


def test_content_identity_exhaustive_small():
    for parts in [(2, 0), (2, 1, 0), (3, 1, 0), (3, 2, 1, 0)]:
        lam = Partition(parts)
        chain = build_chain(lam)
        for w in all_perms(lam.n):
            for mask in range(1 << chain.m):
                folds = [p for p in range(1, chain.m + 1)
                         if mask >> (p - 1) & 1]
                sigma = filling_map(w, folds, lam)
                assert sigma.content() == permute_weight(
                    w, folded_weight(folds, chain)
                )


def test_image_is_nonattacking():
    lam = Partition((3, 2, 1, 0))
    chain = build_chain(lam)
    rng = random.Random(11)
    for _ in range(200):
        w = rng.choice(all_perms(4))
        folds = sorted(rng.sample(range(1, chain.m + 1),
                                  rng.randint(0, chain.m)))
        assert filling_map(w, folds, lam).is_nonattacking()


def test_witness_round_trip_worked_example():
    lam = Partition((4, 3, 1, 0))
    sigma = filling_map((2, 3, 4, 1), [1, 4, 6, 7], lam)
    pair = fiber_witness(sigma, lam)
    assert filling_map(pair.w, sorted(pair.folds), lam).values == sigma.values


def test_witness_of_unfolded_image():
    lam = Partition((3, 2, 1, 0))
    w = (2, 4, 1, 3)
    sigma = filling_map(w, [], lam)
    pair = fiber_witness(sigma, lam)
    assert pair.folds == frozenset()
    assert filling_map(pair.w, [], lam).values == sigma.values


def test_witness_round_trips_for_all_288():
    lam = Partition((3, 2, 1, 0))
    for sigma in enumerate_nonattacking(lam, 4):
        pair = fiber_witness(sigma, lam)
        assert filling_map(pair.w, sorted(pair.folds), lam).values == sigma.values


def test_fibers_partition_the_pair_space():
    lam = Partition((3, 2, 1, 0))
    fibers = group_fibers(lam, 4)
    assert sum(len(v) for v in fibers.values()) == 384
    assert len(fibers) == 288
    enumerated = {f.values for f in enumerate_nonattacking(lam, 4)}
    assert set(fibers) == enumerated
    for sigma_values, pairs in fibers.items():
        assert len(set(pairs)) == len(pairs)


def test_fiber_contains_unfolded_and_witness():
    lam = Partition((2, 1, 0))
    w = (3, 1, 2)
    sigma = filling_map(w, [], lam)
    fb = group_fibers(lam, 3)[sigma.values]
    assert FoldingPair(w, frozenset()) in fb
    assert fiber_witness(sigma, lam) in fb


def test_verify_class_p20_by_hand():
    lam = Partition((2, 0))
    fibers = group_fibers(lam, 2)
    report = verify_all_classes(lam, 2)
    # sigma = (1,2): sigma(1,1)=1, sigma(1,2)=2 -> fiber {(21,{1})}
    assert fibers[(1, 2)] == [FoldingPair((2, 1), frozenset({1}))]
    assert report.classes[(1, 2)].ok
    # sigma = (1,1): fiber {(12, {})}, class sum 1
    assert fibers[(1, 1)] == [FoldingPair((1, 2), frozenset())]
    assert report.classes[(1, 1)].ok
    assert report.classes[(1, 1)].lhs == RationalQT({(0, 0): 1}, [])


def test_verify_all_classes_small():
    for parts, n, pairs in [((2, 0), 2, 4), ((2, 1, 0), 3, 12)]:
        report = verify_all_classes(Partition(parts), n)
        assert report.ok
        assert report.total_pairs == pairs
        assert all(c.ok for c in report.classes.values())


def test_verify_all_classes_3210():
    report = verify_all_classes(Partition((3, 2, 1, 0)), 4)
    assert report.ok
    assert len(report.classes) == 288
    assert report.total_pairs == 384
    assert not report.missing_fillings


def test_shared_lift_memo_matches_fresh_memo_per_fiber():
    lam = Partition((3, 2, 1, 0))
    chain = build_chain(lam)
    report = verify_all_classes(lam, 4)
    assert len(report.classes) == 288
    for values, result in report.classes.items():
        content = Filling(lam.parts, 4, values).content()
        lhs, contents_ok = class_sum(result.pairs, chain, content)
        assert (lhs.num, lhs.den) == (result.lhs.num, result.lhs.den)
        assert contents_ok == result.contents_ok
        assert lhs == result.rhs and result.ok


def test_corrupted_walk_terms_fail_their_class(monkeypatch):
    lam = Partition((3, 2, 1, 0))
    # a fiber of two pairs whose sum over the window's factors is not reduced
    values = (1, 2, 3, 1, 2, 4)
    pairs = group_fibers(lam, 4)[values]
    assert len(pairs) == 2
    real = compression._walk_term_raw

    def corrupted(w, folds, chain, *args, **kwargs):
        num, den, content = real(w, folds, chain, *args, **kwargs)
        if FoldingPair(w, frozenset(folds)) in pairs:
            num = {m: -c for m, c in num.items()}
        return num, den, content

    monkeypatch.setattr(compression, "_walk_term_raw", corrupted)
    report = verify_all_classes(lam, 4)
    assert not report.ok
    result = report.classes[values]
    assert not result.ok and result.contents_ok
    assert sum(not c.ok for c in report.classes.values()) == 1
    negated_rhs = {m: -c for m, c in result.rhs.num.items()}
    assert result.lhs == RationalQT(negated_rhs, result.rhs.den)
    reduced = rational_str(rational_reduce(result.lhs))
    assert reduced != rational_str(result.lhs)
    assert report.first_failure.startswith("class identity failed for filling:")
    assert f"fiber sum      = {reduced}\n" in report.first_failure


def test_corrupted_filling_terms_fail_every_class(monkeypatch):
    lam = Partition((3, 2, 1, 0))
    real = compression._term_raw

    def corrupted(table, total):
        num, den, content = real(table, total)
        return {m: 7 * c for m, c in num.items()}, den, content

    monkeypatch.setattr(compression, "_term_raw", corrupted)
    report = verify_all_classes(lam, 4)
    assert not report.ok
    assert len(report.classes) == 288
    assert not any(c.ok for c in report.classes.values())
    assert all(c.contents_ok for c in report.classes.values())
    assert report.first_failure.startswith("class identity failed for filling:")


def test_passing_classes_build_no_rational_values():
    report = verify_all_classes(Partition((3, 2, 1, 0)), 4)
    assert all(c.ok and c._lhs is None for c in report.classes.values())


def test_verify_class_decides_on_the_packed_identity(monkeypatch):
    lam = Partition((3, 2, 1, 0))
    sigma = next(enumerate_nonattacking(lam, 4))
    assert verify_all_classes(lam, 4).classes[sigma.values].ok
    real = compression.class_sum

    def off_by_one(pairs, chain, content, window=None):
        # the fiber sum's packed integer, one unit off in its lowest digit
        lhs, contents_ok = real(pairs, chain, content, window)
        return compression.FiberSum(lhs.packed + 1, lhs.window), contents_ok

    monkeypatch.setattr(compression, "class_sum", off_by_one)
    report = verify_all_classes(lam, 4)
    assert not report.ok and not report.classes[sigma.values].ok
    assert report.classes[sigma.values].contents_ok
