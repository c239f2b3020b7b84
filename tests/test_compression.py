"""Filling map, fibers, surjectivity witness, per-class identities."""

import itertools
import random

import pytest

from macdonald.chain import Partition, build_chain
import macdonald.compression as compression
from macdonald.compression import (
    ClassResult,
    ClassWindow,
    class_sum,
    fiber_witness,
    filling_map,
    group_fibers,
    verify_all_classes,
)
from macdonald.fillings import Filling, compressed_term, enumerate_nonattacking
from macdonald.qt import PackedWindow, RationalQT, rational_reduce, rational_str
from macdonald.ramyip import (
    FoldingPair,
    _fold_data,
    fold_list,
    fold_mask,
    folded_weight,
)
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


def reference_image_slots(fold_list, chain):
    """The slots of w that the image of (w, fold_list) reads, in reading order.

    The filling map's own construction, column by column: before column j,
    the folds of column j + 1 swap their roots' positions, starting from the
    identity; column j takes the first lambda'_j positions, and reading
    order lays the columns end to end from column 1.
    """
    lam = chain.partition
    roots_by_col = {}
    for p in fold_list:
        entry = chain.entries[p - 1]
        roots_by_col.setdefault(entry.column, []).append(entry.root)
    cur = list(range(lam.n))
    columns = []        # columns width, width - 1, ..., 1
    for j in range(lam.parts[0], 0, -1):
        for i, k in roots_by_col.get(j + 1, ()):
            cur[i - 1], cur[k - 1] = cur[k - 1], cur[i - 1]
        columns.append(cur[:lam.conjugate[j - 1]])
    return tuple(itertools.chain.from_iterable(reversed(columns)))


@pytest.mark.parametrize("parts", [(1, 0), (2, 1, 0), (3, 2, 1, 0), (5, 3, 1, 0),
                                   (4, 3, 2, 1, 0)])
def test_fold_plan_image_reads_the_column_by_column_slots(parts):
    lam = Partition(parts)
    chain = build_chain(lam)
    ws = [tuple(range(lam.n)), tuple(range(lam.n, 0, -1))]
    for mask in range(1 << chain.m):
        folds = fold_list(mask)
        assert fold_mask(folds) == mask
        slots = reference_image_slots(folds, chain)
        image = _fold_data(folds, chain).image
        for w in ws:
            assert image(w) == tuple(w[slot] for slot in slots)


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
    assert report.classes[(1, 2)] == ClassResult(1, True, True)
    # sigma = (1,1): fiber {(12, {})}, class sum 1
    assert fibers[(1, 1)] == [FoldingPair((1, 2), frozenset())]
    assert report.classes[(1, 1)] == ClassResult(1, True, True)
    window = ClassWindow(build_chain(lam), 1)
    total, contents_ok = class_sum(fibers[(1, 1)], (2, 0), window)
    assert contents_ok
    assert window.packing.rational(total) == RationalQT({(0, 0): 1}, [])
    assert compressed_term(Filling(lam.parts, 2, (1, 1))) == (
        RationalQT({(0, 0): 1}, []), (2, 0))


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
    fibers = group_fibers(lam, 4)
    report = verify_all_classes(lam, 4)
    assert len(report.classes) == 288
    # one window for every fiber, as the check shares it
    shared = ClassWindow(chain, max(map(len, fibers.values())))
    for values, pairs in fibers.items():
        rhs, content = compressed_term(Filling(lam.parts, 4, values))
        fresh = ClassWindow(chain, len(pairs))
        total, contents_ok = class_sum(pairs, content, fresh)
        lhs = fresh.packing.rational(total)
        shared_total, shared_ok = class_sum(pairs, content, shared)
        shared_lhs = shared.packing.rational(shared_total)
        assert (lhs.num, lhs.den) == (shared_lhs.num, shared_lhs.den)
        assert contents_ok and shared_ok
        assert lhs == rhs
        assert report.classes[values] == ClassResult(len(pairs), True, True)


def test_corrupted_walk_terms_fail_their_class(monkeypatch):
    lam = Partition((3, 2, 1, 0))
    # a fiber of two pairs whose sum over the window's factors is not reduced
    values = (1, 2, 3, 1, 2, 4)
    pairs = group_fibers(lam, 4)[values]
    assert len(pairs) == 2
    real = compression._walk_term_raw

    def corrupted(w, plan):
        num, den, content = real(w, plan)
        if FoldingPair(w, frozenset(plan.folds)) in pairs:
            num = {m: -c for m, c in num.items()}
        return num, den, content

    monkeypatch.setattr(compression, "_walk_term_raw", corrupted)
    report = verify_all_classes(lam, 4)
    assert not report.ok
    assert report.classes[values] == ClassResult(2, False, True)
    assert sum(not c.ok for c in report.classes.values()) == 1
    # the corrupted fiber sum, summed outside the check
    sigma = Filling(lam.parts, 4, values)
    rhs, content = compressed_term(sigma)
    window = ClassWindow(build_chain(lam), len(pairs))
    total, contents_ok = class_sum(pairs, content, window)
    lhs = window.packing.rational(total)
    assert contents_ok
    assert lhs == RationalQT({m: -c for m, c in rhs.num.items()}, rhs.den)
    reduced = rational_str(rational_reduce(lhs))
    assert reduced != rational_str(lhs)
    assert report.first_failure.startswith(
        f"class identity failed for filling:\n{sigma.render()}\n"
        f"fiber sum      = {reduced}\n"
        f"filling term   = {rational_str(rhs)}\n")


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


def test_passing_classes_build_no_rational_values(monkeypatch):
    lam = Partition((3, 2, 1, 0))

    def never(*args, **kwargs):
        raise AssertionError("the check built a rational value")

    monkeypatch.setattr(PackedWindow, "rational", never)
    monkeypatch.setattr(compression, "compressed_term", never)
    report = verify_all_classes(lam, 4)
    assert report.ok and len(report.classes) == 288
    assert all(c.ok for c in report.classes.values())
    # a failing class does build them, to render its counterexample
    real = compression._term_raw

    def corrupted(table, total):
        num, den, content = real(table, total)
        return {m: 7 * c for m, c in num.items()}, den, content

    monkeypatch.setattr(compression, "_term_raw", corrupted)
    with pytest.raises(AssertionError, match="built a rational value"):
        verify_all_classes(lam, 4)


def test_verify_class_decides_on_the_packed_identity(monkeypatch):
    lam = Partition((3, 2, 1, 0))
    sigma = next(enumerate_nonattacking(lam, 4))
    assert verify_all_classes(lam, 4).classes[sigma.values].ok
    real = compression.class_sum

    def off_by_one(pairs, content, window):
        # the fiber sum's packed integer, one unit off in its lowest digit
        lhs, contents_ok = real(pairs, content, window)
        return lhs + 1, contents_ok

    monkeypatch.setattr(compression, "class_sum", off_by_one)
    report = verify_all_classes(lam, 4)
    assert not report.ok and not report.classes[sigma.values].ok
    assert report.classes[sigma.values].contents_ok
