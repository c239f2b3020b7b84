"""The packed class identity against RationalQT equality on random small shapes.

``verify_all_classes`` decides each class identity as one integer equality
in a ``ClassWindow``.  Here that verdict is checked against a reference that
sums the fiber's walk terms as reduced ``RationalQT`` values and compares the
sum with the filling's term: on the true fibers, and on fibers with one walk
term perturbed (a coefficient off by one, a t power
shifted by one, or a denominator factor swapped for another chain factor).
"""

import itertools
import math
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import macdonald.compression as compression
from macdonald.chain import InternalInvariantError, Partition, build_chain
from macdonald.compression import (
    ClassWindow,
    FiberSum,
    _check_class,
    class_sum,
    group_fibers,
    verify_all_classes,
)
from macdonald.fillings import (
    Filling,
    _filling_total,
    _term_raw,
    column_table,
    compressed_term,
    diagram_denominator,
    shape_of,
)
from macdonald.qt import (
    ContentAccumulator,
    RationalQT,
    rational_add,
    rational_zero,
    term_value,
)
from macdonald.ramyip import FoldingPair, chain_denominator, walk_window

MAX_PAIRS = 3072      # folding pairs a shape may have, so each example is quick


def _small_shapes() -> list[Partition]:
    out = []
    for rows in (1, 2, 3):
        for body in itertools.combinations(range(5, 0, -1), rows):
            lam = Partition(body + (0,))
            if (1 << build_chain(lam).m) * math.factorial(lam.n) <= MAX_PAIRS:
                out.append(lam)
    return out


SHAPES = _small_shapes()


def reference_verdict(sigma, pairs, chain) -> bool:
    """Contents match and the reduced walk terms sum to the filling's term.

    Terms come from ``compression._walk_term_raw`` and ``_fold_data`` as they
    stand, so a patched perturbation reaches the reference too.
    """
    rhs, content = compressed_term(sigma)
    lhs = rational_zero()
    contents_ok = True
    for pair in pairs:
        fold_list = sorted(pair.folds)
        fold_data = compression._fold_data(fold_list, chain)
        num, den, term_content = compression._walk_term_raw(
            pair.w, fold_list, chain, None, fold_data)
        if term_content != content:
            contents_ok = False
            continue
        lhs = rational_add(lhs, term_value(num, den))
    return contents_ok and lhs == rhs


def test_small_shapes_cover_every_row_count():
    assert {lam.n for lam in SHAPES} == {2, 3, 4}
    assert len(SHAPES) >= 10


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SHAPES), st.data())
def test_packed_verdict_equals_rational_equality_on_true_fibers(lam, data):
    fibers = group_fibers(lam, lam.n)
    values = data.draw(st.sampled_from(sorted(fibers)))
    sigma = Filling(lam.parts, lam.n, values)
    assert reference_verdict(sigma, fibers[values], build_chain(lam))
    report = verify_all_classes(lam, lam.n)
    assert report.ok and report.classes[values].ok
    assert report.classes[values].lhs == report.classes[values].rhs


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SHAPES), st.data(),
       st.sampled_from(["coefficient", "t-power", "denominator"]),
       st.sampled_from([-1, 1]))
def test_packed_verdict_equals_rational_equality_on_perturbed_fibers(
        lam, data, kind, step):
    chain = build_chain(lam)
    fibers = group_fibers(lam, lam.n)
    values = data.draw(st.sampled_from(sorted(fibers)))
    sigma = Filling(lam.parts, lam.n, values)
    pairs = fibers[values]
    target = data.draw(st.sampled_from(pairs))
    # room for one coefficient of 2 in the fiber
    window = ClassWindow(chain, len(pairs) + 1)
    real_walk, real_fold_data = compression._walk_term_raw, compression._fold_data

    def walk(w, fold_list, chain, *args):
        num, den, content = real_walk(w, fold_list, chain, *args)
        if FoldingPair(w, frozenset(fold_list)) != target:
            return num, den, content
        ((a, b), c), = num.items()
        if kind == "coefficient":
            num = {(a, b): c + step} if c + step else {}
        else:
            packing = window.packing
            shift = step if packing.t_lo <= b + step <= packing.t_hi else -step
            num = {(a, b + shift): c}
        return num, den, content

    patch = mock.patch.object(compression, "_walk_term_raw", walk)
    if kind == "t-power":
        assume(window.packing.t_lo < window.packing.t_hi)   # room to shift
    if kind == "denominator":
        assume(target.folds)
        fold_list = sorted(target.folds)
        den = real_fold_data(fold_list, chain)[1]
        chain_den = Counter(chain_denominator(chain))
        old = data.draw(st.sampled_from(sorted(den)))
        swaps = sorted(f for f in chain_den if f != old and den[f] < chain_den[f])
        assume(swaps)
        new = data.draw(st.sampled_from(swaps))

        def fold_data(fold_list, chain):
            plan = real_fold_data(fold_list, chain)
            if frozenset(fold_list) == target.folds:
                plan = plan._replace(den=plan.den - Counter([old]) + Counter([new]))
            return plan

        patch = mock.patch.object(compression, "_fold_data", fold_data)
    with patch:
        want = reference_verdict(sigma, pairs, chain)
        assert _check_class(sigma, pairs, window).ok == want


def _sum_mapped_fiber(window, num_map) -> None:
    """Sum the first fiber of (3,2,1,0), each walk numerator mapped by num_map.

    A ``ClassWindow`` sums it with ``class_sum``; a ``PackedWindow`` with a
    ``ContentAccumulator`` in that window.
    """
    lam = Partition((3, 2, 1, 0))
    chain = build_chain(lam)
    values, pairs = next(iter(group_fibers(lam, 4).items()))
    content = Filling(lam.parts, 4, values).content()
    real = compression._walk_term_raw

    def mapped(w, fold_list, chain, *args):
        num, den, term_content = real(w, fold_list, chain, *args)
        return num_map(num), den, term_content

    with mock.patch.object(compression, "_walk_term_raw", mapped):
        if isinstance(window, ClassWindow):
            class_sum(pairs, chain, content, window)
            return
        acc = ContentAccumulator(window)
        for pair in pairs:
            num, den, term_content = compression._walk_term_raw(
                pair.w, sorted(pair.folds), chain)
            acc.add(term_content, num, den)
        acc.flush()


def _window_3210(site):
    chain = build_chain(Partition((3, 2, 1, 0)))
    if site == "accumulator":
        return walk_window(chain), walk_window(chain)
    window = ClassWindow(chain, 1)
    return window, window.packing


def test_a_fiber_over_the_window_budget_raises():
    window, packing = _window_3210("class")
    with pytest.raises(InternalInvariantError, match="budget"):
        _sum_mapped_fiber(window, lambda num: {m: packing.budget * c
                                               for m, c in num.items()})


def test_accumulated_terms_over_the_window_budget_raise():
    window, packing = _window_3210("accumulator")
    with pytest.raises(InternalInvariantError, match="budget"):
        _sum_mapped_fiber(window, lambda num: {m: packing.budget * c
                                               for m, c in num.items()})


OUTSIDE = [(site, side) for site in ("class", "accumulator")
           for side in ("below", "above", "negative-q")]


@pytest.mark.parametrize("site, side", OUTSIDE, ids=[
    side if site == "class" else f"{site}-{side}" for site, side in OUTSIDE])
def test_a_numerator_outside_the_window_raises(site, side):
    window, packing = _window_3210(site)
    a = -1 if side == "negative-q" else 0
    b = {"below": packing.t_lo - 1, "above": packing.t_hi + 1}.get(side, 0)
    with pytest.raises(InternalInvariantError, match="outside the packed window"):
        _sum_mapped_fiber(window, lambda num: {(a, b): c for c in num.values()})


def test_identity_lifts_both_sides_to_the_window_factors():
    lam = Partition((3, 2, 1, 0))
    window = ClassWindow(build_chain(lam), 1)
    packing = window.packing

    def lifted(num, den):
        return packing.pack(num, window.lift(den))[0]

    lhs = FiberSum(lifted({(0, 0): 1, (0, 1): -1}, Counter()), window)
    assert lhs == RationalQT({(0, 0): 1, (0, 1): -1})
    assert lhs.den == packing.factors
    # the bare term (1 - q t^2) * (1 - t) / (1 - q t^2) is 1 - t; both sides
    # are lifted to the window's factors, each by the factors its den lacks
    assert lifted({(0, 0): 1, (1, 2): -1}, Counter({(1, 2): 1})) == lhs.packed
    assert lifted({(0, 0): 1}, Counter({(1, 2): 1})) != lhs.packed


@pytest.mark.parametrize("lam", SHAPES, ids=lambda lam: str(lam.parts))
def test_window_factors_are_the_union_and_hold_every_denominator(lam):
    chain = build_chain(lam)
    chain_den = Counter(chain_denominator(chain))
    diagram = Counter(diagram_denominator(shape_of(lam.parts)))
    fibers = group_fibers(lam, lam.n)
    window = ClassWindow(chain, max(map(len, fibers.values())))
    factors = Counter(window.packing.factors)
    assert factors == chain_den | diagram
    table = column_table(lam.parts, lam.n, "paper")
    for values, pairs in fibers.items():
        _num, den_r, _content = _term_raw(table, _filling_total(table, values))
        assert not den_r - diagram and not den_r - factors
        for pair in pairs:
            _num, den, _content = compression._walk_term_raw(
                pair.w, sorted(pair.folds), chain)
            assert not den - chain_den and not den - factors
