"""Exact q,t-arithmetic: ring laws, reduction, evaluation, accumulators."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import macdonald.qt as qt
from macdonald.chain import InternalInvariantError
from macdonald.cli import main
from macdonald.parallel import _merge_into
from macdonald.qt import (
    ContentAccumulator,
    PackedWindow,
    PoleError,
    RationalQT,
    _mul_binomial,
    l_add,
    l_eval,
    l_div_binomial,
    l_mul,
    l_one,
    l_mul as laurent_mul,
    rational_add,
    rational_eval_at,
    rational_one,
    rational_reduce,
    rational_str,
    rational_zero,
    symfun_add_term,
    symfun_str,
    term_value,
)

ONE = l_one()
QT = {(1, 1): 1}


def test_laurent_mul_identity():
    assert laurent_mul(ONE, {(0, 0): 1, (1, 1): -1}) == {(0, 0): 1, (1, 1): -1}


def test_laurent_mul_difference_of_squares():
    plus = {(0, 0): 1, (1, 1): 1}
    assert laurent_mul({(0, 0): 1, (1, 1): -1}, plus) == {(0, 0): 1, (2, 2): -1}


def test_laurent_mul_exponent_cancellation():
    assert laurent_mul({(1, 2): 1}, {(0, -2): 1}) == {(1, 0): 1}


def test_laurent_add_cancels_to_empty():
    f = {(2, 1): 3, (0, 0): 1}
    assert l_add(f, {(2, 1): -3, (0, 0): -1}) == {}


laurents = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-5, 5).filter(bool),
    max_size=4,
)
points = st.tuples(
    st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=9),
    st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=9),
)


@settings(max_examples=150)
@given(laurents, laurents, laurents)
def test_laurent_distributivity(f, g, h):
    assert l_mul(l_add(f, g), h) == l_add(l_mul(f, h), l_mul(g, h))


@settings(max_examples=150)
@given(laurents, laurents, points)
def test_laurent_eval_is_ring_hom(f, g, pt):
    q0, t0 = pt
    assert l_eval(l_add(f, g), q0, t0) == l_eval(f, q0, t0) + l_eval(g, q0, t0)
    assert l_eval(l_mul(f, g), q0, t0) == l_eval(f, q0, t0) * l_eval(g, q0, t0)


def test_div_binomial_exact_cases():
    assert l_div_binomial({(0, 0): 1, (1, 1): -1}, 1, 1) == ONE
    sq = {(0, 0): 1, (2, 2): -1}
    assert l_div_binomial(sq, 1, 1) == {(0, 0): 1, (1, 1): 1}
    assert l_div_binomial({(0, 0): 1, (0, 1): -1}, 2, 1) is None


def test_reduce_exact_cancellation():
    r = rational_reduce(RationalQT({(0, 0): 1, (1, 1): -1}, [(1, 1)]))
    assert r.num == ONE and r.den == ()


def test_reduce_difference_of_squares():
    r = rational_reduce(RationalQT({(0, 0): 1, (2, 2): -1}, [(1, 1)]))
    assert r.num == {(0, 0): 1, (1, 1): 1} and r.den == ()


def test_reduce_leaves_nondivisor_alone():
    r = rational_reduce(RationalQT({(0, 0): 1, (0, 1): -1}, [(2, 1)]))
    assert r.num == {(0, 0): 1, (0, 1): -1} and r.den == ((2, 1),)


@settings(max_examples=100)
@given(laurents, st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=2))
def test_reduce_preserves_evaluation_at_20_points(num, den):
    den = [f for f in den if f != (0, 0)]
    f = RationalQT(num, den)
    g = rational_reduce(f)
    tried = 0
    q0 = Fraction(2, 3)
    for k in range(2, 60):
        t0 = Fraction(k, 61)
        try:
            left = rational_eval_at(f, q0, t0)
            right = rational_eval_at(g, q0, t0)
        except PoleError:
            continue       # at most one pole per denominator factor
        assert left == right
        tried += 1
        if tried == 20:
            break
    assert tried == 20


def test_rational_add_num_equals_den():
    f = RationalQT(ONE, [(1, 1)])
    g = RationalQT({(1, 1): -1}, [(1, 1)])
    assert rational_add(f, g) == rational_one()


def test_rational_add_identity():
    f = RationalQT({(2, 0): 3}, [(1, 2)])
    assert rational_add(rational_zero(), f) == f


def test_rational_add_cross_checked_by_evaluation():
    # 1/(1-qt) + q(1-t)/((1-qt)(1-qt^2)) at (1/2, 1/3), against plain fractions
    f = RationalQT(ONE, [(1, 1)])
    g = RationalQT({(1, 0): 1, (1, 1): -1}, [(1, 1), (1, 2)])
    total = rational_add(f, g)
    q0, t0 = Fraction(1, 2), Fraction(1, 3)
    expected = 1 / (1 - q0 * t0) + (q0 * (1 - t0)) / (
        (1 - q0 * t0) * (1 - q0 * t0**2)
    )
    assert rational_eval_at(total, q0, t0) == expected
    assert expected == Fraction(1) / Fraction(5, 6) + Fraction(1, 3) / (
        Fraction(5, 6) * Fraction(17, 18)
    )


def test_eval_at_origin_and_pole():
    f = RationalQT(ONE, [(1, 1)])
    assert rational_eval_at(f, Fraction(0), Fraction(0)) == 1
    g = RationalQT({(1, 0): 1, (1, 1): -1}, [(1, 2)])
    with pytest.raises(PoleError):
        rational_eval_at(g, Fraction(1), Fraction(1))


def test_eval_derived_value():
    g = RationalQT({(1, 0): 1, (1, 1): -1}, [(1, 2)])
    assert rational_eval_at(g, Fraction(2, 3), Fraction(5, 7)) == Fraction(28, 97)


def test_rational_eq_cross_representation():
    a = RationalQT({(0, 0): 1, (1, 1): 1})               # 1 + qt
    b = RationalQT({(0, 0): 1, (2, 2): -1}, [(1, 1)])    # (1-q^2t^2)/(1-qt)
    assert a == b
    assert RationalQT(ONE, [(1, 1)]) != RationalQT(ONE, [(1, 2)])


def test_symfun_add_term_cancellation():
    P = symfun_add_term({}, (2, 0), rational_one())
    P = symfun_add_term(P, (2, 0), RationalQT({(0, 0): -1}))
    assert P == {}


def test_symfun_add_term_single():
    P = symfun_add_term({}, (2, 1, 0), rational_one())
    assert set(P) == {(2, 1, 0)}


def test_symfun_add_term_degree_mismatch():
    P = symfun_add_term({}, (2, 0), rational_one())
    with pytest.raises(ValueError):
        symfun_add_term(P, (1, 0), rational_one())
    with pytest.raises(ValueError):
        symfun_add_term(P, (3, -1), rational_one())


def test_symfun_hand_accumulation_matches_p20():
    # accumulate the four walk terms of P_(2,0) by hand
    P = symfun_add_term({}, (2, 0), rational_one())
    P = symfun_add_term(P, (0, 2), rational_one())
    P = symfun_add_term(P, (1, 1), RationalQT({(1, 0): 1, (1, 1): -1}, [(1, 1)]))
    P = symfun_add_term(P, (1, 1), RationalQT({(0, 0): 1, (0, 1): -1}, [(1, 1)]))
    expected = RationalQT(
        {(0, 0): 1, (1, 0): 1, (0, 1): -1, (1, 1): -1}, [(1, 1)]
    )
    assert P == {(2, 0): rational_one(), (0, 2): rational_one(), (1, 1): expected}


def test_symfun_insertion_order_independent():
    terms = [
        ((1, 1), RationalQT({(1, 0): 1}, [(1, 1)])),
        ((2, 0), rational_one()),
        ((1, 1), RationalQT({(0, 1): -1}, [(1, 2)])),
        ((0, 2), rational_one()),
    ]
    P = {}
    for c, coef in terms:
        P = symfun_add_term(P, c, coef)
    Q = {}
    for c, coef in reversed(terms):
        Q = symfun_add_term(Q, c, coef)
    assert P == Q


def test_accumulator_matches_pairwise_addition():
    # bare terms q * (1-t)/(1-qt) and 1 * (1-t)^2/((1-qt^2)(1-q^2 t))
    den = [(1, 1), (1, 2), (2, 1)]
    acc = ContentAccumulator(PackedWindow.bounded(den, 0, 0, 2))
    from collections import Counter

    acc.add((1, 1), {(1, 0): 1}, Counter([(1, 1)]))
    acc.add((1, 1), {(0, 0): 1}, Counter([(1, 2), (2, 1)]))
    out = acc.finalize()
    direct = rational_add(
        RationalQT({(1, 0): 1, (1, 1): -1}, [(1, 1)]),
        RationalQT({(0, 0): 1, (0, 1): -2, (0, 2): 1}, [(1, 2), (2, 1)]),
    )
    assert out[(1, 1)] == direct


ACC_DEN = [(1, 1), (1, 1), (1, 2), (2, 1), (0, 1), (3, 0)]
ACC_WINDOW = PackedWindow.bounded(ACC_DEN, -2, 3, 12)
bare_terms = st.lists(
    st.tuples(
        st.sampled_from([(2, 0), (1, 1), (0, 2)]),                  # content
        st.tuples(st.integers(0, 5), st.integers(-2, 3)),           # q^a t^b
        st.lists(st.booleans(), min_size=len(ACC_DEN),
                 max_size=len(ACC_DEN)),                            # sub-multiset
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(bare_terms, st.data())
def test_accumulator_bare_terms_split_and_merged(terms, data):
    from collections import Counter

    order = data.draw(st.permutations(range(len(terms))))
    split = data.draw(st.integers(0, len(terms)))
    flush_at = data.draw(st.integers(0, len(terms)))
    halves = (ContentAccumulator(ACC_WINDOW), ContentAccumulator(ACC_WINDOW))
    expected = {}
    for step, idx in enumerate(order):
        content, (a, b), picks = terms[idx]
        den = Counter(f for f, keep in zip(ACC_DEN, picks) if keep)
        acc = halves[0] if step < split else halves[1]
        acc.add(content, {(a, b): 1}, den)
        if step == flush_at:
            acc.flush()
        num = {(a, b): 1}
        for _ in range(sum(den.values())):
            num = l_mul(num, {(0, 0): 1, (0, 1): -1})
        expected[content] = rational_add(
            expected.get(content, rational_zero()), RationalQT(num, den.elements())
        )
    halves[1].flush()
    _merge_into(halves[0], [halves[1].packed])
    out = halves[0].finalize()
    for content in set(out) | set(expected):
        assert out.get(content, rational_zero()) == expected.get(content, rational_zero())


# contents of one degree-2 orbit pair; terms drawn per multiset, shared by index
SHARE_CONTENTS = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
bare_term = st.tuples(
    st.tuples(st.integers(0, 5), st.integers(-2, 3)),               # q^a t^b
    st.lists(st.booleans(), min_size=len(ACC_DEN), max_size=len(ACC_DEN)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(bare_term, max_size=5), min_size=1, max_size=4),
       st.data())
def test_finalize_equals_reducing_each_content(multisets, data):
    # contents drawn onto the same multiset get equal sums, so the memo hits
    picks = data.draw(st.lists(st.integers(0, len(multisets) - 1),
                               min_size=len(SHARE_CONTENTS),
                               max_size=len(SHARE_CONTENTS)))
    acc = ContentAccumulator(ACC_WINDOW)
    for content, pick in zip(SHARE_CONTENTS, picks):
        for (a, b), keep in multisets[pick]:
            acc.add(content, {(a, b): 1},
                    Counter(f for f, k in zip(ACC_DEN, keep) if k))
    acc.flush()
    packed = dict(acc.packed)
    out = acc.finalize()
    want = {c: rational_reduce(RationalQT(ACC_WINDOW.unpack(v), ACC_WINDOW.factors))
            for c, v in packed.items() if v}
    assert ({c: rational_str(x) for c, x in out.items()}
            == {c: rational_str(x) for c, x in want.items()})
    for c1, p1 in zip(SHARE_CONTENTS, picks):
        for c2, p2 in zip(SHARE_CONTENTS, picks):
            if p1 == p2 and c1 in out:
                assert out[c1] is out[c2]


def _compute_counting_reductions(monkeypatch, capsys, parts, formula):
    """``compute --jobs 1`` in-process: reductions done, packed sums, result."""
    reductions = []
    real_reduce, real_finalize = qt.rational_reduce, ContentAccumulator.finalize

    def counting_reduce(f):
        reductions.append(f)
        return real_reduce(f)

    seen = {}

    def finalize(self):
        self.flush()
        seen["packed"] = dict(self.packed)
        seen["P"] = real_finalize(self)
        return seen["P"]

    monkeypatch.setattr(qt, "rational_reduce", counting_reduce)
    monkeypatch.setattr(ContentAccumulator, "finalize", finalize)
    assert main(["compute", "--lambda", ",".join(map(str, parts)),
                 "--formula", formula, "--jobs", "1"]) == 0
    capsys.readouterr()
    return len(reductions), seen["packed"], seen["P"]


@pytest.mark.parametrize("parts,formula,distinct", [
    ((4, 3, 2, 1, 0), "compressed", 6),
    ((5, 3, 1, 0), "ram-yip", 9),
])
def test_finalize_reduces_each_distinct_sum_once(monkeypatch, capsys, parts,
                                                 formula, distinct):
    reductions, packed, P = _compute_counting_reductions(
        monkeypatch, capsys, parts, formula)
    assert reductions == distinct
    assert len({v for v in packed.values() if v}) == distinct
    assert set(P) == {c for c, v in packed.items() if v}
    first = {}
    for content in sorted(P):
        assert P[content] is first.setdefault(packed[content], P[content])


def test_rational_eq_holds_for_one_shared_object():
    for x in (rational_zero(), RationalQT({(1, 0): 2, (0, 1): -1}, [(1, 1)])):
        assert x == x
        assert not x != x
    assert RationalQT({(0, 0): 1}, [(1, 1)]) != RationalQT({(0, 0): 2}, [(1, 1)])


def test_accumulator_rejects_term_outside_shared_denominator():
    from collections import Counter

    acc = ContentAccumulator(PackedWindow.bounded([(1, 1)], 0, 0, 1))
    acc.add((1, 0), {(0, 0): 1}, Counter([(1, 2)]))
    with pytest.raises(ValueError):
        acc.finalize()


# Reference for the packed accumulator: plain dict convolution, independent
# of qt's own multiplication.

def _reference_lift(shared, den):
    """(1-t)^|den| times the factors of ``shared`` that ``den`` lacks."""
    poly = {(0, 0): 1}
    factors = list((Counter(shared) - den).elements())
    factors += [(0, 1)] * sum(den.values())
    for a, b in factors:
        out = dict(poly)
        for (x, y), c in poly.items():
            out[(x + a, y + b)] = out.get((x + a, y + b), 0) - c
        poly = {m: c for m, c in out.items() if c}
    return poly


def _reference_sums(shared, terms):
    sums = {}
    for content, num, den in terms:
        slot = sums.setdefault(content, {})
        lift = _reference_lift(shared, den)
        for (a, b), c in num.items():
            for (x, y), d in lift.items():
                slot[(a + x, b + y)] = slot.get((a + x, b + y), 0) + c * d
    return {k: {m: c for m, c in v.items() if c} for k, v in sums.items()}


def _covering_window(shared, terms, slack=(0, 0, 0)):
    """The window of the terms' t range and weight, widened by slack."""
    ts = [b for _content, num, _den in terms for _a, b in num] or [0]
    weight = sum(abs(c) for _content, num, _den in terms for c in num.values())
    return PackedWindow.bounded(shared, min(ts) - slack[0], max(ts) + slack[1],
                                weight + slack[2])


def _packed_sums(window, batches):
    """Feed each batch of (content, num, den) terms and flush after it."""
    acc = ContentAccumulator(window)
    for batch in batches:
        for content, num, den in batch:
            acc.add(content, num, den)
        acc.flush()
    return {content: window.unpack(value) for content, value in acc.packed.items()}


PACK_FACTORS = [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (3, 0), (0, 2)]
CANCEL = (9, 9)                     # the content whose terms cancel exactly
coefficients = st.one_of(st.sampled_from([1, -1]),
                         st.integers(-300, 300).filter(bool),
                         st.integers(-(1 << 70), 1 << 70).filter(bool))
slacks = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1 << 80))


@st.composite
def packed_cases(draw):
    """Batches of terms over a few (den, monomial) pairs shared by contents.

    Each batch draws a handful of denominators and monomials, and its terms
    pick from them, so one group's contents share monomials, and a term
    may carry several monomials.
    """
    shared = draw(st.lists(st.sampled_from(PACK_FACTORS), max_size=5))

    def sub_multiset():
        picks = draw(st.lists(st.booleans(), min_size=len(shared),
                              max_size=len(shared)))
        return Counter(f for f, keep in zip(shared, picks) if keep)

    batches = []
    for _ in range(draw(st.integers(1, 4))):
        # each batch moves its exponents, so the window spans all batches
        dq, dt = draw(st.integers(0, 6)), draw(st.integers(-9, 9))
        dens = [sub_multiset() for _ in range(draw(st.integers(1, 3)))]
        monos = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(-2, 2)),
                              min_size=1, max_size=4))
        batch = []
        for _ in range(draw(st.integers(0, 8))):
            content = draw(st.sampled_from([(2, 0), (1, 1), (0, 2)]))
            picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3,
                                   unique=True))
            num = {(a + dq, b + dt): draw(coefficients) for a, b in picked}
            batch.append((content, num, draw(st.sampled_from(dens))))
        batches.append(batch)
    if draw(st.booleans()):
        den = sub_multiset()
        c = draw(coefficients)
        batches[draw(st.integers(0, len(batches) - 1))].append(
            (CANCEL, {(1, -3): c}, den))
        batches[-1].append((CANCEL, {(1, -3): -c}, den))
    return shared, batches


@settings(max_examples=200, deadline=None)
@given(packed_cases(), slacks)
@example(([(0, 1), (1, 1)], [[((2, 0), {(0, 0): 1}, Counter())],
                            [((2, 0), {(3, -7): -(1 << 70)}, Counter([(0, 1)]))]]),
         (0, 0, 0))
@example(([], [[((2, 0), {(0, 0): 200}, Counter())]]), (0, 0, 0))
# three contents share q t over one denominator, with coefficients 1, 7, -1
# and -7, and a content's terms cancel inside one flush
@example(([(1, 1), (2, 1)], [[((2, 0), {(1, 1): 1, (0, 0): 7}, Counter([(1, 1)])),
                              ((1, 1), {(1, 1): 7}, Counter([(1, 1)])),
                              ((0, 2), {(1, 1): -1}, Counter([(1, 1)])),
                              ((0, 2), {(0, 0): -7}, Counter([(1, 1)])),
                              (CANCEL, {(1, 1): 5, (0, 0): 1}, Counter([(1, 1)])),
                              (CANCEL, {(1, 1): -5, (0, 0): -1}, Counter([(1, 1)]))]]),
         (0, 0, 0))
def test_packed_accumulator_matches_dict_reference(case, slack):
    shared, batches = case
    terms = [term for batch in batches for term in batch]
    want = _reference_sums(shared, terms)
    got = _packed_sums(_covering_window(shared, terms, slack), batches)
    assert got == want
    if any(content == CANCEL for content, _, _ in terms):
        assert got[CANCEL] == {}


@pytest.mark.parametrize("outside", [(0, 1), (0, -1), (-1, 0)])
def test_accumulator_checks_a_monomial_seen_only_in_a_later_content(outside):
    # the group's first content holds only in-window monomials; the second
    # adds one outside the window, which must raise, not wrap a digit
    acc = ContentAccumulator(PackedWindow.bounded([(1, 1)], 0, 0, 4))
    den = Counter([(1, 1)])
    acc.add((1, 0), {(0, 0): 1}, den)
    acc.add((0, 1), {(0, 0): 1}, den)
    acc.add((0, 1), {outside: 1}, den)
    with pytest.raises(InternalInvariantError, match="outside the packed window"):
        acc.flush()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(PACK_FACTORS), max_size=6), st.data())
def test_packed_lift_equals_the_dict_lift(shared, data):
    window = PackedWindow.bounded(shared, 0, 0, 1)
    picks = data.draw(st.lists(st.booleans(), min_size=len(shared),
                               max_size=len(shared)))
    den = Counter(f for f, keep in zip(shared, picks) if keep)
    reference = _reference_lift(shared, den)
    packed = sum(c << window.bits * (a * window.span + b)
                 for (a, b), c in reference.items())
    assert window.lift(den) == packed
    assert window.unpack(packed) == reference
    extra = data.draw(st.sampled_from(PACK_FACTORS))
    with pytest.raises(ValueError, match="not part of the shared denominator"):
        window.lift(Counter(shared) + Counter([extra]))


@pytest.mark.parametrize("bits", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("sign", [1, -1])
def test_packed_digit_boundaries(bits, sign):
    # with no lift factors a window of weight c has the narrowest digits that
    # hold c, so these coefficients sit on either side of a digit width:
    # alone in one digit, or split over two neighbouring digits
    for c in ((1 << (bits - 1)) - 1, 1 << (bits - 1), (1 << bits) - 1):
        for terms in ([((1, 0), {(0, 0): sign * c}, Counter())],
                      [((1, 0), {(0, 1): sign * (c - 1), (1, 0): -sign}, Counter())]):
            window = _covering_window([], terms)
            assert (window.bits == bits) == (c < 1 << (bits - 1))
            assert _packed_sums(window, [terms]) == _reference_sums([], terms)


def test_canonical_strings():
    r = RationalQT({(0, 0): 1, (0, 1): -1, (1, 0): 1, (1, 1): -1}, [(1, 1)])
    assert rational_str(r) == "(1 - t + q - q*t)/(1 - q*t)"
    assert rational_str(rational_one()) == "1"
    assert rational_str(RationalQT({(2, -1): -3})) == "-3*q^2*t^-1"
    two_den = RationalQT(ONE, [(1, 2), (1, 1)])
    assert rational_str(two_den) == "(1)/((1 - q*t)*(1 - q*t^2))"
    P = {(1, 0): rational_one(), (0, 1): rational_one()}
    assert symfun_str(P) == "x[1,0] + x[0,1]"


def test_accumulator_reuses_a_shared_den_across_flushes():
    from collections import Counter

    den = Counter([(1, 1)])
    acc = ContentAccumulator(PackedWindow.bounded([(1, 1)], 0, 0, 3))
    acc.add((1, 0), {(0, 0): 1}, den)
    acc.flush()
    acc.add((1, 0), {(1, 0): 1}, den)
    acc.add((0, 1), {(0, 0): 1}, den)
    out = acc.finalize()
    # (1 + q)(1 - t)/(1 - q t) at x^(1,0), (1 - t)/(1 - q t) at x^(0,1)
    assert out[(1, 0)] == RationalQT({(0, 0): 1, (1, 0): 1, (0, 1): -1, (1, 1): -1},
                                     [(1, 1)])
    assert out[(0, 1)] == RationalQT({(0, 0): 1, (0, 1): -1}, [(1, 1)])


def _restart_div_binomial(f, a, b):
    """l_div_binomial as it was before classes became dicts: sorted lists."""
    classes = {}
    for (x, y), c in f.items():
        if a > 0:
            m = x // a
            key = (x - m * a, y - m * b)
        else:
            m = y // b
            key = (x, y - m * b)
        classes.setdefault(key, []).append((m, c))
    out = {}
    for (kx, ky), terms in classes.items():
        if sum(c for _, c in terms) != 0:
            return None
        terms.sort()
        pos = {m: c for m, c in terms}
        prefix = 0
        for j in range(terms[0][0], terms[-1][0]):
            prefix += pos.get(j, 0)
            if prefix:
                out[(kx + j * a, ky + j * b)] = prefix
    return out


def _restart_reduce(f):
    """rational_reduce as it was: restart the scan after every division."""
    num = f.num
    remaining = list(f.den)
    changed = True
    while changed and remaining:
        changed = False
        for idx, (a, b) in enumerate(remaining):
            quot = _restart_div_binomial(num, a, b)
            if quot is not None:
                num = quot
                del remaining[idx]
                changed = True
                break
    return RationalQT(num, remaining)


# 1 - q^2 t^2 and 1 - q^3 t^3 share the divisor 1 - q t; 1 - t^2 shares 1 - t
FACTORS = [(0, 1), (0, 2), (1, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1), (2, 4)]


@st.composite
def binomial_multiples(draw):
    """A random Laurent polynomial times random binomials, over random ones."""
    num = draw(laurents.filter(bool))
    for a, b in draw(st.lists(st.sampled_from(FACTORS), max_size=4)):
        num = l_mul(num, {(0, 0): 1, (a, b): -1})
    return num, draw(st.lists(st.sampled_from(FACTORS), max_size=5))


@settings(max_examples=300, deadline=None)
@given(binomial_multiples())
@example(({(0, 0): 1, (2, 2): -1}, [(1, 1), (2, 2)]))
@example(({(0, 0): 1, (1, 1): -1}, [(1, 1), (1, 1), (2, 2)]))
def test_one_pass_reduce_equals_the_restart_loop(case):
    num, den = case
    f = RationalQT(num, den)
    want = _restart_reduce(f)
    got = rational_reduce(f)
    assert (got.num, got.den) == (want.num, want.den)
    for a, b in set(den):
        assert l_div_binomial(num, a, b) == _restart_div_binomial(num, a, b)


def test_zero_coefficients_are_dropped_from_products():
    assert not term_value({(0, 0): 0}, Counter())
    assert not term_value({(0, 0): 0}, Counter({(1, 1): 2}))
    assert l_mul({(0, 0): 0, (1, 0): 1}, {(0, 0): 1}) == {(1, 0): 1}
    assert l_mul({(0, 0): 1}, {(0, 0): 0, (1, 0): 1}) == {(1, 0): 1}
    assert _mul_binomial({(0, 0): 0}, 1, 1) == {}
    assert _mul_binomial({(0, 0): 0, (1, 1): 2}, 1, 1) == {(1, 1): 2, (2, 2): -2}
    assert term_value({(0, 0): 0, (0, 1): 1}, Counter()) == RationalQT(
        {(0, 1): 1})
