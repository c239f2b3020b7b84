"""The column tables against brute force on random small shapes.

Enumeration, counting and filling terms all run on ``fillings.column_table``.
Here they are checked against references that do not use it: every
column-injective value tuple, filtered by the attacker lists and sorted, and
``filling_stats`` for the term of each filling.  The one-pass filling sum of
``compressed_shard`` is checked against the terms of the enumerated tuples.
"""

import itertools
import math
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from macdonald.chain import Partition
from macdonald.fillings import (
    AttackViolation,
    ColumnTable,
    Filling,
    _count_values,
    _filling_total,
    _term_raw,
    _walk,
    column_prefixes,
    column_table,
    compressed_shard,
    count_nonattacking,
    diagram_denominator,
    enumerate_nonattacking,
    filling_stats,
    filling_t_range,
    filling_window,
    shape_of,
)
from macdonald.qt import ContentAccumulator, PackedWindow

MAX_CANDIDATES = 20_000      # column-injective tuples a brute force may scan


@st.composite
def small_shapes(draw):
    """A regular partition and a variable count n <= 5, brute-forceable."""
    rows = draw(st.integers(1, 3))
    parts = sorted(draw(st.sets(st.integers(1, 5), min_size=rows, max_size=rows)),
                   reverse=True)
    lam = Partition(parts + [0])
    n = draw(st.integers(lam.n, 5))
    assume(math.prod(math.perm(n, h) for h in lam.conjugate) <= MAX_CANDIDATES)
    return lam, n


def brute_force(lam, n, convention):
    """Sorted nonattacking tuples among all column-injective ones."""
    shape = shape_of(lam.parts)
    attackers = shape.attackers if convention == "paper" else shape.attackers_hhl
    columns = [itertools.permutations(range(1, n + 1), h) for h in lam.conjugate]
    out = []
    for combo in itertools.product(*columns):
        vals = sum(combo, ())
        if all(vals[i] != vals[k] for i in range(len(vals)) for k in attackers[i]):
            out.append(vals)
    return sorted(out)


def reference_term(lam, n, vals):
    """q^maj t^(n(lambda)-inv), the Diff factors and the content, by filling_stats."""
    shape = shape_of(lam.parts)
    stats = filling_stats(Filling(lam.parts, n, vals))
    den = Counter(shape.diff_factor[shape.pos[cell]] for cell in stats.diff)
    return {(stats.maj, shape.n_lambda - stats.inv): 1}, den, stats.content


def term_of(lam, n, vals):
    """The filling term of a value tuple, re-walked from its columns."""
    table = column_table(lam.parts, n, "paper")
    return _term_raw(table, _filling_total(table, vals))


@settings(max_examples=40, deadline=None)
@given(small_shapes(), st.sampled_from(["paper", "hhl"]))
def test_walk_and_count_equal_brute_force(shape_n, convention):
    lam, n = shape_n
    want = brute_force(lam, n, convention)
    table = column_table(lam.parts, n, convention)
    firsts = list(table.column_tuples(0, ()))
    walked = list(_walk(table, firsts))
    assert [values for values, _total in walked] == want
    assert all(total == _filling_total(table, values) for values, total in walked)
    assert _count_values(table, firsts) == len(want)
    assert count_nonattacking(lam, n, convention) == len(want)
    if convention == "paper":
        assert [f.values for f in enumerate_nonattacking(lam, n)] == want


@settings(max_examples=40, deadline=None)
@given(small_shapes(), st.data())
def test_term_raw_equals_filling_stats(shape_n, data):
    lam, n = shape_n
    fillings = brute_force(lam, n, "paper")
    picks = data.draw(st.lists(st.sampled_from(fillings), min_size=1, max_size=30))
    for vals in picks:
        assert term_of(lam, n, vals) == reference_term(lam, n, vals)


@settings(max_examples=60, deadline=None)
@given(small_shapes(), st.data())
def test_term_raw_rejects_attacking_tuples(shape_n, data):
    lam, n = shape_n
    shape = shape_of(lam.parts)
    vals = tuple(data.draw(st.lists(st.integers(1, n), min_size=len(shape.cells),
                                    max_size=len(shape.cells))))
    if Filling(lam.parts, n, vals).is_nonattacking():
        assert term_of(lam, n, vals) == reference_term(lam, n, vals)
    else:
        with pytest.raises(AttackViolation):
            _filling_total(column_table(lam.parts, n, "paper"), vals)


@settings(max_examples=40, deadline=None)
@given(small_shapes())
def test_filling_terms_lie_in_the_stated_range(shape_n):
    # the packed window of every filling sum is fixed from these bounds
    lam, n = shape_n
    shape = shape_of(lam.parts)
    t_lo, t_hi = filling_t_range(shape)
    fillings = brute_force(lam, n, "paper")
    for vals in fillings:
        ((a, b), c), = term_of(lam, n, vals)[0].items()
        assert c == 1 and a >= 0 and t_lo <= b <= t_hi
    assert filling_window(lam, n) == PackedWindow.bounded(
        diagram_denominator(shape), t_lo, t_hi, len(fillings))


def test_terms_share_one_counter_per_diff_multiset():
    lam = Partition((3, 2, 1, 0))
    dens = {}
    for sigma in enumerate_nonattacking(lam, 4):
        _num, den, _content = term_of(lam, 4, sigma.values)
        key = tuple(sorted(den.elements()))
        assert dens.setdefault(key, den) is den
    assert len(dens) > 1


@settings(max_examples=40, deadline=None)
@given(small_shapes(), st.data())
def test_shards_sum_to_the_terms_of_every_filling(shape_n, data):
    # one pass per shard carries the packed statistics that the re-walk sums
    lam, n = shape_n
    table = column_table(lam.parts, n, "paper")
    window = filling_window(lam, n)
    reference = ContentAccumulator(window)
    for vals, _total in _walk(table, table.column_tuples(0, ())):
        num, den, content = _term_raw(table, _filling_total(table, vals))
        reference.add(content, num, den)
    reference.flush()
    firsts = column_prefixes(lam, n)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(firsts)), max_size=4)))
    sums: dict = {}
    with mock.patch("macdonald.fillings._term_raw", wraps=_term_raw) as term_raw:
        for a, b in zip([0, *cuts], [*cuts, len(firsts)]):
            shard = compressed_shard(lam, n, firsts[a:b], window)
            for content, value in shard.packed.items():
                sums[content] = sums.get(content, 0) + value
    assert sums == reference.packed
    assert term_raw.call_count == count_nonattacking(lam, n)


def test_table_builds_only_what_the_walk_reaches():
    lam = Partition((5, 4, 2, 1, 0))
    table = ColumnTable(lam.parts, 5, "paper")
    first = (2, 4, 1, 3)
    walked = [vals for vals, _total in _walk(table, [first])]
    assert len(walked) == _count_values(table, [first])
    columns = [(0, table.first_height), *table.slices]
    for j, (a, b) in enumerate(columns):
        assert set(table.states[j]) == {vals[a:b] for vals in walked}
    assert all(state.succ is None for state in table.states[-1].values())
