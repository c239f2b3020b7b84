"""Attack relation, reading order, statistics, enumeration, compressed sum."""

import pytest

from macdonald.chain import Partition
from macdonald.fillings import (
    AttackViolation,
    Filling,
    attacks,
    check_filling_cap,
    compressed_sum,
    compressed_term,
    count_nonattacking,
    enumerate_nonattacking,
    filling_stats,
    reading_precedes,
    shape_of,
)
from macdonald.qt import RationalQT, l_one, rational_one, rational_reduce
from macdonald.ramyip import TermCapExceeded


def make_filling(parts, n, values_by_cell):
    shape = shape_of(tuple(parts))
    return Filling(tuple(parts), n, tuple(values_by_cell[c] for c in shape.cells))


# a worked filling of shape (4,3,1), rows in Japanese layout
# 2 1 3 3 / 3 4 2 / 1
WORKED_CELLS = {
    (1, 1): 3, (1, 2): 3, (1, 3): 1, (1, 4): 2,
    (2, 1): 2, (2, 2): 4, (2, 3): 3,
    (3, 1): 1,
}


def test_attacks():
    assert attacks((1, 1), (3, 1))
    assert attacks((1, 2), (3, 1))
    assert not attacks((3, 2), (1, 1))
    assert attacks((3, 1), (1, 2))          # symmetric form of the second case
    assert not attacks((1, 3), (2, 1))      # columns not consecutive


def test_reading_order():
    assert reading_precedes((2, 1), (1, 2))
    assert reading_precedes((1, 3), (2, 3))
    cells = shape_of((4, 3, 1, 0)).cells
    for a in range(len(cells)):
        for b in range(len(cells)):
            if a != b:
                assert reading_precedes(cells[a], cells[b]) == (a < b)


def test_stats_constant_filling():
    lam = Partition((3, 2, 1, 0))
    shape = shape_of(lam.parts)
    sigma = Filling(lam.parts, 4, tuple(1 for _ in shape.cells))
    st = filling_stats(sigma)
    assert st.des == frozenset() and st.maj == 0 and st.inv == 0
    assert st.inv_pairs == frozenset()


def test_stats_of_worked_filling():
    sigma = make_filling((4, 3, 1, 0), 4, WORKED_CELLS)
    st = filling_stats(sigma)
    assert st.des == {(1, 2), (2, 2)}
    assert st.maj == 3
    assert len(st.inv_pairs) == 5
    assert st.inv == 4
    assert st.diff == {(1, 2), (1, 3), (2, 1), (2, 2)}
    assert st.content == (2, 2, 3, 1)


def test_n_lambda():
    assert shape_of((4, 3, 1, 0)).n_lambda == 5
    assert shape_of((3, 2, 1, 0)).n_lambda == 4


def test_enumeration_counts():
    assert len(list(enumerate_nonattacking(Partition((1, 0)), 2))) == 2
    fillings = list(enumerate_nonattacking(Partition((3, 2, 1, 0)), 4))
    assert len(fillings) == 288
    assert len(set(f.values for f in fillings)) == 288
    assert all(f.is_nonattacking() for f in fillings)
    values = [f.values for f in fillings]
    assert values == sorted(values)         # reading-order-lexicographic


def test_counting_matches_enumeration():
    for parts, n in [((2, 0), 2), ((2, 1, 0), 3), ((3, 2, 1, 0), 4),
                     ((4, 3, 1, 0), 4), ((4, 2, 1, 0), 4)]:
        lam = Partition(parts)
        assert count_nonattacking(lam, n) == len(
            list(enumerate_nonattacking(lam, n))
        )


@pytest.mark.parametrize(
    "parts,n,count",
    [
        ((3, 2, 1, 0), 4, 288),
        ((5, 3, 1, 0), 4, 10368),
        ((4, 3, 2, 1, 0), 5, 34560),
    ],
)
def test_paper_convention_counts(parts, n, count):
    assert count_nonattacking(Partition(parts), n) == count


def test_hhl_counts():
    assert count_nonattacking(Partition((3, 2, 1, 0)), 4, "hhl") == 864
    assert count_nonattacking(Partition((1, 0)), 2, "hhl") == 2


def test_hhl_count_large_row():
    assert count_nonattacking(Partition((4, 3, 2, 1, 0)), 5, "hhl") == 259200


def test_compressed_term_trivial():
    sigma = make_filling((2, 0), 2, {(1, 1): 1, (1, 2): 1})
    coef, content = compressed_term(sigma)
    assert coef == rational_one() and content == (2, 0)


def test_compressed_term_descent():
    sigma = make_filling((2, 0), 2, {(1, 1): 2, (1, 2): 1})
    coef, content = compressed_term(sigma)
    assert coef == RationalQT({(1, 0): 1, (1, 1): -1}, [(1, 1)])
    assert content == (1, 1)


def test_compressed_term_worked_filling():
    sigma = make_filling((4, 3, 1, 0), 4, WORKED_CELLS)
    coef, content = compressed_term(sigma)
    # t * q^3 * (1-t)^4 / ((1-q^2 t^2)^2 (1-q t^2)(1-q t))
    one_minus_t = {(0, 0): 1, (0, 1): -1}
    num = l_one()
    from macdonald.qt import l_mul

    for _ in range(4):
        num = l_mul(num, one_minus_t)
    num = l_mul(num, {(3, 1): 1})
    expected = rational_reduce(
        RationalQT(num, [(2, 2), (2, 2), (1, 2), (1, 1)])
    )
    assert coef == expected and content == (2, 2, 3, 1)


def test_compressed_term_rejects_attacking():
    sigma = make_filling((2, 1, 0), 3, {(1, 1): 1, (2, 1): 1, (1, 2): 2})
    with pytest.raises(AttackViolation):
        compressed_term(sigma)


def test_compressed_sum_single_cell():
    from macdonald.qt import symfun_str

    P = compressed_sum(Partition((1, 0)), 2)
    assert symfun_str(P) == "x[1,0] + x[0,1]"


def test_compressed_sum_p20():
    P = compressed_sum(Partition((2, 0)), 2)
    middle = RationalQT(
        {(0, 0): 1, (1, 0): 1, (0, 1): -1, (1, 1): -1}, [(1, 1)]
    )
    assert P == {
        (2, 0): rational_one(),
        (0, 2): rational_one(),
        (1, 1): middle,
    }


def test_des_subset_diff_and_stat_bounds():
    lam = Partition((3, 2, 1, 0))
    shape = shape_of(lam.parts)
    for sigma in enumerate_nonattacking(lam, 4):
        st = filling_stats(sigma)
        assert st.des <= st.diff
        assert st.inv >= 0
        assert shape.n_lambda - st.inv >= 0


@pytest.mark.parametrize("parts", [(2, 0), (2, 1, 0), (3, 1, 0), (3, 2, 1, 0),
                                   (4, 2, 1, 0), (4, 3, 2, 1, 0)])
def test_filling_cap_bounds_both_conventions(parts, monkeypatch):
    lam = Partition(parts)
    bound = check_filling_cap(lam, lam.n)
    assert count_nonattacking(lam, lam.n, "paper") <= bound
    assert count_nonattacking(lam, lam.n, "hhl") <= bound
    monkeypatch.setenv("MACDONALD_TERM_CAP", str(bound - 1))
    with pytest.raises(TermCapExceeded):
        check_filling_cap(lam, lam.n)


def test_filling_cap_of_largest_table_shape():
    # columns of heights 4, 3, 2, 2, 1 in 5 variables: 120 * 60 * 20 * 20 * 5
    lam = Partition((5, 4, 2, 1, 0))
    assert check_filling_cap(lam, 5) == 14_400_000
