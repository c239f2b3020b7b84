"""Construction of the column-factored root chain."""

import itertools

import pytest

from macdonald.chain import (
    NonRegularError,
    Partition,
    build_chain,
    chain_length,
    column_roots,
    column_roots_trimmed,
    render_chain,
)


def test_partition_validation():
    Partition((4, 3, 1, 0))
    Partition((1, 0))
    assert Partition((2, 1), 3).parts == (2, 1, 0)
    for bad in [(2, 2, 0), (1, 2, 0), (3, 0, 0), (3,), (0,)]:
        with pytest.raises(NonRegularError):
            Partition(bad)
    with pytest.raises(NonRegularError):
        Partition((3, 2, 1, 0), 3)


def test_conjugate():
    assert Partition((4, 3, 1, 0)).conjugate == (3, 2, 2, 1)
    assert Partition((5, 4, 2, 1, 0)).conjugate == (4, 3, 2, 2, 1)


def test_conjugate_from_runs_and_chain_length_from_parts():
    for n in range(2, 6):
        for body in itertools.combinations(range(7, 0, -1), n - 1):
            parts = body + (0,)
            lam = Partition(parts)
            assert lam.conjugate == tuple(
                sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))
            assert chain_length(parts) == build_chain(lam).m


def test_column_roots():
    assert column_roots(1, 4) == [(1, 4), (1, 3), (1, 2)]
    assert column_roots(2, 4) == [(2, 4), (2, 3), (1, 4), (1, 3)]
    assert column_roots(3, 4) == [(3, 4), (2, 4), (1, 4)]


def test_column_roots_trimmed():
    assert column_roots_trimmed(1, 4) == [(1, 4), (1, 3)]
    assert column_roots_trimmed(2, 4) == [(2, 4), (1, 4)]
    assert column_roots_trimmed(3, 4) == []


def test_column_roots_range_check():
    with pytest.raises(ValueError):
        column_roots(0, 4)
    with pytest.raises(ValueError):
        column_roots_trimmed(4, 4)


def test_chain_for_4310_matches_worked_example():
    chain = build_chain(Partition((4, 3, 1, 0)))
    assert [e.root for e in chain] == [
        (1, 4), (1, 3),
        (2, 4), (2, 3), (1, 4), (1, 3),
        (2, 4), (1, 4),
    ]
    assert [e.column for e in chain] == [4, 4, 3, 3, 3, 3, 2, 2]
    assert [e.mult for e in chain] == [1, 1, 1, 1, 2, 2, 2, 3]
    assert chain.m == 8
    assert render_chain(chain) == (
        "((1,4),(1,3) | (2,4),(2,3),(1,4),(1,3) | (2,4),(1,4))"
    )


def test_empty_chain_for_single_column():
    chain = build_chain(Partition((1, 0)))
    assert chain.m == 0 and chain.entries == ()


@pytest.mark.parametrize(
    "parts,n,m",
    [
        ((3, 2, 1, 0), 4, 4),
        ((4, 3, 1, 0), 4, 8),
        ((5, 3, 1, 0), 4, 11),
        ((4, 3, 2, 1, 0), 5, 10),
        ((5, 4, 2, 1, 0), 5, 16),
    ],
)
def test_chain_lengths(parts, n, m):
    assert build_chain(Partition(parts)).m == m


@pytest.mark.parametrize(
    "parts",
    [(2, 0), (3, 1, 0), (4, 2, 1, 0), (5, 4, 2, 1, 0), (6, 4, 3, 1, 0)],
)
def test_multiplicity_is_arm_and_roots_bracket_column(parts):
    lam = Partition(parts)
    chain = build_chain(lam)
    for e in chain:
        i, k = e.root
        assert e.mult == lam.parts[i - 1] - (e.column - 1)
        assert i <= lam.conjugate[e.column - 1] < k
