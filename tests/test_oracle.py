"""Orthogonalization oracle, Schur rail, and specialization checks."""

from fractions import Fraction

import pytest

from macdonald.chain import Partition
from macdonald.fillings import compressed_sum
from macdonald.oracle import (
    OracleSingular,
    _invert,
    _solve,
    check_specializations,
    dominance_le,
    macdonald_oracle,
    monomial_in_powers,
    partitions_of,
    power_in_monomials,
    schur_oracle,
)
from macdonald.qt import rational_add, rational_one
from macdonald.ramyip import ram_yip_sum


def test_partitions_of():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions_of(7)) == 15


def test_dominance():
    assert dominance_le((2, 2), (3, 1))
    assert dominance_le((1, 1, 1, 1), (3, 1))
    assert not dominance_le((3, 1), (2, 2))
    assert not dominance_le((3, 3), (4, 1, 1))
    assert dominance_le((2, 2, 2), (4, 1, 1))


def test_transition_matrices_are_mutually_inverse():
    for k in range(1, 7):
        p_in_m = power_in_monomials(k)
        m_in_p = monomial_in_powers(k)
        for mu in partitions_of(k):
            # expand m_mu -> p -> m and land back on the delta
            back = {}
            for rho, c in m_in_p[mu].items():
                for nu, d in p_in_m[rho].items():
                    back[nu] = back.get(nu, Fraction(0)) + c * d
            back = {nu: v for nu, v in back.items() if v}
            assert back == {mu: Fraction(1)}


def _power_in_monomials_by_expansion(k):
    """p_rho multiplied out in k variables; m_mu read off the monomial x^mu."""
    out = {}
    for rho in partitions_of(k):
        poly = {(0,) * max(k, 1): 1}
        for r in rho:
            nxt = {}
            for expo, c in poly.items():
                for i in range(len(expo)):
                    e = list(expo)
                    e[i] += r
                    nxt[tuple(e)] = nxt.get(tuple(e), 0) + c
            poly = nxt
        out[rho] = {}
        for expo, c in poly.items():
            mu = tuple(sorted((e for e in expo if e), reverse=True))
            if expo == mu + (0,) * (len(expo) - len(mu)):
                out[rho][mu] = c
    return out


def test_power_in_monomials_matches_brute_force_expansion():
    for k in range(0, 9):
        assert power_in_monomials(k) == _power_in_monomials_by_expansion(k), k


def test_singular_matrices_keep_their_messages():
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(OracleSingular) as exc:
        _invert(singular, 2)
    assert str(exc.value) == "transition matrix is singular"
    with pytest.raises(OracleSingular) as exc:
        _solve(singular, [Fraction(1), Fraction(0)])
    assert str(exc.value) == "Gram matrix is singular at this point"
    assert _solve([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]],
                  [Fraction(3), Fraction(2)]) == [1, 1]
    assert _invert([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]],
                   2) == [[1, -1], [-1, 2]]


def test_power_expansions_small():
    assert power_in_monomials(2)[(2,)] == {(2,): 1}
    assert power_in_monomials(2)[(1, 1)] == {(2,): 1, (1, 1): 2}


def test_oracle_single_box():
    assert macdonald_oracle(Partition((1, 0)), 2, Fraction(1, 2),
                            Fraction(1, 3)) == {(1,): 1}


def test_oracle_p20_closed_form():
    got = macdonald_oracle(Partition((2, 0)), 2, Fraction(2, 3), Fraction(5, 7))
    assert got == {(2,): Fraction(1), (1, 1): Fraction(10, 11)}


def test_oracle_matches_formulas_at_random_points():
    from macdonald.oracle import collect_to_monomial_basis
    from macdonald.qt import rational_eval_at

    lam = Partition((2, 1, 0))
    P = compressed_sum(lam, 3)
    collected = collect_to_monomial_basis(P, 3)
    for q0, t0 in [(Fraction(2, 5), Fraction(3, 7)), (Fraction(5, 2), Fraction(7, 9))]:
        expected = macdonald_oracle(lam, 3, q0, t0)
        got = {mu: rational_eval_at(c, q0, t0) for mu, c in collected.items()}
        assert {m: v for m, v in got.items() if v} == expected


def test_oracle_restricts_long_partitions():
    # partitions longer than n drop out of the n-variable restriction
    lam = Partition((3, 1, 0))
    out = macdonald_oracle(lam, 3, Fraction(2, 3), Fraction(5, 7))
    assert all(len(mu) <= 3 for mu in out)
    assert (3, 1) in out and out[(3, 1)] == 1


def test_schur_oracle():
    assert schur_oracle(Partition((1, 0)), 2) == {(1,): 1}
    assert schur_oracle(Partition((2, 0)), 2) == {(2,): 1, (1, 1): 1}
    assert schur_oracle(Partition((2, 1, 0)), 3) == {(2, 1): 1, (1, 1, 1): 2}


def _regular_shapes_up_to(size):
    shapes = []
    for n in (2, 3, 4):
        def extend(prefix, left, low):
            if left == 0:
                shapes.append(tuple(sorted(prefix, reverse=True)) + (0,))
                return
            for v in range(low + 1, size + 1):
                if sum(prefix) + v <= size:
                    extend(prefix + [v], left - 1, v)

        extend([], n - 1, 0)
    return sorted(set(shapes), key=lambda p: (len(p), p))


def test_oracle_at_equal_parameters_is_schur():
    for parts in _regular_shapes_up_to(6):
        lam = Partition(parts)
        q0 = Fraction(3, 5)
        got = macdonald_oracle(lam, lam.n, q0, q0)
        assert got == schur_oracle(lam, lam.n), parts


def test_oracle_point_independence():
    lam = Partition((3, 2, 0))
    a = macdonald_oracle(lam, 3, Fraction(2, 3), Fraction(5, 7))
    b = macdonald_oracle(lam, 3, Fraction(7, 4), Fraction(2, 9))
    assert set(a) == set(b)  # support agrees; values differ with the point


def test_check_specializations_passes():
    lam = Partition((2, 0))
    for P in (compressed_sum(lam, 2), ram_yip_sum(lam, 2)):
        report = check_specializations(P, lam, 2, seed=7)
        assert report.ok, [(c.name, c.detail) for c in report.checks if not c.ok]


def test_check_specializations_trivial():
    lam = Partition((1, 0))
    assert check_specializations(ram_yip_sum(lam, 2), lam, 2, seed=1).ok


def test_mutation_is_caught():
    lam = Partition((2, 0))
    P = dict(compressed_sum(lam, 2))
    P[(1, 1)] = rational_add(P[(1, 1)], rational_one())
    report = check_specializations(P, lam, 2, seed=7)
    assert not report.ok
    failing = {c.name for c in report.checks if not c.ok}
    assert failing & ({"symmetry"} | {c.name for c in report.checks
                                      if c.name.startswith("oracle")})


def test_mutation_of_whole_orbit_caught_by_oracle():
    lam = Partition((2, 0))
    P = dict(compressed_sum(lam, 2))
    P[(2, 0)] = rational_add(P[(2, 0)], rational_one())
    P[(0, 2)] = rational_add(P[(0, 2)], rational_one())
    report = check_specializations(P, lam, 2, seed=7)
    assert not report.ok


def test_mutation_of_one_shared_orbit_member_is_caught():
    # finalize gives every member of an orbit one shared coefficient object;
    # a new, changed object at a member that is neither the dominant one nor
    # the first listed must still break symmetry
    lam = Partition((3, 2, 1, 0))
    P = dict(compressed_sum(lam, 4))
    assert P[(1, 2, 2, 1)] is P[(2, 2, 1, 1)] is P[(1, 1, 2, 2)]
    P[(1, 2, 2, 1)] = rational_add(P[(1, 2, 2, 1)], rational_one())
    report = check_specializations(P, lam, 4, seed=0)
    symmetry = next(c for c in report.checks if c.name == "symmetry")
    assert not symmetry.ok
    assert symmetry.detail == "coefficients differ inside orbit of (2, 2, 1, 1)"
