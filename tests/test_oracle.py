"""Orthogonalization oracle, Schur rail, and specialization checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macdonald.chain import Partition
from macdonald.fillings import compressed_sum
from macdonald.oracle import (
    OracleSingular,
    _invert,
    _solve,
    _z,
    check_oracle_cap,
    check_specializations,
    dominance_le,
    macdonald_oracle,
    monomial_in_powers,
    partitions_of,
    power_in_monomials,
    schur_oracle,
)
from macdonald.qt import PoleError, rational_add, rational_one
from macdonald.ramyip import TermCapExceeded, ram_yip_sum


def test_partitions_of():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions_of(7)) == 15


@pytest.mark.parametrize("k", range(1, 26))
def test_oracle_cap_counts_the_partitions_of_lambda(monkeypatch, k):
    # the cap refuses exactly the shapes with p(|lambda|)^3 past it
    lam = Partition((k, 0))
    cube = len(partitions_of(k)) ** 3
    monkeypatch.setenv("MACDONALD_TERM_CAP", str(cube))
    check_oracle_cap(lam)
    monkeypatch.setenv("MACDONALD_TERM_CAP", str(cube - 1))
    with pytest.raises(TermCapExceeded, match=rf"p\({k}\)\^3"):
        check_oracle_cap(lam)


def test_oracle_cap_admits_lambda_up_to_18_by_default(monkeypatch):
    monkeypatch.delenv("MACDONALD_TERM_CAP", raising=False)
    check_oracle_cap(Partition((18, 0)))
    with pytest.raises(TermCapExceeded):
        check_oracle_cap(Partition((19, 0)))


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


# The exact elimination as it ran on Fractions, one division per operation.
# The program's routine works on integer rows; both must give the same
# Fractions and the same singular verdicts.

def _fraction_gauss_jordan(aug, size, singular):
    aug = [[Fraction(x) for x in row] for row in aug]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            raise OracleSingular(singular)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        row = aug[col]
        pv = row[col]
        row[:] = [x / pv for x in row]
        for r in range(size):
            factor = aug[r][col]
            if r != col and factor:
                aug[r] = [x - factor * y for x, y in zip(aug[r], row)]
    return aug


def _reference_invert(mat, size):
    aug = [list(row) + [int(i == r) for i in range(size)]
           for r, row in enumerate(mat)]
    reduced = _fraction_gauss_jordan(aug, size, "transition matrix is singular")
    return [row[size:] for row in reduced]


def _reference_solve(gram, rhs):
    size = len(rhs)
    aug = [list(gram[r]) + [rhs[r]] for r in range(size)]
    reduced = _fraction_gauss_jordan(aug, size,
                                     "Gram matrix is singular at this point")
    return [row[size] for row in reduced]


_entries = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
)


@st.composite
def _square(draw):
    size = draw(st.integers(1, 4))
    return [draw(st.lists(_entries, min_size=size, max_size=size))
            for _ in range(size)]


@settings(max_examples=200, deadline=None)
@given(_square(), st.data())
def test_elimination_equals_fraction_gauss_jordan(mat, data):
    size = len(mat)
    rhs = data.draw(st.lists(_entries, min_size=size, max_size=size))
    try:
        want_inverse = _reference_invert(mat, size)
    except OracleSingular:
        with pytest.raises(OracleSingular, match="^transition matrix is singular$"):
            _invert(mat, size)
        with pytest.raises(OracleSingular,
                           match="^Gram matrix is singular at this point$"):
            _solve(mat, rhs)
        return
    got = _invert(mat, size)
    assert got == want_inverse
    assert all(type(x) is Fraction for row in got for x in row)
    assert _solve(mat, rhs) == _reference_solve(mat, rhs)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.data())
def test_rank_deficient_matrices_raise_with_the_callers_message(size, data):
    rows = [data.draw(st.lists(_entries, min_size=size, max_size=size))
            for _ in range(size - 1)]
    weights = data.draw(st.lists(_entries, min_size=size - 1,
                                 max_size=size - 1))
    combined = [sum((Fraction(w) * row[c] for w, row in zip(weights, rows)),
                    Fraction(0)) for c in range(size)]
    at = data.draw(st.integers(0, size - 1))
    mat = rows[:at] + [combined] + rows[at:]
    with pytest.raises(OracleSingular) as exc:
        _invert(mat, size)
    assert str(exc.value) == "transition matrix is singular"
    with pytest.raises(OracleSingular) as exc:
        _solve(mat, [Fraction(1)] * size)
    assert str(exc.value) == "Gram matrix is singular at this point"


def _reference_oracle(lam, n, q0, t0):
    """The oracle as a Fraction Gram of pairwise products, solved over Fractions."""
    lam_red = tuple(p for p in lam.parts if p)
    k = sum(lam_red)
    below = [mu for mu in partitions_of(k)
             if mu != lam_red and dominance_le(mu, lam_red)]
    if not below:
        return {lam_red: Fraction(1)}
    plist = partitions_of(k)
    p_in_m = power_in_monomials(k)
    inverse = _reference_invert(
        [[p_in_m[rho].get(mu, 0) for mu in plist] for rho in plist], len(plist))
    m_in_p = {mu: {plist[r]: c for r, c in enumerate(inverse[i]) if c}
              for i, mu in enumerate(plist)}
    norms = {}
    for rho in plist:
        value = Fraction(_z(rho))
        for r in rho:
            dt = 1 - t0**r
            if dt == 0:
                raise PoleError(f"1 - t0^{r} vanishes at t0={t0}")
            value *= (1 - q0**r) / dt
        norms[rho] = value

    def pair(mu, nu):
        amu, anu = m_in_p[mu], m_in_p[nu]
        total = Fraction(0)
        for rho, c in amu.items():
            d = anu.get(rho)
            if d:
                total += c * d * norms[rho]
        return total

    gram = [[pair(mu, nu) for mu in below] for nu in below]
    rhs = [-pair(lam_red, nu) for nu in below]
    out = {lam_red: Fraction(1)}
    for mu, c in zip(below, _reference_solve(gram, rhs)):
        if c != 0 and len(mu) <= n:
            out[mu] = c
    return out


def _seeded_points(seed, count):
    """Points with either sign of q0 and t0, away from t0 = +-1 and q0 = 1."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        q0 = Fraction(rng.choice((-1, 1)) * rng.randint(1, 97), rng.randint(2, 97))
        t0 = Fraction(rng.choice((-1, 1)) * rng.randint(1, 97), rng.randint(2, 97))
        if abs(t0) != 1 and q0 != 1:
            points.append((q0, t0))
    return points


def test_oracle_equals_the_fraction_gram_on_small_shapes():
    shapes = _regular_shapes_up_to(6)
    for i, parts in enumerate(shapes):
        lam = Partition(parts)
        for q0, t0 in _seeded_points(i, 2) + [(-Fraction(2, 3), Fraction(5, 7))]:
            assert macdonald_oracle(lam, lam.n, q0, t0) == _reference_oracle(
                lam, lam.n, q0, t0), (parts, q0, t0)


def test_oracle_equals_the_fraction_gram_on_4_3_2_1_0():
    lam = Partition((4, 3, 2, 1, 0))
    for q0, t0 in [(Fraction(-2, 3), Fraction(5, 7))] + _seeded_points(20, 1):
        got = macdonald_oracle(lam, 5, q0, t0)
        assert got == _reference_oracle(lam, 5, q0, t0), (q0, t0)
        assert all(type(v) is Fraction for v in got.values())


def test_oracle_pole_at_t0_minus_one_keeps_its_text():
    for parts, text in (((4, 3, 2, 1, 0), "1 - t0^10 vanishes at t0=-1"),
                        ((2, 1, 0), "1 - t0^2 vanishes at t0=-1")):
        with pytest.raises(PoleError) as exc:
            macdonald_oracle(Partition(parts), len(parts), Fraction(-2, 3),
                             Fraction(-1))
        assert str(exc.value) == text


def test_oracle_singular_at_q0_one():
    # q0 = 1 zeroes every norm, so the whole Gram matrix
    with pytest.raises(OracleSingular) as exc:
        macdonald_oracle(Partition((3, 2, 1, 0)), 4, Fraction(1), Fraction(1, 2))
    assert str(exc.value) == "Gram matrix is singular at this point"
