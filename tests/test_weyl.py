"""Permutation, descent, and weight-action primitives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from macdonald.weyl import (
    affine_reflect,
    all_perms,
    is_bruhat_descent,
    perm_length,
    permute_weight,
    render_perm,
    right_mul_transposition,
)


def test_lengths():
    assert perm_length((1, 2, 3, 4)) == 0
    assert perm_length((2, 3, 4, 1)) == 3
    assert perm_length((3, 4, 1, 2)) == 4


def test_right_mul_transposition():
    assert right_mul_transposition((2, 3, 4, 1), (1, 4)) == (1, 3, 4, 2)
    assert right_mul_transposition((1, 4, 3, 2), (1, 3)) == (3, 4, 1, 2)


def test_transposition_is_involution():
    w = (3, 1, 4, 2)
    for r in [(1, 2), (2, 4), (1, 4)]:
        assert right_mul_transposition(right_mul_transposition(w, r), r) == w


def test_bruhat_descents():
    assert is_bruhat_descent((2, 3, 4, 1), (1, 4)) is True
    assert is_bruhat_descent((1, 3, 4, 2), (2, 3)) is False
    for r in [(1, 2), (1, 3), (2, 4)]:
        assert not is_bruhat_descent((1, 2, 3, 4), r)


def test_descent_matches_length_drop():
    for w in all_perms(4):
        for i in range(1, 5):
            for k in range(i + 1, 5):
                r = (i, k)
                drop = perm_length(right_mul_transposition(w, r)) < perm_length(w)
                assert is_bruhat_descent(w, r) == drop


def test_affine_reflect():
    assert affine_reflect((4, 3, 1, 0), (1, 4), 1) == (1, 3, 1, 3)
    assert affine_reflect((1, 0, 0, 0), (1, 4), 1) == (1, 0, 0, 0)


def test_affine_reflect_involution_and_sum():
    mu = (5, 2, -1, 0)
    for r, level in [((1, 3), 2), ((2, 4), -1), ((1, 4), 4)]:
        out = affine_reflect(mu, r, level)
        assert sum(out) == sum(mu)
        assert affine_reflect(out, r, level) == mu


def test_permute_weight():
    assert permute_weight((1, 2, 3), (5, 6, 7)) == (5, 6, 7)
    assert permute_weight((2, 3, 4, 1), (2, 3, 1, 2)) == (2, 2, 3, 1)


perms4 = st.sampled_from(all_perms(4))
weights4 = st.tuples(*[st.integers(-4, 4)] * 4)


@settings(max_examples=100)
@given(perms4, weights4)
def test_permute_weight_preserves_sum(w, mu):
    assert sum(permute_weight(w, mu)) == sum(mu)


@settings(max_examples=100)
@given(perms4, perms4, weights4)
def test_permute_weight_is_an_action(u, v, mu):
    # the composition u*v, acting as (u*v)(i) = u(v(i))
    uv = tuple(u[x - 1] for x in v)
    assert permute_weight(uv, mu) == permute_weight(
        u, permute_weight(v, mu)
    )


def test_reflection_changes_length_parity():
    for w in all_perms(4):
        lw = perm_length(w)
        for i in range(1, 5):
            for k in range(i + 1, 5):
                lr = perm_length(right_mul_transposition(w, (i, k)))
                assert (lw - lr) % 2 == 1


def test_descent_xor_after_reflection():
    for w in all_perms(3):
        for r in [(1, 2), (1, 3), (2, 3)]:
            wr = right_mul_transposition(w, r)
            assert is_bruhat_descent(w, r) != is_bruhat_descent(wr, r)


def test_render():
    assert render_perm((2, 3, 4, 1)) == "2341"
    assert render_perm(tuple(range(1, 12))) == "1,2,3,4,5,6,7,8,9,10,11"
