"""Permutations of [n], Bruhat descents, weights, and affine reflections.

This is the type-A layer underneath the alcove-walk formula: permutations in
one-line notation as tuples of values from 1..n, positive roots (i, k) with
i < k acting as transpositions of positions, and weights as integer vectors
of length n with a fixed coordinate sum.  The coroot height of the root
(i, k) is k - i; that scalar is the only trace of rho the code ever needs.
"""

from __future__ import annotations

from itertools import permutations

Perm = tuple[int, ...]       # one-line notation, a bijection on 1..n
Root = tuple[int, int]       # (i, k) with 1 <= i < k <= n
Weight = tuple[int, ...]


def all_perms(n: int) -> list[Perm]:
    """All of S_n in lexicographic one-line order (the fixed shard order)."""
    return list(permutations(range(1, n + 1)))


def perm_length(w: Perm) -> int:
    """Coxeter length = number of inversions of the one-line word."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def right_mul_transposition(w: Perm, r: Root) -> Perm:
    """w * (i,k): swaps the entries of w at positions i and k."""
    i, k = r
    lst = list(w)
    lst[i - 1], lst[k - 1] = lst[k - 1], lst[i - 1]
    return tuple(lst)


def is_bruhat_descent(w: Perm, r: Root) -> bool:
    """True iff length drops on the right by (i,k), i.e. w(i) > w(k)."""
    i, k = r
    return w[i - 1] > w[k - 1]


def affine_reflect(mu: Weight, r: Root, level: int) -> Weight:
    """Reflection of mu in the hyperplane {x_i - x_k = level}.

    Returns mu - (mu_i - mu_k - level)*(e_i - e_k); fixes mu exactly when
    mu_i - mu_k = level.  Preserves the coordinate sum.
    """
    i, k = r
    delta = mu[i - 1] - mu[k - 1] - level
    if delta == 0:
        return mu
    out = list(mu)
    out[i - 1] -= delta
    out[k - 1] += delta
    return tuple(out)


def permute_weight(w: Perm, mu: Weight) -> Weight:
    """The action nu with nu_{w(i)} = mu_i (so w sends e_i to e_{w(i)})."""
    out = [0] * len(mu)
    for i, wi in enumerate(w):
        out[wi - 1] = mu[i]
    return tuple(out)


def render_perm(w: Perm) -> str:
    """Digit string for n <= 9, comma-separated beyond."""
    if len(w) <= 9:
        return "".join(map(str, w))
    return ",".join(map(str, w))
