"""Independent check of P_lambda through Macdonald's orthogonality.

At an exact rational specialization (q0, t0), the polynomial is pinned down
by two facts: it is m_lambda plus lower terms in dominance order, and it is
orthogonal to every lower monomial symmetric function under the inner product
with <p_rho, p_rho> = z_rho * prod_i (1 - q0^rho_i)/(1 - t0^rho_i) on power
sums.  Solving that small linear system exactly gives a value for every
coefficient that never touches the formulas being checked.  The change of
basis between power sums and monomials comes from the combinatorial
transition coefficients of p_rho in the m_mu, and one exact Gauss-Jordan
routine both inverts that matrix and solves the Gram system.

The linear algebra runs on Python ints, with denominators cleared once per
row rather than once per operation: the Gram matrix is built from integer
rows scaled by their own denominators and integer norms over one common
denominator, and the elimination keeps primitive integer rows.  Only its
results are Fractions, the same exact values a Fraction elimination gives.

The solve runs over all partitions of |lambda| below lambda in dominance,
whatever their number of parts; only afterwards is the result restricted to
partitions with at most n parts, which is what survives in n variables.
Specializing at q0 = t0 must reproduce the Schur polynomial, computed here by
direct semistandard-tableau counting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import mul

from .chain import Partition
from .qt import PoleError, SymFun, rational_eval_at, rational_one
from .ramyip import TermCapExceeded, term_cap

PartitionTuple = tuple[int, ...]
SymFunQ = dict[PartitionTuple, Fraction]


class OracleSingular(RuntimeError):
    """The Gram matrix is singular at the chosen specialization point."""


@lru_cache(maxsize=None)
def partitions_of(k: int) -> tuple[PartitionTuple, ...]:
    """All partitions of k, parts descending, in reverse lexicographic order."""
    if k == 0:
        return ((),)

    def rec(rest: int, limit: int) -> list[PartitionTuple]:
        if rest == 0:
            return [()]
        out = []
        for head in range(min(rest, limit), 0, -1):
            out.extend((head,) + tail for tail in rec(rest - head, head))
        return out

    return tuple(rec(k, k))


def check_oracle_cap(lam: Partition) -> None:
    """Raise ``TermCapExceeded``, before any work, if p(|lambda|)^3 passes the cap.

    The transition matrix and the Gram system run over the partitions of
    |lambda|, so the elimination costs about p(|lambda|)^3.  p(j) is counted
    up by Euler's pentagonal recurrence, and the count stops once p(j)^3
    passes the cap: p grows with j, so a large |lambda| costs a few steps.
    """
    cap = term_cap()
    k = lam.size
    p = [1]
    while len(p) <= k:
        j = len(p)
        # p(j) = sum over g >= 1 of (-1)^(g+1) (p(j - g(3g-1)/2) + p(j - g(3g+1)/2))
        total, g, pent = 0, 1, 1
        while pent <= j:
            sign = 1 if g % 2 else -1
            total += sign * (p[j - pent] + (p[j - pent - g] if pent + g <= j else 0))
            g += 1
            pent = g * (3 * g - 1) // 2
        p.append(total)
        if total ** 3 > cap:
            raise TermCapExceeded(
                f"the oracle's work of p({k})^3 for lambda = {lam.parts} "
                f"exceeds the term cap {cap}")


def dominance_le(mu: PartitionTuple, lam: PartitionTuple) -> bool:
    """Partial-sum comparison for partitions of the same size."""
    total_mu, total_lam = 0, 0
    for i in range(max(len(mu), len(lam))):
        total_mu += mu[i] if i < len(mu) else 0
        total_lam += lam[i] if i < len(lam) else 0
        if total_mu > total_lam:
            return False
    return True


def strip_zeros(parts) -> PartitionTuple:
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def power_in_monomials(k: int) -> dict[PartitionTuple, dict[PartitionTuple, int]]:
    """Expansion of each power sum p_rho, rho |- k, in the monomial basis.

    The m_mu coefficient of p_rho = prod_j (sum_i x_i^rho_j) is its x^mu
    coefficient: the number of maps sending each part of rho to a row of mu
    so that the parts landing in row i sum to mu_i (Macdonald, Symmetric
    Functions and Hall Polynomials, I.6).  A backtrack places the parts in
    order; the count left depends only on the parts still to place and the
    multiset of unfilled row capacities, so it is memoised on both, and rows
    of equal remaining capacity are counted once times their multiplicity.
    """
    memo: dict[tuple[PartitionTuple, PartitionTuple], int] = {}

    def ways(parts: PartitionTuple, caps: PartitionTuple) -> int:
        # sum(parts) == sum(caps) throughout, so no parts means no capacity
        if not parts:
            return 1
        key = (parts, caps)
        hit = memo.get(key)
        if hit is None:
            head, rest = parts[0], parts[1:]
            hit = 0
            for i, cap in enumerate(caps):
                if cap < head:
                    break
                if i and caps[i - 1] == cap:
                    continue
                left = caps[:i] + caps[i + 1:] + ((cap - head,) if cap > head else ())
                hit += caps.count(cap) * ways(rest, tuple(sorted(left, reverse=True)))
            memo[key] = hit
        return hit

    plist = partitions_of(k)
    out: dict[PartitionTuple, dict[PartitionTuple, int]] = {}
    for rho in plist:
        counts = ((mu, ways(rho, mu)) for mu in plist)
        out[rho] = {mu: c for mu, c in counts if c}
    return out


@lru_cache(maxsize=None)
def monomial_in_powers(k: int) -> dict[PartitionTuple, dict[PartitionTuple, Fraction]]:
    """Inverse transition: each m_mu as a rational combination of p_rho."""
    plist = partitions_of(k)
    p_in_m = power_in_monomials(k)
    size = len(plist)
    # mat[r][c] = coefficient of m_{plist[c]} in p_{plist[r]}, so p = mat * m
    # as basis columns and row mu of the inverse expands m_mu in power sums.
    mat = [[p_in_m[rho].get(mu, 0) for mu in plist] for rho in plist]
    inv = _invert(mat, size)
    out: dict[PartitionTuple, dict[PartitionTuple, Fraction]] = {}
    for i, mu in enumerate(plist):
        out[mu] = {
            plist[r]: inv[i][r] for r in range(size) if inv[i][r] != 0
        }
    return out


def _scaled(row: list[Fraction | int]) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, as ints, and that lcm."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def _primitive(row: list[Fraction | int]) -> list[int]:
    """The row cleared of denominators and divided by its content."""
    ints, _ = _scaled(row)
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _gauss_jordan(aug: list[list[Fraction | int]], size: int,
                  singular: str) -> list[list[Fraction]]:
    """Reduce augmented rows [A | B] to [I | A^-1 B], exactly.

    A is the leading size-by-size block; when it is singular, OracleSingular
    is raised with the caller's message.  The rows (Fractions or ints) are
    first cleared of denominators to primitive integer rows, so elimination
    runs on Python ints: a row is updated as ``pv * x - f * y`` against the
    pivot row, whose pivot is ``pv``, and then divided by its content when
    that is above 1.  No pivot is normalised; at the end row r is
    ``[0 .. d .. 0 | d * (A^-1 B)_r]`` with d its pivot, and one Fraction
    per entry of B brings it to the exact quotient.
    """
    rows = [_primitive(row) for row in aug]
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            raise OracleSingular(singular)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        row = rows[col]
        pv = row[col]
        for r in range(size):
            other = rows[r]
            f = other[col]
            if r != col and f:
                # columns left of col are zero in the pivot row
                new = [pv * x - f * y if y else pv * x
                       for x, y in zip(other, row)]
                g = gcd(*new)
                rows[r] = [x // g for x in new] if g > 1 else new
    one, zero = Fraction(1), Fraction(0)
    return [[one if c == r else zero for c in range(size)]
            + [Fraction(x, row[r]) for x in row[size:]]
            for r, row in enumerate(rows)]


def _invert(mat: list[list[Fraction | int]], size: int) -> list[list[Fraction]]:
    aug = [row[:] + [int(i == r) for i in range(size)]
           for r, row in enumerate(mat)]
    reduced = _gauss_jordan(aug, size, "transition matrix is singular")
    return [row[size:] for row in reduced]


def _z(rho: PartitionTuple) -> int:
    out = 1
    mult: dict[int, int] = {}
    for r in rho:
        mult[r] = mult.get(r, 0) + 1
    for r, m in mult.items():
        out *= r**m * factorial(m)
    return out


def _solve(gram: list[list[Fraction | int]],
           rhs: list[Fraction | int]) -> list[Fraction]:
    size = len(rhs)
    aug = [gram[r][:] + [rhs[r]] for r in range(size)]
    reduced = _gauss_jordan(aug, size, "Gram matrix is singular at this point")
    return [row[size] for row in reduced]


def macdonald_oracle(lam: Partition, n: int, q0: Fraction,
                     t0: Fraction) -> SymFunQ:
    """Coefficients of P_lambda in the monomial basis at an exact point.

    P_lambda = m_lambda + sum_mu x_mu m_mu over mu below lambda, with
    <m_nu, P_lambda> = 0 for each nu below.  The inner product is taken on
    integers.  Each needed row a_mu of ``monomial_in_powers`` is scaled by the
    lcm s_mu of its denominators, and every norm <p_rho, p_rho> by one common
    denominator D, to integers A_mu and W_rho.  The integer Gram
    G[nu][mu] = sum_rho A_nu,rho A_mu,rho W_rho is D s_nu s_mu <m_nu, m_mu>:

      sum_mu <m_nu, m_mu> x_mu = -<m_nu, m_lambda>        (times D s_nu s_lambda)
      sum_mu G[nu][mu] (x_mu s_lambda / s_mu) = -G[nu][lambda]
      so G y = -G[.][lambda] and x_mu = y_mu s_mu / s_lambda.
    """
    q0, t0 = Fraction(q0), Fraction(t0)
    lam_red = strip_zeros(lam.parts)
    k = sum(lam_red)
    below = [mu for mu in partitions_of(k)
             if mu != lam_red and dominance_le(mu, lam_red)]
    if not below:
        return {lam_red: Fraction(1)}
    plist = partitions_of(k)
    m_in_p = monomial_in_powers(k)
    norms: list[Fraction] = []
    for rho in plist:
        value = Fraction(_z(rho))
        for r in rho:
            dq = 1 - q0**r
            dt = 1 - t0**r
            if dt == 0:
                raise PoleError(f"1 - t0^{r} vanishes at t0={t0}")
            value *= Fraction(dq, 1) / dt
        norms.append(value)
    weights, _ = _scaled(norms)
    rows: list[list[int]] = []
    scales: list[int] = []
    for mu in below + [lam_red]:
        row, s = _scaled([m_in_p[mu].get(rho, 0) for rho in plist])
        rows.append(row)
        scales.append(s)
    size = len(below)
    gram = [[0] * size for _ in range(size)]
    rhs = [0] * size
    for i in range(size):
        weighted = list(map(mul, rows[i], weights))
        gram_i = gram[i]
        for j in range(i, size):
            gram_i[j] = gram[j][i] = sum(map(mul, weighted, rows[j]))
        rhs[i] = -sum(map(mul, weighted, rows[size]))
    solution = _solve(gram, rhs)
    s_lam = scales[size]
    out: SymFunQ = {lam_red: Fraction(1)}
    for mu, y, s in zip(below, solution, scales):
        if y != 0 and len(mu) <= n:
            out[mu] = y * s / s_lam
    return out


def _count_ssyt(shape: PartitionTuple, content: PartitionTuple) -> int:
    """Semistandard tableaux of the given shape and content, by backtracking."""
    rows = len(shape)
    remaining = list(content)
    grid = [[0] * shape[r] for r in range(rows)]
    cells = [(r, c) for r in range(rows) for c in range(shape[r])]

    def rec(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        total = 0
        lo = grid[r][c - 1] if c else 1
        above = grid[r - 1][c] if r and c < shape[r - 1] else 0
        for v in range(max(lo, above + 1), len(remaining) + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                grid[r][c] = v
                total += rec(idx + 1)
                remaining[v - 1] += 1
        grid[r][c] = 0
        return total

    return rec(0)


def schur_oracle(lam: Partition, n: int) -> SymFunQ:
    """Schur polynomial in the monomial basis via Kostka-number counting."""
    lam_red = strip_zeros(lam.parts)
    k = sum(lam_red)
    out: SymFunQ = {}
    for mu in partitions_of(k):
        if len(mu) > n or not dominance_le(mu, lam_red):
            continue
        count = _count_ssyt(lam_red, mu)
        if count:
            out[mu] = Fraction(count)
    return out


def collect_to_monomial_basis(P: SymFun, n: int) -> dict[PartitionTuple, object]:
    """Coefficient of m_mu = coefficient of the sorted content x^mu."""
    out = {}
    for content, coef in P.items():
        if tuple(sorted(content, reverse=True)) == content:
            out[strip_zeros(content)] = coef
    return out


@dataclass
class CheckEntry:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class SpecializationReport:
    checks: list[CheckEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckEntry(name, ok, detail))


def _draw_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(2, 97), rng.randint(2, 97))


def _symmetry_failures(P: SymFun, n: int) -> list[str]:
    groups: dict[PartitionTuple, list] = {}
    for content, coef in P.items():
        groups.setdefault(tuple(sorted(content, reverse=True)), []).append(
            (content, coef)
        )
    problems = []
    for rep, members in groups.items():
        mult: dict[int, int] = {}
        for v in rep:
            mult[v] = mult.get(v, 0) + 1
        orbit = factorial(n)
        for m in mult.values():
            orbit //= factorial(m)
        if len(members) != orbit:
            problems.append(f"orbit of {rep} has {len(members)} of {orbit} terms")
            continue
        base = members[0][1]
        for content, coef in members[1:]:
            if coef != base:
                problems.append(f"coefficients differ inside orbit of {rep}")
                break
    return problems


def check_specializations(P: SymFun, lam: Partition, n: int,
                          seed: int | None = 0,
                          points: list[tuple[Fraction, Fraction]] | None = None,
                          ) -> SpecializationReport:
    """Symmetry, monicity, oracle agreement, and the Schur specialization."""
    report = SpecializationReport()

    problems = _symmetry_failures(P, n)
    report.add("symmetry", not problems, "; ".join(problems))

    top = P.get(lam.parts)
    report.add(
        "monic",
        top is not None and top == rational_one(),
        "" if top else f"missing x^{lam.parts}",
    )

    collected = collect_to_monomial_basis(P, n)
    rng = random.Random(seed)

    def oracle_check(q0: Fraction, t0: Fraction) -> None:
        # raises PoleError/OracleSingular for an unusable point
        name = f"oracle@({q0},{t0})"
        expected = macdonald_oracle(lam, n, q0, t0)
        got = {
            mu: rational_eval_at(coef, q0, t0) for mu, coef in collected.items()
        }
        got = {mu: v for mu, v in got.items() if v != 0}
        if got == expected:
            report.add(name, True)
        else:
            bad = sorted(set(expected) ^ set(got)) or sorted(
                mu for mu in expected if expected[mu] != got.get(mu)
            )
            report.add(name, False, f"mismatch at m_{bad[0]}")

    if points is not None:
        for q0, t0 in points:
            try:
                oracle_check(q0, t0)
            except (PoleError, OracleSingular) as exc:
                report.add(f"oracle@({q0},{t0})", False, str(exc))
    else:
        # a drawn point may hit a pole or a singular Gram matrix; redraw
        done = attempts = 0
        while done < 3 and attempts < 60:
            attempts += 1
            q0, t0 = _draw_fraction(rng), _draw_fraction(rng)
            if q0 == 1 or t0 == 1 or q0 == t0:
                continue
            try:
                oracle_check(q0, t0)
            except (PoleError, OracleSingular):
                continue
            done += 1
        if done < 3:
            report.add("oracle-points", False,
                       f"only {done} usable points in {attempts} draws")

    # Schur rail: at q0 = t0 every coefficient must collapse to a Kostka number.
    q0 = None
    for _ in range(50):
        cand = _draw_fraction(rng)
        if cand != 1:
            try:
                got = {
                    mu: rational_eval_at(coef, cand, cand)
                    for mu, coef in collected.items()
                }
            except PoleError:
                continue
            q0 = cand
            break
    if q0 is None:
        report.add("schur", False, "no pole-free q0=t0 point found")
    else:
        got = {mu: v for mu, v in got.items() if v != 0}
        expected = schur_oracle(lam, n)
        report.add(
            "schur",
            got == expected,
            "" if got == expected else f"at q0=t0={q0}",
        )
    return report
