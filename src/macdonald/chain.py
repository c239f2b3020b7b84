"""The fixed root chain attached to a strictly decreasing partition.

For a regular dominant weight, i.e. a partition lambda_1 > ... > lambda_{n-1}
> lambda_n = 0, the alcove-walk formula is evaluated along one specific
reduced chain of positive roots.  The chain factors by diagram columns
j = lambda_1 down to 2; the factor for column j lists roots (i, k) with
i <= lambda'_j < k, rows in decreasing i, and k decreasing within a row.
Whenever j is the first column with its conjugate height, the last root of
each row is dropped.

Each chain position carries a multiplicity: the number of occurrences of its
root up to and including that position.  For this chain the multiplicity has
the closed form lambda_i - (j - 1), the arm length of the cell (i, j-1); the
constructor counts occurrences and asserts the closed form, since this index
bookkeeping is the easiest place for an off-by-one to hide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from .weyl import Root


class NonRegularError(ValueError):
    """Partition is not strictly decreasing down to a single trailing zero."""


class InternalInvariantError(AssertionError):
    """A structural identity the construction guarantees failed to hold."""


class Partition:
    """A regular partition: lambda_1 > ... > lambda_{n-1} > 0, lambda_n = 0.

    Stored with its trailing zero, so n == len(parts) and the coordinate sum
    of every weight in play is fixed at |lambda|.
    """

    __slots__ = ("parts", "n", "_conjugate")

    def __init__(self, parts: Sequence[int], n: int | None = None):
        parts = tuple(int(p) for p in parts)
        if n is not None:
            if len(parts) > n:
                raise NonRegularError(f"{parts} has more than n={n} parts")
            parts = parts + (0,) * (n - len(parts))
        if len(parts) < 2 or parts[-1] != 0:
            raise NonRegularError(f"{parts} must end with a single zero part")
        body = parts[:-1]
        if any(p <= 0 for p in body) or any(
            body[i] <= body[i + 1] for i in range(len(body) - 1)
        ):
            raise NonRegularError(
                f"{parts} is not regular: need parts strictly decreasing to 0"
            )
        self.parts = parts
        self.n = len(parts)
        self._conjugate: tuple[int, ...] | None = None

    def conjugate_runs(self) -> Iterator[tuple[int, int]]:
        """``(k, count)`` per run of the conjugate, column 1 first.

        lambda'_j = k for lambda_{k+1} < j <= lambda_k, so the conjugate is
        one run per nonzero part; a run is read off two parts, whatever
        lambda_1 is.
        """
        parts = self.parts
        return ((k, parts[k - 1] - parts[k]) for k in range(self.n - 1, 0, -1))

    @property
    def conjugate(self) -> tuple[int, ...]:
        """lambda'_1, ..., lambda'_{lambda_1}, built on first use.

        It is lambda_1 long, so nothing reads it before the caps, which read
        the parts or ``conjugate_runs``.
        """
        if self._conjugate is None:
            self._conjugate = tuple(itertools.chain.from_iterable(
                itertools.repeat(k, count) for k, count in self.conjugate_runs()))
        return self._conjugate

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts})"


def column_roots(height: int, n: int) -> list[Root]:
    """Roots for a column of conjugate height k: rows i = k..1, k within a
    row running from n down to height+1."""
    if not 1 <= height <= n - 1:
        raise ValueError(f"height {height} out of range for n={n}")
    return [(i, k) for i in range(height, 0, -1) for k in range(n, height, -1)]


def column_roots_trimmed(height: int, n: int) -> list[Root]:
    """Same as column_roots with the last root of each row removed."""
    if not 1 <= height <= n - 1:
        raise ValueError(f"height {height} out of range for n={n}")
    return [(i, k) for i in range(height, 0, -1) for k in range(n, height + 1, -1)]


@dataclass(frozen=True)
class ChainEntry:
    root: Root
    column: int
    mult: int

    @property
    def height(self) -> int:
        return self.root[1] - self.root[0]

    @cached_property
    def factor(self) -> tuple[int, int]:
        """``(mult, height)``, the entry's binomial 1 - q^mult t^height.

        One tuple per entry, shared by every denominator multiset that
        holds it.
        """
        return (self.mult, self.height)


class LambdaChain:
    """The annotated chain: entries in order, plus the column factorization."""

    __slots__ = ("partition", "entries", "segments", "m", "column_positions")

    def __init__(self, partition: Partition, entries: list[ChainEntry],
                 segments: list[tuple[int, int, int]]):
        self.partition = partition
        self.entries = tuple(entries)
        self.segments = tuple(segments)       # (column, start, stop) position ranges
        self.m = len(entries)
        self.column_positions = {
            col: tuple(range(start, stop)) for col, start, stop in segments
        }

    def __iter__(self) -> Iterator[ChainEntry]:
        return iter(self.entries)


def chain_length(parts: tuple[int, ...]) -> int:
    """m, the length of the chain of ``parts``, from the parts alone.

    The columns of conjugate height k < n-1 are lambda_{k+1} < j <= lambda_k,
    each with k(n-k) roots, less one per row (k) in the leftmost, trimmed
    one.  The columns of height n-1 are 2 .. lambda_{n-1}, each with n-1
    roots; the leftmost of that height, column 1, is not in the chain.  So
    the term cap is checked before a chain, linear in lambda_1, is built.
    """
    n = len(parts)
    m = (parts[n - 2] - 1) * (n - 1)
    for k in range(1, n - 1):
        m += (parts[k - 1] - parts[k]) * k * (n - k) - k
    return m


def build_chain(partition: Partition) -> LambdaChain:
    """Concatenate the column factors for columns lambda_1 down to 2.

    A column factor is trimmed exactly when its column is the leftmost one of
    its conjugate height.  Multiplicities are counted and then checked against
    the arm-length closed form.
    """
    n = partition.n
    conj = partition.conjugate
    entries: list[ChainEntry] = []
    segments: list[tuple[int, int, int]] = []
    seen: dict[Root, int] = {}
    first_of_height: dict[int, int] = {}
    for c, height in enumerate(conj, start=1):
        first_of_height.setdefault(height, c)
    for j in range(partition.parts[0], 1, -1):
        height = conj[j - 1]
        roots = (column_roots_trimmed(height, n) if first_of_height[height] == j
                 else column_roots(height, n))
        start = len(entries)
        for root in roots:
            seen[root] = seen.get(root, 0) + 1
            entry = ChainEntry(root, j, seen[root])
            i, _ = root
            if entry.mult != partition.parts[i - 1] - (j - 1):
                raise InternalInvariantError(
                    f"multiplicity {entry.mult} of root {root} in column {j} "
                    f"!= arm {partition.parts[i - 1] - (j - 1)}"
                )
            entries.append(entry)
        segments.append((j, start, len(entries)))
    return LambdaChain(partition, entries, segments)


@lru_cache(maxsize=None)
def cached_chain(parts: tuple[int, ...]) -> LambdaChain:
    return build_chain(Partition(parts))


def render_chain(chain: LambdaChain) -> str:
    """Factored rendering, e.g. ((1,4),(1,3) | (2,4),(2,3),(1,4),(1,3) | ...)."""
    groups = []
    for _, start, stop in chain.segments:
        groups.append(
            ",".join(f"({i},{k})" for (i, k) in
                     (e.root for e in chain.entries[start:stop]))
        )
    return "(" + " | ".join(g for g in groups if g) + ")"
