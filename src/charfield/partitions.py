"""Partitions labelling unipotent classes of classical groups, with the
multiplicity statistics that control centraliser component groups.

For a form parity eps (1 alternating, 0 symmetric), the admissible partitions
of N are those in which every part m with m = eps (mod 2) occurs an even
number of times.  Two statistics of such a partition drive everything here:
the number of distinct parts of the opposite parity, and a flag recording
whether N is even and some opposite-parity part has odd multiplicity.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InputError, as_int


class Partition:
    """A weakly decreasing sequence of positive integers.

    Zero parts in the input are stripped, so appending zeros never changes
    the partition or any statistic derived from it.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        try:
            ps = tuple(operator.index(x) for x in parts if x != 0)
        except TypeError:
            raise InputError("parts must be integers") from None
        if any(x < 0 for x in ps):
            raise InputError("parts must be positive")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise InputError("parts must be weakly decreasing")
        self.parts = ps

    @property
    def total(self) -> int:
        return sum(self.parts)

    def multiplicity(self, m: int) -> int:
        """r_m: how many parts equal m."""
        return sum(1 for x in self.parts if x == m)

    def distinct(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.parts), reverse=True))

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


def _unpaired_part(mu: Partition, eps: int) -> int | None:
    """The largest part m = eps (mod 2) of odd multiplicity in mu, or None
    when mu is admissible for eps."""
    return next((m for m in mu.distinct() if m % 2 == eps and mu.multiplicity(m) % 2), None)


@dataclass(frozen=True)
class EpsPartition:
    """A partition admissible for form parity eps.

    eps = 1: odd parts have even multiplicity (symplectic Jordan types);
    eps = 0: even parts have even multiplicity (orthogonal Jordan types).
    """

    partition: Partition
    eps: int

    def __post_init__(self) -> None:
        as_int(self.eps, "eps")
        if self.eps not in (0, 1):
            raise InputError("eps must be 0 or 1")
        m = _unpaired_part(self.partition, self.eps)
        if m is not None:
            raise InputError(f"part {m} has odd multiplicity, not admissible for eps={self.eps}")

    @property
    def total(self) -> int:
        return self.partition.total


def eps_stats(ep: EpsPartition) -> tuple[int, int]:
    """The pair (a, delta) of an admissible partition.

    a counts the distinct parts m with m = 1 + eps (mod 2); delta is 1 when
    the total is even and some such part has odd multiplicity, else 0.
    """
    mu, eps = ep.partition, ep.eps
    opposite = [m for m in mu.distinct() if m % 2 == (1 + eps) % 2]
    a = len(opposite)
    delta = 0
    if mu.total % 2 == 0 and any(mu.multiplicity(m) % 2 == 1 for m in opposite):
        delta = 1
    return a, delta


def component_orders(ep: EpsPartition) -> tuple[int, int, int]:
    """Orders of the three centraliser component groups of a unipotent element
    of Jordan type ep: in the full isometry group, in its identity-coset
    subgroup, and in the adjoint quotient.

    All three are elementary abelian 2-groups, of orders
    max(1, 2^a), max(1, 2^(a-1)), max(1, 2^(a-1-delta)).
    """
    a, delta = eps_stats(ep)
    def pow2(e: int) -> int:
        return 1 if e <= 0 else 2**e
    return pow2(a), pow2(a - 1), pow2(a - 1 - delta)


def _partitions_of(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def eps_partitions(n: int, eps: int) -> list[EpsPartition]:
    """All admissible partitions of n for the given form parity."""
    n, eps = as_int(n, "n"), as_int(eps, "eps")
    partitions = map(Partition, _partitions_of(n, n))
    return [EpsPartition(mu, eps) for mu in partitions if _unpaired_part(mu, eps) is None]
