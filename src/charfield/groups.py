"""Descriptors for the finite classical groups handled by this package.

A group is specified by its family (symplectic or odd/even special
orthogonal), a rank, an odd prime power q, and for even orthogonal groups a
twist distinguishing the split form from the non-split one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import InputError


class Family(str, Enum):
    SP = "sp"
    SO_ODD = "so-odd"
    SO_EVEN = "so-even"


def is_prime(n: int) -> bool:
    """Primality by trial division; inputs here are desk-scale."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=None)
def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p**a with p prime, or raise InputError."""
    if q < 2:
        raise InputError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p:
            continue
        a, m = 0, q
        while m % p == 0:
            m //= p
            a += 1
        if m != 1:
            raise InputError(f"{q} is not a prime power")
        return p, a
    return q, 1


@dataclass(frozen=True)
class GroupSpec:
    """Which finite classical group: family, rank, prime power, twist.

    The twist is meaningful only for even orthogonal groups: +1 is the split
    form, -1 the non-split (twisted) one.
    """

    family: Family
    n: int
    q: int
    twist: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("rank must be >= 1")
        p, _ = factor_prime_power(self.q)
        if p == 2:
            raise InputError("only odd q is supported")
        if self.twist not in (1, -1):
            raise InputError("twist must be +1 or -1")
        if self.twist == -1 and self.family is not Family.SO_EVEN:
            raise InputError("twist -1 only makes sense for so-even")

    @property
    def p(self) -> int:
        return factor_prime_power(self.q)[0]

    @property
    def field_degree(self) -> int:
        return factor_prime_power(self.q)[1]

    @property
    def q_is_square(self) -> bool:
        return self.field_degree % 2 == 0

    @property
    def dim(self) -> int:
        """Dimension of the natural module."""
        if self.family is Family.SO_ODD:
            return 2 * self.n + 1
        return 2 * self.n

    @property
    def form_eps(self) -> int:
        """Form parity: 1 for alternating (Sp), 0 for symmetric (SO)."""
        return 1 if self.family is Family.SP else 0

    @property
    def dual_dim(self) -> int:
        """Dimension of the natural module of the dual group."""
        if self.family is Family.SP:
            return 2 * self.n + 1
        return 2 * self.n

    @property
    def dual_family(self) -> Family:
        if self.family is Family.SP:
            return Family.SO_ODD
        if self.family is Family.SO_ODD:
            return Family.SP
        return Family.SO_EVEN
