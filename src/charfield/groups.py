"""Descriptors for the finite classical groups handled by this package.

A group is specified by its family (symplectic or odd/even special
orthogonal), a rank, an odd prime power q, and for even orthogonal groups a
twist distinguishing the split form from the non-split one.

The integer factoriser behind q = p**a and every phi(d) lives here too:
trial division by small primes, Miller-Rabin with 13 bases and Pollard-Brent
rho, bounded so that it answers or raises BudgetExceededError.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import count
from math import gcd, isqrt

from .errors import BudgetExceededError, InputError


class Family(str, Enum):
    SP = "sp"
    SO_ODD = "so-odd"
    SO_EVEN = "so-even"


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(n) if sieve[p])


_SMALL_PRIMES = _primes_below(1000)  # tried by division before anything else
_MR_BASES = _SMALL_PRIMES[:13]  # 2, 3, ..., 41
# The least strong pseudoprime to all 13 bases (Sorenson and Webster, 2015):
# below it the Miller-Rabin test with those bases decides primality exactly.
_MR_BOUND = 3317044064679887385961981
# Pollard-Brent steps allowed to one factorisation, a few seconds; a balanced
# semiprime just below _MR_BOUND takes one to four million.
_RHO_STEPS = 1 << 23


def _is_strong_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases, for odd n > 41 free of
    the bases.  A base that witnesses compositeness proves it at any size;
    passing every base proves primality only below _MR_BOUND, so from there
    on it raises BudgetExceededError."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise BudgetExceededError(f"primality of {n} is undecided from {_MR_BOUND} on")
    return True


def is_prime(n: int) -> bool:
    """Primality: division by the primes below 1000, then Miller-Rabin with
    the first 13 prime bases, which is exact below 3.3 * 10**24; a larger
    n that every base passes raises BudgetExceededError."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
        if p * p > n:
            return True
    return _is_strong_probable_prime(n)


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int]:
    """(r, k) with n = r**k and k as large as possible, for n > 1."""
    for k in _SMALL_PRIMES:
        if 1 << k > n:
            break
        r = _integer_root(n, k)
        if r ** k == n:
            root, e = _perfect_power(r)
            return root, e * k
    return n, 1


def _pollard_brent(n: int, budget: int) -> tuple[int, int]:
    """A proper divisor of the composite n, which has no factor below 1000
    and is no perfect power, and the budget left.  Brent's cycle finding on
    x -> x**2 + c, for c = 1, 2, ... until a walk splits n; each round of
    the cycle finding is paid for before it starts, so BudgetExceededError
    comes before the walks take more than budget steps in all."""
    for c in count(1):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            if budget < 2 * r:
                raise BudgetExceededError(f"{n} did not split within {_RHO_STEPS} rho steps")
            budget -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys, steps = y, min(128, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                g = gcd(acc, n)
                k += steps
            r *= 2
        if g == n:  # the last batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, budget


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorisation of n >= 1 as sorted (prime, exponent) pairs.

    Division by the primes below 1000 first, so that small inputs cost no
    more than trial division; then each cofactor is reduced to a perfect
    power's root, tested by Miller-Rabin and split by Pollard-Brent rho.
    BudgetExceededError when a factor from 3.3 * 10**24 on passes the test,
    which proves nothing there, or when the rho walks of one call take more
    than a fixed number of steps.
    """
    if n < 1:
        raise InputError(f"cannot factorise {n}")
    found: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            found[p] = found.get(p, 0) + 1
    else:
        # no prime below 1000 divides n, so a cofactor below 1000**2 is prime
        pending, n, budget = [(n, 1)] if n > 1 else [], 1, _RHO_STEPS
        while pending:
            m, e = pending.pop()
            root, k = _perfect_power(m)
            if k > 1:
                pending.append((root, e * k))
            elif m < 1000 ** 2 or _is_strong_probable_prime(m):
                found[m] = found.get(m, 0) + e
            else:
                f, budget = _pollard_brent(m, budget)
                pending += [(f, e), (m // f, e)]
    if n > 1:
        found[n] = found.get(n, 0) + 1
    return tuple(sorted(found.items()))


@lru_cache(maxsize=None)
def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p**a with p prime, or raise InputError."""
    factors = factorize(q) if q >= 2 else ()
    if len(factors) != 1:
        raise InputError(f"{q} is not a prime power")
    return factors[0]


# the family of the dual group
_DUAL_FAMILY = {Family.SP: Family.SO_ODD, Family.SO_ODD: Family.SP, Family.SO_EVEN: Family.SO_EVEN}


@dataclass(frozen=True)
class GroupSpec:
    """Which finite classical group: family, rank, prime power, twist.

    The twist is meaningful only for even orthogonal groups: +1 is the split
    form, -1 the non-split (twisted) one.  What follows from these four is
    computed once, when the spec is built, and is no part of its equality,
    hash or repr: q = p**field_degree, q_is_square, dim (of the natural
    module), form_eps (the form's parity: 1 alternating for Sp, 0 symmetric
    for SO), and dual_dim and dual_family, those of the dual group.
    """

    family: Family
    n: int
    q: int
    twist: int = 1
    p: int = field(init=False, repr=False, compare=False)
    field_degree: int = field(init=False, repr=False, compare=False)
    q_is_square: bool = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)
    form_eps: int = field(init=False, repr=False, compare=False)
    dual_dim: int = field(init=False, repr=False, compare=False)
    dual_family: Family = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:  # stored in one form: equal specs share every cache entry
            values = Family(self.family), *map(operator.index, (self.n, self.q, self.twist))
        except (TypeError, ValueError) as exc:
            raise InputError(f"not a group: {exc}") from None
        family, n, q, twist = values
        if n < 1:
            raise InputError("rank must be >= 1")
        p, a = factor_prime_power(q)
        if p == 2:
            raise InputError("only odd q is supported")
        if twist not in (1, -1):
            raise InputError("twist must be +1 or -1")
        if twist == -1 and family is not Family.SO_EVEN:
            raise InputError("twist -1 only makes sense for so-even")
        sp, odd = family is Family.SP, family is Family.SO_ODD
        # the frozen fields are set past the dataclass's __setattr__
        vars(self).update(
            family=family, n=n, q=q, twist=twist, p=p, field_degree=a,
            q_is_square=a % 2 == 0, dim=2 * n + odd, form_eps=int(sp),
            dual_dim=2 * n + sp, dual_family=_DUAL_FAMILY[family])


def power_exponent(k: object, order: int) -> int:
    """k as an int coprime to order: the exponent of a power map x -> x^k
    that permutes the elements of a group of that order.  A non-integer k,
    or one that shares a factor with the order, raises InputError.  This is
    `as_int` written out, as every Brauer count pays it."""
    try:
        k = operator.index(k)
    except TypeError:
        raise InputError(f"k must be an integer, not {k!r}") from None
    if gcd(k, order) != 1:
        raise InputError("k must be coprime to the group order")
    return k
