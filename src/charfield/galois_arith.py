"""Exact number theory behind every Galois computation.

Galois elements are modelled only through their action on roots of unity of a
fixed finite order m (always a multiple of 4): the element sends each m-th
root of unity to its k-th power.  That is all the sign formulas in this
package ever consult, so the absolute Galois group itself is never
represented.

For an odd prime p, the quadratic Gauss sum singles out a square root of
omega*p inside the p-th cyclotomic field, where omega = (-1)^((p-1)/2) is the
sign with p = omega (mod 4).  A Galois element scales that root by a Legendre
symbol, and scales sqrt(p) by the same symbol times a correction read off the
action on i.  Everything is verified here by exact cyclotomic arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import BudgetExceededError, InputError, as_int
from .groups import factor_prime_power, is_prime


def _check_odd_prime(p: object) -> int:
    """p as an int, or InputError unless it is an odd prime."""
    p = as_int(p, "p")
    if p == 2 or not is_prime(p):
        raise InputError(f"{p} is not an odd prime")
    return p


def _check_modulus(m: object) -> int:
    """m as an int, or InputError unless it is a positive multiple of 4."""
    m = as_int(m, "m")
    if m <= 0 or m % 4 != 0:
        raise InputError("modulus must be a positive multiple of 4")
    return m


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p.

    Returns 0 when p divides a, +1 for nonzero squares mod p, -1 otherwise.
    Completely multiplicative in a.
    """
    p = _check_odd_prime(p)
    a = as_int(a, "a") % p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def signed_prime(p: int) -> int:
    """omega*p for an odd prime p, omega = (-1)^((p-1)/2) the sign with
    p = omega (mod 4): the square of the Gauss sum, so sqrt(omega*p) lies in
    the p-th cyclotomic field."""
    p = _check_odd_prime(p)
    return (-1) ** ((p - 1) // 2) * p


def is_square_in_fq(k: int, q: int) -> bool:
    """Is k (mod p) a square in the field with q = p**a elements?

    True iff a is even (every element of the prime field is then a square)
    or k is a square mod p already.
    """
    p, a = factor_prime_power(as_int(q, "q"))
    _check_odd_prime(p)
    if as_int(k, "k") % p == 0:
        raise InputError("k must be coprime to p")
    return a % 2 == 0 or legendre(k, p) == 1


@dataclass(frozen=True)
class GaloisElement:
    """A Galois element given by its action zeta -> zeta**k on m-th roots of unity.

    m is a finite conductor bound, always a positive multiple of 4 and, in
    any context involving the prime p or a series order d, a multiple of
    those as well.
    """

    k: int
    m: int

    def __post_init__(self) -> None:
        as_int(self.k, "k")
        _check_modulus(self.m)
        if gcd(self.k, self.m) != 1:
            raise InputError("k must be coprime to the modulus")

    def fixes_i(self) -> bool:
        return self.k % 4 == 1


@dataclass(frozen=True)
class PrimePowerAction:
    """A Galois element acting as zeta -> zeta**(ell**r) on all roots of unity
    of order coprime to ell, together with its action on i when ell = 2.

    For odd ell the action on i is forced: i -> i**(ell**r), so i is fixed
    exactly when ell**r = 1 (mod 4).
    """

    ell: int
    r: int
    i_sign: int = 0

    def __post_init__(self) -> None:
        for name in ("ell", "r", "i_sign"):
            as_int(getattr(self, name), name)
        if not is_prime(self.ell):
            raise InputError(f"{self.ell} is not prime")
        if self.r < 0:
            raise InputError("r must be >= 0")
        forced = 1 if pow(self.ell, self.r, 4) == 1 else -1
        if self.ell == 2:
            if self.i_sign not in (1, -1):
                raise InputError("i_sign must be +1 or -1 when ell = 2")
        elif self.i_sign == 0:
            object.__setattr__(self, "i_sign", forced)
        elif self.i_sign != forced:
            raise InputError("for odd ell the action on i is i**(ell**r)")


def galois_from_prime_power(h: PrimePowerAction, m: int) -> GaloisElement:
    """Realise a prime-power action as a Galois element of the m-th roots.

    Writes m = ell**e * m' with ell coprime to m'.  On the m'-part the action
    is zeta -> zeta**(ell**r).  On the ell-part: for odd ell the exponent is
    set to 1 (no formula here ever consults the action on ell-power roots),
    and for ell = 2 only the action on i is retained, via k = 1 or 3 mod 4.
    """
    m = _check_modulus(m)
    e = 0
    m_prime = m
    while m_prime % h.ell == 0:
        m_prime //= h.ell
        e += 1
    ell_part = h.ell**e
    k_prime = pow(h.ell, h.r, m_prime) if m_prime > 1 else 0
    if e == 0:
        return GaloisElement(k_prime % m, m)
    k_ell = 1
    if h.ell == 2:
        k_ell = 1 if h.i_sign == 1 else 3
    # CRT: k = k_prime mod m', k = k_ell mod ell**e
    inv = pow(ell_part, -1, m_prime) if m_prime > 1 else 0
    k = k_ell + ell_part * ((k_prime - k_ell) * inv % m_prime)
    return GaloisElement(k % m, m)


def gauss_sqrt_sign(sigma: GaloisElement, p: int) -> int:
    """Sign alpha with sqrt(omega*p)^sigma = alpha * sqrt(omega*p).

    Requires p | sigma.m so that the action on p-th roots is defined.
    Equals the Legendre symbol (k/p).
    """
    p = _check_odd_prime(p)
    if sigma.m % p != 0:
        raise InputError("modulus must be divisible by p")
    return legendre(sigma.k, p)


def sqrt_p_sign(sigma: GaloisElement, p: int) -> int:
    """Sign beta with sqrt(p)^sigma = beta * sqrt(p).

    Requires 4p | sigma.m.  Equals gauss_sqrt_sign, (k/p), when
    p = 1 (mod 4); when p = 3 (mod 4) there is the extra factor
    i^(k-1) = +-1 from the action on i, because sqrt(p) = -i * sqrt(omega*p)
    in that case.
    """
    p = _check_odd_prime(p)
    if sigma.m % (4 * p) != 0:
        raise InputError("modulus must be divisible by 4p")
    base = gauss_sqrt_sign(sigma, p)
    if signed_prime(p) == p:
        return base
    # k is odd, so i^(k-1) = (-1)^((k-1)/2)
    return base * (1 if sigma.k % 4 == 1 else -1)


# gauss_sum_exact costs O(p^2) integer operations; larger p is refused
GAUSS_BOUND = 101


def _reduce_mod_cyclotomic(coeffs: list[int], p: int) -> tuple[int, ...]:
    """Reduce a coefficient vector over exponents 0..p-1 modulo 1+x+...+x^(p-1)."""
    top = coeffs[p - 1]
    return tuple(c - top for c in coeffs[: p - 1])


def gauss_sum_exact(p: int, k: int) -> tuple[int, int]:
    """Exact quadratic Gauss sum computations modulo the p-th cyclotomic polynomial.

    Let g = sum_{n=1}^{p-1} (n/p) x^n in Z[x]/(Phi_p).  Returns the pair
    (g^2 as an integer, the sign relating g(x^k) to g(x)).  The first entry
    always equals omega*p and the second equals (k/p); both are computed by
    raw polynomial arithmetic, with no quadratic reciprocity anywhere.
    """
    p = _check_odd_prime(p)
    if p > GAUSS_BOUND:
        raise BudgetExceededError(f"p = {p} exceeds the bound {GAUSS_BOUND}")
    if as_int(k, "k") % p == 0:
        raise InputError("k must be coprime to p")
    chi = [0] + [legendre(n, p) for n in range(1, p)]  # g's coefficients
    # g^2 with exponents taken mod p
    sq = [0] * p
    for i in range(1, p):
        for j in range(1, p):
            sq[(i + j) % p] += chi[i] * chi[j]
    sq_red = _reduce_mod_cyclotomic(sq, p)
    if any(c != 0 for c in sq_red[1:]):
        raise ArithmeticError("Gauss sum square is not rational")  # unreachable
    square = sq_red[0]
    gk = [0] * p
    for n in range(1, p):
        gk[k * n % p] += chi[n]
    g_red = _reduce_mod_cyclotomic(chi, p)
    gk_red = _reduce_mod_cyclotomic(gk, p)
    if gk_red == g_red:
        sign = 1
    elif gk_red == tuple(-c for c in g_red):
        sign = -1
    else:
        raise ArithmeticError("substituted Gauss sum is not +-g")  # unreachable
    return square, sign
