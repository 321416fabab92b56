"""Character fields of the classical-group character series.

Every character in the series attached to a semisimple class has the same
field: the fixed field of the class stabiliser inside a cyclotomic field,
possibly extended by the Gauss-sum square root sqrt(omega*p).  The extension
happens exactly for symplectic groups with q a non-square and -1 an
eigenvalue of the class; orthogonal series never grow.

This uniform model is known to be wrong for Sp4(F_3): the oracle's
`brauer_fixed_classes` finds 14 classes fixed by g -> g^k for every k that
is a non-square mod 3, where the model predicts 13 (`test_brauer_counts`
pins the 14).  The suspected series is that of the class with eigenvalue 1
once and -1 four times, minus_type = +1, whose centraliser O4+(F_3) has an
outer automorphism swapping two of its five unipotent characters; its
characters need not all have the field computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from operator import add

from .errors import InputError
from .galois_arith import GaloisElement, gauss_sqrt_sign, is_square_in_fq, signed_prime
from .groups import Family, GroupSpec, power_exponent
from .semisimple import (
    CyclotomicSubfield,
    SemisimpleClass,
    check_class_of,
    enumerate_classes,
    galois_stabilizer,
    order_of,
)


@dataclass(frozen=True)
class CharacterField:
    """The field of a character series: a cyclotomic subfield plus an
    optional sqrt(omega*p) adjunction.

    The adjunction doubles the degree (the prime p never divides the
    cyclotomic conductor here, so the two parts are linearly disjoint), and
    ruins realness unless omega = +1.
    """

    base: CyclotomicSubfield
    adjoin_sqrt_omega_p: bool
    p: int

    @property
    def degree(self) -> int:
        return self.base.degree * (2 if self.adjoin_sqrt_omega_p else 1)

    @property
    def adjoined_radicand(self) -> int | None:
        """omega * p when the adjunction happens, else None."""
        if not self.adjoin_sqrt_omega_p:
            return None
        return signed_prime(self.p).sign * self.p

    @property
    def is_real(self) -> bool:
        if not self.base.is_real:
            return False
        return not self.adjoin_sqrt_omega_p or signed_prime(self.p).sign == 1

    def to_dict(self) -> dict:
        return {
            "d": self.base.d,
            "stab": list(self.base.stab),
            "degree": self.degree,
            "adjoin_sqrt_omega_p": self.adjoin_sqrt_omega_p,
            "real": self.is_real,
        }


def character_field(g: GroupSpec, cls: SemisimpleClass) -> CharacterField:
    """Field of every character in the series of cls.

    Orthogonal families: the cyclotomic core alone.  Symplectic: adjoin
    sqrt(omega*p) exactly when q is not a square and -1 is an eigenvalue.
    """
    check_class_of(g, cls)
    base = galois_stabilizer(cls)
    if g.family is Family.SP:
        adjoin = (not g.q_is_square) and cls.has_minus_one_eigenvalue()
        return CharacterField(base, adjoin, g.p)
    return CharacterField(base, False, g.p)


def is_real_series(g: GroupSpec, cls: SemisimpleClass) -> bool:
    """Are the characters of the series real-valued?

    Exactly when their common field is real: the class is fixed by
    inversion and, for symplectic groups with -1 an eigenvalue, q is a
    square or p = 1 (mod 4), that is q = 1 (mod 4).
    """
    return character_field(g, cls).is_real


def cuspidal_fixed(g: GroupSpec, cls: SemisimpleClass, sigma: GaloisElement) -> bool:
    """Is a cuspidal symplectic character in the series of an order <= 2
    class fixed by sigma?  Yes iff the class is the identity (unipotent
    characters are rational) or k is a square in F_q."""
    check_class_of(g, cls)
    if g.family is not Family.SP:
        raise InputError("cuspidal criterion is for symplectic groups")
    if not cls.is_quasi_isolated():
        raise InputError("criterion applies to order <= 2 classes")
    if order_of(cls) == 1:
        return True
    return is_square_in_fq(sigma.k, g.q)


@lru_cache(maxsize=None)
def _rank1_order(q: int) -> int:
    """|G| = q(q^2 - 1) for a q that GroupSpec accepts, so that q, then k,
    are checked before `_rank1_counts` can raise BudgetExceededError."""
    GroupSpec(Family.SP, 1, q)  # refuses a q that is no odd prime power
    return q * (q * q - 1)


@lru_cache(maxsize=None)
def _rank1_counts(q: int) -> tuple[int, ...]:
    """The character side of Brauer's lemma on Sp2(F_q) as one count vector:
    entry r, for r mod L = lcm(p, conductors of the series fields), is the
    number of characters fixed by sigma_k for every unit k = r mod L (0 at
    the non-units, which no k reaches).  A series counts where r mod its
    conductor d is in its stabiliser and, if its field holds sqrt(omega*p),
    only where the Gauss-sum sign of sigma_k is +1; that sign depends on k
    mod p alone and is taken at a unit lift mod lcm(4p, q^2 - 1).  Every d
    divides q - 1 or q + 1, and the series enumeration refuses q past 13
    before any per-residue work, so L is at most lcm(13, 12, 14) = 1,092."""
    g = GroupSpec(Family.SP, 1, q)
    # two characters in the identity and involution series, else one
    series = [(character_field(g, cls), 2 if order_of(cls) <= 2 else 1)
              for cls in enumerate_classes(g, max_d=q + 1)]
    p = g.p
    length = lcm(p, *(field.base.d for field, _ in series))
    by_sign = {1: [0] * length, -1: [0] * length}
    for field, size in series:
        d = field.base.d
        row = [size if r in field.base.stab else 0 for r in range(d)]
        for sign in (1,) if field.adjoin_sqrt_omega_p else (1, -1):
            by_sign[sign] = list(map(add, by_sign[sign], row * (length // d)))
    m = lcm(4 * p, q * q - 1)
    lifts = (next(k for k in range(r, m, p) if gcd(k, m) == 1) for r in range(1, p))
    signs = (0, *(gauss_sqrt_sign(GaloisElement(k, m), p) for k in lifts))
    return tuple(by_sign[signs[r % p]][r] if gcd(r, length) == 1 else 0 for r in range(length))


def predicted_fixed_count_rank1(q: int, k: int) -> int:
    """Number of irreducible characters of the rank-one symplectic group
    fixed by the Galois element zeta -> zeta**k, assembled purely from the
    field formulas: series stabilisers plus the Gauss-sum sign.

    This is the quantity that Brauer's permutation lemma equates with the
    number of conjugacy classes fixed by g -> g**k: the entry at k mod the
    length of the count vector of q.  q is checked first, then k (an integer
    coprime to |G|), and only then are the series enumerated, which raises
    BudgetExceededError past its bound on q.
    """
    k = power_exponent(k, _rank1_order(q))
    counts = _rank1_counts(q)
    return counts[k % len(counts)]
