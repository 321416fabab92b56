"""Character fields of the classical-group character series.

Every character in the series attached to a semisimple class has the same
field: the fixed field of the class stabiliser inside a cyclotomic field,
possibly extended by the Gauss-sum square root sqrt(omega*p).  The extension
happens exactly for symplectic groups with q a non-square and -1 an
eigenvalue of the class; orthogonal series never grow.  `CharacterField.fixed_by`
is the one rule for whether sigma_k fixes a field, and so every character of
the series, cuspidal ones included: realness and the predicted side of
Brauer's lemma, which sums the series of every class `enumerate_classes`
lists, both read it.

This uniform model is known to be wrong for Sp4(F_3): the oracle's
`brauer_fixed_classes` finds 14 classes fixed by g -> g^k for every k that
is a non-square mod 3, where the model predicts 13 (`test_brauer_counts`
pins the 14).  The suspected series is that of the class with eigenvalue 1
once and -1 four times, minus_type = +1, whose centraliser O4+(F_3) has an
outer automorphism swapping two of its five unipotent characters; its
characters need not all have the field computed here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from .errors import InputError, as_int
from .galois_arith import legendre, signed_prime
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
    ruins realness unless omega = +1.  sigma_k fixes a character of the
    series exactly when it fixes this field, which `fixed_by` decides.
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
        return signed_prime(self.p)

    def fixed_by(self, k: int) -> bool:
        """Is the field fixed by sigma_k: zeta -> zeta**k, k a unit mod its
        conductor d and mod p?  Exactly when k mod d is in the stabiliser and,
        where sqrt(omega*p) is adjoined, its Gauss-sum sign (k/p) is +1; a
        non-integer k is refused, and so is a k that p divides where the
        sign is read."""
        k = as_int(k, "k")
        if self.adjoin_sqrt_omega_p and k % self.p == 0:
            raise InputError("k must be coprime to p")
        return k % self.base.d in self.base.stab and (
            not self.adjoin_sqrt_omega_p or legendre(k, self.p) == 1)

    @property
    def is_real(self) -> bool:
        return self.fixed_by(-1)

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
    adjoin = g.family is Family.SP and not g.q_is_square and cls.has_minus_one_eigenvalue()
    return CharacterField(galois_stabilizer(cls), adjoin, g.p)


def is_real_series(g: GroupSpec, cls: SemisimpleClass) -> bool:
    """Are the characters of the series real-valued?

    Exactly when their common field is real: the class is fixed by
    inversion and, for symplectic groups with -1 an eigenvalue, q is a
    square or p = 1 (mod 4), that is q = 1 (mod 4).
    """
    return character_field(g, cls).is_real


@lru_cache(maxsize=None)
def _rank1_order(q: int) -> int:
    """|G| = q(q^2 - 1) for Sp2(F_q) and SO3(F_q), with q one that GroupSpec
    accepts, so that q, then k, are checked before the series are enumerated."""
    GroupSpec(Family.SP, 1, q)  # refuses a q that is no odd prime power
    return q * (q * q - 1)


@lru_cache(maxsize=None)
def _predicted_counts(g: GroupSpec) -> tuple[int, ...]:
    """The character side of Brauer's lemma on Sp2(F_q) or SO3(F_q) as one
    count vector: entry r, for r mod L = lcm(p, conductors of the series
    fields), is the number of characters fixed by sigma_k for every unit
    k = r mod L (0 at the non-units): the sizes, summed per field, of the
    series whose field is `fixed_by(r)`, two characters for the identity and
    involution series and one for the others.  Every d divides q - 1 or
    q + 1, and the enumeration refuses q past 13 before any per-residue
    work, so L is at most 1,092."""
    sizes: Counter[CharacterField] = Counter()
    for cls in enumerate_classes(g):
        sizes[character_field(g, cls)] += 2 if order_of(cls) <= 2 else 1
    length = lcm(g.p, *(field.base.d for field in sizes))
    return tuple(sum(size for field, size in sizes.items() if field.fixed_by(r))
                 if gcd(r, length) == 1 else 0 for r in range(length))


@lru_cache(maxsize=None)
def _rank1_counts(q: int) -> tuple[int, ...]:
    """`_predicted_counts` of Sp2(F_q), kept by q: a count hashes no GroupSpec."""
    return _predicted_counts(GroupSpec(Family.SP, 1, q))


def predicted_fixed_count(g: GroupSpec, k: int) -> int:
    """Number of characters of g = Sp2(F_q) or SO3(F_q) fixed by zeta -> zeta**k,
    from the field formulas alone; Brauer's lemma equates it with
    `oracle.brauer_fixed_classes(g, k)`.  Another group raises InputError,
    then k is checked (an integer coprime to |G|), and only then are the
    series enumerated, which raises BudgetExceededError past q = 13."""
    if g.n != 1 or g.family is Family.SO_EVEN:
        raise InputError("predicted counts are for Sp2(F_q) and SO3(F_q) only")
    k = power_exponent(k, _rank1_order(g.q))
    counts = _predicted_counts(g)
    return counts[k % len(counts)]


def predicted_fixed_count_rank1(q: int, k: int) -> int:
    """`predicted_fixed_count` on Sp2(F_q), read by q: q is checked first,
    then k, and only then are the series enumerated."""
    k = power_exponent(k, _rank1_order(q))
    counts = _rank1_counts(q)
    return counts[k % len(counts)]
