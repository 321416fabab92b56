"""Character fields of the classical-group character series.

Every character in the series attached to a semisimple class has the same
field: the fixed field of the class stabiliser inside a cyclotomic field,
possibly extended by the Gauss-sum square root sqrt(omega*p).  The extension
happens exactly for symplectic groups with q a non-square and -1 an
eigenvalue of the class; orthogonal series never grow.

This uniform model is known to be wrong for Sp4(F_3): the oracle's
`brauer_fixed_classes` finds 14 classes fixed by g -> g^k for k = 11, 17,
23 and 29, where the model predicts 13 (`test_brauer_counts` pins the 14).
The suspected series is that of the class with eigenvalue 1 once and -1
four times, minus_type = +1, whose centraliser O4+(F_3) has an outer
automorphism swapping two of its five unipotent characters; its characters
need not all have the field computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .errors import InputError
from .galois_arith import GaloisElement, gauss_sqrt_sign, is_square_in_fq, signed_prime
from .groups import Family, GroupSpec
from .semisimple import (
    CyclotomicSubfield,
    SemisimpleClass,
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
    if cls.group != g:
        raise InputError("class does not belong to this group")
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
    if g.family is not Family.SP:
        raise InputError("cuspidal criterion is for symplectic groups")
    if not cls.is_quasi_isolated():
        raise InputError("criterion applies to order <= 2 classes")
    if order_of(cls) == 1:
        return True
    return is_square_in_fq(sigma.k, g.q)


def _series_size_rank1(cls: SemisimpleClass) -> int:
    # Sp_2: the identity series holds the two unipotent characters, each
    # involution series holds two half-discrete characters, and every
    # regular semisimple class carries a single character.
    return 2 if order_of(cls) <= 2 else 1


class _Rank1(NamedTuple):
    """What the rank-one count needs of Sp2(F_q) besides its series, the same
    for every k."""

    p: int
    order: int  # q(q^2 - 1)
    modulus: int  # lcm(4p, q^2 - 1): a conductor bound for every series field


@lru_cache(maxsize=None)
def _rank1_group(q: int) -> _Rank1:
    """p, the group order and the modulus, kept apart from `_rank1_series`
    so that q and then k are checked before the series are enumerated, which
    raises BudgetExceededError past its bound on q."""
    g = GroupSpec(Family.SP, 1, q)
    return _Rank1(g.p, q * (q * q - 1), lcm(4 * g.p, q * q - 1))


@lru_cache(maxsize=None)
def _rank1_series(q: int) -> tuple[tuple[CharacterField, int], ...]:
    """The field and the number of characters of every series of the rank-one
    symplectic group over F_q, computed once per q for all the k asked."""
    g = GroupSpec(Family.SP, 1, q)
    return tuple((character_field(g, cls), _series_size_rank1(cls))
                 for cls in enumerate_classes(g, max_d=q + 1))


def predicted_fixed_count_rank1(q: int, k: int) -> int:
    """Number of irreducible characters of the rank-one symplectic group
    fixed by the Galois element zeta -> zeta**k, assembled purely from the
    field formulas: series stabilisers plus the Gauss-sum sign.

    This is the quantity that Brauer's permutation lemma equates with the
    number of conjugacy classes fixed by g -> g**k.
    """
    rank1 = _rank1_group(q)
    if gcd(k, rank1.order) != 1:
        raise InputError("k must be coprime to the group order")
    sigma = GaloisElement(k % rank1.modulus, rank1.modulus)
    sign = gauss_sqrt_sign(sigma, rank1.p)
    return sum(size for field, size in _rank1_series(q)
               if sigma.k % field.base.d in field.base.stab
               and (sign == 1 or not field.adjoin_sqrt_omega_p))
