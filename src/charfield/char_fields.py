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

from .errors import InputError
from .galois_arith import GaloisElement, gauss_sqrt_sign, is_square_in_fq, signed_prime
from .groups import Family, GroupSpec
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
def _rank1_group(q: int) -> tuple[int, int]:
    """p and |G| = q(q^2 - 1), so that q, then k, are checked before
    `_rank1_series` can raise BudgetExceededError."""
    return GroupSpec(Family.SP, 1, q).p, q * (q * q - 1)


@lru_cache(maxsize=None)
def _rank1_series(q: int) -> tuple[tuple[int, ...], dict[int, tuple[tuple[int, ...], ...]]]:
    """The Gauss-sum sign of sigma_k by k mod p, at a unit lift mod
    lcm(4p, q^2 - 1), and the characters of Sp2(F_q) fixed by sigma_k by
    that sign: one table per series conductor d, indexed by k mod d.  A
    series counts where k mod d is in its stabiliser and, if its field holds
    sqrt(omega*p), only under sign +1.  Enumerating first refuses a large
    q before any per-residue work."""
    g = GroupSpec(Family.SP, 1, q)
    tables: dict[int, dict[int, list[int]]] = {-1: {}, 1: {}}
    for cls in enumerate_classes(g, max_d=q + 1):
        field = character_field(g, cls)
        d = field.base.d
        for sign in (1,) if field.adjoin_sqrt_omega_p else (1, -1):
            counts = tables[sign].setdefault(d, [0] * d)
            for r in field.base.stab:
                # two characters in the identity and involution series, else one
                counts[r] += 2 if order_of(cls) <= 2 else 1
    p = g.p
    m = lcm(4 * p, q * q - 1)
    lifts = (next(k for k in range(r, m, p) if gcd(k, m) == 1) for r in range(1, p))
    signs = (0, *(gauss_sqrt_sign(GaloisElement(k, m), p) for k in lifts))
    return signs, {sign: tuple(map(tuple, by_d.values())) for sign, by_d in tables.items()}


def predicted_fixed_count_rank1(q: int, k: int) -> int:
    """Number of irreducible characters of the rank-one symplectic group
    fixed by the Galois element zeta -> zeta**k, assembled purely from the
    field formulas: series stabilisers plus the Gauss-sum sign.

    This is the quantity that Brauer's permutation lemma equates with the
    number of conjugacy classes fixed by g -> g**k: one entry, at k mod d,
    of each conductor table kept for the Gauss-sum sign of k.  q is checked
    first, then k, and only then are the series enumerated, which raises
    BudgetExceededError past its bound on q.
    """
    p, order = _rank1_group(q)
    if gcd(k, order) != 1:
        raise InputError("k must be coprime to the group order")
    signs, tables = _rank1_series(q)
    return sum([t[k % len(t)] for t in tables[signs[k % p]]])
