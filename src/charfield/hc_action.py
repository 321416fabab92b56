"""Sign characters measuring how a Galois element twists the parametrisation
of a Harish-Chandra series attached to an order-two torus-type character.

Two signs live on the order <= 2 complement C of the relative Weyl group:
one from the Galois action on the square root of the Hecke-algebra index
q^length, one from the action on values of a chosen extension of the cuspidal
datum.  Their product decides whether the series parametrisation is fixed or
twisted by the sign character of C.  Everything is a value on the single
complement generator, since all the relevant Weyl-group characters are
rational; a trivial complement carries +1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .galois_arith import GaloisElement, PrimePowerAction, legendre, sqrt_p_sign
from .weyl_b import SeriesDescriptor, relative_weyl


@dataclass(frozen=True)
class ComplementSign:
    """A sign character of the complement C, as its value +-1 on the
    generator; a trivial complement carries +1."""

    value: int

    def __post_init__(self) -> None:
        if self.value not in (1, -1):
            raise InputError("bad complement sign")

    def __mul__(self, other: "ComplementSign") -> "ComplementSign":
        return ComplementSign(self.value * other.value)


def index_sqrt_sign(desc: SeriesDescriptor, sigma: GaloisElement) -> ComplementSign:
    """Sign from the action on sqrt(q^length) at the complement generator.

    Trivial when C is trivial, when q is a square, when the generator has
    even length, or when sigma fixes sqrt(p); otherwise -1.
    """
    g = desc.group
    if relative_weyl(desc).c_length_parity != "odd" or g.q_is_square:
        return ComplementSign(1)
    return ComplementSign(sqrt_p_sign(sigma, g.p))


def index_sqrt_sign_h(desc: SeriesDescriptor, h: PrimePowerAction) -> ComplementSign:
    """index_sqrt_sign for a prime-power Galois action, in closed form."""
    parity = relative_weyl(desc).c_length_parity
    g = desc.group
    if h.ell == g.p:
        raise InputError("closed forms assume ell differs from the defining prime")
    if parity != "odd" or g.q_is_square:
        return ComplementSign(1)
    if h.ell != 2:
        if h.r % 2 == 0:
            return ComplementSign(1)
        return ComplementSign(legendre(g.p, h.ell))
    qm8 = g.q % 8
    if qm8 == 1:
        return ComplementSign(1)
    if qm8 == 7:
        return ComplementSign(1 if h.i_sign == 1 else -1)
    if qm8 == 3:
        expected = 1 if h.r % 2 == 0 else -1
        return ComplementSign(1 if h.i_sign == expected else -1)
    return ComplementSign((-1) ** h.r)  # q = 5 (mod 8)


def extension_sign(desc: SeriesDescriptor, sigma: GaloisElement) -> ComplementSign:
    """Sign from the action on a chosen extension of the cuspidal datum.

    Trivial unless the complement generator has odd length, which happens
    for symplectic groups alone.  There the extension takes a primitive
    fourth root of unity as a value on the generator when q = 3 (mod 4), so
    the sign is whether sigma fixes i; for q = 1 (mod 4) the values are +-1
    and the sign is trivial.
    """
    if relative_weyl(desc).c_length_parity != "odd" or desc.group.q % 4 == 1:
        return ComplementSign(1)
    return ComplementSign(1 if sigma.fixes_i() else -1)


def series_twist_sign(desc: SeriesDescriptor, sigma: GaloisElement) -> ComplementSign:
    """Product of the two signs: the full Galois twist of the series.

    For symplectic groups this equals the action of sigma on the Gauss-sum
    square root sqrt(omega*p) (trivial when q is a square); for orthogonal
    groups it reduces to the index sign and is always trivial.
    """
    return index_sqrt_sign(desc, sigma) * extension_sign(desc, sigma)


def series_twist_sign_h(desc: SeriesDescriptor, h: PrimePowerAction) -> ComplementSign:
    """series_twist_sign for prime-power actions, by the direct formulas.

    Symplectic, C of order two: +1 when q is a square; for odd ell it is
    (ell/p)^r; for ell = 2 it is +1 when q = +-1 (mod 8) and (-1)^r when
    q = +-3 (mod 8).  Orthogonal: +1, as the complement is trivial or its
    generator has even length.
    """
    parity = relative_weyl(desc).c_length_parity
    g = desc.group
    if h.ell == g.p:
        raise InputError("closed forms assume ell differs from the defining prime")
    if parity != "odd" or g.q_is_square:
        return ComplementSign(1)
    if h.ell != 2:
        if h.r % 2 == 0:
            return ComplementSign(1)
        return ComplementSign(legendre(h.ell, g.p))
    if g.q % 8 in (1, 7):
        return ComplementSign(1)
    return ComplementSign((-1) ** h.r)


def series_permutation(desc: SeriesDescriptor, sigma: GaloisElement) -> str:
    """How sigma permutes the series: "identity", or the involution "twist"
    that multiplies the parametrising Weyl-group character by the sign
    character of the complement."""
    return "identity" if series_twist_sign(desc, sigma).value == 1 else "twist"
