"""Semisimple classes of the dual group as eigenvalue spectra.

An eigenvalue of a semisimple element is recorded as a reduced fraction a/d
(the image of a/d + Z under a fixed embedding of the prime-to-p roots of
unity into the multiplicative group of the algebraic closure), and a class is
a Frobenius-stable, inversion-closed multiset of eigenvalue orbits together
with orthogonal type labels on the +-1 eigenspaces where those are even
dimensional orthogonal spaces.  The Galois group acts by raising eigenvalues
to the k-th power; the stabiliser of a class cuts out the cyclotomic subfield
that every character of the corresponding series has as its rationality core.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import gcd
from typing import Optional

from .errors import BudgetExceededError, InputError
from .galois_arith import GaloisElement
from .groups import Family, GroupSpec


def _euler_phi(d: int) -> int:
    return sum(1 for a in range(1, d + 1) if gcd(a, d) == 1) if d > 1 else 1


def _orbit(a: int, d: int, q: int) -> tuple[int, ...]:
    """Frobenius orbit of the fraction a/d under multiplication by q."""
    seen = []
    x = a % d
    while x not in seen:
        seen.append(x)
        x = x * q % d
    return tuple(sorted(seen))


def canonical_rep(a: int, d: int, q: int) -> int:
    return min(_orbit(a, d, q))


@dataclass(frozen=True)
class EigenvalueOrbit:
    """A Frobenius orbit of eigenvalues, stored by its least representative
    a/d (reduced, with a = 0 meaning the eigenvalue one), and a multiplicity."""

    num: int
    den: int
    mult: int

    def __post_init__(self) -> None:
        if self.den < 1 or not 0 <= self.num < self.den:
            raise InputError("need 0 <= a < d")
        if self.num == 0 and self.den != 1:
            raise InputError("the eigenvalue one is stored as 0/1")
        if self.num != 0 and gcd(self.num, self.den) != 1:
            raise InputError("fraction must be reduced")
        if self.mult < 1:
            raise InputError("multiplicity must be positive")

    def orbit_size(self, q: int) -> int:
        return len(_orbit(self.num, self.den, q))

    @property
    def frac(self) -> str:
        return f"{self.num}/{self.den}"


def _parse_frac(s: str) -> tuple[int, int]:
    try:
        a, d = s.split("/")
        return int(a), int(d)
    except Exception as exc:
        raise InputError(f"bad fraction {s!r}") from exc


@dataclass(frozen=True)
class CyclotomicSubfield:
    """The subfield of the d-th cyclotomic field fixed by a subgroup of units."""

    d: int
    stab: tuple[int, ...]

    def __post_init__(self) -> None:
        st = self.stab
        if self.d < 1:
            raise InputError("d must be >= 1")
        if sorted(set(st)) != sorted(st):
            raise InputError("stabiliser entries must be distinct")
        one = 1 % self.d
        if one not in st:
            raise InputError("stabiliser must contain 1")
        for x in st:
            if self.d > 1 and gcd(x, self.d) != 1:
                raise InputError("stabiliser entries must be units")
            for y in st:
                if (x * y) % self.d not in st:
                    raise InputError("stabiliser must be closed under multiplication")
        if _euler_phi(self.d) % len(st) != 0:
            raise InputError("stabiliser order must divide phi(d)")

    @property
    def degree(self) -> int:
        return _euler_phi(self.d) // len(self.stab)

    @property
    def is_real(self) -> bool:
        return (-1) % self.d in self.stab


@dataclass(frozen=True)
class SemisimpleClass:
    """A semisimple class of the dual group, as labelled spectrum data.

    orbits are kept sorted by (denominator, numerator) with each Frobenius
    orbit appearing once, by its least representative.  minus_type/plus_type
    are the orthogonal types (+1 split, -1 non-split) of the -1/+1 eigenspace
    when that space is orthogonal of positive even dimension, else None.
    """

    group: GroupSpec
    orbits: tuple[EigenvalueOrbit, ...]
    plus_type: Optional[int] = None
    minus_type: Optional[int] = None

    def __post_init__(self) -> None:
        g = self.group
        q = g.q
        seen = set()
        total = 0
        for orb in self.orbits:
            if canonical_rep(orb.num, orb.den, q) != orb.num:
                raise InputError(f"{orb.frac} is not the least orbit representative")
            if gcd(orb.den, g.p) != 1:
                raise InputError("eigenvalue order must be coprime to p")
            if (orb.num, orb.den) in seen:
                raise InputError("duplicate orbit")
            seen.add((orb.num, orb.den))
            total += orb.orbit_size(q) * orb.mult
        if total != g.dual_dim:
            raise InputError(
                f"spectrum fills dimension {total}, expected {g.dual_dim}"
            )
        if list(self.orbits) != sorted(self.orbits, key=lambda o: (o.den, o.num)):
            raise InputError("orbits must be sorted by (denominator, numerator)")
        # closure under inversion with matching multiplicities
        mults = {(o.num, o.den): o.mult for o in self.orbits}
        for o in self.orbits:
            inv = canonical_rep((-o.num) % o.den, o.den, q)
            if mults.get((inv, o.den)) != o.mult:
                raise InputError("spectrum is not inversion-closed")
        self._check_parities_and_labels()

    def _check_parities_and_labels(self) -> None:
        g = self.group
        m1 = self.mult_of_one()
        mm1 = self.mult_of_minus_one()
        dual = g.dual_family
        if dual is Family.SO_ODD:
            if m1 % 2 != 1 or mm1 % 2 != 0:
                raise InputError("odd orthogonal spectrum needs odd mult(1), even mult(-1)")
            if self.plus_type is not None:
                raise InputError("odd-dimensional +1 eigenspace carries no type label")
            self._check_label(self.minus_type, mm1 > 0, "minus_type")
        elif dual is Family.SP:
            if m1 % 2 != 0 or mm1 % 2 != 0:
                raise InputError("symplectic spectrum needs even mult(+-1)")
            if self.plus_type is not None or self.minus_type is not None:
                raise InputError("symplectic eigenspaces carry no type labels")
        else:  # dual SO_EVEN
            if m1 % 2 != 0 or mm1 % 2 != 0:
                raise InputError("even orthogonal spectrum needs even mult(+-1)")
            self._check_label(self.plus_type, m1 > 0, "plus_type")
            self._check_label(self.minus_type, mm1 > 0, "minus_type")
            # The types of the +-1 eigenspaces and the anisotropic rotation
            # blocks multiply to the type of the ambient form.
            sign = (self.plus_type or 1) * (self.minus_type or 1)
            sign *= (-1) ** self._self_inverse_mult()
            if sign != g.twist:
                raise InputError("eigenspace types are inconsistent with the form type")

    @staticmethod
    def _check_label(value: Optional[int], expected: bool, name: str) -> None:
        if expected and value not in (1, -1):
            raise InputError(f"{name} must be +1 or -1 here")
        if not expected and value is not None:
            raise InputError(f"{name} must be absent here")

    def _self_inverse_mult(self) -> int:
        q = self.group.q
        total = 0
        for o in self.orbits:
            if o.den > 2 and canonical_rep((-o.num) % o.den, o.den, q) == o.num:
                total += o.mult
        return total

    def mult_of_one(self) -> int:
        for o in self.orbits:
            if o.den == 1:
                return o.mult
        return 0

    def mult_of_minus_one(self) -> int:
        for o in self.orbits:
            if (o.num, o.den) == (1, 2):
                return o.mult
        return 0

    def has_minus_one_eigenvalue(self) -> bool:
        return self.mult_of_minus_one() > 0

    def is_quasi_isolated(self) -> bool:
        """Order at most two, i.e. only eigenvalues +-1."""
        return all(o.den <= 2 for o in self.orbits)

    def to_dict(self) -> dict:
        return {
            "family": self.group.family.value,
            "n": self.group.n,
            "q": self.group.q,
            "twist": self.group.twist,
            "orbits": [{"frac": o.frac, "mult": o.mult} for o in self.orbits],
            "plus_type": self.plus_type,
            "minus_type": self.minus_type,
        }


def _sorted_orbits(mults: dict[tuple[int, int], int]) -> tuple[EigenvalueOrbit, ...]:
    """Orbits from {(least representative, denominator): multiplicity},
    sorted by (denominator, numerator)."""
    return tuple(
        EigenvalueOrbit(a, d, m) for (a, d), m in sorted(mults.items(), key=lambda t: (t[0][1], t[0][0]))
    )


def class_from_dict(data: dict) -> SemisimpleClass:
    """Parse the JSON form, normalising orbit representatives."""
    try:
        g = GroupSpec(Family(data["family"]), int(data["n"]), int(data["q"]),
                      int(data.get("twist", 1)))
        raw = [( _parse_frac(o["frac"]), int(o["mult"])) for o in data["orbits"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad class data: {exc}") from exc
    merged: dict[tuple[int, int], int] = {}
    for (a, d), mult in raw:
        if d < 1 or not 0 <= a < d:
            raise InputError(f"bad fraction {a}/{d}")
        if a != 0:
            g_ = gcd(a, d)
            a, d = a // g_, d // g_
        else:
            d = 1
        a = canonical_rep(a, d, g.q)
        merged[(a, d)] = merged.get((a, d), 0) + mult
    pt = data.get("plus_type")
    mt = data.get("minus_type")
    return SemisimpleClass(g, _sorted_orbits(merged),
                           None if pt is None else int(pt),
                           None if mt is None else int(mt))


def order_of(cls: SemisimpleClass) -> int:
    """Order of the semisimple element: lcm of the eigenvalue orders."""
    d = 1
    for o in cls.orbits:
        d = d * o.den // gcd(d, o.den)
    return d


def _power_image(cls: SemisimpleClass, k: int) -> dict[tuple[int, int], int]:
    """The orbit multiset of cls after raising every eigenvalue to the k-th
    power, as {(least representative, denominator): multiplicity}."""
    q = cls.group.q
    image: dict[tuple[int, int], int] = {}
    for o in cls.orbits:
        key = (canonical_rep(k * o.num % o.den, o.den, q), o.den)
        image[key] = image.get(key, 0) + o.mult
    return image


def sigma_image(cls: SemisimpleClass, sigma: GaloisElement) -> SemisimpleClass:
    """The class of the k-th power of the element, for sigma: zeta -> zeta**k.

    Type labels ride along unchanged: k is odd whenever the order is even,
    so the +-1 eigenspaces are fixed pointwise.
    """
    d = order_of(cls)
    if sigma.m % d != 0:
        raise InputError("sigma modulus must be divisible by the element order")
    return replace(cls, orbits=_sorted_orbits(_power_image(cls, sigma.k)))


def galois_stabilizer(cls: SemisimpleClass) -> CyclotomicSubfield:
    """Units k mod d whose power map fixes the class; the fixed field of this
    subgroup is the rationality core of the corresponding character series."""
    d = order_of(cls)
    base = {(o.num, o.den): o.mult for o in cls.orbits}
    stab = []
    for k in range(1, d + 1):
        if gcd(k, d) == 1 and _power_image(cls, k) == base:
            stab.append(k % d)
    return CyclotomicSubfield(d, tuple(sorted(set(stab))))


def _minus_space_in_spinor_kernel(g: GroupSpec, b: int) -> bool:
    """An involution of an even orthogonal group whose -1 eigenspace has
    dimension 2b > 0 lies in the spinor kernel exactly when
    q**b = twist (mod 4); b = n is the central -1."""
    return pow(g.q, b, 4) == g.twist % 4


def check_spinor_kernel_group(g: GroupSpec) -> None:
    """Reject every group but the even orthogonal ones for the spinor-kernel test."""
    if g.family is not Family.SO_EVEN:
        raise InputError("spinor-kernel test applies to so-even only")


def in_spinor_kernel(g: GroupSpec, cls: SemisimpleClass) -> bool:
    """Membership of an order <= 2 class representative in the subgroup
    generated by p-elements of an even orthogonal group (the spinor kernel).

    The identity always belongs; an involution with 2b-dimensional -1
    eigenspace does exactly when q**b = twist (mod 4).
    """
    check_spinor_kernel_group(g)
    if not cls.is_quasi_isolated():
        raise InputError("test applies to elements of order at most two")
    b = cls.mult_of_minus_one() // 2
    return b == 0 or _minus_space_in_spinor_kernel(g, b)


def has_central_twist_automorphism(g: GroupSpec) -> bool:
    """Does the finite group carry the extra order-two automorphism coming
    from central characters (the one not induced by any algebraic map)?

    Non-trivial exactly for even orthogonal groups whose central -1 lies in
    the spinor kernel, i.e. q**n = twist (mod 4); symplectic groups are
    simply connected and odd orthogonal groups have trivial centre, so
    nothing extra appears there.
    """
    return g.family is Family.SO_EVEN and _minus_space_in_spinor_kernel(g, g.n)


def central_twist_action(
    g: GroupSpec,
    cls: SemisimpleClass,
    principal_torus_char: Optional[tuple[bool]] = None,
) -> str:
    """Effect of the extra central automorphism on characters of the series.

    Returns "invariant" when the characters in question are fixed,
    "series-moved" when the automorphism maps the whole series elsewhere, and
    "moved" when the series is stable but the given character is not.  When
    the automorphism group is trivial everything is invariant.  Passing
    principal_torus_char=(trivial_on_last,) asks about a principal-series
    torus-character datum instead of a cuspidal member: in the split form
    such a character is fixed only when the class lies in the spinor kernel,
    while the twisted form also fixes it when q = 1 (mod 4) and the character
    is trivial on the last torus coordinate.
    """
    if g.family is not Family.SO_EVEN:
        raise InputError("central twist classification applies to so-even")
    if not cls.is_quasi_isolated():
        raise InputError("classification applies to order <= 2 classes")
    if not has_central_twist_automorphism(g):
        return "invariant"
    member = in_spinor_kernel(g, cls)
    if member:
        return "invariant"
    dims_equal = cls.mult_of_one() == cls.mult_of_minus_one()
    if not dims_equal:
        return "series-moved"
    if principal_torus_char is None:
        # cuspidal members of a stable series are fixed
        return "invariant"
    (trivial_on_last,) = principal_torus_char
    if g.twist == -1 and g.q % 4 == 1 and trivial_on_last:
        return "invariant"
    return "moved"


_ENUM_MAX_N = 3
_ENUM_MAX_Q = 13


@lru_cache(maxsize=None)
def enumerate_classes(g: GroupSpec, max_d: int) -> tuple[SemisimpleClass, ...]:
    """All semisimple classes of the dual group whose order is at most max_d,
    with every legal type-label assignment, in a deterministic order."""
    if g.n > _ENUM_MAX_N or g.q > _ENUM_MAX_Q:
        raise BudgetExceededError("class enumeration is restricted to n <= 3, q <= 13")
    q, p, dim = g.q, g.p, g.dual_dim
    dual = g.dual_family

    units: list[tuple[int, int, int, bool]] = []  # (den, rep, unit_dim, self_inverse)
    for d in range(3, max_d + 1):
        if gcd(d, p) != 1:
            continue
        seen: set[int] = set()
        for a in range(1, d):
            if gcd(a, d) != 1:
                continue
            orb = _orbit(a, d, q)
            if a != orb[0] or a in seen:
                continue
            seen.update(orb)
            inv_rep = canonical_rep((-a) % d, d, q)
            if inv_rep == a:
                units.append((d, a, len(orb), True))
            elif a < inv_rep:
                seen.update(_orbit(inv_rep, d, q))
                units.append((d, a, 2 * len(orb), False))

    spectra: list[tuple[tuple[tuple[int, int, int], ...], int]] = []

    def fill(idx: int, remaining: int, chosen: list[tuple[int, int, int]], self_inv_mult: int):
        if idx == len(units):
            for mm1 in range(0, remaining + 1):
                m1 = remaining - mm1
                if dual is Family.SO_ODD and (m1 % 2 != 1 or mm1 % 2 != 0):
                    continue
                if dual in (Family.SP, Family.SO_EVEN) and (m1 % 2 or mm1 % 2):
                    continue
                if mm1 > 0 and (2 > max_d):
                    continue
                entries = list(chosen)
                if mm1:
                    entries.append((1, 2, mm1))
                if m1:
                    entries.append((0, 1, m1))
                spectra.append((tuple(entries), self_inv_mult))
            return
        d, rep, unit_dim, self_inv = units[idx]
        mult = 0
        while mult * unit_dim <= remaining:
            extra = []
            if mult:
                extra.append((rep, d, mult))
                if not self_inv:
                    extra.append((canonical_rep((-rep) % d, d, q), d, mult))
            fill(idx + 1, remaining - mult * unit_dim, chosen + extra,
                 self_inv_mult + (mult if self_inv else 0))
            mult += 1

    fill(0, dim, [], 0)

    out: list[SemisimpleClass] = []
    for entries, self_inv_mult in spectra:
        orbits = tuple(
            EigenvalueOrbit(a, d, m)
            for a, d, m in sorted(entries, key=lambda t: (t[1], t[0]))
        )
        m1 = sum(o.mult for o in orbits if o.den == 1)
        mm1 = sum(o.mult for o in orbits if (o.num, o.den) == (1, 2))
        if dual is Family.SO_ODD:
            labels = [(None, mt) for mt in ((1, -1) if mm1 else (None,))]
        elif dual is Family.SP:
            labels = [(None, None)]
        else:
            target = g.twist * (-1) ** self_inv_mult
            if m1 and mm1:
                labels = [(pt, pt * target) for pt in (1, -1)]
            elif m1:
                labels = [(target, None)]
            elif mm1:
                labels = [(None, target)]
            else:
                if target != 1:
                    continue
                labels = [(None, None)]
        for pt, mt in labels:
            out.append(SemisimpleClass(g, orbits, pt, mt))

    def sort_key(c: SemisimpleClass):
        return (
            tuple((o.den, o.num, o.mult) for o in c.orbits),
            c.plus_type or 0,
            c.minus_type or 0,
        )

    return tuple(sorted(out, key=sort_key))
