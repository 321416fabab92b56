"""Semisimple classes of the dual group as eigenvalue spectra.

An eigenvalue of a semisimple element is recorded as a reduced fraction a/d
(the image of a/d + Z under a fixed embedding of the prime-to-p roots of
unity into the multiplicative group of the algebraic closure), and a class is
a Frobenius-stable, inversion-closed multiset of eigenvalue orbits together
with orthogonal type labels on the +-1 eigenspaces where those are even
dimensional orthogonal spaces.  The Galois group acts by raising eigenvalues
to the k-th power; the stabiliser of a class cuts out the cyclotomic subfield
that every character of the corresponding series has as its rationality core.

A Frobenius orbit is walked once around its cycle and never past the dual
dimension, which a longer orbit cannot fit in, nor past a fixed number of
steps, after which its length is read off the factorisation of phi(d).  A
class walks each orbit it is given once, when it is built: the walk puts the
orbits in normal form (least representatives, equal orbits merged, sorted by
(d, a)) and gives the spectrum the class keeps, each eigenvalue a/d mapped
to its orbit; inversion closure, the self-inverse orbits, the +-1
multiplicities and the stabiliser are all read from it.
The stabiliser: a unit k fixes a class when it sends every orbit
representative a/e to an eigenvalue x/e of the same multiplicity, that is
when k = x/a (mod e) for one such x per orbit.  These residues are combined
across the orbits by the Chinese remainder theorem, so a field query costs
time that grows with the dual dimension and log d, not with d, plus the
factorisation of d for phi(d).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from typing import Iterable, Optional

from .errors import BudgetExceededError, InputError, as_int
from .galois_arith import GaloisElement
from .groups import Family, GroupSpec, factorize


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1, in increasing order."""
    divisors = [1]
    for p, e in factorize(n):
        divisors = [x * p**i for x in divisors for i in range(e + 1)]
    return sorted(divisors)


def _euler_phi(d: int) -> int:
    return prod((p - 1) * p ** (e - 1) for p, e in factorize(d))


# steps of one Frobenius orbit walk; a longer orbit is measured, not walked
_ORBIT_WALK = 100_000


def _unit_order(q: int, d: int) -> int:
    """The multiplicative order of the unit q mod d, from phi(d)."""
    order = _euler_phi(d)
    for r, e in factorize(order):
        for _ in range(e):
            if pow(q, order // r, d) != 1:
                break
            order //= r
    return order


def _orbit(a: int, d: int, q: int, bound: int) -> tuple[int, ...]:
    """Frobenius orbit of the fraction a/d (0 <= a < d) under multiplication
    by q, sorted, so that the least representative comes first.  q must be a
    unit mod d; InputError once the orbit grows past bound elements.  The
    walk stops after _ORBIT_WALK steps: the orbit's length, ord(q) mod
    d / gcd(a, d), then tells an orbit too long for bound (InputError) from
    one that fits but is too long to list (BudgetExceededError)."""
    limit = min(bound, _ORBIT_WALK)
    orbit = [a]
    x = a * q % d
    while x != a:
        if len(orbit) == limit:
            if limit == bound or _unit_order(q, d // gcd(a, d)) > bound:
                raise InputError(f"the Frobenius orbit of {a}/{d} has more than {bound} elements")
            raise BudgetExceededError(
                f"the Frobenius orbit of {a}/{d} has more than {_ORBIT_WALK} elements")
        orbit.append(x)
        x = x * q % d
    return tuple(sorted(orbit))


@dataclass(frozen=True)
class EigenvalueOrbit:
    """A Frobenius orbit of eigenvalues, given by one of its eigenvalues a/d
    (0 <= a < d) and a multiplicity.  a/d is stored reduced, as Fraction
    stores it, so the eigenvalue one is 0/1; a SemisimpleClass moves it to
    the least representative of its orbit."""

    num: int
    den: int
    mult: int

    def __post_init__(self) -> None:
        a, d, mult = (as_int(getattr(self, name), name) for name in ("num", "den", "mult"))
        if d < 1 or not 0 <= a < d:
            raise InputError(f"bad fraction {a}/{d}")
        if mult < 1:
            raise InputError("multiplicity must be positive")
        c = gcd(a, d)  # = d for a = 0, which gives 0/1
        object.__setattr__(self, "num", a // c)
        object.__setattr__(self, "den", d // c)
        object.__setattr__(self, "mult", mult)

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
        d, st = as_int(self.d, "d"), tuple(self.stab)
        # galois_stabilizer's exact ints are kept as they are, not copied
        if any(type(x) is not int for x in st):
            st = tuple(as_int(x, "a stabiliser entry") for x in st)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "stab", st)
        if d < 1:
            raise InputError("d must be >= 1")
        members = set(st)
        if len(members) != len(st):
            raise InputError("stabiliser entries must be distinct")
        one = 1 % d
        if one not in members:
            raise InputError("stabiliser must contain 1")
        if any(gcd(x, d) != 1 for x in st):
            raise InputError("stabiliser entries must be units")
        # The units commute, so the group the entries generate is built one
        # new entry x at a time, as the union of the cosets span * x**i; the
        # entries are a subgroup when no coset leaves them, and then |stab|
        # divides phi(d) by Lagrange.  span at least doubles with each new x,
        # so this costs O(|stab| log |stab|).
        span = {one}
        for x in st:
            if x in span:
                continue
            grown, coset = set(span), span
            while True:
                coset = {y * x % d for y in coset}
                if coset <= grown:
                    break
                if not coset <= members:
                    raise InputError("stabiliser must be closed under multiplication")
                grown |= coset
            span = grown

    @cached_property
    def phi(self) -> int:
        """The degree of the d-th cyclotomic field, phi(d)."""
        return _euler_phi(self.d)

    @property
    def degree(self) -> int:
        return self.phi // len(self.stab)


def _normal_form(g: GroupSpec, orbits: Iterable[EigenvalueOrbit]) -> tuple[
        tuple[EigenvalueOrbit, ...], dict[tuple[int, int], EigenvalueOrbit]]:
    """The orbits of g's dual in normal form, each moved to the least
    representative of its Frobenius orbit, equal orbits merged and sorted by
    (d, a), with every eigenvalue a/d of them as {(a, d): its orbit}; one
    walk per orbit given, InputError unless each d is prime to p."""
    p, q, dim = g.p, g.q, g.dual_dim
    walked: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for o in orbits:
        if gcd(o.den, p) != 1:
            raise InputError("eigenvalue order must be coprime to p")
        orbit = _orbit(o.num, o.den, q, dim)
        key = (o.den, orbit[0])
        mult, _ = walked.get(key, (0, orbit))
        walked[key] = (mult + o.mult, orbit)
    normal, spectrum = [], {}
    for (d, a), (mult, orbit) in sorted(walked.items()):
        o = EigenvalueOrbit(a, d, mult)
        normal.append(o)
        spectrum.update(((x, d), o) for x in orbit)
    return tuple(normal), spectrum


def _legal_labels(g: GroupSpec, m1: int, mm1: int,
                  self_inverse: int) -> list[tuple[Optional[int], Optional[int]]]:
    """The legal (plus_type, minus_type) pairs for multiplicities m1 and mm1 of
    the eigenvalues 1 and -1 and self_inverse of the self-inverse orbits of
    order > 2.  Empty unless mm1 is even and m1 is odd exactly in an odd
    orthogonal dual.  Even-dimensional orthogonal +-1 eigenspaces carry a
    type; in an even orthogonal dual the types and the anisotropic rotation
    blocks multiply to the type of the form."""
    dual = g.dual_family
    if mm1 % 2 or m1 % 2 != (dual is Family.SO_ODD):
        return []
    if dual is Family.SO_ODD:
        return [(None, mt) for mt in ((1, -1) if mm1 else (None,))]
    if dual is Family.SP:
        return [(None, None)]
    target = g.twist * (-1) ** self_inverse
    if m1 and mm1:
        return [(pt, pt * target) for pt in (1, -1)]
    if m1:
        return [(target, None)]
    if mm1:
        return [(None, target)]
    return [(None, None)] if target == 1 else []


@dataclass(frozen=True)
class SemisimpleClass:
    """A semisimple class of the dual group, as labelled spectrum data.

    The orbits may be given by any eigenvalues, in any order and split
    across entries; the class stores them in normal form, sorted by
    (denominator, numerator) with each Frobenius orbit appearing once, by
    its least representative.  spectrum maps every eigenvalue (a, d) of the
    class to its orbit.  minus_type/plus_type are the orthogonal types (+1
    split, -1 non-split) of the -1/+1 eigenspace when that space is
    orthogonal of positive even dimension, else None.
    """

    group: GroupSpec
    orbits: tuple[EigenvalueOrbit, ...]
    plus_type: Optional[int] = None
    minus_type: Optional[int] = None
    spectrum: dict[tuple[int, int], EigenvalueOrbit] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = self.group
        orbits, spectrum = _normal_form(g, self.orbits)
        object.__setattr__(self, "orbits", orbits)
        object.__setattr__(self, "spectrum", spectrum)
        total = sum(o.mult for o in spectrum.values())
        if total != g.dual_dim:
            raise InputError(
                f"spectrum fills dimension {total}, expected {g.dual_dim}"
            )
        inverses = [spectrum.get((-o.num % o.den, o.den)) for o in self.orbits]
        if any(inv is None or inv.mult != o.mult for o, inv in zip(self.orbits, inverses)):
            raise InputError("spectrum is not inversion-closed")
        m1, mm1 = self.mult_of_one(), self.mult_of_minus_one()
        # the orbits of order > 2 that hold the inverses of their own eigenvalues
        self_inverse = sum(o.mult for o, inv in zip(self.orbits, inverses)
                           if o.den > 2 and inv is o)
        legal = _legal_labels(g, m1, mm1, self_inverse)
        for name in ("plus_type", "minus_type"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, as_int(getattr(self, name), name))
        labels = (self.plus_type, self.minus_type)
        if labels not in legal:
            rule = (f"the legal (plus_type, minus_type) pairs are {legal}" if legal
                    else "the +-1 parity rule or the form type admits no labels")
            raise InputError(f"dual {g.dual_family.value} spectrum with mult(1) = {m1}, "
                             f"mult(-1) = {mm1}: {rule}, got {labels}")

    def mult_of_one(self) -> int:
        o = self.spectrum.get((0, 1))
        return o.mult if o else 0

    def mult_of_minus_one(self) -> int:
        o = self.spectrum.get((1, 2))
        return o.mult if o else 0

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


def _json_int(value) -> int:
    """A JSON integer as it stands: a bool, float or string is refused, not
    rounded or parsed into some other class."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def class_from_dict(data: dict) -> SemisimpleClass:
    """Parse the JSON form; the class puts the orbits in normal form."""
    try:
        g = GroupSpec(data["family"], _json_int(data["n"]), _json_int(data["q"]),
                      _json_int(data.get("twist", 1)))
        raw = [(*_parse_frac(o["frac"]), _json_int(o["mult"])) for o in data["orbits"]]
        labels = [None if data.get(key) is None else _json_int(data[key])
                  for key in ("plus_type", "minus_type")]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad class data: {exc}") from exc
    return SemisimpleClass(g, [EigenvalueOrbit(*entry) for entry in raw], *labels)


def order_of(cls: SemisimpleClass) -> int:
    """Order of the semisimple element: lcm of the eigenvalue orders."""
    return lcm(*(o.den for o in cls.orbits))


def sigma_image(cls: SemisimpleClass, sigma: GaloisElement) -> SemisimpleClass:
    """The class of the k-th power of the element, for sigma: zeta -> zeta**k.

    Type labels ride along unchanged: k is odd whenever the order is even,
    so the +-1 eigenspaces are fixed pointwise.
    """
    d = order_of(cls)
    if sigma.m % d != 0:
        raise InputError("sigma modulus must be divisible by the element order")
    return replace(cls, orbits=[EigenvalueOrbit(sigma.k * o.num % o.den, o.den, o.mult)
                                for o in cls.orbits])


def galois_stabilizer(cls: SemisimpleClass) -> CyclotomicSubfield:
    """Units k mod d whose power map fixes the class; the fixed field of this
    subgroup is the rationality core of the corresponding character series.

    k fixes the class exactly when, for every orbit with representative a/e
    and multiplicity m, k = x * a**-1 (mod e) for an eigenvalue x/e of
    multiplicity m, read off the class's kept spectrum with no orbit walk.
    The residues allowed mod each e are combined by the generalised Chinese
    remainder theorem, keeping the consistent pairs; the survivors are
    units, as each x is, and form the stabiliser.  A residue
    is determined by where it sends one eigenvalue of each order, so no list
    of residues outgrows the number of ways to send each of these to an
    eigenvalue of its order, whatever d is: the cost grows with dual_dim and
    log d, not with d.
    """
    residues, modulus = [0], 1
    for o in cls.orbits:
        inv = pow(o.num, -1, o.den)
        allowed = [x * inv % o.den for (x, e), image in cls.spectrum.items()
                   if e == o.den and image.mult == o.mult]
        g = gcd(modulus, o.den)
        lift = pow(modulus // g, -1, o.den // g)
        residues = [r + modulus * ((c - r) // g * lift % (o.den // g))
                    for r in residues for c in allowed if (c - r) % g == 0]
        modulus = modulus // g * o.den
    return CyclotomicSubfield(modulus, tuple(sorted(residues)))


def _minus_space_in_spinor_kernel(q: int, b: int, type_: int) -> bool:
    """-1 on a 2b-dimensional orthogonal space W of type type_ has spinor
    norm the discriminant of W, so an involution of an even orthogonal group
    with -1 eigenspace W lies in the spinor kernel exactly when
    q**b = type_ (mod 4)."""
    return pow(q, b, 4) == type_ % 4


def check_class_of(g: GroupSpec, cls: SemisimpleClass) -> None:
    """Reject a class of any group but g: every entry point that takes a
    group and a class asks this first, so a class is never classified by
    another group's q or family."""
    if cls.group != g:
        raise InputError("class does not belong to this group")


def _check_spinor_kernel_group(g: GroupSpec) -> None:
    """Reject every group but the even orthogonal ones for the spinor-kernel test."""
    if g.family is not Family.SO_EVEN:
        raise InputError("spinor-kernel test applies to so-even only")


def involution_class(g: GroupSpec, minus_dim: int) -> SemisimpleClass:
    """The order <= 2 class of the even orthogonal group g with a
    minus_dim-dimensional -1 eigenspace (even, in 0..2n) and eigenvalue 1
    elsewhere, with the first legal labels: when both eigenspaces occur the
    +1 eigenspace is split and the -1 eigenspace has the form's type; a
    single eigenspace has the form's type."""
    _check_spinor_kernel_group(g)
    if minus_dim % 2 or not 0 <= minus_dim <= 2 * g.n:
        raise InputError(f"minus_dim must be even and in 0..{2 * g.n}, got {minus_dim}")
    plus_dim = 2 * g.n - minus_dim
    orbits = tuple(EigenvalueOrbit(a, d, mult)
                   for a, d, mult in ((0, 1, plus_dim), (1, 2, minus_dim)) if mult)
    return SemisimpleClass(g, orbits, *_legal_labels(g, plus_dim, minus_dim, 0)[0])


def in_spinor_kernel(g: GroupSpec, cls: SemisimpleClass) -> bool:
    """Membership of an order <= 2 class representative in the subgroup
    generated by p-elements of an even orthogonal group (the spinor kernel).

    The identity always belongs; an involution with 2b-dimensional -1
    eigenspace does exactly when q**b = minus_type (mod 4).
    """
    check_class_of(g, cls)
    _check_spinor_kernel_group(g)
    if not cls.is_quasi_isolated():
        raise InputError("test applies to elements of order at most two")
    b = cls.mult_of_minus_one() // 2
    return b == 0 or _minus_space_in_spinor_kernel(g.q, b, cls.minus_type)


def has_central_twist_automorphism(g: GroupSpec) -> bool:
    """Does the finite group carry the extra order-two automorphism coming
    from central characters (the one not induced by any algebraic map)?

    Non-trivial exactly for even orthogonal groups whose central -1 lies in
    the spinor kernel, i.e. q**n = twist (mod 4); symplectic groups are
    simply connected and odd orthogonal groups have trivial centre, so
    nothing extra appears there.
    """
    return g.family is Family.SO_EVEN and _minus_space_in_spinor_kernel(g.q, g.n, g.twist)


_ENUM_MAX_N = 3
_ENUM_MAX_Q = 13


@lru_cache(maxsize=None)
def enumerate_classes(g: GroupSpec) -> tuple[SemisimpleClass, ...]:
    """Every semisimple class of the dual group, with every legal type-label
    assignment, in a deterministic order.  An even orthogonal spectrum with
    no eigenvalue +-1 is listed once: it is one class of the orthogonal
    group but two of the special orthogonal dual, which carry no label that
    tells them apart yet."""
    if g.n > _ENUM_MAX_N or g.q > _ENUM_MAX_Q:
        raise BudgetExceededError("class enumeration is restricted to n <= 3, q <= 13")
    q, dim = g.q, g.dual_dim

    # The building blocks beyond +-1, as (orbits of multiplicity one, dimension):
    # a self-inverse orbit, or an orbit with its inverse.  Only orders d mod
    # which q has order at most dim can occur: the divisors of q^j - 1, j <= dim.
    # The unit orbits mod d are the cosets of the powers of q, so they all
    # have one size and are self-inverse exactly when the orbit of 1 is; an
    # order whose blocks cannot fit is skipped before its units are walked.
    units: list[tuple[tuple[EigenvalueOrbit, ...], int]] = []
    orders = {d for j in range(1, dim + 1) for d in _divisors(q**j - 1) if d >= 3}
    for d in sorted(orders):
        orbit_of_one = _orbit(1, d, q, dim)
        size = len(orbit_of_one)
        if 2 * size > dim and d - 1 not in orbit_of_one:
            continue
        for a in sorted({_orbit(x, d, q, dim)[0] for x in range(1, d) if gcd(x, d) == 1}):
            inv = _orbit(d - a, d, q, dim)[0]
            if a <= inv:
                reps = (a,) if a == inv else (a, inv)
                units.append((tuple(EigenvalueOrbit(x, d, 1) for x in reps), size * len(reps)))

    out: list[SemisimpleClass] = []

    def fill(start: int, remaining: int, entries: list, self_inverse: int) -> None:
        """Every class made of the chosen entries, more units from start on and
        +-1; one unit per level, so the depth is at most dim."""
        for mm1 in range(remaining + 1):
            m1 = remaining - mm1
            orbits = entries + [EigenvalueOrbit(a, d, mult)
                                for a, d, mult in ((1, 2, mm1), (0, 1, m1)) if mult]
            out.extend(SemisimpleClass(g, orbits, pt, mt)
                       for pt, mt in _legal_labels(g, m1, mm1, self_inverse))
        for i in range(start, len(units)):
            unit, unit_dim = units[i]
            if unit_dim <= remaining:
                fill(i, remaining - unit_dim, entries + list(unit), self_inverse + (len(unit) == 1))

    fill(0, dim, [], 0)

    def sort_key(c: SemisimpleClass):
        return (
            tuple((o.den, o.num, o.mult) for o in c.orbits),
            c.plus_type or 0,
            c.minus_type or 0,
        )

    return tuple(sorted(out, key=sort_key))
