"""Signed permutations: the Weyl group of type B_n, with the distinguished
elements and the complements of relative Weyl groups used by the Galois sign
computations.

Elements of W_n act on {+-1, ..., +-n} with w(-i) = -w(i).  The generators are
s_i = (i, i+1)(-i, -i-1) for i < n and s_n = (n, -n); note the sign flip sits
at the LAST index.  Lengths are computed by counting positive roots sent to
negative ones, which is manifestly independent of any one-line-notation
convention and is validated against breadth-first search in the tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InputError, as_int
from .groups import Family, GroupSpec


class SignedPerm:
    """A signed permutation of {1..n}, stored as the images of 1..n."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(as_int(x, "image") for x in images)
        n = len(images)
        if sorted(abs(x) for x in images) != list(range(1, n + 1)):
            raise InputError("images must be a signed permutation of 1..n")
        self.images = images

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if i > 0:
            return self.images[i - 1]
        return -self.images[-i - 1]

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        """Composition: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise InputError("rank mismatch")
        return SignedPerm(tuple(self(other(i)) for i in range(1, self.n + 1)))

    def __eq__(self, other) -> bool:
        return isinstance(other, SignedPerm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"SignedPerm({list(self.images)})"


def identity(n: int) -> SignedPerm:
    if as_int(n, "n") < 0:
        raise InputError("n must be >= 0")
    return SignedPerm(range(1, n + 1))


def generator(n: int, i: int) -> SignedPerm:
    """The Coxeter generator s_i of W_n."""
    as_int(n, "n"), as_int(i, "i")
    if not 1 <= i <= n:
        raise InputError("generator index out of range")
    img = list(range(1, n + 1))
    if i < n:
        img[i - 1], img[i] = img[i], img[i - 1]
    else:
        img[n - 1] = -n
    return SignedPerm(img)


def special_element(n: int, kind: str, m: int) -> SignedPerm:
    """t_m = (m, -m), and u_m = (m, -m)(n, -n) for m < n."""
    as_int(n, "n"), as_int(m, "m")
    if kind == "t":
        if not 1 <= m <= n:
            raise InputError("t_m needs 1 <= m <= n")
        img = list(range(1, n + 1))
        img[m - 1] = -m
        return SignedPerm(img)
    if kind == "u":
        if not 1 <= m < n:
            raise InputError("u_m needs 1 <= m < n")
        img = list(range(1, n + 1))
        img[m - 1] = -m
        img[n - 1] = -n
        return SignedPerm(img)
    raise InputError("kind must be 't' or 'u'")


def length(w: SignedPerm) -> int:
    """Coxeter length: the number of positive roots sent to negative ones.

    Positive roots of B_n: e_i - e_j and e_i + e_j for i < j, and every e_i.
    A root c_a*e_a + c_b*e_b (indices a < b) is negative exactly when the
    coefficient of the smaller index is -1.
    """
    n = w.n
    count = 0
    for i in range(1, n + 1):
        if w(i) < 0:
            count += 1
        for j in range(i + 1, n + 1):
            for sj in (1, -1):
                # image of e_i + sj*e_j as {index: coefficient}
                a, b = w(i), sj * w(j)
                small = min(abs(a), abs(b))
                coeff = (1 if a > 0 else -1) if abs(a) == small else (1 if b > 0 else -1)
                if coeff < 0:
                    count += 1
    return count


def lengths_by_bfs(n: int) -> dict[SignedPerm, int]:
    """Word lengths of all of W_n by BFS on the Cayley graph (tests, n <= 4)."""
    start = identity(n)
    gens = [generator(n, i) for i in range(1, start.n + 1)]
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for s in gens:
            x = w * s
            if x not in dist:
                dist[x] = dist[w] + 1
                queue.append(x)
    return dist


@dataclass(frozen=True)
class SeriesDescriptor:
    """Shape of a Harish-Chandra series of an order-two torus-type character.

    m is the rank of the split central torus of the Levi (m = n exactly for
    principal series), a counts trivial torus-character components and b the
    order-two ones, with a + b = m.  For non-principal series the complement
    carries a cuspidal character on a positive-rank classical group, which
    forces m <= n - 2.
    """

    group: GroupSpec
    principal: bool
    m: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if not isinstance(self.principal, bool):
            raise InputError(f"principal must be a bool, not {self.principal!r}")
        for name in ("m", "a", "b"):
            as_int(getattr(self, name), name)
        if self.a < 0 or self.b < 0 or self.a + self.b != self.m:
            raise InputError("need a, b >= 0 with a + b = m")
        if self.principal and self.m != self.group.n:
            raise InputError("principal series has m = n")
        if not self.principal and self.m > self.group.n - 2:
            raise InputError("non-principal series needs m <= n - 2")


@dataclass(frozen=True)
class RelativeWeylGroup:
    """The complement C of the relative Weyl group W(lambda) = R x| C of a
    series.  Only C is modelled: the Galois signs read the parity of the
    length of its generator alone, never R.

    C has order 1 or 2.  Its generator, an element of the ambient W_n so that
    lengths are taken in the full group, is always a diagonal sign change
    (s_n, t_m or u_m) and is stored as the coordinates it negates; a trivial
    complement negates none.
    """

    c_flips: tuple[int, ...]

    @property
    def c_length_parity(self) -> str | None:
        """"even" or "odd", the parity of the length of the complement's
        generator in W_n; None for a trivial complement.  A sign change of k
        coordinates has determinant (-1)^k, and every Coxeter generator is a
        reflection, so its length has the parity of k."""
        if not self.c_flips:
            return None
        return "even" if len(self.c_flips) % 2 == 0 else "odd"


def relative_weyl(desc: SeriesDescriptor) -> RelativeWeylGroup:
    """The complement C of the relative Weyl group W(lambda) = R x| C for
    order-two data; R is not modelled, as the Galois signs read only the
    parity of C.

    Odd orthogonal groups have trivial complement.  Symplectic groups have
    complement generated by s_n (principal) or t_m (non-principal), of odd
    length; the t_m row is imported from the standard normaliser structure
    rather than derived in this package.  Even orthogonal groups, split or
    twisted, have complement generated by u_1 (principal) or u_m
    (non-principal), of even length.  That parity difference is the whole
    reason symplectic character fields can grow while orthogonal ones do not.
    """
    family, n, m = desc.group.family, desc.group.n, desc.m
    if family is Family.SO_ODD:
        return RelativeWeylGroup(())
    even = family is Family.SO_EVEN
    if even and n < 2:
        raise InputError("even orthogonal table needs n >= 2")
    if desc.principal:
        if desc.b < 1:
            raise InputError(
                "principal so-even row needs b >= 1" if even else
                "symplectic principal row needs b >= 1 "
                "(the all-trivial character gives a unipotent series with trivial complement)"
            )
        return RelativeWeylGroup((1, n) if even else (n,))
    if m < 1:
        raise InputError("u_m needs 1 <= m < n" if even else "t_m needs 1 <= m <= n")
    return RelativeWeylGroup((m, n) if even else (m,))
