"""Closed-form rationality criteria for unipotent elements under power maps.

For k coprime to p, the k-th power map permutes the rational classes inside
each geometric unipotent class.  For special orthogonal groups that
permutation is trivial; for symplectic groups a class moves exactly when some
even Jordan block size has odd multiplicity and k is a non-square in the
ground field.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InputError
from .galois_arith import is_square_in_fq
from .groups import Family, GroupSpec
from .partitions import EpsPartition, Partition


@dataclass(frozen=True)
class FundamentalImage:
    """Image of the half-sum of positive coroots in the fundamental group,
    as a multiple of one fundamental coweight (coefficient 0 when the image
    is trivial)."""

    type_label: str
    coefficient: int
    weight_index: int | None

    @property
    def is_trivial(self) -> bool:
        return self.coefficient == 0


def coweight_half_sum_image(type_label: str, n: int = 0) -> FundamentalImage:
    """Table lookup for the image of the half-sum of positive coroots.

    A_(2m+eps) -> eps * w_m,  B_(2m+eps) -> (m+eps) * w_1,  C_n -> w_n,
    D_(2m+eps) -> (m+eps) * w_1,  E7 -> w_7; trivial for G2, F4, E6, E8.
    """
    t = type_label.upper()
    if t in ("G2", "F4", "E6", "E8"):
        return FundamentalImage(t, 0, None)
    if t == "E7":
        return FundamentalImage(t, 1, 7)
    if t == "A":
        if n == 1:
            # A1 = C1: the image is the single fundamental coweight.
            return FundamentalImage(t, 1, 1)
        if n < 2:
            raise InputError("type A needs n >= 1")
        m, eps = divmod(n, 2)
        return FundamentalImage(t, eps, m) if eps else FundamentalImage(t, 0, None)
    if t == "B":
        if n < 2:
            raise InputError("type B needs n >= 2")
        m, eps = divmod(n, 2)
        return FundamentalImage(t, m + eps, 1)
    if t == "C":
        if n < 1:
            raise InputError("type C needs n >= 1")
        return FundamentalImage(t, 1, n)
    if t == "D":
        if n < 3:
            raise InputError("type D needs n >= 3")
        m, eps = divmod(n, 2)
        return FundamentalImage(t, m + eps, 1)
    raise InputError(f"unsupported type label {type_label!r}")


def _check_k(g: GroupSpec, k: int) -> None:
    if gcd(k, g.p) != 1:
        raise InputError("k must be coprime to p")


def regular_rational(g: GroupSpec, k: int) -> bool:
    """Is a regular unipotent element conjugate to its k-th power over F_q?

    Always true for special orthogonal groups; for symplectic groups true
    exactly when k is a square in F_q.
    """
    _check_k(g, k)
    if g.family is not Family.SP:
        return True
    return is_square_in_fq(k, g.q)


def even_parts_paired(mu: Partition) -> bool:
    """Does every even part of mu occur with even multiplicity?  For
    symplectic groups this makes a unipotent class rational outright."""
    return all(mu.multiplicity(m) % 2 == 0 for m in mu.distinct() if m % 2 == 0)


def unipotent_rational(g: GroupSpec, ep: EpsPartition, k: int) -> bool:
    """Is the unipotent class of Jordan type ep fixed by the k-th power map?

    Special orthogonal groups: always.  Symplectic groups: true when every
    even part has even multiplicity, or when k is a square in F_q.
    """
    _check_k(g, k)
    if ep.eps != g.form_eps:
        raise InputError("partition parity does not match the family")
    if ep.total != g.dim:
        raise InputError("partition size does not match the natural module")
    if g.family is not Family.SP or even_parts_paired(ep.partition):
        return True
    return is_square_in_fq(k, g.q)
