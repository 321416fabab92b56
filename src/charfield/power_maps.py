"""Closed-form rationality criteria for unipotent elements under power maps.

For k coprime to p, the k-th power map permutes the rational classes inside
each geometric unipotent class.  For special orthogonal groups that
permutation is trivial; for symplectic groups a class moves exactly when some
even Jordan block size has odd multiplicity and k is a non-square in the
ground field.
"""

from __future__ import annotations

from math import gcd

from .errors import InputError, as_int
from .galois_arith import is_square_in_fq
from .groups import Family, GroupSpec
from .partitions import EpsPartition, eps_stats


def rationality_criterion(g: GroupSpec, ep: EpsPartition) -> str:
    """The rule that decides whether the unipotent class of Jordan type ep
    is fixed by the power maps: "orthogonal-always-rational" in special
    orthogonal groups; in symplectic groups "even-multiplicities" when every
    even part has even multiplicity, which makes the class rational outright,
    and otherwise "square-class-of-k": fixed by the k-th power map exactly
    when k is a square in F_q.  For eps = 1 the even parts are the parts of
    opposite parity that `eps_stats` reads, so that is the case delta = 1."""
    if ep.eps != g.form_eps:
        raise InputError("partition parity does not match the family")
    if ep.total != g.dim:
        raise InputError("partition size does not match the natural module")
    if g.family is not Family.SP:
        return "orthogonal-always-rational"
    _, delta = eps_stats(ep)
    return "square-class-of-k" if delta else "even-multiplicities"


def unipotent_rational(g: GroupSpec, ep: EpsPartition, k: int) -> bool:
    """Is the unipotent class of Jordan type ep fixed by the k-th power map?
    Decided by `rationality_criterion`."""
    if gcd(as_int(k, "k"), g.p) != 1:
        raise InputError("k must be coprime to p")
    if rationality_criterion(g, ep) != "square-class-of-k":
        return True
    return is_square_in_fq(k, g.q)
