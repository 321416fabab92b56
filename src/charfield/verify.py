"""Verification suites: each one checks a family of closed-form results
against an independent computation (exact cyclotomic arithmetic, Cayley-graph
search, matrix conjugacy search, class counting).  Shared by the command-line
`verify` subcommand and the acceptance tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd

from . import oracle
from .char_fields import character_field, predicted_fixed_count_rank1
from .galois_arith import (
    PrimePowerAction,
    galois_from_prime_power,
    gauss_sum_exact,
    legendre,
    signed_prime,
)
from .groups import Family, GroupSpec, is_prime
from .hc_action import index_sqrt_sign_h, series_twist_sign, series_twist_sign_h
from .partitions import component_orders, eps_partitions
from .power_maps import unipotent_rational
from .semisimple import class_from_dict
from .symbols import cuspidal_multiplicity, wavefront_partition
from .weyl_b import SeriesDescriptor, length, lengths_by_bfs, special_element


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _result(name: str, bad: list, detail: str) -> CheckResult:
    """Pass with the detail when nothing failed, else list the first five
    failures."""
    return CheckResult(name, not bad, detail if not bad else f"failures: {bad[:5]}")


def _primes_up_to(n: int) -> list[int]:
    return [p for p in range(3, n + 1) if is_prime(p)]


def suite_gauss() -> list[CheckResult]:
    """Exact Gauss sums: square equals omega*p and the substitution sign
    equals the Legendre symbol, for every odd prime p <= 50 and k coprime."""
    start = time.time()
    bad = []
    for p in _primes_up_to(50):
        omega = signed_prime(p).sign
        for k in range(1, p):
            square, sign = gauss_sum_exact(p, k)
            if square != omega * p or sign != legendre(k, p):
                bad.append((p, k))
    detail = f"odd primes <= 50, all k; {time.time() - start:.2f}s"
    return [_result("gauss-sum-square-and-sign", bad, detail)]


def suite_relweyl() -> list[CheckResult]:
    """Weyl lengths against BFS, the distinguished-element length formulas,
    and the Galois twist-sign consistency grid."""
    out = []

    start = time.time()
    bfs = lengths_by_bfs(4)
    ok = len(bfs) == 384 and all(length(w) == d for w, d in bfs.items())
    out.append(CheckResult("weyl-length-vs-bfs-rank4", ok, f"384 elements; {time.time() - start:.2f}s"))

    ok = True
    for n in range(2, 9):
        for m in range(1, n + 1):
            if length(special_element(n, "t", m)) != 2 * (n - m) + 1:
                ok = False
        for m in range(1, n):
            if length(special_element(n, "u", m)) != 2 * (n - m) + 2:
                ok = False
    out.append(CheckResult("special-element-lengths", ok, "t_m, u_m formulas for n <= 8"))

    start = time.time()
    bad = []
    qs = [3, 5, 7, 9, 11, 13, 25, 27]
    ells = [2, 3, 5, 7, 11]
    for q in qs:
        for desc in _grid_descriptors(q):
            p = desc.group.p
            for ell in ells:
                if ell == p:
                    continue
                for r in range(4):
                    signs = (1, -1) if ell == 2 else (0,)
                    for isign in signs:
                        h = PrimePowerAction(ell, r, isign)
                        direct = series_twist_sign_h(desc, h)
                        sigma = galois_from_prime_power(h, 4 * p)
                        composed = series_twist_sign(desc, sigma)
                        if direct.value != composed.value:
                            bad.append(("mismatch", q, desc.group.family.value, ell, r, isign))
                        if desc.group.family in (Family.SO_ODD, Family.SO_EVEN) and direct.value != 1:
                            bad.append(("so-nontrivial", q, ell, r, isign))
                        if ell != 2 and (q - 1) % ell == 0 and index_sqrt_sign_h(desc, h).value != 1:
                            bad.append(("linear-prime", q, ell, r))
    detail = f"{len(qs)} q-values, ell <= 11, r <= 3; {time.time() - start:.2f}s"
    out.append(_result("twist-sign-grid", bad, detail))
    return out


def _grid_descriptors(q: int) -> list[SeriesDescriptor]:
    descs = [
        SeriesDescriptor(GroupSpec(Family.SP, 2, q), True, 2, 1, 1),
        SeriesDescriptor(GroupSpec(Family.SP, 4, q), False, 2, 1, 1, True),
        SeriesDescriptor(GroupSpec(Family.SO_EVEN, 3, q, 1), True, 3, 1, 2),
        SeriesDescriptor(GroupSpec(Family.SO_EVEN, 3, q, -1), True, 3, 2, 1),
        SeriesDescriptor(GroupSpec(Family.SO_EVEN, 4, q, 1), False, 2, 1, 1, True),
        SeriesDescriptor(GroupSpec(Family.SO_ODD, 2, q), True, 2, 1, 1),
        SeriesDescriptor(GroupSpec(Family.SO_ODD, 4, q), False, 2, 1, 1, True),
    ]
    return descs


def suite_powmap() -> list[CheckResult]:
    """Closed-form power-map rationality against matrix conjugacy search:
    symplectic q in {3,5,7}, n in {1,2}; orthogonal q in {3,5}, n <= 2.
    Every orthogonal cell must have a witness."""
    start = time.time()
    groups = [GroupSpec(Family.SP, n, q) for q in (3, 5, 7) for n in (1, 2)]
    groups += [g for q in (3, 5) for g in (
        GroupSpec(Family.SO_ODD, 1, q),
        GroupSpec(Family.SO_ODD, 2, q),
        GroupSpec(Family.SO_EVEN, 1, q, 1),
        GroupSpec(Family.SO_EVEN, 2, q, 1),
    )]
    bad = []
    cells = 0
    for g in groups:
        for ep in eps_partitions(g.dim, g.form_eps):
            u = oracle.unipotent_rep(g, ep)
            for k in range(1, g.q):
                cells += 1
                witness = oracle.power_conjugacy_search(g, u, k)
                if (witness is not None) != unipotent_rational(g, ep, k) or (
                        witness is None and g.family is not Family.SP):
                    bad.append((g.family.value, g.q, g.n, tuple(ep.partition), k))
    detail = f"{cells} cells; {time.time() - start:.1f}s"
    return [_result("power-map-oracle-agreement", bad, detail)]


def suite_wavefront() -> list[CheckResult]:
    """Cuspidal multiplicity equals the adjoint-quotient component order of
    the wave-front class, for all admissible data with e, f <= 6."""
    start = time.time()
    bad = []
    for delta in (0, 1):
        for e in range(7):
            for f in range(e, 7):
                if f + delta < 2:
                    continue
                ep = wavefront_partition(e, f, delta)
                if cuspidal_multiplicity(e, f, delta) != component_orders(ep)[2]:
                    bad.append((e, f, delta))
    detail = f"e, f <= 6; {time.time() - start:.2f}s"
    return [_result("wavefront-multiplicity-identity", bad, detail)]


def suite_brauer() -> list[CheckResult]:
    """Flagship end-to-end check: for rank-one symplectic groups the number
    of conjugacy classes fixed by g -> g^k (raw matrix count) must equal the
    number of characters fixed by the corresponding Galois element as
    predicted by the field formulas (Brauer's permutation lemma)."""
    start = time.time()
    bad = []
    pairs = 0
    for q in (5, 7, 11, 13):
        order = len(oracle.sl2_classes(q)[1])
        for k in range(1, order):
            if gcd(k, order) != 1:
                continue
            pairs += 1
            if oracle.brauer_fixed_classes_sl2(q, k) != predicted_fixed_count_rank1(q, k):
                bad.append((q, k))
    detail = f"{pairs} (q, k) pairs; {time.time() - start:.1f}s"
    return [_result("brauer-fixed-count", bad, detail)]


def suite_fields() -> list[CheckResult]:
    """Classical rank-one sanity: involution series have the quadratic field
    with radicand -p for q in {3, 7, 11}, and degree one for q = 9."""
    bad = []
    for q, degree, radicand in ((3, 2, -3), (7, 2, -7), (11, 2, -11), (9, 1, None)):
        cls = class_from_dict(
            {"family": "sp", "n": 1, "q": q,
             "orbits": [{"frac": "0/1", "mult": 1}, {"frac": "1/2", "mult": 2}],
             "minus_type": 1}
        )
        field = character_field(GroupSpec(Family.SP, 1, q), cls)
        if (field.degree, field.adjoined_radicand) != (degree, radicand):
            bad.append(q)
    return [_result("rank-one-involution-fields", bad, "q in {3,7,11} and square q = 9")]


SUITES = {
    "gauss": suite_gauss,
    "relweyl": suite_relweyl,
    "powmap": suite_powmap,
    "brauer": suite_brauer,
    "wavefront": suite_wavefront,
    "fields": suite_fields,
}
