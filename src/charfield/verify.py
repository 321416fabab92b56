"""Verification suites: each one checks a family of closed-form results
against an independent computation (exact cyclotomic arithmetic, Cayley-graph
search, matrix conjugacy search, class counting).  Shared by the command-line
`verify` subcommand and the acceptance tests.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from math import gcd

from . import oracle
from .char_fields import character_field, predicted_fixed_count
from .errors import InputError
from .galois_arith import (
    PrimePowerAction,
    galois_from_prime_power,
    gauss_sum_exact,
    legendre,
    signed_prime,
)
from .groups import Family, GroupSpec, is_prime
from .hc_action import index_sqrt_sign, index_sqrt_sign_h, series_twist_sign, series_twist_sign_h
from .partitions import component_orders, eps_partitions
from .power_maps import unipotent_rational
from .semisimple import class_from_dict, in_spinor_kernel
from .symbols import cuspidal_multiplicity, wavefront_partition
from .weyl_b import (
    SeriesDescriptor,
    SignedPerm,
    length,
    lengths_by_bfs,
    relative_weyl,
    special_element,
)


@dataclass
class CheckResult:
    """One check: its verdict, what it covered, the wall time it took and
    the number of cases (cells) it checked.  `cell_stats` holds the cells'
    records where they carry one (each power-map cell's search, each
    census group's order, class count and census time), else it is empty."""

    name: str
    ok: bool
    detail: str
    seconds: float
    cells: int
    cell_stats: list[dict] = field(default_factory=list)


def _check(name: str, detail: str, cells: Iterable[tuple]) -> CheckResult:
    """Run one check over its cells, each `(key, ok)` or `(key, ok, record)`:
    time the whole iteration, count the cells and pass with `detail` when
    every cell is ok, else list the keys of the first five failing cells.
    The records, where the cells carry them, become `cell_stats`."""
    start = time.perf_counter()
    count, bad, records = 0, [], []
    for key, ok, *record in cells:
        count += 1
        if not ok:
            bad.append(key)
        records += record
    return CheckResult(name, not bad, detail if not bad else f"failures: {bad[:5]}",
                       time.perf_counter() - start, count, records)


def _primes_up_to(n: int) -> list[int]:
    return [p for p in range(3, n + 1) if is_prime(p)]


def suite_gauss() -> list[CheckResult]:
    """Exact Gauss sums: square equals omega*p and the substitution sign
    equals the Legendre symbol, for every odd prime p <= 50 and k coprime."""
    def cells():
        for p in _primes_up_to(50):
            omega_p = signed_prime(p)
            for k in range(1, p):
                square, sign = gauss_sum_exact(p, k)
                yield (p, k), square == omega_p and sign == legendre(k, p)
    return [_check("gauss-sum-square-and-sign", "odd primes <= 50, all k", cells())]


def suite_relweyl() -> list[CheckResult]:
    """Weyl lengths against BFS, the distinguished-element length formulas,
    the complement parities of the relative Weyl table against lengths, and
    the Galois twist-sign consistency grid."""
    def bfs_cells():
        bfs = lengths_by_bfs(4)
        if len(bfs) != 384:
            yield ("order", len(bfs)), False
        for w, d in bfs.items():
            yield w, length(w) == d

    def special_cells():
        for n in range(2, 9):
            for m in range(1, n + 1):
                yield ("t", n, m), length(special_element(n, "t", m)) == 2 * (n - m) + 1
            for m in range(1, n):
                yield ("u", n, m), length(special_element(n, "u", m)) == 2 * (n - m) + 2

    def parity_cells():
        for desc in _table_descriptors(8):
            rel = relative_weyl(desc)
            if not rel.c_flips:
                if rel.c_length_parity is not None:
                    yield ("trivial", desc), False
                continue
            w = SignedPerm(-i if i in rel.c_flips else i for i in range(1, desc.group.n + 1))
            yield desc, rel.c_length_parity == ("odd" if length(w) % 2 else "even")

    qs = [3, 5, 7, 9, 11, 13, 17, 25, 27]

    def twist_cells():
        for q in qs:
            for desc in _grid_descriptors(q):
                p, family = desc.group.p, desc.group.family
                for ell in (2, 3, 5, 7, 11):
                    if ell == p:
                        continue
                    for r in range(4):
                        for isign in (1, -1) if ell == 2 else (0,):
                            h = PrimePowerAction(ell, r, isign)
                            sigma = galois_from_prime_power(h, 4 * p)
                            direct = series_twist_sign_h(desc, h).value
                            composed = series_twist_sign(desc, sigma)
                            index = index_sqrt_sign_h(desc, h)
                            key = (q, family.value, desc.group.n, desc.group.twist,
                                   ell, r, isign)
                            yield key, (
                                direct == composed.value
                                and index == index_sqrt_sign(desc, sigma)
                                and (family is Family.SP or direct == 1)
                                and (ell == 2 or (q - 1) % ell != 0 or index.value == 1))

    return [
        _check("weyl-length-vs-bfs-rank4", "384 elements", bfs_cells()),
        _check("special-element-lengths", "t_m, u_m formulas for n <= 8", special_cells()),
        _check("complement-parity-vs-length",
               "every relative Weyl table row with a complement, n <= 8", parity_cells()),
        _check("twist-sign-grid", f"{len(qs)} q-values, ell <= 11, r <= 3", twist_cells()),
    ]


def _table_descriptors(max_rank: int) -> list[SeriesDescriptor]:
    """Every series descriptor of rank <= max_rank that the relative Weyl
    table has a row for: each family and twist, principal (m = n) and
    non-principal (m <= n - 2) series, and every split a + b = m."""
    groups = [GroupSpec(family, n, 3) for n in range(1, max_rank + 1)
              for family in (Family.SP, Family.SO_ODD, Family.SO_EVEN)]
    groups += [GroupSpec(Family.SO_EVEN, n, 3, -1) for n in range(1, max_rank + 1)]
    out = []
    for g in groups:
        shapes = [(True, g.n)] + [(False, m) for m in range(g.n - 1)]
        for principal, m in shapes:
            for a in range(m + 1):
                desc = SeriesDescriptor(g, principal, m, a, m - a)
                try:
                    relative_weyl(desc)
                except InputError:
                    continue
                out.append(desc)
    return out


def _grid_descriptors(q: int) -> list[SeriesDescriptor]:
    descs = [
        SeriesDescriptor(GroupSpec(Family.SP, 2, q), True, 2, 1, 1),
        SeriesDescriptor(GroupSpec(Family.SP, 4, q), False, 2, 1, 1),
        SeriesDescriptor(GroupSpec(Family.SO_EVEN, 3, q, 1), True, 3, 1, 2),
        SeriesDescriptor(GroupSpec(Family.SO_EVEN, 3, q, -1), True, 3, 2, 1),
        SeriesDescriptor(GroupSpec(Family.SO_EVEN, 4, q, 1), False, 2, 1, 1),
        SeriesDescriptor(GroupSpec(Family.SO_ODD, 2, q), True, 2, 1, 1),
        SeriesDescriptor(GroupSpec(Family.SO_ODD, 4, q), False, 2, 1, 1),
    ]
    return descs


def suite_powmap() -> list[CheckResult]:
    """Closed-form power-map rationality against matrix conjugacy search:
    symplectic q in {3,5,7}, n in {1,2}; orthogonal q in {3,5}, n <= 2.
    Every orthogonal cell must have a witness.  Each cell's record says
    which search decided it, at which step, and how long the search took."""
    groups = [GroupSpec(Family.SP, n, q) for q in (3, 5, 7) for n in (1, 2)]
    groups += [g for q in (3, 5) for g in (
        GroupSpec(Family.SO_ODD, 1, q),
        GroupSpec(Family.SO_ODD, 2, q),
        GroupSpec(Family.SO_EVEN, 1, q, 1),
        GroupSpec(Family.SO_EVEN, 2, q, 1),
    )]

    def cells():
        for g in groups:
            for ep in eps_partitions(g.dim, g.form_eps):
                u = oracle.unipotent_rep(g, ep)
                for k in range(1, g.q):
                    stats: dict = {}
                    search_start = time.perf_counter()
                    witness = oracle.power_conjugacy_search(g, u, k, stats=stats)
                    record = {"family": g.family.value, "n": g.n, "q": g.q,
                              "mu": list(ep.partition), "k": k, **stats,
                              "seconds": time.perf_counter() - search_start}
                    ok = (witness is not None) == unipotent_rational(g, ep, k) and (
                        witness is not None or g.family is Family.SP)
                    yield (g.family.value, g.q, g.n, tuple(ep.partition), k), ok, record
    return [_check("power-map-oracle-agreement", f"{len(groups)} groups, every k < q", cells())]


def suite_wavefront() -> list[CheckResult]:
    """Cuspidal multiplicity equals the adjoint-quotient component order of
    the wave-front class, for all admissible data with e, f <= 6."""
    def cells():
        for delta in (0, 1):
            for e in range(7):
                for f in range(e, 7):
                    if f + delta >= 2:
                        order = component_orders(wavefront_partition(e, f, delta))[2]
                        yield (e, f, delta), cuspidal_multiplicity(e, f, delta) == order
    return [_check("wavefront-multiplicity-identity", "e, f <= 6", cells())]


def _census(g: GroupSpec) -> tuple[tuple, dict, list[dict]]:
    """The class census of g, with the record that the first cell of g
    carries: the group order, the class count and the census's seconds."""
    start = time.perf_counter()
    reps, index = oracle.class_census(g)
    record = {"family": g.family.value, "n": g.n, "q": g.q, "order": len(index),
              "classes": len(reps), "seconds": time.perf_counter() - start}
    return reps, index, [record]


def suite_brauer() -> list[CheckResult]:
    """Flagship end-to-end check: for the rank-one groups Sp2(F_q) and
    SO3(F_q) the number of conjugacy classes fixed by g -> g^k (raw matrix
    count) must equal the number of characters fixed by the corresponding
    Galois element as predicted by the field formulas (Brauer's permutation
    lemma).  A cell's key is (family, q, k, raw count, predicted count)."""
    def cells():
        for g in (GroupSpec(family, 1, q) for family in (Family.SP, Family.SO_ODD)
                  for q in (5, 7, 11, 13)):
            _, index, records = _census(g)
            order = len(index)
            for k in range(1, order):
                if gcd(k, order) == 1:
                    raw, predicted = oracle.brauer_fixed_classes(g, k), predicted_fixed_count(g, k)
                    yield (g.family.value, g.q, k, raw, predicted), raw == predicted, *records
                    records = []
    return [_check("brauer-fixed-count",
                   "Sp2 and SO3, q in {5,7,11,13}, every k coprime to the order", cells())]


def suite_fields() -> list[CheckResult]:
    """Classical rank-one sanity: involution series have the quadratic field
    with radicand -p for q in {3, 7, 11}, and degree one for q = 9."""
    def cells():
        for q, degree, radicand in ((3, 2, -3), (7, 2, -7), (11, 2, -11), (9, 1, None)):
            cls = class_from_dict(
                {"family": "sp", "n": 1, "q": q,
                 "orbits": [{"frac": "0/1", "mult": 1}, {"frac": "1/2", "mult": 2}],
                 "minus_type": 1}
            )
            field = character_field(GroupSpec(Family.SP, 1, q), cls)
            yield q, (field.degree, field.adjoined_radicand) == (degree, radicand)
    return [_check("rank-one-involution-fields", "q in {3,7,11} and square q = 9", cells())]


def _eigenspace(x: oracle.Matrix, g: GroupSpec, eigenvalue: int) -> tuple[int, int | None]:
    """The dimension of the eigenspace E of x for +-1 and, when it is even and
    positive, its orthogonal type: split (+1) exactly when (-1)^b det(Gram
    of E) is a square mod p, dim E = 2b."""
    p, J = g.p, oracle.form_matrix(g)
    rows = [[(v - eigenvalue * (i == j)) % p for j, v in enumerate(row)]
            for i, row in enumerate(x)]
    basis = oracle.nullspace(rows, p)
    if not basis or len(basis) % 2:
        return len(basis), None
    gram = oracle.mat_mul(oracle.mat_mul(basis, J, p), oracle.transpose(basis), p)
    disc = (-1) ** (len(basis) // 2) * oracle.det(gram, p) % p
    return len(basis), 1 if pow(disc, (p - 1) // 2, p) == 1 else -1


def suite_spinor() -> list[CheckResult]:
    """Spinor-kernel membership against the matrix group: for every class of
    order two of SO4+(F_q), q in {3, 5}, the eigenspace types read off a
    representative label the class, and in_spinor_kernel must say whether
    the representative lies in the subgroup that the root elements generate."""
    def cells():
        for q in (3, 5):
            g = GroupSpec(Family.SO_EVEN, 2, q, 1)
            reps, _, records = _census(g)
            omega = oracle.root_subgroup(g)
            one = oracle.identity_matrix(g.dim)
            for x in reps:
                if x == one or oracle.mat_mul(x, x, q) != one:
                    continue
                plus_dim, plus_type = _eigenspace(x, g, 1)
                minus_dim, minus_type = _eigenspace(x, g, -1)
                cls = class_from_dict(
                    {"family": "so-even", "n": 2, "q": q,
                     "plus_type": plus_type, "minus_type": minus_type,
                     "orbits": [{"frac": frac, "mult": mult}
                                for frac, mult in (("0/1", plus_dim), ("1/2", minus_dim)) if mult]})
                yield ((q, minus_dim, minus_type), in_spinor_kernel(g, cls) == (x in omega),
                       *records)
                records = []
    return [_check("spinor-kernel-vs-root-subgroup",
                   "every involution class of SO4+(F_q), q in {3, 5}", cells())]


SUITES = {
    "gauss": suite_gauss,
    "relweyl": suite_relweyl,
    "powmap": suite_powmap,
    "brauer": suite_brauer,
    "wavefront": suite_wavefront,
    "fields": suite_fields,
    "spinor": suite_spinor,
}
