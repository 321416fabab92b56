import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from charfield import oracle
from charfield.errors import BudgetExceededError, InputError
from charfield.groups import Family, GroupSpec, factorize
from charfield.partitions import EpsPartition, Partition, eps_partitions
from charfield.power_maps import unipotent_rational


def test_field_axioms_samples():
    p = 7
    for a in range(p):
        for b in range(p):
            assert (a + b) % p == (b + a) % p
            assert a * b % p == b * a % p
            if a:
                assert a * pow(a, -1, p) % p == 1


def test_matmul_associative_samples():
    import random
    rng = random.Random(0)
    p = 5
    for _ in range(20):
        ms = [
            tuple(tuple(rng.randrange(p) for _ in range(3)) for _ in range(3))
            for _ in range(3)
        ]
        a, b, c = ms
        assert oracle.mat_mul(oracle.mat_mul(a, b, p), c, p) == oracle.mat_mul(
            a, oracle.mat_mul(b, c, p), p
        )


def _leibniz_det(a, p):
    from itertools import permutations
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total % p


def test_det_against_leibniz():
    import random
    rng = random.Random(0)
    for p in (3, 5, 7, 13):
        for n in range(1, 6):
            for trial in range(30):
                a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                if trial % 3 == 0 and n > 1:  # singular: last row from rows 0 and n - 2
                    c, d = rng.randrange(p), rng.randrange(p)
                    a[-1] = [(c * x + d * y) % p for x, y in zip(a[0], a[-2])]
                m = oracle.mat(a)
                assert oracle.det(m, p) == _leibniz_det(m, p), (p, m)


def _dense_rref(a, p):
    """Gauss-Jordan elimination that updates whole rows: (rows, pivot
    columns, the product of the pivots with the sign of the row swaps)."""
    rows = [[x % p for x in row] for row in a]
    nrows, ncols = len(rows), len(rows[0])
    pivots, scale, r = [], 1, 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            scale = -scale
        scale = scale * rows[r][c] % p
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots, scale


def _sparse_or_dense(p, nrows, ncols):
    # with `zeros` at 4 about four entries in five are zero, as in an
    # intertwiner system; at 0 every residue is equally likely
    def rows(zeros):
        entry = st.integers(-zeros * p, p - 1).map(lambda x: max(x, 0))
        return st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                        min_size=nrows, max_size=nrows)
    return st.integers(0, 4).flatmap(rows)


def _kernel_from_rref(rows, pivots, ncols, p):
    # one kernel vector per free column of a reduced row echelon form
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc] % p
        basis.append(tuple(v))
    return basis


@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 7), st.integers(1, 8), st.data())
@settings(max_examples=300, deadline=None)
def test_elimination_agrees_with_dense(p, nrows, ncols, data):
    a = data.draw(_sparse_or_dense(p, nrows, ncols))
    rows, pivots, _ = _dense_rref(a, p)
    assert oracle.nullspace(a, p) == _kernel_from_rref(rows, pivots, ncols, p)


@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 6), st.data())
@settings(max_examples=300, deadline=None)
def test_det_and_inverse_agree_with_dense(p, n, data):
    a = oracle.mat(data.draw(_sparse_or_dense(p, n, n)))
    _, pivots, scale = _dense_rref(a, p)
    assert oracle.det(a, p) == (scale if len(pivots) == n else 0)
    if len(pivots) < n:
        with pytest.raises(InputError):
            oracle.mat_inv(a, p)
        return
    one = [[int(i == j) for j in range(n)] for i in range(n)]
    rows, _, _ = _dense_rref([list(r) + e for r, e in zip(a, one)], p)
    inverse = oracle.mat_inv(a, p)
    assert inverse == tuple(tuple(row[n:]) for row in rows)
    assert oracle.mat_mul(a, inverse, p) == oracle.identity_matrix(n)


def _triple_loop(a, b, p):
    """The product of a and b mod p by the schoolbook triple loop."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            total = 0
            for t in range(len(b)):
                total += a[i][t] * b[t][j]
            row.append(total % p)
        out.append(tuple(row))
    return tuple(out)


@given(st.sampled_from([2, 3, 5, 7, 11, 2**61 - 1]), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 6), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_mat_mul_is_triple_loop(p, rows, inner, cols, as_lists, data):
    # entries from -3p to 3p: negative ones and ones at or above p included
    def matrix(n, m):
        entry = st.integers(-3 * p, 3 * p)
        return data.draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                                  min_size=n, max_size=n))
    a, b = matrix(rows, inner), matrix(inner, cols)
    if not as_lists:
        a, b = oracle.mat(a), oracle.mat(b)
    product = oracle.mat_mul(a, b, p)
    assert product == _triple_loop(a, b, p)
    assert type(product) is tuple and all(type(row) is tuple for row in product)


@given(st.integers(1, 12), st.integers(1, 12))
@example(12, 12)
@settings(max_examples=30, deadline=None)
def test_product_size_cap(rows, inner):
    # the largest cols with rows * inner * cols <= 12^3 is allowed, one more
    # column is not
    cols = 12**3 // (rows * inner)
    a = [[(3 * i + t) % 7 for t in range(inner)] for i in range(rows)]
    b = [[(t * j + 1) % 7 for j in range(cols + 1)] for t in range(inner)]
    at_cap = [row[:cols] for row in b]
    assert oracle.mat_mul(a, at_cap, 7) == _triple_loop(a, at_cap, 7)
    with pytest.raises(BudgetExceededError):
        oracle.mat_mul(a, b, 7)


@pytest.mark.parametrize("call, args, shapes", [
    pytest.param(oracle.mat_mul, (((1, 2, 3), (4, 5, 6)), ((1, 0), (0, 1)), 7), ["2x3", "2x2"],
                 id="mat_mul-nonconforming"),
    pytest.param(oracle.mat_mul, (((1, 2), (3,)), ((1, 0), (0, 1)), 7), ["[2, 1]", "2x2"],
                 id="mat_mul-ragged"),
    pytest.param(oracle.det, (((1, 0, 0), (0, 1, 0)), 7), ["2x3"], id="det"),
    pytest.param(oracle.mat_pow, (((1, 2, 3), (4, 5, 6)), 0, 7), ["2x3"], id="mat_pow-e0"),
    pytest.param(oracle.mat_pow, (((1, 2, 3), (4, 5, 6)), 1, 7), ["2x3"], id="mat_pow-e1"),
    pytest.param(oracle.mat_pow, (((1, 2), (3,)), 1, 7), ["[2, 1]"], id="mat_pow-ragged"),
    pytest.param(oracle.mat_inv, (((1, 0, 0), (0, 1, 0)), 7), ["2x3"], id="mat_inv"),
    pytest.param(oracle.nullspace, (((1, 2, 3), (4, 5)), 7), ["[3, 2]"], id="nullspace-ragged"),
    pytest.param(oracle.nullspace, (((1,), (3, 4)), 5), ["[1, 2]"],
                 id="nullspace-ragged-short-first"),
    pytest.param(oracle.transpose, (((1, 2), (3,)),), ["[2, 1]"], id="transpose"),
])
def test_shape_errors_name_the_shapes(call, args, shapes):
    with pytest.raises(InputError) as raised:
        call(*args)
    assert all(shape in str(raised.value) for shape in shapes), raised.value


@pytest.mark.parametrize("entry", [1.5, "1"])
def test_entries_that_are_no_integers_are_refused(entry):
    # mat, mat_pow and the row reduction behind det, mat_inv and nullspace
    # read entries by operator.index: a float or a string raises InputError
    # naming it, instead of a bare TypeError or a truncation to 1; mat_pow
    # does so at every e, not only at e = -1, where it inverts
    a = ((entry, 0), (0, 1))
    calls = [oracle.mat, lambda a: oracle.det(a, 7), lambda a: oracle.mat_inv(a, 7),
             lambda a: oracle.nullspace(a, 7)]
    calls += [lambda a, e=e: oracle.mat_pow(a, e, 7) for e in (0, 1, 2, -1)]
    for call in calls:
        with pytest.raises(InputError, match=re.escape(repr(entry))):
            call(a)


def test_mat_pow_products_go_through_mat_mul(monkeypatch):
    # mat_pow multiplies through the module's mat_mul, one product per bit of
    # |e| below the top bit and one more per set bit below it, so a counter
    # on oracle.mat_mul sees every product
    calls = []
    product = oracle.mat_mul

    def counted(a, b, p):
        calls.append((a, b))
        return product(a, b, p)

    monkeypatch.setattr(oracle, "mat_mul", counted)
    a = ((2, 5), (1, 3))
    for e in range(-3, 300):
        calls.clear()
        oracle.mat_pow(a, e, 7)
        bits = abs(e).bit_length()
        assert len(calls) == max(bits - 1, 0) + max(bin(e).count("1") - 1, 0), e


@given(st.sampled_from([3, 5, 7, 11]), st.integers(1, 4), st.integers(-3, 40), st.data())
@settings(max_examples=200, deadline=None)
def test_mat_pow_is_repeated_product(p, n, e, data):
    # an invertible a: a random lower unitriangular times a random upper
    # triangular with a nonzero diagonal, given as lists of lists
    entry = st.integers(0, p - 1)
    lower = [[1 if i == j else data.draw(entry) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[data.draw(st.integers(1, p - 1)) if i == j else data.draw(entry) if j > i else 0
              for j in range(n)] for i in range(n)]
    a = [list(row) for row in oracle.mat_mul(lower, upper, p)]
    base = oracle.mat_inv(a, p) if e < 0 else oracle.mat(a)
    expected = oracle.identity_matrix(n)
    for _ in range(abs(e)):
        expected = _triple_loop(expected, base, p)
    power = oracle.mat_pow(a, e, p)
    assert power == expected
    assert type(power) is tuple and all(type(row) is tuple for row in power)


def test_form_matrices():
    g = GroupSpec(Family.SP, 1, 7)
    assert oracle.form_matrix(g) == ((0, 1), (6, 0))
    g = GroupSpec(Family.SO_ODD, 1, 5)
    assert oracle.form_matrix(g) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def is_isometry(m, form, p, special=False):
    """Does m preserve the form (with det 1 when special is set)?  The dense
    reference for the oracle's membership test: X^T J X by two products."""
    gram = oracle.mat_mul(oracle.mat_mul(oracle.transpose(m), form, p), m, p)
    if gram != tuple(tuple(x % p for x in row) for row in form):
        return False
    return not special or oracle.det(m, p) == 1


def test_is_isometry():
    g = GroupSpec(Family.SP, 1, 7)
    J = oracle.form_matrix(g)
    assert is_isometry(oracle.identity_matrix(2), J, 7)
    assert is_isometry(((3, 0), (0, 5)), J, 7)  # diag(a, a^-1)
    assert not is_isometry(((3, 0), (0, 1)), J, 7)
    with pytest.raises(InputError):
        is_isometry(oracle.identity_matrix(3), J, 7)


# every group the oracle's representatives are built for in tests and verify:
# ranks 1-3 at small q, with the longest chains at rank 4 over F3, and no
# bound on the field, SO5(F101) type (5) and Sp4(F401) type (4) among them
_REP_GROUPS = [GroupSpec(Family.SP, n, q) for q in (3, 5, 7) for n in (1, 2)] + [
    g for q in (3, 5) for g in (
        GroupSpec(Family.SO_ODD, 1, q), GroupSpec(Family.SO_ODD, 2, q),
        GroupSpec(Family.SO_EVEN, 1, q, 1), GroupSpec(Family.SO_EVEN, 2, q, 1),
        GroupSpec(Family.SP, 3, q), GroupSpec(Family.SO_ODD, 3, q),
        GroupSpec(Family.SO_EVEN, 3, q, 1))
] + [GroupSpec(Family.SP, 4, 3), GroupSpec(Family.SO_ODD, 4, 3), GroupSpec(Family.SO_EVEN, 4, 3, 1)] + [
    g for q in (101, 401, 1009) for n in (1, 2) for g in (
        GroupSpec(Family.SP, n, q), GroupSpec(Family.SO_ODD, n, q), GroupSpec(Family.SO_EVEN, n, q, 1))
]

# every representative of that grid, pinned by a digest taken when each call
# still inverted 1 - e and checked its answer
_REP_DIGEST = "c1ecd54d16043300e60130fe556a5daa0e7bab13dd89e91af7480953f5b51880"


def _jordan_type(u, p):
    # the Jordan type of the unipotent u: with r_i the rank of (u - 1)^i,
    # i.e. n less its kernel dimension, r_(s-1) - r_s blocks have size >= s;
    # the ranks stop falling above 0 only when u is not unipotent
    n = len(u)
    m = tuple(tuple((x - (i == j)) % p for j, x in enumerate(row)) for i, row in enumerate(u))
    ranks = [n]
    power = oracle.identity_matrix(n)
    while ranks[-1] > 0:
        power = oracle.mat_mul(power, m, p)
        ranks.append(n - len(oracle.nullspace(power, p)))
        if ranks[-1] == ranks[-2]:
            raise InputError("u is not unipotent")
    drops = [r - s for r, s in zip(ranks, ranks[1:])]  # blocks of size >= 1, 2, ...
    return Partition([sum(d >= j for d in drops) for j in range(1, n + 1)])


def test_unipotent_reps_full_grid():
    # the per-call checks `unipotent_rep` leaves to its docstring's proof:
    # each representative is in the group and has the Jordan type asked for
    lines = []
    for g in _REP_GROUPS:
        J = oracle.form_matrix(g)
        special = g.family is not Family.SP
        for ep in eps_partitions(g.dim, g.form_eps):
            u = oracle.unipotent_rep(g, ep)
            assert is_isometry(u, J, g.p, special=special), (g, ep)
            assert _jordan_type(u, g.p) == ep.partition, (g, ep)
            lines.append([g.family.value, g.n, g.q, list(ep.partition), _rows(u)])
    assert _digest(lines) == _REP_DIGEST


def test_jordan_type_rejects_a_matrix_that_is_not_unipotent():
    # the ranks of (u - 1)^i stop falling above 0: 1, 1 for diag(2, 1) mod 5
    # and 2, 2 for the torus element diag(3, 1, 5) of SO3(F7)
    for u, p in [(((2, 0), (0, 1)), 5), (((3, 0, 0), (0, 1, 0), (0, 0, 5)), 7)]:
        with pytest.raises(InputError, match="u is not unipotent"):
            _jordan_type(u, p)


def test_unipotent_rep_rejects():
    with pytest.raises(InputError):
        oracle.unipotent_rep(GroupSpec(Family.SP, 1, 9), EpsPartition(Partition([2]), 1))
    with pytest.raises(InputError):
        oracle.unipotent_rep(
            GroupSpec(Family.SP, 1, 7), EpsPartition(Partition([1, 1, 1]), 0)
        )
    # every oracle entry rejects the groups it does not model, instead of
    # answering for Sp2(F_3) or for the split form
    square = GroupSpec(Family.SP, 1, 9)
    twisted = GroupSpec(Family.SO_EVEN, 2, 3, -1)
    u = oracle.unipotent_rep(GroupSpec(Family.SO_EVEN, 2, 3, 1), EpsPartition(Partition([3, 1]), 0))
    for call in (oracle.form_matrix, oracle.group_generators, oracle.class_census):
        with pytest.raises(InputError, match="prime fields"):
            call(square)
        with pytest.raises(InputError, match="split"):
            call(twisted)
    with pytest.raises(InputError, match="split"):
        oracle.power_conjugacy_search(twisted, u, 2)


def test_power_search_input_rejections():
    g = GroupSpec(Family.SP, 1, 7)
    u = oracle.unipotent_rep(g, EpsPartition(Partition([2]), 1))
    with pytest.raises(InputError, match="coprime to p"):
        oracle.power_conjugacy_search(g, u, 14)
    with pytest.raises(InputError, match="dimension mismatch"):
        oracle.power_conjugacy_search(g, oracle.identity_matrix(4), 2)
    for bad in (((1, 1), (0, 2)), ((1, 1), (0,)), ((1, 1), (0, 1, 0))):
        # det 2, a short row, a long row
        with pytest.raises(InputError, match="not an element"):
            oracle.power_conjugacy_search(g, bad, 2)


def test_power_search_reads_entries_by_index():
    # a float or a string in u raises InputError naming it, instead of being
    # read as the transvection [[1, 1], [0, 1]]; numpy's integers are read
    g = GroupSpec(Family.SP, 1, 7)
    for entry in (1.9, "1"):
        with pytest.raises(InputError, match=re.escape(repr(entry))):
            oracle.power_conjugacy_search(g, [[entry, 1], [0, 1]], 3)
    u = ((1, 1), (0, 1))
    assert oracle.power_conjugacy_search(g, np.array(u), 3) == oracle.power_conjugacy_search(g, u, 3)


def test_power_search_identity_witness():
    g = GroupSpec(Family.SP, 1, 7)
    u = oracle.unipotent_rep(g, EpsPartition(Partition([2]), 1))
    assert oracle.power_conjugacy_search(g, u, 1) == oracle.identity_matrix(2)


def test_power_search_regular_sp2():
    g = GroupSpec(Family.SP, 1, 7)
    u = oracle.unipotent_rep(g, EpsPartition(Partition([2]), 1))
    w = oracle.power_conjugacy_search(g, u, 2)
    assert w is not None
    uk = oracle.mat_pow(u, 2, 7)
    assert oracle.mat_mul(w, u, 7) == oracle.mat_mul(uk, w, 7)
    assert is_isometry(w, oracle.form_matrix(g), 7)
    assert oracle.power_conjugacy_search(g, u, 3) is None


def test_power_search_on_torus_elements():
    # In SL2 = Sp2, diag(a, 1/a) is conjugate to diag(a^k, 1/a^k) exactly when
    # a^k is a or 1/a.  Where a^k = 1 != a, or a = -1 and k is even, only
    # X = 0 intertwines u and u^k: the lex scan then decides at p^0 + 1 = 2,
    # unless the walk of a central u closes first.
    for q, empty in ((5, 12), (7, 30), (11, 122), (13, 164)):
        g = GroupSpec(Family.SP, 1, q)
        seen = 0
        for a in range(1, q):
            u = ((a, 0), (0, pow(a, -1, q)))
            for k in range(1, 2 * q):
                if k % q == 0:
                    continue
                stats = {}
                w = oracle.power_conjugacy_search(g, u, k, stats=stats)
                assert (w is not None) == (pow(a, k, q) in (a, pow(a, -1, q))), (q, a, k)
                if w is not None:
                    _check_witness(g, u, k, w)
                if stats["intertwiner_dim"] == 0:
                    seen += 1
                    assert w is None
                    assert (stats["decided_by"], stats["rounds"]) in (("lex", 2), ("orbit", 1))
        assert seen == empty, q


def _beyond_grid_cases():
    # (g, u, o): the torus generators of SO3(F7) and SO4+(F5), of order
    # p - 1, and the regular unipotent of Sp2(F7), of order 7
    so3, so4, sp2 = (GroupSpec(Family.SO_ODD, 1, 7), GroupSpec(Family.SO_EVEN, 2, 5, 1),
                     GroupSpec(Family.SP, 1, 7))
    return [(so3, oracle.group_generators(so3)[-1], 6),
            (so4, oracle.group_generators(so4)[-1], 4),
            (sp2, oracle.unipotent_rep(sp2, EpsPartition(Partition([2]), 1)), 7)]


def test_power_search_beyond_the_grid():
    # k outside 1..q-1 gives what k mod o gives: the same witness and the
    # same decision, and the identity whenever k = 1 mod o; a k that p
    # divides is refused whatever its residue mod o.  lex_checked and
    # walk_size depend on how far earlier calls grew the kept walk, so they
    # are not compared.
    decision = ("decided_by", "rounds", "intertwiner_dim")
    for g, u, o in _beyond_grid_cases():
        one = oracle.identity_matrix(g.dim)
        assert [oracle.mat_pow(u, e, g.p) == one for e in range(1, o + 1)] == [False] * (o - 1) + [True]
        for k in (-1, o + 1, 2 * o - 1, 1 - o):
            if k % g.p == 0:
                with pytest.raises(InputError, match="coprime to p"):
                    oracle.power_conjugacy_search(g, u, k)
                continue
            stats, reduced = {}, {}
            w = oracle.power_conjugacy_search(g, u, k, stats=stats)
            assert w == oracle.power_conjugacy_search(g, u, k % o, stats=reduced), (g, o, k)
            assert [stats[key] for key in decision] == [reduced[key] for key in decision], (g, o, k)
            if k % o == 1:
                assert w == one and stats["decided_by"] == "identity", (g, o, k)
            elif w is not None:
                _check_witness(g, u, k, w)
    # the identity element has order 1: every k coprime to p gives u^k = u
    g = GroupSpec(Family.SO_ODD, 1, 7)
    for k in (-1, 2, 8, 13):
        stats = {}
        assert oracle.power_conjugacy_search(g, oracle.identity_matrix(3), k, stats=stats) == (
            oracle.identity_matrix(3))
        assert stats["decided_by"] == "identity", k


def test_power_computed_once_per_kept_walk_and_k(monkeypatch):
    # mat_pow runs the first time a kept walk is asked for u^k, the identity
    # case k = 1 and a k with u^k = u among them; a repeated k reads the walk,
    # and the answers are those of the first calls
    g, u, o = _beyond_grid_cases()[2]
    calls = []

    def counted(a, e, p):
        calls.append(e)
        return real(a, e, p)

    real = oracle.mat_pow
    oracle._orbit_walk.cache_clear()
    ks = (1, 2, 3, o + 1, -1)
    first = [oracle.power_conjugacy_search(g, u, k) for k in ks]
    monkeypatch.setattr(oracle, "mat_pow", counted)
    oracle._orbit_walk.cache_clear()
    assert [oracle.power_conjugacy_search(g, u, k) for k in ks] == first
    assert [oracle.power_conjugacy_search(g, u, k) for k in ks] == first
    assert calls == list(ks)
    oracle._orbit_walk.cache_clear()


def test_power_search_agrees_with_closed_form_q3():
    # small slice of the acceptance grid
    for n in (1, 2):
        g = GroupSpec(Family.SP, n, 3)
        for ep in eps_partitions(2 * n, 1):
            u = oracle.unipotent_rep(g, ep)
            for k in (1, 2):
                assert (
                    oracle.power_conjugacy_search(g, u, k) is not None
                ) == unipotent_rational(g, ep, k)


def test_power_search_so_always():
    for g in (GroupSpec(Family.SO_ODD, 2, 3), GroupSpec(Family.SO_EVEN, 2, 3, 1)):
        for ep in eps_partitions(g.dim, 0):
            u = oracle.unipotent_rep(g, ep)
            for k in (1, 2):
                w = oracle.power_conjugacy_search(g, u, k)
                assert w is not None
                assert oracle.det(w, 3) == 1


def test_budget_error():
    g = GroupSpec(Family.SP, 2, 7)
    u = oracle.unipotent_rep(g, EpsPartition(Partition([2, 1, 1]), 1))
    with pytest.raises(BudgetExceededError):
        oracle.power_conjugacy_search(g, u, 3, budget=10)
    # the budget counts rounds of the race: the full lex scan of this cell has
    # 5^10 candidates, but the orbit walk closes first
    g = GroupSpec(Family.SP, 2, 5)
    u = oracle.unipotent_rep(g, EpsPartition(Partition([2, 1, 1]), 1))
    assert oracle.power_conjugacy_search(g, u, 2) is None
    with pytest.raises(BudgetExceededError):
        oracle.power_conjugacy_search(g, u, 2, budget=10)
    # the class census stops at its element cap: SL2(F_41) has 68,880
    with pytest.raises(BudgetExceededError):
        oracle.class_census(GroupSpec(Family.SP, 1, 41))


def test_budget_must_be_an_integer():
    # a budget that is no integer is an input error before any search, on a
    # cell that takes the identity shortcut too; one of 0 or below is a
    # budget error, as on any cell it cannot decide
    g = GroupSpec(Family.SP, 2, 5)
    u = oracle.unipotent_rep(g, EpsPartition(Partition([2, 1, 1]), 1))
    for budget in ("10", 1.5, 10.0, None):
        for k in (1, 2):
            with pytest.raises(InputError, match="budget must be an integer"):
                oracle.power_conjugacy_search(g, u, k, budget=budget)
    for budget in (0, -5):
        with pytest.raises(BudgetExceededError):
            oracle.power_conjugacy_search(g, u, 2, budget=budget)


def test_prime_bound():
    # a lane holds a sum of two residues in 8 bytes, so p must be below
    # 2^62; 2^62 + 135 is prime
    g = GroupSpec(Family.SP, 1, 2**62 + 135)
    with pytest.raises(InputError):
        oracle.unipotent_rep(g, EpsPartition(Partition([2]), 1))
    with pytest.raises(InputError):
        oracle.power_conjugacy_search(g, oracle.identity_matrix(2), 3)
    with pytest.raises(InputError):
        oracle.class_census(g)


def _check_witness(g, u, k, w):
    p = g.p
    assert oracle.mat_mul(w, u, p) == oracle.mat_mul(oracle.mat_pow(u, k, p), w, p)
    assert is_isometry(w, oracle.form_matrix(g), p)
    if g.family is not Family.SP:
        assert oracle.det(w, p) == 1


def _non_identity_cells(g):
    for ep in eps_partitions(g.dim, g.form_eps):
        u = oracle.unipotent_rep(g, ep)
        for k in range(2, g.q):
            uk = oracle.mat_pow(u, k, g.p)
            if uk != u:
                yield ep, u, k, uk


def _intertwiner_basis(u, uk, p):
    """The oracle's intertwiner basis of X u = uk X, from the offsets of u
    and uk as the search builds it."""
    return oracle._intertwiners(oracle._offsets(u, p), oracle._offsets(uk, p), len(u), p)


def _lex_alone(g, u, uk):
    """The lex scan driven to its own decision: (step, witness)."""
    basis = _intertwiner_basis(u, uk, g.p)
    lex = oracle._LexScan(oracle._ScanPlan(oracle._form(g), basis))
    lex.scan(g.p ** len(basis) + 1)
    return lex.step, lex.witness


def _orbit_alone(g, u, uk):
    """The orbit walk driven to its own decision: (step, witness)."""
    lanes = oracle._lanes(g.dim, g.p)
    walk, target = oracle._Walk(lanes.key(u), oracle._conjugators(g), lanes), lanes.key(uk)
    walk.grow(10**9, target)
    if target not in walk.seen:
        assert walk.closed and walk.step(target) == len(walk.queue)
        return walk.step(target), None
    w = oracle.identity_matrix(g.dim)
    for gi in walk.path(target):
        w = oracle.mat_mul(w, walk.conjugators[gi].h, g.p)
    return walk.step(target), w


def test_each_search_alone():
    # The race exposes only the search with the smaller deciding step, so
    # each search is driven to its own decision here.
    cells = 0
    for g in (GroupSpec(Family.SP, 2, 3), GroupSpec(Family.SO_ODD, 2, 3),
              GroupSpec(Family.SO_EVEN, 2, 3, 1)):
        for ep, u, k, uk in _non_identity_cells(g):
            rational = unipotent_rational(g, ep, k)
            for search in (_lex_alone, _orbit_alone):
                _, w = search(g, u, uk)
                assert (w is not None) == rational, (g, ep, k)
                if w is not None:
                    _check_witness(g, u, k, w)
            cells += 1
    assert cells == 8
    # the regular class of Sp4 over F_5 and F_7: the lex scan decides within
    # p^4 candidates; the orbits are far too long to walk out here
    for q in (5, 7):
        g = GroupSpec(Family.SP, 2, q)
        ep = EpsPartition(Partition([4]), 1)
        u = oracle.unipotent_rep(g, ep)
        for k in range(2, q):
            _, w = _lex_alone(g, u, oracle.mat_pow(u, k, q))
            assert (w is not None) == unipotent_rational(g, ep, k), (q, k)
            if w is not None:
                _check_witness(g, u, k, w)


def test_lex_scan_on_a_one_vector_intertwiner_space():
    # SO3(F7) on the basis (1, 0, -1): u = diag(3, 1, 5) is a torus element,
    # and u^k = diag(3^k, 1, 5^k) shares only the middle eigenvalue with u at
    # k = 2, 3, 4 (3^k is 2, 6, 4, none of them 3 or 5), so the intertwiners
    # are the multiples of the middle unit matrix.  The scan's single row has
    # one plane row of the p candidates tB, none an isometry: it decides at
    # step p + 1 = 8 with no witness, and so does the race.
    g = GroupSpec(Family.SO_ODD, 1, 7)
    u = ((3, 0, 0), (0, 1, 0), (0, 0, 5))
    for k in (2, 3, 4):
        uk = oracle.mat_pow(u, k, g.p)
        assert _intertwiner_basis(u, uk, g.p) == [
            (0, 0, 0, 0, 1, 0, 0, 0, 0)]
        assert _lex_alone(g, u, uk) == (8, None), k
        # the walk closes u's class, |SO3(F7)| / |torus| = 336 / 6 = 56
        assert _orbit_alone(g, u, uk) == (56, None), k
        stats = {}
        assert oracle.power_conjugacy_search(g, u, k, stats=stats) is None
        assert (stats["decided_by"], stats["rounds"], stats["intertwiner_dim"]) == ("lex", 8, 1)


def _dense_intertwiner_basis(u, uk, p):
    # the equations of X u = uk X as dense rows, one per entry (i, j), and
    # the basis read off their reduction by this file's _dense_rref, which
    # shares no code with the oracle
    N = len(u)
    eqs = []
    for i in range(N):
        for j in range(N):
            row = [0] * (N * N)
            for t in range(N):
                row[i * N + t] += u[t][j]
                row[t * N + j] -= uk[i][t]
            eqs.append(row)
    rows, pivots, _ = _dense_rref(eqs, p)
    return _kernel_from_rref(rows, pivots, N * N, p)


def test_sparse_intertwiner_basis_is_the_dense_one():
    # every (g, u, k) of verify's powmap grid, the identity cells among them,
    # and the torus element of SO3(F7) at every k: the one-vector space at
    # k = 2, 3, 4, and at k = 1 and 5 equations in which the diagonal terms
    # of u - 1 and u^k - 1 meet and cancel (u^5 = diag(5, 1, 3))
    cases = [(u, oracle.mat_pow(u, k, g.p), g.p)
             for g in _POWMAP_GROUPS for ep in eps_partitions(g.dim, g.form_eps)
             for u in [oracle.unipotent_rep(g, ep)] for k in range(1, g.q)]
    assert len(cases) == 132
    u = ((3, 0, 0), (0, 1, 0), (0, 0, 5))
    cases += [(u, oracle.mat_pow(u, k, 7), 7) for k in range(1, 7)]
    for u, uk, p in cases:
        assert _intertwiner_basis(u, uk, p) == _dense_intertwiner_basis(u, uk, p), (u, uk)


def _lockstep_walk(x0, conjugators, lanes, tree):
    # the walk the race used to step: whole breadth-first levels, each new
    # conjugate recorded as y -> (parent, conjugator index) and yielded once
    tree[x0] = (None, -1)
    level = [x0]
    while level:
        batch = oracle._Batch(lanes, len(level))
        packed = batch.pack(level)
        images = [batch.keys(batch.right(batch.left(packed, c.d), c.d_inv))
                  for c in conjugators]
        grown = []
        for x, ys in zip(level, zip(*images)):
            for gi, y in enumerate(ys):
                if y not in tree:
                    tree[y] = (x, gi)
                    yield y
                    grown.append(y)
        level = grown


def _lockstep_lex(g, basis):
    # one candidate per step, in lex order, each through the full Gram test
    N, p = g.dim, g.p
    preserves = oracle._form(g).preserves
    for _, flat in oracle._span(basis, oracle._lanes(N, p)):
        if preserves(flat):
            X = tuple(flat[i * N:(i + 1) * N] for i in range(N))
            if g.family is Family.SP or oracle.det(X, p) == 1:
                return X
        yield
    return None


def _lockstep_orbit(g, u, uk):
    # one new conjugate per step; the witness is the product of the
    # conjugators along the tree's path back to u
    p = g.p
    conjugators = oracle._conjugators(g)
    lanes = oracle._lanes(len(u), p)
    target = lanes.key(uk)
    tree = {}
    for y in _lockstep_walk(lanes.key(u), conjugators, lanes, tree):
        if y == target:
            w = oracle.identity_matrix(len(u))
            while tree[y][1] != -1:
                y, gi = tree[y]
                w = oracle.mat_mul(w, conjugators[gi].h, p)
            return w
        yield
    return None


def _lockstep_search(g, u, k, budget):
    """The race as it was first run, the reference for the deciding-step
    race: one step of the lex scan, then one of the orbit walk, per round,
    and the first to decide answers.  Returns (witness, stats) for a
    non-identity cell."""
    p = g.p
    uk = oracle.mat_pow(u, k, p)
    basis = _intertwiner_basis(u, uk, p)
    searches = (("lex", _lockstep_lex(g, basis)),
                ("orbit", _lockstep_orbit(g, u, uk)))
    for rounds in range(1, budget + 1):
        for name, search in searches:
            try:
                next(search)
            except StopIteration as done:
                return done.value, {"decided_by": name, "rounds": rounds,
                                    "intertwiner_dim": len(basis)}
    raise BudgetExceededError(f"neither search decided within {budget} rounds")


def test_race_matches_lockstep_reference():
    # every non-identity cell of verify's powmap grid: the same witness and
    # stats as the lockstep race (the stats it knows: the search that
    # decided, the step and the intertwiner dimension), and the budget binds
    # at the deciding step
    cells = 0
    for g in _POWMAP_GROUPS:
        for ep, u, k, _ in _non_identity_cells(g):
            stats = {}
            w = oracle.power_conjugacy_search(g, u, k, stats=stats)
            rounds = stats["rounds"]
            reference = _lockstep_search(g, u, k, rounds)
            assert (w, {key: stats[key] for key in reference[1]}) == reference, (g, ep, k)
            assert oracle.power_conjugacy_search(g, u, k, budget=rounds) == w
            with pytest.raises(BudgetExceededError):
                oracle.power_conjugacy_search(g, u, k, budget=rounds - 1)
            with pytest.raises(BudgetExceededError):
                _lockstep_search(g, u, k, rounds - 1)
            cells += 1
    assert cells == 60


def _walked(u, pairs, p):
    lanes = oracle._lanes(len(u), p)
    walk = oracle._Walk(lanes.key(u), pairs, lanes)
    walk.grow(10**9)
    assert walk.closed and len(walk.seen) == len(walk.queue)
    return set(walk.queue)


def test_orbit_walk_covers_whole_classes():
    # one pair per generator reaches every conjugate that the generators and
    # their inverses together reach
    for g in (GroupSpec(Family.SP, 2, 3), GroupSpec(Family.SO_EVEN, 2, 3, 1)):
        gens = oracle.group_generators(g)
        invs = [oracle.mat_inv(h, g.p) for h in gens]
        both = [oracle._conjugator(h, g.p) for h in gens + invs]
        for ep in eps_partitions(g.dim, g.form_eps):
            u = oracle.unipotent_rep(g, ep)
            orbit = _walked(u, oracle._conjugators(g), g.p)
            assert orbit == _walked(u, both, g.p), (g, ep)
            if g.family is Family.SP and ep.partition == Partition([4]):
                assert len(orbit) == 51840 // 18


# the groups of verify's powmap suite
_POWMAP_GROUPS = [GroupSpec(Family.SP, n, q) for q in (3, 5, 7) for n in (1, 2)] + [
    g for q in (3, 5) for g in (
        GroupSpec(Family.SO_ODD, 1, q), GroupSpec(Family.SO_ODD, 2, q),
        GroupSpec(Family.SO_EVEN, 1, q, 1), GroupSpec(Family.SO_EVEN, 2, q, 1))
]


def _matrices(g):
    N, p = g.dim, g.p
    return st.lists(st.lists(st.integers(0, p - 1), min_size=N, max_size=N),
                    min_size=N, max_size=N).map(oracle.mat)


@given(st.sampled_from(_POWMAP_GROUPS).flatmap(
    lambda g: st.tuples(st.just(g), st.lists(_matrices(g), min_size=1, max_size=5))))
@settings(max_examples=150, deadline=None)
def test_sparse_action_is_the_product(gxs):
    # the packed kernel acts on a whole batch at once: its row and column
    # updates give h x h^-1 for the walk, and its column update x h for the
    # census, matrix by matrix as the dense products do
    g, xs = gxs
    p = g.p
    lanes = oracle._lanes(g.dim, p)
    batch = oracle._Batch(lanes, len(xs))
    packed = batch.pack([lanes.key(x) for x in xs])
    for c in oracle._conjugators(g):
        h_inv = oracle.mat_inv(c.h, p)
        conjugates = batch.keys(batch.right(batch.left(packed, c.d), c.d_inv))
        assert [lanes.matrix(y) for y in conjugates] == [
            oracle.mat_mul(oracle.mat_mul(c.h, x, p), h_inv, p) for x in xs]
        products = batch.keys(batch.right(packed, c.d))
        assert [lanes.matrix(y) for y in products] == [oracle.mat_mul(x, c.h, p) for x in xs]


# lanes of one byte up to p = 61, wider from p = 67; the last two primes
# take the widest lane, 8 bytes, the last being the largest prime below the
# oracle's bound 2^62
_LANE_PRIMES = [3, 61, 67, 101, 257, 2**61 - 1, 2**62 - 57]


@given(st.sampled_from(_LANE_PRIMES), st.integers(1, 5), st.integers(1, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_lanes_round_trip_and_reduce(p, n, k, data):
    lanes = oracle._lanes(n, p)
    # the least power-of-two number of bytes whose top bit lies above 2p
    assert lanes.bits % 8 == 0 and (lanes.bits // 8) & (lanes.bits // 8 - 1) == 0
    assert 1 << lanes.bits - 1 > 2 * p and (lanes.bits == 8 or 1 << lanes.bits // 2 - 1 <= 2 * p)
    entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
    a, b = (oracle.mat(x[i:i + n] for i in range(0, n * n, n))
            for x in data.draw(st.tuples(entries, entries)))
    for m in (a, b):
        assert lanes.matrix(lanes.key(m)) == m
        assert lanes.unpack(lanes.key(m)) == tuple(x for row in m for x in row)
    assert (lanes.key(a) < lanes.key(b)) == (a < b)
    # one reduction takes every lane of a batch below 2p to its residue
    sums = data.draw(st.lists(st.integers(0, 2 * p - 1), min_size=k * n * n, max_size=k * n * n))
    batch = oracle._Batch(lanes, k)
    packed = batch.pack([lanes.pack(sums[t:t + n * n]) for t in range(0, k * n * n, n * n)])
    reduced = [x for key in batch.keys(batch.reduce(packed)) for x in lanes.unpack(key)]
    assert reduced == [x % p for x in sums]


@given(st.sampled_from(_LANE_PRIMES), st.integers(1, 4), st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_applies_any_scalar(p, n, k, data):
    # the generators of the powmap groups differ from the identity by +-1,
    # +-1/2 or a torus entry, so they leave most scalars c of the
    # double-and-add untried: h = 1 + d here has random entries
    entry = st.integers(0, p - 1)
    positions = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  min_size=1, max_size=3))
    d = tuple((i, j, data.draw(st.integers(1, p - 1))) for i, j in sorted(positions))
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in d:
        h[i][j] = (h[i][j] + c) % p
    h = oracle.mat(h)
    xs = [oracle.mat(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                        min_size=n, max_size=n))) for _ in range(k)]
    lanes = oracle._lanes(n, p)
    batch = oracle._Batch(lanes, k)
    packed = batch.pack([lanes.key(x) for x in xs])
    assert [lanes.matrix(y) for y in batch.keys(batch.left(packed, d))] == [
        oracle.mat_mul(h, x, p) for x in xs]
    assert [lanes.matrix(y) for y in batch.keys(batch.right(packed, d))] == [
        oracle.mat_mul(x, h, p) for x in xs]


def _span_reference(basis, p):
    """The tuple odometer that _span packs: each step adds the suffix sum of
    the basis from the position it carries from, entry by entry."""
    suffix = []
    acc = (0,) * len(basis[0])
    for vec in reversed(basis):
        acc = tuple([(x + y) % p for x, y in zip(acc, vec)])
        suffix.append(acc)
    suffix.reverse()
    digits = [0] * len(basis)
    v = (0,) * len(basis[0])
    while True:
        yield v
        i = len(basis) - 1
        while digits[i] == p - 1:
            digits[i] = 0
            i -= 1
            if i < 0:
                return
        digits[i] += 1
        v = tuple([(x + y) % p for x, y in zip(v, suffix[i])])


@given(st.sampled_from([3, 5, 7, 67]), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_span_is_the_tuple_odometer(p, n, data):
    dim = data.draw(st.integers(1, 2 if p == 67 else 4))
    vec = st.tuples(*[st.integers(0, p - 1)] * (n * n))
    basis = data.draw(st.lists(vec, min_size=dim, max_size=dim))
    lanes = oracle._lanes(n, p)
    pairs = list(oracle._span(basis, lanes))
    assert [y for _, y in pairs] == list(_span_reference(basis, p))
    assert all(packed == int.from_bytes(lanes.pack(y), "big") for packed, y in pairs)


def _candidates(g):
    # a group element, scaled and with one entry perhaps changed: the scale
    # -1 keeps the form but, in odd dimension, not the determinant
    gens = oracle.group_generators(g)
    N, p = g.dim, g.p
    return st.tuples(st.lists(st.sampled_from(gens), max_size=6), st.integers(1, p - 1),
                     st.none() | st.tuples(st.integers(0, N * N - 1), st.integers(0, p - 1)))


def _agrees_with_is_isometry(g, x):
    p = g.p
    J = oracle.form_matrix(g)
    preserves = oracle._form(g).preserves
    flat = tuple(v for row in x for v in row)
    for special in (False, True):
        fast = preserves(flat) and (not special or oracle.det(x, p) == 1)
        assert fast == is_isometry(x, J, p, special), (g, x, special)
    # the membership test itself, with det 1 where g demands it
    assert oracle._is_element(g, x) == is_isometry(x, J, p, g.family is not Family.SP), (g, x)


@given(st.sampled_from(_POWMAP_GROUPS).flatmap(lambda g: st.tuples(st.just(g), _candidates(g))))
@settings(max_examples=300, deadline=None)
def test_gram_test_agrees_with_is_isometry(case):
    g, (word, scale, change) = case
    p, N = g.p, g.dim
    x = oracle.identity_matrix(N)
    for h in word:
        x = oracle.mat_mul(x, h, p)
    flat = [v * scale % p for row in x for v in row]
    if change is not None:
        flat[change[0]] = change[1]
    _agrees_with_is_isometry(g, oracle.mat([flat[i * N:(i + 1) * N] for i in range(N)]))


def _plane_case(g):
    # two basis vectors C and B and up to eight prefixes Y over the group's
    # field, so that in the small fields some share a plane key; with
    # `degenerate` set, B is zero wherever the first Gram entry reads it
    # (columns 0 and s(0)), so that entry is constant along every row
    N, p = g.dim, g.p
    vec = st.lists(st.integers(0, p - 1), min_size=N * N, max_size=N * N)
    return st.tuples(st.just(g), st.lists(vec, min_size=1, max_size=8), vec, vec,
                     st.booleans())


@given(st.sampled_from(_POWMAP_GROUPS).flatmap(_plane_case), st.data())
@settings(max_examples=150, deadline=None)
def test_plane_roots_keep_every_accepted_row_entry(case, data):
    # the planes of several Y on one hit table, each filled in random
    # increments, some reading an entry another Y filled: every entry holds
    # exactly the offsets at which entry (0, s(0)) of X^T J X, computed from
    # the whole candidate X, equals J's, row by row and only as far as filled
    g, ys, c, b, degenerate = case
    N, p = g.dim, g.p
    J = oracle.form_matrix(g)
    col = next(j for j in range(N) if J[0][j])
    if degenerate:
        b = [0 if t % N in (0, col) else x for t, x in enumerate(b)]
    preserves = oracle._form(g).preserves
    table = oracle._HitTable(oracle._form(g), c, b, p)

    def candidates(y, s):
        return [[(a + s * ci + t * bi) % p for a, ci, bi in zip(y, c, b)] for t in range(p)]

    def matching(y, s):
        out = []
        for t, flat in enumerate(candidates(y, s)):
            X = oracle.mat([flat[i * N:(i + 1) * N] for i in range(N)])
            gram = oracle.mat_mul(oracle.mat_mul(oracle.transpose(X), J, p), X, p)
            if gram[0][col] == J[0][col]:
                out.append(t)
        return out

    for y in ys:
        hits = table(y)
        for rows in data.draw(st.lists(st.integers(0, p + 1), max_size=4)) + [p] * p:
            before, known = hits.rows, len(hits.offsets)
            table.fill(hits, rows)
            # filled up to `rows`, or to the first row past the old ones with a hit
            assert before <= hits.rows <= max(before, min(rows, p))
            new = hits.offsets[known:]
            assert all(o // p == hits.rows - 1 for o in new)
            assert new or hits.rows == max(before, min(rows, p))
            assert hits.offsets == [
                s * p + t for s in range(hits.rows) for t in matching(y, s)], (g, y)
        assert hits.rows == p
        for s in range(p):
            roots = [o - s * p for o in hits.offsets if o // p == s]
            # every t the full Gram test accepts is among the hits
            assert {t for t, flat in enumerate(candidates(y, s)) if preserves(flat)} <= set(roots)
            if degenerate:
                assert roots in ([], list(range(p)))


def _row_scan(form, basis):
    """The lex scan one row at a time, the reference for the scan by plane:
    the planes over `_span` of the other basis vectors, every candidate
    rebuilt entry by entry and put to the membership test, with no plane
    filter.  Yields the steps checked after each row without a witness;
    returns the deciding step and the witness."""
    p, N = form.p, len(form.J)
    if not basis:
        return 2, None
    if len(basis) > 1:
        *outer, C, B = basis
        width = p
    else:
        outer, C, B, width = [], (0,) * N * N, basis[0], 1
    checked = 0
    for _, y in oracle._span(outer, oracle._lanes(N, p)):
        for s in range(width):
            for t in range(p):
                flat = [(a + s * c + t * b) % p for a, c, b in zip(y, C, B)]
                if form.contains(flat):
                    return checked + t + 1, tuple(
                        tuple(flat[i * N:(i + 1) * N]) for i in range(N))
            checked += p
            yield checked
    return checked + 1, None


class _RowScan:
    """`_row_scan` run to a limit as the scan is: whole rows until `limit`
    steps are checked or the scan decides."""

    def __init__(self, form, basis):
        self.rows, self.checked, self.step, self.witness = _row_scan(form, basis), 0, None, None

    def scan(self, limit):
        while self.step is None and self.checked < limit:
            try:
                self.checked = next(self.rows)
            except StopIteration as done:
                self.step, self.witness = done.value
                self.checked = self.step - 1


def _scan_cases():
    # the intertwiner bases of the powmap grid's non-identity cells, which
    # hold witnesses at many depths, and random bases of 0 to 3 vectors,
    # which hold few, over the same groups
    cells = [(g, _intertwiner_basis(u, uk, g.p))
             for g in _POWMAP_GROUPS for _, u, _, uk in _non_identity_cells(g)]

    def random_basis(g):
        vec = st.tuples(*[st.integers(0, g.p - 1)] * (g.dim * g.dim))
        return st.tuples(st.just(g), st.lists(vec, max_size=3))

    return st.sampled_from(cells) | st.sampled_from(_POWMAP_GROUPS).flatmap(random_basis)


@given(_scan_cases(), st.lists(st.integers(0, 3000), max_size=8), st.data())
@settings(max_examples=150, deadline=None)
def test_scan_by_plane_is_the_row_scan(case, limits, data):
    # the scan by plane, with its plan's hit table filled by an earlier scan
    # or not, stops where the row-by-row scan stops: the same steps checked
    # after every limit, the same deciding step and the same witness
    g, basis = case
    form = oracle._form(g)
    plan = oracle._ScanPlan(form, list(basis))
    total = g.p ** len(basis)
    whole = total < 3000  # then the last limit runs the scan out
    limits = sorted(limits) + [total + 1] * whole
    if data.draw(st.booleans()):  # a warm plan: its table holds the planes met
        oracle._LexScan(plan).scan(data.draw(st.integers(0, min(total, 3000))))
    lex, reference = oracle._LexScan(plan), _RowScan(form, list(basis))
    for limit in limits:
        lex.scan(limit)
        reference.scan(limit)
        assert (lex.checked, lex.step, lex.witness) == (
            reference.checked, reference.step, reference.witness), (g, limit)
    assert lex.step is not None or not whole


def test_cold_scan_fills_only_the_rows_it_reaches():
    # at p = 1009 a plane holds 1009 rows: a cold scan evaluates the
    # quadratic of the rows up to where it stops, no further, and packs only
    # the multiples it reads; u^4 is conjugate to u in SL2 (4 is a square)
    # and the scan finds the witness in row 0, u^11 is not (11 is no square)
    g = GroupSpec(Family.SP, 1, 1009)
    u = ((1, 1), (0, 1))
    for k, limit, step, rows in ((4, 64, 505, 1), (11, 3 * 1009, None, 3)):
        basis = _intertwiner_basis(u, oracle.mat_pow(u, k, g.p), g.p)
        plan = oracle._ScanPlan(oracle._form(g), basis)
        lex = oracle._LexScan(plan)
        lex.scan(limit)
        assert lex.step == step and lex.checked == (step - 1 if step else limit)
        assert [hits.rows for hits in plan.hits.entries.values()] == [rows]
        assert len(plan.hits.known) <= rows and len(plan.sC) <= 1 and len(plan.tB) <= 2
        if step:  # the search, from its own kept walk, decides there too
            stats = {}
            oracle.power_conjugacy_search(g, u, k, stats=stats)
            assert (stats["decided_by"], stats["rounds"]) == ("lex", step)


def test_gram_test_on_every_witness():
    witnesses = 0
    for g in _POWMAP_GROUPS:
        for ep in eps_partitions(g.dim, g.form_eps):
            u = oracle.unipotent_rep(g, ep)
            for k in range(1, g.q):
                w = oracle.power_conjugacy_search(g, u, k)
                if w is not None:
                    _agrees_with_is_isometry(g, w)
                    witnesses += 1
    assert witnesses == 114


def test_search_stats():
    # the two costliest cells of the powmap suite, neither with a witness:
    # the orbit walk closes the (2,1,1) class first, while the lex scan
    # exhausts the 7^4 combinations of the (4) class first
    oracle._orbit_walk.cache_clear()
    g = GroupSpec(Family.SP, 2, 7)
    expected = {(2, 1, 1): ("orbit", 1200, 10), (4,): ("lex", 7**4 + 1, 4)}
    for parts, decided in expected.items():
        u = oracle.unipotent_rep(g, EpsPartition(Partition(list(parts)), 1))
        stats = {}
        assert oracle.power_conjugacy_search(g, u, 3, stats=stats) is None
        assert (stats["decided_by"], stats["rounds"], stats["intertwiner_dim"]) == decided
        # neither search decides before the smaller step: the scan has ruled
        # out every step below it (and the step itself when the walk won),
        # and the kept walk holds at least that many conjugates
        rounds = stats["rounds"]
        assert stats["lex_checked"] >= rounds - (decided[0] == "lex")
        assert stats["walk_size"] >= rounds
        assert stats["walk_size"] == len(oracle._orbit_walk(g, oracle._lanes(4, 7).key(u)).queue)
        stats = {}
        assert oracle.power_conjugacy_search(g, u, 1, stats=stats) == oracle.identity_matrix(4)
        assert stats == {"decided_by": "identity", "rounds": 0, "intertwiner_dim": None,
                         "lex_checked": 0, "walk_size": None}


def test_identity_shortcut_for_listed_u():
    # a u given as lists of lists with u^k = u takes the identity shortcut,
    # as the tuple u does
    g = GroupSpec(Family.SP, 2, 7)
    u = oracle.unipotent_rep(g, EpsPartition(Partition([2, 1, 1]), 1))
    for given_u in (u, [list(row) for row in u]):
        stats = {}
        assert oracle.power_conjugacy_search(g, given_u, 1, stats=stats) == oracle.identity_matrix(4)
        assert stats["decided_by"] == "identity" and stats["intertwiner_dim"] is None


def test_warm_walk_bounds_the_scan():
    # once the kept walk holds u^k or is closed, the scan runs to the walk's
    # deciding step and stops at the end of that row, not at a doubling
    # horizon past it: an orbit-decided cell checks fewer than rounds + p
    # steps of the scan
    for g in _POWMAP_GROUPS:
        for ep, u, k, _ in _non_identity_cells(g):
            oracle.power_conjugacy_search(g, u, k)
    orbit_cells = 0
    for g in _POWMAP_GROUPS:
        for ep, u, k, _ in _non_identity_cells(g):
            stats = {}
            oracle.power_conjugacy_search(g, u, k, stats=stats)
            if stats["decided_by"] == "orbit":
                assert stats["rounds"] <= stats["lex_checked"] < stats["rounds"] + g.p, (g, ep, k)
                orbit_cells += 1
    assert orbit_cells > 0


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(json.dumps(line).encode() + b"\n")
    return h.hexdigest()


def _rows(m):
    return [list(r) for r in m]


def _powmap_line(g, ep, u, k):
    stats = {}
    w = oracle.power_conjugacy_search(g, u, k, stats=stats)
    return [g.family.value, g.n, g.q, list(ep.partition), k,
            None if w is None else _rows(w),
            stats["decided_by"], stats["rounds"], stats["intertwiner_dim"]]


# every cell of verify's powmap grid: its witness, the search that decided,
# the deciding round and the intertwiner dimension, pinned by a digest taken
# before the packed kernel, so that no speedup of the searches can change a
# witness unnoticed
_POWMAP_DIGEST = "12a3d04ac3aec80e829ea859e82eb846691fe069e8e7b0677b7f053f6aac46bc"


def test_powmap_cells_byte_identical():
    def cells():
        for g in _POWMAP_GROUPS:
            for ep in eps_partitions(g.dim, g.form_eps):
                u = oracle.unipotent_rep(g, ep)
                for k in range(1, g.q):
                    yield _powmap_line(g, ep, u, k)

    lines = list(cells())
    assert len(lines) == 132
    assert _digest(lines) == _POWMAP_DIGEST


def test_powmap_cells_in_any_order():
    # the walk of each (group, u) is kept across k and calls; from cold
    # walks, the classes in a seeded shuffled order with k running down give
    # the same lines as the grid in order
    oracle._orbit_walk.cache_clear()
    classes = [(g, ep) for g in _POWMAP_GROUPS for ep in eps_partitions(g.dim, g.form_eps)]
    order = list(range(len(classes)))
    random.Random(0).shuffle(order)
    lines = {}
    for i in order:
        g, ep = classes[i]
        u = oracle.unipotent_rep(g, ep)
        for k in reversed(range(1, g.q)):
            lines[i, k] = _powmap_line(g, ep, u, k)
    assert len(lines) == 132
    assert _digest([lines[key] for key in sorted(lines)]) == _POWMAP_DIGEST


# the 132 per-cell lines of `charfield verify --suite powmap --stats` with
# `seconds` dropped: the answers as above, and the race's schedule too, as
# the scan steps checked and the kept walk's size after each cell
_POWMAP_STATS_DIGEST = "399b3355b00a03b387adfe6c22e7ed35911f37166cbc448cc58d1968c33739c4"


def test_powmap_stats_lines_byte_identical():
    # in a child process, so that the walks start cold as they do in the CLI
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "charfield", "verify", "--suite", "powmap",
                           "--stats"], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    cells = [line for line in map(json.loads, done.stdout.splitlines()) if "decided_by" in line]
    for cell in cells:
        del cell["seconds"]
    assert len(cells) == 132
    assert _digest(cells) == _POWMAP_STATS_DIGEST


# two passes over the grid in one process from cold walks: each cell's
# witness and its whole `stats`, the race's schedule included; the second
# pass reads the walks and the scan plans the first pass kept.  The digest
# was taken before the plans were kept
_TWO_PASS_DIGEST = "1f271d166ffea4e70a6900344773f5d8bebb2af1256a290026bf61393934fe24"


def test_two_passes_byte_identical():
    oracle._orbit_walk.cache_clear()
    lines = []
    for _ in range(2):
        for g in _POWMAP_GROUPS:
            for ep in eps_partitions(g.dim, g.form_eps):
                u = oracle.unipotent_rep(g, ep)
                for k in range(1, g.q):
                    stats = {}
                    w = oracle.power_conjugacy_search(g, u, k, stats=stats)
                    lines.append([g.family.value, g.n, g.q, list(ep.partition), k,
                                  None if w is None else _rows(w), stats])
    assert len(lines) == 264
    assert _digest(lines) == _TWO_PASS_DIGEST


def test_walk_cache_keyed_by_entries():
    # a u given as lists of lists shares the walk of the tuple u, and gives
    # the same witness and stats
    oracle._orbit_walk.cache_clear()
    g = GroupSpec(Family.SP, 2, 7)
    ep = EpsPartition(Partition([2, 1, 1]), 1)
    u = oracle.unipotent_rep(g, ep)
    listed = [list(row) for row in u]
    for k in range(2, 7):
        assert _powmap_line(g, ep, listed, k) == _powmap_line(g, ep, u, k), k
    assert oracle._orbit_walk.cache_info().currsize == 1


def test_element_test_once_per_kept_walk(monkeypatch):
    # u's element test runs when its walk is first kept, not once per k
    g = GroupSpec(Family.SP, 2, 7)
    u = oracle.unipotent_rep(g, EpsPartition(Partition([2, 1, 1]), 1))
    is_element, tested = oracle._is_element, []

    def counted(g, m):
        tested.append(m)
        return is_element(g, m)

    monkeypatch.setattr(oracle, "_is_element", counted)
    oracle._orbit_walk.cache_clear()
    for k in range(2, g.p):
        oracle.power_conjugacy_search(g, u, k)
    assert len(tested) == 1
    # a non-element raises on every call and keeps no walk
    kept = oracle._orbit_walk.cache_info().currsize
    bad = tuple(tuple(2 * x % g.p for x in row) for row in u)
    for _ in range(2):
        with pytest.raises(InputError, match="not an element"):
            oracle.power_conjugacy_search(g, bad, 3)
    assert len(tested) == 3
    assert oracle._orbit_walk.cache_info().currsize == kept
    # lists with entries shifted by p reach the same walk and no new test
    shifted = [[x + g.p for x in row] for row in u]
    assert oracle.power_conjugacy_search(g, shifted, 3) == oracle.power_conjugacy_search(g, u, 3)
    assert len(tested) == 3 and oracle._orbit_walk.cache_info().currsize == kept
    # once the kept walks are dropped, the next call tests u again
    oracle._orbit_walk.cache_clear()
    oracle.power_conjugacy_search(g, u, 3)
    assert len(tested) == 4


def test_budget_on_warm_walks():
    # on a walk already grown past the deciding step, budget rounds - 1
    # still raises, and budget rounds then returns the witness
    oracle._orbit_walk.cache_clear()
    cells = 0
    for g in _POWMAP_GROUPS:
        for ep, u, k, _ in _non_identity_cells(g):
            stats = {}
            w = oracle.power_conjugacy_search(g, u, k, stats=stats)
            with pytest.raises(BudgetExceededError):
                oracle.power_conjugacy_search(g, u, k, budget=stats["rounds"] - 1)
            assert oracle.power_conjugacy_search(g, u, k, budget=stats["rounds"]) == w
            cells += 1
    assert cells == 60


def test_walks_past_the_census_cap_are_not_kept(monkeypatch):
    # the (2,1,1) class of Sp4(F_7) has 1,200 conjugates; with the cap below
    # that, neither an answer nor a budget error leaves its walk in the cache
    monkeypatch.setattr(oracle, "CENSUS_CAP", 100)
    oracle._orbit_walk.cache_clear()
    g = GroupSpec(Family.SP, 2, 7)
    u = oracle.unipotent_rep(g, EpsPartition(Partition([2, 1, 1]), 1))
    assert oracle.power_conjugacy_search(g, u, 3) is None
    assert oracle._orbit_walk.cache_info().currsize == 0
    with pytest.raises(BudgetExceededError):
        oracle.power_conjugacy_search(g, u, 3, budget=500)
    assert oracle._orbit_walk.cache_info().currsize == 0
    # a walk that stays within the cap is kept
    g = GroupSpec(Family.SP, 1, 7)
    oracle.power_conjugacy_search(g, oracle.unipotent_rep(g, EpsPartition(Partition([2]), 1)), 3)
    assert oracle._orbit_walk.cache_info().currsize == 1


def test_census_byte_identical():
    # the census's representatives and its index items in insertion order,
    # pinned the same way
    groups = [GroupSpec(Family.SP, 1, q) for q in (3, 5, 7, 11, 13)]
    groups.append(GroupSpec(Family.SO_EVEN, 2, 3, 1))
    lines = []
    for g in groups:
        reps, index = oracle.class_census(g)
        lines.append([g.family.value, g.n, g.q, [_rows(m) for m in reps],
                      [[_rows(m), ci] for m, ci in index.items()]])
    assert _digest(lines) == "19649336ed87b7b6ef29642903e57f89e3c3180060aaa24cc40ea2b53696fbfd"


def mulclose(gens: list[oracle.Matrix], p: int, cap: int = 200_000) -> int:
    """Order of the group generated by gens, by batched closure (tests)."""
    arr = np.array(gens, dtype=np.int64)
    seen = {np.asarray(m, dtype=np.uint8).tobytes() for m in gens}
    frontier = arr
    N = arr.shape[1]
    while len(frontier):
        prods = (frontier[:, None] @ arr[None, :, :, :].reshape(1, len(arr), N, N)) % p
        prods = prods.reshape(-1, N, N)
        fresh = []
        for row in prods.astype(np.uint8):
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                fresh.append(row)
                if len(seen) > cap:
                    raise BudgetExceededError("mulclose cap exceeded")
        frontier = np.array(fresh, dtype=np.int64) if fresh else np.empty((0, N, N), np.int64)
    return len(seen)


def test_group_orders_small():
    # the generator sets really generate the full finite groups
    assert mulclose(oracle.group_generators(GroupSpec(Family.SP, 1, 3)), 3) == 24
    assert mulclose(oracle.group_generators(GroupSpec(Family.SO_ODD, 1, 3)), 3) == 24
    assert mulclose(oracle.group_generators(GroupSpec(Family.SO_ODD, 1, 5)), 5) == 120
    assert mulclose(oracle.group_generators(GroupSpec(Family.SO_EVEN, 2, 3, 1)), 3) == 576
    # Sp4 and SO5 over F_3, the largest groups whose orbits the tests walk
    assert mulclose(oracle.group_generators(GroupSpec(Family.SP, 2, 3)), 3) == 51840
    assert mulclose(oracle.group_generators(GroupSpec(Family.SO_ODD, 2, 3)), 3) == 51840


def test_root_subgroup_is_the_spinor_kernel():
    # the root elements generate a subgroup of index two in SO4+(F_q), the
    # same order as an independent closure of the same generators finds
    for q, order in ((3, 576), (5, 14400)):
        g = GroupSpec(Family.SO_EVEN, 2, q, 1)
        omega = oracle.root_subgroup(g)
        assert 2 * len(omega) == len(oracle.class_census(g)[1]) == order
        roots = [h for h in oracle.group_generators(g)
                 if oracle.mat_pow(h, q, q) == oracle.identity_matrix(4)]
        if q == 3:
            assert mulclose(roots, q) == len(omega)
    # on the basis v1, v2, v-2, v-1: -1 on the anisotropic plane spanned by
    # v1 + v-1 and v2 + v-2 (Gram diag(2, 2), and -det = -1 is not a square
    # mod 3), +1 on its complement; a non-split involution, and a member of
    # the subgroup
    g = GroupSpec(Family.SO_EVEN, 2, 3, 1)
    x = oracle.mat([[0, 0, 0, 2], [0, 0, 2, 0], [0, 2, 0, 0], [2, 0, 0, 0]])
    assert is_isometry(x, oracle.form_matrix(g), 3, special=True)
    assert oracle.mat_mul(x, x, 3) == oracle.identity_matrix(4)
    assert x in oracle.root_subgroup(g)


def test_primitive_root():
    for p in range(3, 200):
        if all(p % d for d in range(2, p)):
            # the least c whose powers give every unit
            least = next(c for c in range(2, p)
                         if len({pow(c, e, p) for e in range(p - 1)}) == p - 1)
            assert oracle._primitive_root(p) == least, p


def _isometries(g):
    # every matrix over F_p that preserves the form, with det 1 in SO, in
    # lexicographic order
    N, p = g.dim, g.p
    J = oracle.form_matrix(g)
    special = g.family is not Family.SP
    out = []
    for flat in itertools.product(range(p), repeat=N * N):
        m = tuple(flat[i * N:(i + 1) * N] for i in range(N))
        if is_isometry(m, J, p, special):
            out.append(m)
    return out


_SMALL = [GroupSpec(Family.SP, 1, q) for q in (3, 5, 7)] + [GroupSpec(Family.SO_ODD, 1, 3)]


def test_census_elements_are_the_isometries():
    for g in _SMALL:
        _, index = oracle.class_census(g)
        assert sorted(index) == _isometries(g), g


def _classes_all_pairs(g, elements):
    # conjugate each new representative, in lexicographic order, by every
    # group element
    p = g.p
    inverses = {m: oracle.mat_inv(m, p) for m in elements}
    index, reps = {}, []
    for m in sorted(elements):
        if m in index:
            continue
        for x in elements:
            index[oracle.mat_mul(oracle.mat_mul(x, m, p), inverses[x], p)] = len(reps)
        reps.append(m)
    return tuple(reps), index


def test_census_against_all_pairs():
    for g in _SMALL:
        assert oracle.class_census(g) == _classes_all_pairs(g, _isometries(g)), g
    # too large to list by brute force: the reference takes the census's
    # elements, whose number is pinned.  SO3(q) is PGL2(q), of order
    # q(q^2 - 1) with q + 2 classes.
    counts = {GroupSpec(Family.SO_ODD, 1, q): (q + 2, q * (q * q - 1)) for q in (3, 5, 7)}
    counts[GroupSpec(Family.SO_EVEN, 2, 3, 1)] = (20, 576)
    for g, count in counts.items():
        reps, index = oracle.class_census(g)
        assert (len(reps), len(index)) == count, g
        assert (reps, index) == _classes_all_pairs(g, list(index)), g
    for q in (3, 5, 7):
        assert oracle.sl2_classes(q) == oracle.class_census(GroupSpec(Family.SP, 1, q))


def test_census_at_the_largest_admitted_groups():
    # Sp4(F_3) and SO5(F_3), 51,840 elements each, near the element cap.
    # Under g -> g^k, Sp4(F_3) fixes 14 of its 34 classes for k a non-square
    # mod 3 and all of them for k a square; SO5(F_3) fixes all 25.  Both
    # censuses stay in the cache for the Brauer tests below.
    expected = {GroupSpec(Family.SP, 2, 3): (34, {7: 34, 11: 14, 13: 34, 17: 14}),
                GroupSpec(Family.SO_ODD, 2, 3): (25, dict.fromkeys((7, 11, 13, 17), 25))}
    for g, (classes, fixed) in expected.items():
        reps, index = oracle.class_census(g)
        assert (len(reps), len(index)) == (classes, 51840), g
        for k, count in fixed.items():
            assert sum(index[oracle.mat_pow(m, k, g.p)] == ci
                       for ci, m in enumerate(reps)) == count, (g, k)


# the census groups of rank two on which g -> g^k moves classes (Sp4(F_3),
# SO4+(F_5)) or fixes all of them for every k (SO5(F_3))
_RANK_TWO = [GroupSpec(Family.SP, 2, 3), GroupSpec(Family.SO_ODD, 2, 3),
             GroupSpec(Family.SO_EVEN, 2, 5, 1)]


def test_brauer_counts():
    assert oracle.brauer_fixed_classes_sl2(5, 1) == 9
    assert oracle.brauer_fixed_classes_sl2(7, 1) == 11
    assert oracle.brauer_fixed_classes_sl2(7, 335) == 7
    assert oracle.brauer_fixed_classes_sl2(7, 5) == 5
    with pytest.raises(InputError):
        oracle.brauer_fixed_classes_sl2(7, 3)
    # Sp4(F_3) fixes 14 of its 34 classes for k a non-square mod 3 and all
    # of them for k a square; SO5(F_3) fixes all 25; SO4+(F_5) fixes 36 of
    # its 40 at k = 7 and all of them at k = 19
    expected = {GroupSpec(Family.SP, 2, 3): {11: 14, 17: 14, 23: 14, 29: 14, 7: 34, 13: 34},
                GroupSpec(Family.SO_ODD, 2, 3): {7: 25, 11: 25},
                GroupSpec(Family.SO_EVEN, 2, 5, 1): {7: 36, 19: 40}}
    for g, fixed in expected.items():
        for k, count in fixed.items():
            assert oracle.brauer_fixed_classes(g, k) == count, (g, k)
        with pytest.raises(InputError):
            oracle.brauer_fixed_classes(g, 5)


def _brauer_unreduced(g, k):
    # the count with the power taken by k itself, not read from the table
    reps, index = oracle.class_census(g)
    return sum(index[oracle.mat_pow(m, k, g.p)] == ci for ci, m in enumerate(reps))


def test_brauer_count_by_element_orders():
    # k and k + |G| are the same power map; -k is the power map of the
    # inverse, which can fix a different number of classes
    for q in (5, 7, 11):
        g = GroupSpec(Family.SP, 1, q)
        order = q * (q * q - 1)
        for k in range(1, order):
            if gcd(k, order) == 1:
                count = oracle.brauer_fixed_classes_sl2(q, k)
                assert count == _brauer_unreduced(g, k), (q, k)
                assert oracle.brauer_fixed_classes_sl2(q, k + order) == count, (q, k)
                assert oracle.brauer_fixed_classes_sl2(q, -k) == _brauer_unreduced(g, -k), (q, k)
    # on the other census groups every k below the exponent of the group,
    # the lcm of its element orders, so every power map that permutes the
    # classes
    others = [GroupSpec(Family.SO_ODD, 1, 5), GroupSpec(Family.SO_ODD, 1, 7),
              GroupSpec(Family.SO_EVEN, 2, 3, 1)]
    for g in others + _RANK_TWO:
        order = len(oracle.class_census(g)[1])
        exponent = lcm(*map(len, oracle.class_powers(g)))
        for k in range(1, exponent):
            if gcd(k, order) == 1:
                count = oracle.brauer_fixed_classes(g, k)
                assert count == _brauer_unreduced(g, k), (g, k)
                assert oracle.brauer_fixed_classes(g, k + order) == count, (g, k)
                assert oracle.brauer_fixed_classes(g, -k) == _brauer_unreduced(g, -k), (g, k)
    # the real classes, those fixed by inversion
    real = {GroupSpec(Family.SP, 2, 3): 14, GroupSpec(Family.SO_ODD, 2, 3): 25,
            GroupSpec(Family.SO_EVEN, 2, 3, 1): 20, GroupSpec(Family.SO_EVEN, 2, 5, 1): 40}
    for g, count in real.items():
        assert oracle.brauer_fixed_classes(g, -1) == count, g


def test_class_orders():
    # each row of the class power table holds the census classes of m^0, m^1,
    # ..., m^(o-1) for the representative m of order o: m^o is the identity
    # and m^(o/r) is not, for every prime r dividing o
    groups = [GroupSpec(Family.SP, 1, q) for q in (3, 5, 7, 11, 13)]
    groups += [GroupSpec(Family.SO_ODD, 1, 5), GroupSpec(Family.SO_EVEN, 2, 3, 1)]
    for g in groups + _RANK_TWO:
        reps, index = oracle.class_census(g)
        one = oracle.identity_matrix(g.dim)
        rows = oracle.class_powers(g)
        assert len(rows) == len(reps), g
        for m, row in zip(reps, rows):
            o = len(row)
            assert oracle.mat_pow(m, o, g.p) == one, (g, m)
            for r, _ in factorize(o):
                assert oracle.mat_pow(m, o // r, g.p) != one, (g, m, r)
            assert row == tuple(index[oracle.mat_pow(m, j, g.p)] for j in range(o)), (g, m)


def test_cold_brauer_count_decodes_only_the_representatives(monkeypatch):
    # from cold caches, a Brauer count decodes the class representatives for
    # their power walks and no other element of the group, and its count
    # vector has one entry per residue mod the exponent of the group
    decoded = []
    matrix = oracle._Lanes.matrix

    def counted(lanes, key):
        decoded.append(key)
        return matrix(lanes, key)

    monkeypatch.setattr(oracle._Lanes, "matrix", counted)
    for g in (GroupSpec(Family.SP, 2, 3), GroupSpec(Family.SO_EVEN, 2, 5, 1)):
        for cache in vars(oracle).values():
            if hasattr(cache, "cache_clear"):
                cache.cache_clear()
        decoded.clear()
        oracle.brauer_fixed_classes(g, 7)
        rows = oracle.class_powers(g)
        assert 0 < len(decoded) <= len(rows), g
        assert len(oracle._fixed_counts(g)[1]) == lcm(*map(len, rows)), g


_NEGATIVE_POWERS = """
from charfield import oracle
from charfield.char_fields import predicted_fixed_count_rank1
from charfield.groups import Family, GroupSpec
from charfield.partitions import EpsPartition, Partition
from charfield.power_maps import unipotent_rational

for q in (5, 7, 11, 13):
    assert oracle.brauer_fixed_classes_sl2(q, -1) == predicted_fixed_count_rank1(q, -1), q
m = ((2, 5), (1, 3))
assert oracle.mat_pow(m, -1, 7) == oracle.mat_inv(m, 7)
assert oracle.mat_pow(m, -3, 7) == oracle.mat_pow(oracle.mat_inv(m, 7), 3, 7)
g = GroupSpec(Family.SP, 1, 7)
ep = EpsPartition(Partition([2]), 1)
u = oracle.unipotent_rep(g, ep)
for k in (-1, -3):
    assert (oracle.power_conjugacy_search(g, u, k) is not None) == unipotent_rational(g, ep, k), k
"""


def test_negative_exponents():
    # A negative power is a power of the inverse.  The checks run in a child
    # process with a timeout, so that an endless loop fails instead of hanging.
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _NEGATIVE_POWERS], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr


def test_library_imports_no_numpy():
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, charfield, charfield.cli, charfield.verify, charfield.oracle; "
            "assert 'numpy' not in sys.modules")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
