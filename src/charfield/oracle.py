"""Independent brute-force verification over prime fields.

This module knows no character theory and no closed-form criteria: it builds
the classical groups as explicit matrix groups preserving the standard
bilinear forms, constructs unipotent representatives of a given Jordan type,
and decides conjugacy questions by raw search.  The power-map search races
two exact searches in lockstep, a lexicographic scan of an intertwiner space
and a conjugation-orbit walk, and the first to decide gives the answer.  The
closed-form modules are tested against it, never the other way around.

Matrices are tuples of tuples of residues mod p; the oracle works over prime
fields only, and every decision is exact integer arithmetic in pure Python.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator, Iterator, Sequence
from functools import lru_cache
from math import gcd
from operator import mul

from .errors import BudgetExceededError, InputError
from .groups import Family, GroupSpec, factor_prime_power
from .partitions import EpsPartition, Partition

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_BUDGET = 10_000_000


# ---------------------------------------------------------------------------
# prime-field matrix toolkit


def mat(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    bt = list(zip(*b))
    return tuple([tuple([sum(map(mul, ra, cb)) % p for cb in bt]) for ra in a])


def mat_pow(a: Matrix, e: int, p: int) -> Matrix:
    if e < 0:
        a, e = mat_inv(a, p), -e
    result = identity_matrix(len(a))
    base = a
    while e:
        if e & 1:
            result = mat_mul(result, base, p)
        base = mat_mul(base, base, p)
        e >>= 1
    return result


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_sub(a: Matrix, b: Matrix, p: int) -> Matrix:
    return tuple(
        tuple((x - y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def _rref(
    rows: list[list[int]], p: int
) -> tuple[list[list[int]], list[int], int]:
    """Reduced row echelon form in place; returns (rows, pivot columns, the
    product of the pivots with the sign of the row swaps).  For a square
    matrix with a pivot in every column that product is the determinant."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    scale = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] % p), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            scale = -scale
        scale = scale * rows[r][c] % p
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots, scale


def rank(a: Matrix, p: int) -> int:
    _, pivots, _ = _rref([list(r) for r in a], p)
    return len(pivots)


def det(a: Matrix, p: int) -> int:
    _, pivots, scale = _rref([list(r) for r in a], p)
    return scale if len(pivots) == len(a) else 0


def mat_inv(a: Matrix, p: int) -> Matrix:
    n = len(a)
    rows = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(a)]
    rows, pivots, _ = _rref(rows, p)
    if pivots != list(range(n)):
        raise InputError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


def nullspace(a: list[list[int]], p: int) -> list[tuple[int, ...]]:
    """Canonical basis of the kernel of the matrix (rows = equations): one
    vector per free column of the RREF, so it depends only on the kernel."""
    ncols = len(a[0]) if a else 0
    rows, pivots, _ = _rref([list(r) for r in a], p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rows[r][fc]) % p
        basis.append(tuple(v))
    return basis


def _intertwiner_equations(u: Matrix, uk: Matrix, p: int) -> list[list[int]]:
    """The linear equations of X u = uk X in the row-major entries of X."""
    N = len(u)
    eqs = []
    for i in range(N):
        for j in range(N):
            row = [0] * (N * N)
            for t in range(N):
                row[i * N + t] = (row[i * N + t] + u[t][j]) % p
                row[t * N + j] = (row[t * N + j] - uk[i][t]) % p
            eqs.append(row)
    return eqs


def _span(basis: list[tuple[int, ...]], p: int) -> Iterator[tuple[int, ...]]:
    """Every combination of the (non-empty) basis mod p, in lexicographic
    order of the coefficients with the last one fastest.  An odometer: a step
    that carries from position i on raises every coefficient from i on by one
    (mod p), so it adds the suffix sum of the basis from i."""
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


# ---------------------------------------------------------------------------
# standard forms and isometries


def _basis_indices(g: GroupSpec) -> list[int]:
    n = g.n
    if g.family is Family.SO_ODD:
        return list(range(1, n + 1)) + [0] + list(range(-n, 0))
    return list(range(1, n + 1)) + list(range(-n, 0))


def form_matrix(g: GroupSpec) -> Matrix:
    """Gram matrix of the standard form on the ordered basis: the pairing of
    v_i with v_{-i} is sgn(i)^eps, all other pairs vanish."""
    idx = _basis_indices(g)
    pos = {i: t for t, i in enumerate(idx)}
    eps = g.form_eps
    N = len(idx)
    J = [[0] * N for _ in range(N)]
    for i in idx:
        sgn = 1 if i >= 0 else -1
        J[pos[i]][pos[-i]] = sgn**eps % g.p
    return mat(J)


def is_isometry(m: Matrix, form: Matrix, p: int, special: bool = False) -> bool:
    """Does m preserve the form (with det 1 when special is set)?"""
    if len(m) != len(form):
        raise InputError("dimension mismatch")
    gram = mat_mul(mat_mul(transpose(m), form, p), m, p)
    if gram != tuple([tuple([x % p for x in row]) for row in form]):
        return False
    return not special or det(m, p) == 1


# ---------------------------------------------------------------------------
# unipotent representatives


def _jordan_block(m: int, p: int) -> Matrix:
    return tuple(
        tuple(1 if i == j else (1 if j == i + 1 else 0) for j in range(m)) for i in range(m)
    )


def _invariant_form(u: Matrix, p: int, symmetric: bool) -> Matrix:
    """A nondegenerate u-invariant symmetric or alternating form, found by
    solving the linear conditions and scanning the small solution space."""
    m = len(u)
    # u^T B u = B is B u = u^-T B
    eqs = _intertwiner_equations(u, transpose(mat_inv(u, p)), p)
    sgn = 1 if symmetric else -1
    for i in range(m):
        for j in range(m):
            row = [0] * (m * m)
            row[i * m + j] = (row[i * m + j] + 1) % p
            row[j * m + i] = (row[j * m + i] - sgn) % p
            eqs.append(row)
    basis = nullspace(eqs, p)
    if not basis:
        raise InputError("no invariant form of the requested symmetry")
    if p ** len(basis) > 100_000:
        raise BudgetExceededError("invariant-form scan too large")
    for flat in _span(basis[::-1], p):
        B = tuple(flat[i * m:(i + 1) * m] for i in range(m))
        if det(B, p) != 0:
            return B
    raise InputError("invariant forms are all degenerate")


def _direct_sum(blocks: list[Matrix], p: int) -> Matrix:
    N = sum(len(b) for b in blocks)
    out = [[0] * N for _ in range(N)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x % p
        off += len(b)
    return mat(out)


def _hyperbolic_block(m: int, p: int, eps: int) -> tuple[Matrix, Matrix]:
    """u = J_m + its inverse transpose on a dual pair of isotropic subspaces."""
    jm = _jordan_block(m, p)
    jmit = transpose(mat_inv(jm, p))
    u = _direct_sum([jm, jmit], p)
    s = (-1) ** eps
    form = [[0] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        form[i][m + i] = 1
        form[m + i][i] = s % p
    return u, mat(form)


def _pairing(a: Matrix, x, y, p: int) -> int:
    """x^T a y mod p."""
    n = len(a)
    return sum(x[i] * a[i][j] * y[j] for i in range(n) for j in range(n)) % p


def _diagonalize_symmetric(a: Matrix, p: int) -> tuple[list[list[int]], list[int]]:
    """The columns of a P with P^T a P diagonal, and the diagonal entries."""
    n = len(a)
    basis = [list(col) for col in identity_matrix(n)]
    for i in range(n):
        j = next((t for t in range(i, n) if _pairing(a, basis[t], basis[t], p)), None)
        if j is None:
            found = next(
                ((t, s) for t in range(i, n) for s in range(t + 1, n)
                 if _pairing(a, basis[t], basis[s], p)),
                None,
            )
            if found is None:
                raise InputError("form is degenerate")
            t, s = found
            basis[t] = [(x + y) % p for x, y in zip(basis[t], basis[s])]
            j = t
        basis[i], basis[j] = basis[j], basis[i]
        inv = pow(_pairing(a, basis[i], basis[i], p), -1, p)
        for t in range(i + 1, n):
            f = _pairing(a, basis[i], basis[t], p) * inv % p
            basis[t] = [(x - f * y) % p for x, y in zip(basis[t], basis[i])]
    return basis, [_pairing(a, b, b, p) for b in basis]


def _sqrt_mod(a: int, p: int) -> int | None:
    a %= p
    for x in range(p):
        if x * x % p == a:
            return x
    return None


def _nonsquare(p: int) -> int:
    return next(x for x in range(2, p) if _sqrt_mod(x, p) is None)


def _canonicalize_symmetric(a: Matrix, p: int) -> tuple[Matrix, tuple[int, ...]]:
    """P and canonical diagonal (1,...,1[,nu]) with P^T a P = diag(canonical)."""
    cols, diag = _diagonalize_symmetric(a, p)
    nu = _nonsquare(p)
    nu_inv = pow(nu, -1, p)
    ones, nus = [], []
    for col, d in zip(cols, diag):
        r = _sqrt_mod(d, p)
        target = ones
        if r is None:
            r = _sqrt_mod(d * nu_inv % p, p)
            target = nus
        inv = pow(r, -1, p)
        target.append([x * inv % p for x in col])
    # merge pairs of nu-columns into pairs of 1-columns: x^2 + y^2 = 1/nu
    x, y = next((x, y) for x in range(p) for y in range(p) if (x * x + y * y) % p == nu_inv)
    for cj, ck in zip(nus[0::2], nus[1::2]):
        ones.append([(x * u + y * v) % p for u, v in zip(cj, ck)])
        ones.append([(-y * u + x * v) % p for u, v in zip(cj, ck)])
    leftover = nus[len(nus) - len(nus) % 2:]
    return transpose(ones + leftover), (1,) * len(ones) + (nu,) * len(leftover)


def transport_symmetric(a: Matrix, b: Matrix, p: int) -> Matrix:
    """P with P^T a P = b, for equivalent nondegenerate symmetric forms."""
    Pa, ca = _canonicalize_symmetric(a, p)
    Pb, cb = _canonicalize_symmetric(b, p)
    if ca != cb:
        raise InputError("symmetric forms are not equivalent")
    return mat_mul(Pa, mat_inv(Pb, p), p)


def transport_alternating(a: Matrix, g: GroupSpec) -> Matrix:
    """P with P^T a P = the standard alternating form of g."""
    p = g.p
    pool = [list(col) for col in identity_matrix(len(a))]
    xs, ys = [], []
    while pool:
        x = pool.pop(0)
        j = next(t for t in range(len(pool)) if _pairing(a, x, pool[t], p))
        y = pool.pop(j)
        scale = pow(_pairing(a, x, y, p), -1, p)
        y = [v * scale % p for v in y]
        pool = [
            [
                (z[i] - _pairing(a, x, z, p) * y[i] + _pairing(a, y, z, p) * x[i]) % p
                for i in range(len(a))
            ]
            for z in pool
        ]
        xs.append(x)
        ys.append(y)
    P = transpose(xs + list(reversed(ys)))
    target = form_matrix(g)
    if mat_mul(mat_mul(transpose(P), a, p), P, p) != target:
        raise InputError("symplectic transport failed")  # unreachable
    return P


def jordan_type(u: Matrix, p: int) -> Partition:
    n = len(u)
    m = mat_sub(u, identity_matrix(n), p)
    ranks = [n]
    power = identity_matrix(n)
    while ranks[-1] > 0:
        power = mat_mul(power, m, p)
        ranks.append(rank(power, p))
    at_least = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))]
    parts = []
    for size in range(len(at_least), 0, -1):
        count = at_least[size - 1] - (at_least[size] if size < len(at_least) else 0)
        parts.extend([size] * count)
    return Partition(sorted(parts, reverse=True))


def unipotent_rep(g: GroupSpec, ep: EpsPartition) -> Matrix:
    """An isometry (det 1 where required) of Jordan type ep, built from
    regular blocks on nondegenerate subspaces and hyperbolic pairs on dual
    isotropic subspaces, then moved onto the standard form."""
    p, a = factor_prime_power(g.q)
    if a != 1:
        raise InputError("the matrix oracle works over prime fields only")
    if g.family is Family.SO_EVEN and g.twist != 1:
        raise InputError("the matrix oracle models the split even orthogonal form")
    if ep.eps != g.form_eps or ep.total != g.dim:
        raise InputError("partition does not match the group")
    natural_parity = 0 if g.family is Family.SP else 1  # natural part sizes mod 2
    blocks: list[tuple[Matrix, Matrix]] = []
    mu = ep.partition
    for m in mu.distinct():
        r = mu.multiplicity(m)
        if m % 2 == natural_parity:
            blk = _jordan_block(m, p)
            form = _invariant_form(blk, p, symmetric=(g.family is not Family.SP))
            blocks.extend([(blk, form)] * r)
        else:
            blocks.extend([_hyperbolic_block(m, p, g.form_eps)] * (r // 2))
    u_blk = _direct_sum([b for b, _ in blocks], p)
    j_blk = _direct_sum([f for _, f in blocks], p)
    if g.family is Family.SP:
        P = transport_alternating(j_blk, g)
    else:
        try:
            P = transport_symmetric(j_blk, form_matrix(g), p)
        except InputError:
            # wrong discriminant class: rescale one odd-dimensional block
            # form by a nonsquare (u still preserves it) and retry
            nu = _nonsquare(p)
            odd = next(i for i, (b, _) in enumerate(blocks) if len(b) % 2 == 1)
            b, f = blocks[odd]
            blocks[odd] = (b, tuple(tuple(x * nu % p for x in row) for row in f))
            j_blk = _direct_sum([f for _, f in blocks], p)
            P = transport_symmetric(j_blk, form_matrix(g), p)
    u = mat_mul(mat_mul(mat_inv(P, p), u_blk, p), P, p)
    special = g.family is not Family.SP
    if not is_isometry(u, form_matrix(g), p, special=special):
        raise ArithmeticError("representative is not an isometry")  # unreachable
    if jordan_type(u, p) != mu:
        raise ArithmeticError("representative has wrong Jordan type")  # unreachable
    return u


# ---------------------------------------------------------------------------
# group generators

def group_generators(g: GroupSpec) -> list[Matrix]:
    """Unipotent root elements (parameter 1) plus, for orthogonal groups, a
    torus element of non-trivial spinor norm; together they generate the
    finite group over the prime field."""
    p = g.p
    idx = _basis_indices(g)
    pos = {i: t for t, i in enumerate(idx)}
    n, N = g.n, g.dim
    inv2 = pow(2, -1, p)

    def elem(assignments: dict[tuple[int, int], int]) -> Matrix:
        m = [[1 if i == j else 0 for j in range(N)] for i in range(N)]
        for (target, source), c in assignments.items():
            m[pos[target]][pos[source]] = (m[pos[target]][pos[source]] + c) % p
        return mat(m)

    gens: list[Matrix] = []
    sp = g.family is Family.SP
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            gens.append(elem({(i, j): 1, (-j, -i): -1}))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if sp:
                gens.append(elem({(i, -j): 1, (j, -i): 1}))
                gens.append(elem({(-i, j): 1, (-j, i): 1}))
            else:
                gens.append(elem({(i, -j): 1, (j, -i): -1}))
                gens.append(elem({(-i, j): 1, (-j, i): -1}))
    if sp:
        for i in range(1, n + 1):
            gens.append(elem({(i, -i): 1}))
            gens.append(elem({(-i, i): 1}))
    if g.family is Family.SO_ODD:
        for i in range(1, n + 1):
            gens.append(elem({(0, -i): 1, (i, -i): -inv2, (i, 0): -1}))
            gens.append(elem({(0, i): 1, (-i, i): -inv2, (-i, 0): -1}))
    if g.family in (Family.SO_ODD, Family.SO_EVEN):
        zeta = _primitive_root(p)
        m = [[1 if i == j else 0 for j in range(N)] for i in range(N)]
        m[pos[1]][pos[1]] = zeta
        m[pos[-1]][pos[-1]] = pow(zeta, -1, p)
        gens.append(mat(m))
    J = form_matrix(g)
    for m_ in gens:
        if not is_isometry(m_, J, p, special=True):
            raise ArithmeticError("generator is not a special isometry")  # unreachable
    return gens


def _primitive_root(p: int) -> int:
    for cand in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * cand % p
            seen.add(x)
        if len(seen) == p - 1:
            return cand
    raise InputError("no primitive root found")


# ---------------------------------------------------------------------------
# power-map conjugacy search


def _conjugation_walk(
    x0: Matrix, pairs: Sequence[tuple[Matrix, Matrix]], p: int, tree: dict
) -> Iterator[Matrix]:
    """Breadth-first walk of the conjugation orbit of x0 under the pairs
    (h, h^-1).  Records x0 and every new conjugate y = h x h^-1 in tree as
    y -> (x, index of the pair), and yields each new y once."""
    tree[x0] = (None, -1)
    queue = deque([x0])
    while queue:
        x = queue.popleft()
        for gi, (h, h_inv) in enumerate(pairs):
            y = mat_mul(mat_mul(h, x, p), h_inv, p)
            if y not in tree:
                tree[y] = (x, gi)
                yield y
                queue.append(y)


@lru_cache(maxsize=None)
def _conjugators(g: GroupSpec) -> tuple[tuple[Matrix, Matrix], ...]:
    """The pairs (h, h^-1) that the orbit walk conjugates by, one per group
    generator: in a finite group the generators alone reach every conjugate."""
    return tuple((h, mat_inv(h, g.p)) for h in group_generators(g))


def _lex_search(
    basis: list[tuple[int, ...]], p: int, J: Matrix, special: bool
) -> Generator[None, None, Matrix | None]:
    """Scan the combinations of the intertwiner basis in lexicographic order
    and return the first that is an isometry (invertibility is automatic),
    with det 1 when special is set; one candidate per step."""
    N = len(J)
    for flat in _span(basis, p):
        X = tuple(flat[i * N:(i + 1) * N] for i in range(N))
        if is_isometry(X, J, p, special):
            return X
        yield
    return None


def _orbit_search(
    g: GroupSpec, u: Matrix, uk: Matrix
) -> Generator[None, None, Matrix | None]:
    """Walk the conjugation orbit of u under the group generators until uk
    is found or the orbit closes, one new conjugate per step; the witness is
    the product of the generators along the path back to u."""
    p = g.p
    pairs = _conjugators(g)
    tree: dict[Matrix, tuple[Matrix | None, int]] = {}
    for y in _conjugation_walk(u, pairs, p, tree):
        if y == uk:
            w = identity_matrix(len(u))
            while tree[y][1] != -1:
                y, gi = tree[y]
                w = mat_mul(w, pairs[gi][0], p)
            if mat_mul(w, u, p) != mat_mul(uk, w, p):
                raise ArithmeticError("orbit witness check failed")  # unreachable
            return w
        yield
    return None


def power_conjugacy_search(
    g: GroupSpec, u: Matrix, k: int, budget: int = DEFAULT_BUDGET
) -> Matrix | None:
    """A witness X with X u X^{-1} = u^k inside the finite isometry group
    (det 1 where the group demands it), or None when there is none.

    If u^k = u the identity is the witness.  Otherwise two exact searches run
    in lockstep, one step of each per round in a fixed order: the
    lexicographic scan of the intertwiner space {X : X u = u^k X}, and the
    walk of the conjugation orbit of u under the group generators.  The first
    to decide gives the answer, so the witness is deterministic: the first
    isometry in lex order when the scan decides first, else the product of
    the conjugators along the walk's path.  More than `budget` rounds raise;
    the search never truncates.
    """
    p, a = factor_prime_power(g.q)
    if a != 1:
        raise InputError("the matrix oracle works over prime fields only")
    if gcd(k, p) != 1:
        raise InputError("k must be coprime to p")
    J = form_matrix(g)
    special = g.family is not Family.SP
    if not is_isometry(u, J, p, special=special):
        raise InputError("u is not an element of the group")
    uk = mat_pow(u, k, p)
    if uk == u:
        return identity_matrix(len(u))
    basis = nullspace(_intertwiner_equations(u, uk, p), p)
    searches = (_lex_search(basis, p, J, special), _orbit_search(g, u, uk))
    for _ in range(budget):
        for search in searches:
            try:
                next(search)
            except StopIteration as done:
                return done.value
    raise BudgetExceededError(f"neither search decided within {budget} rounds")


# ---------------------------------------------------------------------------
# rank-one class counting


def sl2_elements(q: int) -> list[Matrix]:
    p, a = factor_prime_power(q)
    if a != 1 or q > 13:
        raise InputError("rank-one enumeration supports prime q <= 13")
    out = []
    for x in range(q):
        for b in range(q):
            for c in range(q):
                if x:
                    d = (1 + b * c) * pow(x, -1, q) % q
                    out.append(((x, b), (c, d)))
                elif b * c % q == q - 1:
                    for d in range(q):
                        out.append(((x, b), (c, d)))
    return out


@lru_cache(maxsize=None)
def sl2_classes(q: int) -> tuple[tuple[Matrix, ...], dict[Matrix, int]]:
    """Conjugacy classes of the rank-one symplectic group by raw orbit
    computation: returns class representatives (the first element of each
    class in `sl2_elements` order) and an element -> class map.  Each class
    is walked under the two root elements, which generate the group."""
    elements = sl2_elements(q)
    pairs = _conjugators(GroupSpec(Family.SP, 1, q))
    index: dict[Matrix, int] = {}
    reps: list[Matrix] = []
    for m in elements:
        if m in index:
            continue
        index[m] = len(reps)
        for y in _conjugation_walk(m, pairs, q, {}):
            index[y] = len(reps)
        reps.append(m)
    return tuple(reps), index


def brauer_fixed_classes_sl2(q: int, k: int) -> int:
    """Number of conjugacy classes of the rank-one symplectic group fixed by
    g -> g^k, by brute force."""
    if gcd(k, q * (q * q - 1)) != 1:
        raise InputError("k must be coprime to the group order")
    reps, index = sl2_classes(q)
    return sum(1 for ci, m in enumerate(reps) if index[mat_pow(m, k, q)] == ci)
