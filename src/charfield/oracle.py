"""Independent brute-force verification over prime fields.

This module knows no character theory and no closed-form criteria: it builds
the classical groups as explicit matrix groups preserving the standard
bilinear forms, and decides conjugacy questions by raw search.  A unipotent
representative of a given Jordan type is the Cayley transform of a nilpotent
element of the Lie algebra of the standard form, built on standard basis
vectors, so it is an isometry by construction and needs no change of form.
The power-map search races two exact searches in lockstep, a lexicographic
scan of an intertwiner space and a conjugation-orbit walk, and the first to
decide gives the answer.  The class census closes the generators into the
group and walks each class, up to an element cap.  The closed-form modules
are tested against it, never the other way around.

Every generator is a root or torus element, which differs from the identity
in a few entries, so conjugating by it is a row update and a column update.
The walk and the census run these updates on packed matrices: a matrix is a
bytes key with one lane per entry, a breadth-first level of K matrices is
one int, and one lane-wise reduction mod p serves all K at once, so a level
costs a few big-int operations per generator.  The census closes the
generators into the group with the same column update, and the scan's
odometer steps a packed vector by one addition and one reduction.  Dense
products of tuples serve everything else, the witnesses among them.  The
scan reads the form as a signed permutation and rejects a candidate at the
first entry of its Gram matrix that differs from the form, so most
candidates cost one dot product.

Matrices are tuples of tuples of residues mod p at the interface; the oracle
works over prime fields and split forms only, and every decision is exact
integer arithmetic in pure Python."""

from __future__ import annotations

import struct
from collections.abc import Callable, Generator, Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import chain
from math import gcd
from operator import itemgetter, mul
from typing import NamedTuple

from .errors import BudgetExceededError, InputError
from .groups import Family, GroupSpec, factorize
from .partitions import EpsPartition, Partition

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_BUDGET = 10_000_000
CENSUS_CAP = 60_000  # elements; admits Sp4(F3) and SO5(F3), 51,840 each


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


# ---------------------------------------------------------------------------
# packed matrices


Offsets = tuple[tuple[int, int, int], ...]


def _offsets(m: Matrix, p: int) -> Offsets:
    """The entries (i, j, c) at which m differs from the identity, c being
    the difference, row by row: a few for a root or torus element."""
    return tuple((i, j, (x - (i == j)) % p)
                 for i, row in enumerate(m) for j, x in enumerate(row) if x != (i == j))


class _Lanes:
    """Square matrices of one size over F_p, packed one lane per entry.

    A matrix is a bytes key of n*n lanes, row-major and big-endian, so keys
    sort as the matrices do.  A lane is the least power-of-two number of
    bytes whose top bit lies above 2p: a sum of two residues stays below the
    top bit, and one reduction brings every lane of a sum back below p.  The
    masks of one matrix (its lanes, each row, each column) are kept as bytes
    and repeated once per matrix of a batch."""

    def __init__(self, n: int, p: int):
        width = 1
        while 1 << 8 * width - 1 <= 2 * p:
            width *= 2
        count = n * n
        self.n, self.p, self.bits, self.size = n, p, 8 * width, count * width

        def pattern(lanes: Iterable[int], value: int) -> bytes:
            packed = sum(value << self.bits * (count - 1 - t) for t in lanes)
            return packed.to_bytes(self.size, "big")

        full = (1 << self.bits) - 1
        self.ones = pattern(range(count), 1)
        self.rows = [pattern(range(i * n, i * n + n), full) for i in range(n)]
        self.cols = [pattern(range(j, count, n), full) for j in range(n)]
        if width <= 8:
            layout = struct.Struct(f">{count}{'BHIQ'[width.bit_length() - 1]}")
            self.pack: Callable[[Iterable[int]], bytes] = lambda flat: layout.pack(*flat)
            self.unpack: Callable[[bytes], tuple[int, ...]] = layout.unpack
        else:
            self.pack = lambda flat: b"".join(x.to_bytes(width, "big") for x in flat)
            self.unpack = lambda key: tuple(int.from_bytes(key[t:t + width], "big")
                                            for t in range(0, self.size, width))

    def key(self, m: Matrix) -> bytes:
        return self.pack(chain.from_iterable(m))

    def matrix(self, key: bytes) -> Matrix:
        flat, n = self.unpack(key), self.n
        return tuple(flat[i:i + n] for i in range(0, n * n, n))

    def batch(self, k: int) -> _Batch:
        return _Batch(self, k)


@lru_cache(maxsize=None)
def _lanes(n: int, p: int) -> _Lanes:
    return _Lanes(n, p)


class _Batch:
    """k packed matrices as one int, the first in the highest lanes, and the
    kernel that acts on all of them at once.  A lane of width w holds a
    residue; reduce(s) = s - p (((s + C) >> (w - 1)) & ONES), C holding
    2^(w-1) - p in every lane, takes every lane of s below 2p to its residue.
    A row update (h x) and a column update (x h) for h = 1 + d are masks,
    shifts and double-and-add on the whole int, reading the original x."""

    def __init__(self, lanes: _Lanes, k: int):
        self.n, self.p, self.bits, self.size = lanes.n, lanes.p, lanes.bits, lanes.size
        self.length = k * lanes.size
        self.ones = int.from_bytes(lanes.ones * k, "big")
        self.carry = self.ones * ((1 << lanes.bits - 1) - lanes.p)
        self.lift = self.ones * lanes.p
        self.rows = [int.from_bytes(m * k, "big") for m in lanes.rows]
        self.cols = [int.from_bytes(m * k, "big") for m in lanes.cols]

    def pack(self, keys: Sequence[bytes]) -> int:
        return int.from_bytes(b"".join(keys), "big")

    def keys(self, x: int) -> list[bytes]:
        b, size = x.to_bytes(self.length, "big"), self.size
        return [b[t:t + size] for t in range(0, self.length, size)]

    def reduce(self, s: int) -> int:
        return s - self.p * (((s + self.carry) >> self.bits - 1) & self.ones)

    def _add(self, y: int, x: int, mask: int, c: int, move: int) -> int:
        """y + c (x & mask) with the masked lanes moved `move` lanes on (back
        when negative).  The multiple c, or -(p - c) when p - c is smaller,
        is taken by double-and-add with a reduction after each step; a
        negative one is subtracted from y lifted by p in every lane."""
        term = acc = x & mask
        negate = 2 * c > self.p
        for bit in bin(self.p - c if negate else c)[3:]:
            acc = self.reduce(acc << 1)
            if bit == "1":
                acc = self.reduce(acc + term)
        shift = move * self.bits
        acc = acc >> shift if shift >= 0 else acc << -shift
        return self.reduce(y + self.lift - acc if negate else y + acc)

    def left(self, x: int, d: Offsets) -> int:
        """h x for h = 1 + d: row i gains c times row j of x for each (i, j, c)
        in d."""
        y = x
        for i, j, c in d:
            y = self._add(y, x, self.rows[j], c, (i - j) * self.n)
        return y

    def right(self, x: int, d: Offsets) -> int:
        """x h for h = 1 + d: column j gains c times column i of x for each
        (i, j, c) in d."""
        y = x
        for i, j, c in d:
            y = self._add(y, x, self.cols[i], c, j - i)
        return y


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


def _span(basis: list[tuple[int, ...]], lanes: _Lanes) -> Iterator[tuple[int, ...]]:
    """Every combination of the (non-empty) basis mod p, in lexicographic
    order of the coefficients with the last one fastest.  An odometer on a
    packed vector: a step that carries from position i on raises every
    coefficient from i on by one (mod p), so it adds the packed suffix sum
    of the basis from i and reduces once."""
    reduce = lanes.batch(1).reduce
    suffix = []
    acc = 0
    for vec in reversed(basis):
        acc = reduce(acc + int.from_bytes(lanes.pack(vec), "big"))
        suffix.append(acc)
    suffix.reverse()
    p, size, unpack = lanes.p, lanes.size, lanes.unpack
    digits = [0] * len(basis)
    v = 0
    while True:
        yield unpack(v.to_bytes(size, "big"))
        i = len(basis) - 1
        while digits[i] == p - 1:
            digits[i] = 0
            i -= 1
            if i < 0:
                return
        digits[i] += 1
        v = reduce(v + suffix[i])


# ---------------------------------------------------------------------------
# standard forms and isometries


def _check_model(g: GroupSpec) -> None:
    """Reject the groups that the matrix oracle does not model."""
    if g.field_degree != 1:
        raise InputError("the matrix oracle works over prime fields only")
    if g.twist != 1:
        raise InputError("the matrix oracle models the split even orthogonal form")


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
    """An isometry (det 1 where required) of Jordan type ep: the Cayley
    transform u = (1 + e)(1 - e)^-1 of a nilpotent e of the same Jordan type
    in the Lie algebra of the standard form.

    e is a sum of the maps R(a, b): x -> <b,x> a - s <a,x> b, s = (-1)^eps,
    each of which is skew for the form, on standard basis vectors.  A chain
    on indices i_1..i_r links v_{i_t} to v_{-i_{t+1}} and gives two Jordan
    blocks of size r; a pair of parts m = eps (mod 2) is a chain on m
    indices.  Any other part is one block: in Sp a chain on m/2 indices
    closed by R(v_{i_r}, v_{i_r}), in SO a chain on (m-1)/2 indices closed by
    R(v_{i_r}, z) with z anisotropic and orthogonal to everything else used.
    For odd p the Cayley transform preserves the form, has det 1 and keeps
    the Jordan type of e.
    """
    _check_model(g)
    p = g.p
    if ep.eps != g.form_eps or ep.total != g.dim:
        raise InputError("partition does not match the group")
    pos = {i: t for t, i in enumerate(_basis_indices(g))}
    s = (-1) ** g.form_eps
    N = g.dim
    M = [[0] * N for _ in range(N)]

    def link(a: dict[int, int], b: dict[int, int]) -> None:
        # M += a b^T - s b a^T, vectors given as {basis index: coefficient}
        for i, x in a.items():
            for j, y in b.items():
                M[pos[i]][pos[j]] += x * y
                M[pos[j]][pos[i]] -= s * x * y

    fresh = iter(range(1, g.n + 1))

    def chain(r: int) -> int | None:
        ids = [next(fresh) for _ in range(r)]
        for i, j in zip(ids, ids[1:]):
            link({i: 1}, {-j: 1})
        return ids[-1] if ids else None

    def anisotropic() -> Iterator[dict[int, int]]:
        # v_0 in SO_odd, then v_c + v_{-c}/2 and v_c - v_{-c}/2 (norms 1
        # and -1) on one fresh index c per two: pairwise orthogonal, and
        # orthogonal to every chain since each takes fresh indices
        if g.family is Family.SO_ODD:
            yield {0: 1}
        half = pow(2, -1, p)
        for c in fresh:
            yield {c: 1, -c: half}
            yield {c: 1, -c: -half}

    mu = ep.partition
    zs = anisotropic()
    for m in mu.distinct():
        r = mu.multiplicity(m)
        if m % 2 == g.form_eps:
            for _ in range(r // 2):
                chain(m)
        elif g.family is Family.SP:
            for _ in range(r):
                last = chain(m // 2)
                link({last: 1}, {last: 1})
        else:
            for _ in range(r):
                last = chain((m - 1) // 2)
                z = next(zs)
                if last is not None:
                    link({last: 1}, z)
    J = form_matrix(g)
    e = mat_mul(mat(M), J, p)
    one = identity_matrix(N)
    plus = tuple(tuple((x + y) % p for x, y in zip(ra, rb)) for ra, rb in zip(one, e))
    u = mat_mul(plus, mat_inv(mat_sub(one, e, p), p), p)
    special = g.family is not Family.SP
    if not is_isometry(u, J, p, special=special):
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
    _check_model(g)
    p = g.p
    pos = {i: t for t, i in enumerate(_basis_indices(g))}
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
        gens.append(elem({(1, 1): zeta - 1, (-1, -1): pow(zeta, -1, p) - 1}))
    J = form_matrix(g)
    for m_ in gens:
        if not is_isometry(m_, J, p, special=True):
            raise ArithmeticError("generator is not a special isometry")  # unreachable
    return gens


def _primitive_root(p: int) -> int:
    """The least c with c^((p-1)/r) != 1 mod p for every prime r | p - 1."""
    primes = [r for r, _ in factorize(p - 1)]
    return next(c for c in range(2, p) if all(pow(c, (p - 1) // r, p) != 1 for r in primes))


# ---------------------------------------------------------------------------
# power-map conjugacy search


class _Conjugator(NamedTuple):
    """A group generator h with the offsets of h and of h^-1 from the
    identity: they give the rows of h x and the columns of x h^-1 that can
    differ from those of x."""

    h: Matrix
    d: Offsets
    d_inv: Offsets


def _conjugator(h: Matrix, p: int) -> _Conjugator:
    return _Conjugator(h, _offsets(h, p), _offsets(mat_inv(h, p), p))


def _conjugation_walk(
    x0: bytes, conjugators: Sequence[_Conjugator], lanes: _Lanes, tree: dict
) -> Iterator[bytes]:
    """Breadth-first walk of the conjugation orbit of the packed matrix x0
    under the conjugators.  Records x0 and every new conjugate y = h x h^-1
    in tree as y -> (x, index of the conjugator), and yields each new y once,
    in the order of a FIFO queue.  The queue is taken one level at a time:
    the level is packed into one int, and one row update by h and one column
    update by h^-1 per conjugator give every conjugate of the level."""
    tree[x0] = (None, -1)
    level = [x0]
    while level:
        batch = lanes.batch(len(level))
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


@lru_cache(maxsize=None)
def _conjugators(g: GroupSpec) -> tuple[_Conjugator, ...]:
    """The conjugators of the orbit walk, one per group generator: in a
    finite group the generators alone reach every conjugate."""
    return tuple(_conjugator(h, g.p) for h in group_generators(g))


def _gram_test(J: Matrix, p: int) -> Callable[[Sequence[int]], bool]:
    """A test of X^T J X = J for a candidate X given by its row-major entries.
    J is read once as a signed permutation, J[i][s(i)] = c_i and zero
    elsewhere, so (X^T J X)_ab = sum_i c_i X[i][a] X[s(i)][b].  X^T J X is
    symmetric or alternating with J, so the entries with a <= b decide; they
    are compared with J one at a time, the pairings (a, s(a)) first since an
    intertwiner most often fails there, and the test stops at the first
    mismatch."""
    N = len(J)
    s = [next(j for j in range(N) if J[i][j]) for i in range(N)]
    coefs = [J[i][s[i]] for i in range(N)]
    upper = [(a, s[a]) for a in range(N) if a <= s[a]]
    upper += [(a, b) for a in range(N) for b in range(a, N) if b != s[a]]
    entries = [
        (itemgetter(*[i * N + a for i in range(N)]),
         itemgetter(*[s[i] * N + b for i in range(N)]),
         J[a][b])
        for a, b in upper
    ]

    def preserves(flat: Sequence[int]) -> bool:
        for left, right, want in entries:
            if sum(map(mul, map(mul, coefs, left(flat)), right(flat))) % p != want:
                return False
        return True

    return preserves


def _lex_search(
    basis: list[tuple[int, ...]], p: int, J: Matrix, special: bool
) -> Generator[None, None, Matrix | None]:
    """Scan the combinations of the intertwiner basis in lexicographic order
    and return the first that is an isometry (invertibility is automatic),
    with det 1 when special is set; one candidate per step.  The Gram test
    rejects most candidates on their first entry, det runs only on those it
    accepts, and the accepted X is checked once more in full."""
    N = len(J)
    preserves = _gram_test(J, p)
    for flat in _span(basis, _lanes(N, p)):
        if preserves(flat):
            X = tuple(flat[i * N:(i + 1) * N] for i in range(N))
            if not special or det(X, p) == 1:
                if not is_isometry(X, J, p, special):
                    raise ArithmeticError("lex witness check failed")  # unreachable
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
    conjugators = _conjugators(g)
    lanes = _lanes(len(u), p)
    target = lanes.key(uk)
    tree: dict[bytes, tuple[bytes | None, int]] = {}
    for y in _conjugation_walk(lanes.key(u), conjugators, lanes, tree):
        if y == target:
            w = identity_matrix(len(u))
            while tree[y][1] != -1:
                y, gi = tree[y]
                w = mat_mul(w, conjugators[gi].h, p)
            if mat_mul(w, u, p) != mat_mul(uk, w, p):
                raise ArithmeticError("orbit witness check failed")  # unreachable
            return w
        yield
    return None


def power_conjugacy_search(
    g: GroupSpec, u: Matrix, k: int, budget: int = DEFAULT_BUDGET,
    *, stats: dict | None = None,
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

    A dict passed as `stats` is filled with what decided: `decided_by`
    (`identity`, `lex` or `orbit`), `rounds` (the round that decided, 0 for
    the identity) and `intertwiner_dim` (None for the identity).
    """
    _check_model(g)
    p = g.p
    if gcd(k, p) != 1:
        raise InputError("k must be coprime to p")
    J = form_matrix(g)
    special = g.family is not Family.SP
    if not is_isometry(u, J, p, special=special):
        raise InputError("u is not an element of the group")
    uk = mat_pow(u, k, p)
    if uk == u:
        if stats is not None:
            stats.update(decided_by="identity", rounds=0, intertwiner_dim=None)
        return identity_matrix(len(u))
    basis = nullspace(_intertwiner_equations(u, uk, p), p)
    searches = (("lex", _lex_search(basis, p, J, special)),
                ("orbit", _orbit_search(g, u, uk)))
    for rounds in range(1, budget + 1):
        for name, search in searches:
            try:
                next(search)
            except StopIteration as done:
                if stats is not None:
                    stats.update(decided_by=name, rounds=rounds, intertwiner_dim=len(basis))
                return done.value
    raise BudgetExceededError(f"neither search decided within {budget} rounds")


# ---------------------------------------------------------------------------
# class census


@lru_cache(maxsize=None)
def class_census(g: GroupSpec) -> tuple[tuple[Matrix, ...], dict[Matrix, int]]:
    """Conjugacy classes by raw orbit computation: representatives (the least
    element of each class in lex order) and an element -> class map, whose
    length is the group order.  The generators are closed into the group by
    breadth-first right multiplication, then each class is walked under them;
    more than CENSUS_CAP elements raise BudgetExceededError.  Right
    multiplication by a generator is the column update of the orbit walk,
    on one packed level at a time."""
    conjugators = _conjugators(g)
    lanes = _lanes(g.dim, g.p)
    frontier = [lanes.key(identity_matrix(g.dim))]
    elements = set(frontier)
    while frontier:
        batch = lanes.batch(len(frontier))
        packed = batch.pack(frontier)
        products = [batch.keys(batch.right(packed, c.d)) for c in conjugators]
        grown = []
        for ys in zip(*products):
            for y in ys:
                if y not in elements:
                    if len(elements) == CENSUS_CAP:
                        raise BudgetExceededError(f"class census stops at {CENSUS_CAP} elements")
                    elements.add(y)
                    grown.append(y)
        frontier = grown
    index: dict[bytes, int] = {}
    reps: list[bytes] = []
    for m in sorted(elements):
        if m in index:
            continue
        index[m] = len(reps)
        for y in _conjugation_walk(m, conjugators, lanes, {}):
            index[y] = len(reps)
        reps.append(m)
    return (tuple(map(lanes.matrix, reps)),
            {lanes.matrix(m): ci for m, ci in index.items()})


def sl2_classes(q: int) -> tuple[tuple[Matrix, ...], dict[Matrix, int]]:
    """Conjugacy classes of the rank-one symplectic group Sp2(F_q)."""
    return class_census(GroupSpec(Family.SP, 1, q))


def brauer_fixed_classes_sl2(q: int, k: int) -> int:
    """Number of conjugacy classes of the rank-one symplectic group fixed by
    g -> g^k, by brute force."""
    reps, index = sl2_classes(q)
    if gcd(k, len(index)) != 1:
        raise InputError("k must be coprime to the group order")
    return sum(1 for ci, m in enumerate(reps) if index[mat_pow(m, k, q)] == ci)
