"""Independent brute-force verification over prime fields.

This module knows no character theory and no closed-form criteria: it builds
the classical groups as explicit matrix groups preserving the standard
bilinear forms, and decides conjugacy questions by raw search.  A unipotent
representative of a given Jordan type is the Cayley transform of a nilpotent
element of the Lie algebra of the standard form, built on standard basis
vectors, so it is an isometry by construction and needs no change of form.
The power-map search races two exact searches, a lexicographic scan of an
intertwiner space and a conjugation-orbit walk.  Each has a deciding step,
and the smaller one gives the answer, the scan on a tie; the scan runs ahead
to a doubling horizon and the walk follows only as far as the comparison
needs.  The walk depends only on the group and u, so one walk per (group, u)
is kept and grown toward the target u^k of each k, up to the census's element
cap; once the kept walk holds u^k or is closed, its deciding step is known
and the scan runs to that step instead of to a horizon past it.  The class
census walks the group itself as the orbit of the
identity under right multiplication, then each class under conjugation, up
to an element cap; the same closure of the root elements alone gives the
subgroup they generate.  The class power table walks the powers of each
representative once, up to the identity, and records the class of each
power, so a Brauer count for any k reads one entry per class and makes no
product.  The closed-form modules are tested against this module, never the
other way around.

Every generator is a root or torus element, which differs from the identity
in a few entries, so conjugating by it is a row update and a column update.
The walk runs these updates on packed matrices: a matrix is a bytes key
with one lane of at most 8 bytes per entry, a chunk of K matrices is one
int, and one lane-wise reduction mod p serves all K at once, so a chunk
costs a few big-int operations per generator.  The walk takes its parents
in chunks sized by the conjugates it still needs.  Dense products of tuples
serve everything else, the witnesses and the power table among them: one
straight-line product is generated per shape (rows, inner, cols) and kept,
which unpacks both operands into locals, so a ragged or non-conforming
operand raises InputError, and reduces each entry once.  Its source grows
with rows * inner * cols, so shapes above 12^3 raise BudgetExceededError:
the oracle takes groups of dimension up to 12, and `verify` uses 5 at most.

The scan takes the p candidates X0 + tB that differ in the last coefficient
as one row.  The first entry of the candidate's Gram matrix X^T J X is a
quadratic in t, so only its roots mod p, found by evaluation, go on to the
full Gram test, which reads the form as a signed permutation, compares
first the entry that rejected the last candidate and stops at the first
entry that differs from the form; det and the isometry check run only on a
candidate that passes.  The same test, with det in SO, checks that u is in
the group.  The intertwiner space comes from a row reduction that clears
each pivot column with the pivot row's nonzero entries only, a few per row
of the sparse intertwiner equations.

Matrices are tuples of tuples of residues mod p at the interface.  The
oracle works over prime fields and split forms only, with p < 2^62 so that
a sum of two residues fits an 8-byte lane, and every decision is exact
integer arithmetic in pure Python."""

from __future__ import annotations

import struct
from collections.abc import Callable, Generator, Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import chain, count
from math import ceil, gcd
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


@lru_cache(maxsize=None)
def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _shape(a: Sequence[Sequence[int]]) -> str:
    """a's shape for an error message: rows x columns, or the row lengths of
    a ragged matrix."""
    widths = [len(row) for row in a]
    if len(set(widths)) > 1:
        return f"a ragged matrix with rows of lengths {widths}"
    return f"a {len(a)}x{widths[0] if widths else 0} matrix"


def _square(a: Sequence[Sequence[int]], what: str) -> None:
    if any(len(row) != len(a) for row in a):
        raise InputError(f"{what} needs a square matrix, not {_shape(a)}")


_PRODUCT_CAP = 12 ** 3  # rows * inner * cols of the largest generated product


@lru_cache(maxsize=None)
def _product(rows: int, inner: int, cols: int) -> Callable[[Matrix, Matrix, int], Matrix]:
    """The product mod p of a rows x inner and an inner x cols matrix as
    straight-line code: both operands are unpacked into locals, which raises
    ValueError unless they have this shape, and each entry is one sum of
    products reduced once.  The source is built from the three integers
    alone; its size grows with their product, which _PRODUCT_CAP bounds."""
    if rows * inner * cols > _PRODUCT_CAP:
        raise BudgetExceededError(
            f"a {rows}x{inner} by {inner}x{cols} product exceeds {_PRODUCT_CAP} multiplications")

    def target(name: str, n: int, m: int) -> str:
        return "[" + ", ".join(
            "[" + ", ".join(f"{name}{i}_{j}" for j in range(m)) + "]" for i in range(n)) + "]"

    def entry(i: int, j: int) -> str:
        return "(" + (" + ".join(f"a{i}_{t} * b{t}_{j}" for t in range(inner)) or "0") + ") % p"

    def row(i: int) -> str:
        return "(" + "".join(f"{entry(i, j)}, " for j in range(cols)) + ")"

    source = (f"def product(a, b, p):\n"
              f"    {target('a', rows, inner)} = a\n"
              f"    {target('b', inner, cols)} = b\n"
              f"    return ({''.join(f'{row(i)}, ' for i in range(rows))})\n")
    namespace: dict = {}
    exec(source, namespace)
    return namespace["product"]


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    """a b mod p, by the straight-line product of their shape (`_product`);
    tuples of residues whatever the operands' sequences and entries."""
    try:
        return _product(len(a), len(b), len(b[0]) if b else 0)(a, b, p)
    except ValueError:
        raise InputError(f"cannot multiply {_shape(a)} by {_shape(b)}") from None


def mat_pow(a: Matrix, e: int, p: int) -> Matrix:
    """a^e by squaring from the top bit down: one product per bit below it
    and one more per set bit, none with the identity.  Every product goes
    through `mat_mul`, which reduces its entries, so only e = 1 reduces a.
    A non-square a raises InputError for every e, e = 0 and 1 included."""
    if e < 0:
        a, e = mat_inv(a, p), -e
    _square(a, "a power")
    if e == 0:
        return identity_matrix(len(a))
    if e == 1:
        return tuple(tuple(x % p for x in row) for row in a)
    result = a
    for bit in bin(e)[3:]:
        result = mat_mul(result, result, p)
        if bit == "1":
            result = mat_mul(result, a, p)
    return result


def transpose(a: Matrix) -> Matrix:
    try:
        return tuple(zip(*a, strict=True))
    except ValueError:
        raise InputError(f"cannot transpose {_shape(a)}") from None


def mat_sub(a: Matrix, b: Matrix, p: int) -> Matrix:
    try:
        return tuple(tuple((x - y) % p for x, y in zip(ra, rb, strict=True))
                     for ra, rb in zip(a, b, strict=True))
    except ValueError:
        raise InputError(f"cannot subtract {_shape(b)} from {_shape(a)}") from None


def _rref(a: Iterable[Sequence[int]], p: int) -> tuple[list[list[int]], list[int], int]:
    """Reduced row echelon form of a mod p; returns (rows, pivot columns,
    the product of the pivots with the sign of the row swaps).  For a square
    matrix with a pivot in every column that product is the determinant.
    A pivot column is cleared with the pivot row's nonzero entries only, so
    a sparse row, as most rows of an intertwiner system are, costs a few
    updates per row it clears."""
    rows = [[x % p for x in row] for row in a]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    scale = 1
    r = 0
    for c in range(ncols):
        for pivot in range(r, nrows):
            if rows[pivot][c]:
                break
        else:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            scale = -scale
        scale = scale * rows[r][c] % p
        inv = pow(rows[r][c], -1, p)
        top = rows[r]
        support = [(j, y * inv % p) for j, y in enumerate(top) if y]
        for j, y in support:
            top[j] = y
        for row in rows:
            f = row[c]
            if f and row is not top:
                for j, y in support:
                    row[j] = (row[j] - f * y) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots, scale


def rank(a: Matrix, p: int) -> int:
    return len(_rref(a, p)[1])


def det(a: Matrix, p: int) -> int:
    _square(a, "det")
    _, pivots, scale = _rref(a, p)
    return scale if len(pivots) == len(a) else 0


def mat_inv(a: Matrix, p: int) -> Matrix:
    _square(a, "an inverse")
    n = len(a)
    rows, pivots, _ = _rref([list(r) + [1 if i == j else 0 for j in range(n)]
                             for i, r in enumerate(a)], p)
    if pivots != list(range(n)):
        raise InputError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


def nullspace(a: list[list[int]], p: int) -> list[tuple[int, ...]]:
    """Canonical basis of the kernel of the matrix (rows = equations): one
    vector per free column of the RREF, so it depends only on the kernel."""
    ncols = len(a[0]) if a else 0
    rows, pivots, _ = _rref(a, p)
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
    bytes whose top bit lies above 2p, at most 8 for p < 2^62: a sum of two
    residues stays below the top bit, and one reduction brings every lane of
    a sum back below p.  The masks of one matrix (its lanes, each row, each
    column) are kept as bytes and repeated once per matrix of a batch."""

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
        layout = struct.Struct(f">{count}{'BHIQ'[width.bit_length() - 1]}")
        self.pack: Callable[[Iterable[int]], bytes] = lambda flat: layout.pack(*flat)
        self.unpack: Callable[[bytes], tuple[int, ...]] = layout.unpack

    def key(self, m: Matrix) -> bytes:
        return self.pack(chain.from_iterable(m))

    def matrix(self, key: bytes) -> Matrix:
        flat, n = self.unpack(key), self.n
        return tuple(flat[i:i + n] for i in range(0, n * n, n))


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
        self.split = struct.Struct(f"{lanes.size}s" * k).unpack

    def pack(self, keys: Sequence[bytes]) -> int:
        return int.from_bytes(b"".join(keys), "big")

    def keys(self, x: int) -> tuple[bytes, ...]:
        return self.split(x.to_bytes(self.length, "big"))

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
    """The linear equations of X u = uk X in the row-major entries of X,
    one per entry (i, j): row i of X times column j of u, less row i of uk
    times column j of X."""
    N = len(u)
    columns = list(zip(*u))
    eqs = []
    for i in range(N):
        for j in range(N):
            row = [0] * (i * N) + list(columns[j]) + [0] * ((N - 1 - i) * N)
            for t in range(N):
                row[t * N + j] = (row[t * N + j] - uk[i][t]) % p
            eqs.append(row)
    return eqs


def _span(basis: list[tuple[int, ...]], lanes: _Lanes) -> Iterator[tuple[int, ...]]:
    """Every combination of the basis mod p, in lexicographic order of the
    coefficients with the last one fastest (the zero vector alone for an
    empty basis).  An odometer on a packed vector: a step that carries from
    position i on raises every coefficient from i on by one (mod p), so it
    adds the packed suffix sum of the basis from i and reduces once."""
    reduce = _Batch(lanes, 1).reduce
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
        while i >= 0 and digits[i] == p - 1:
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
    if 2 * g.p >= 1 << 63:
        raise InputError("the matrix oracle packs entries in 8 bytes: p must be below 2^62")


def _basis_indices(g: GroupSpec) -> list[int]:
    n = g.n
    if g.family is Family.SO_ODD:
        return list(range(1, n + 1)) + [0] + list(range(-n, 0))
    return list(range(1, n + 1)) + list(range(-n, 0))


@lru_cache(maxsize=None)
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
    e = mat_mul(mat(M), form_matrix(g), p)
    one = identity_matrix(N)
    plus = tuple(tuple((x + y) % p for x, y in zip(ra, rb)) for ra, rb in zip(one, e))
    u = mat_mul(plus, mat_inv(mat_sub(one, e, p), p), p)
    if not _is_element(g, u):
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
    differ from those of x.  With no row offsets and h's as column offsets
    the same step is right multiplication x -> x h."""

    h: Matrix
    d: Offsets
    d_inv: Offsets


def _conjugator(h: Matrix, p: int) -> _Conjugator:
    return _Conjugator(h, _offsets(h, p), _offsets(mat_inv(h, p), p))


@lru_cache(maxsize=None)
def _conjugators(g: GroupSpec) -> tuple[_Conjugator, ...]:
    """The conjugators of the orbit walk, one per group generator: in a
    finite group the generators alone reach every conjugate."""
    return tuple(_conjugator(h, g.p) for h in group_generators(g))


_MIN_CHUNK = 32  # parents: a chunk's fixed cost is about that of this many


class _Walk:
    """Breadth-first walk of the conjugation orbit of the packed matrix x0
    under the conjugators, grown on demand.  `queue` holds x0 and every new
    conjugate y = h x h^-1 found so far, in the order of a FIFO queue; the
    first `expanded` entries are the parents already conjugated.  `seen`
    maps each conjugate to the edge that found it first, G i + j for the
    j-th of the G conjugators applied to the i-th parent (-1 for x0).
    Parents are taken a chunk at a time: the chunk is packed into one int,
    and one row update by h and one column update by h^-1 per conjugator
    give all of its conjugates.  The queue and the edges do not depend on
    the chunks, so a walk may be grown further at any later time.  The
    census walks the group itself with conjugators that have no row
    offsets, whose steps are x -> x h.

    For a `target`, the walk has a deciding step: the target's position in
    the queue, or the orbit's size once it closes without the target.
    `checked` counts the steps known not to decide."""

    def __init__(self, x0: bytes, conjugators: Sequence[_Conjugator], lanes: _Lanes):
        self.conjugators, self.lanes = conjugators, lanes
        self.queue = [x0]
        self.seen = {x0: -1}
        self.expanded = 0
        self.rate = len(conjugators)  # new conjugates per parent in the last chunk

    @property
    def closed(self) -> bool:
        return self.expanded == len(self.queue)

    def step(self, target: bytes) -> int | None:
        if target in self.seen:
            return self.queue.index(target)
        return len(self.queue) if self.closed else None

    def checked(self, target: bytes) -> int:
        step = self.step(target)
        return len(self.queue) - 1 if step is None else step - 1

    def grow(self, count: int, target: bytes | None = None) -> None:
        """Take chunks of parents until `count` conjugates besides x0 are
        known, the target is among them, or the orbit closes.  A chunk holds
        as many parents as the conjugates still needed would take at the
        rate of the last chunk, but at least _MIN_CHUNK, so a walk that stops
        early pays for the parents it used, not for the rest of their
        level."""
        queue, seen, conjugators = self.queue, self.seen, self.conjugators
        append = queue.append
        while len(queue) <= count and target not in seen and not self.closed:
            needed = count + 1 - len(queue)
            k = min(len(queue) - self.expanded, max(_MIN_CHUNK, ceil(needed / self.rate)))
            batch = _Batch(self.lanes, k)
            packed = batch.pack(queue[self.expanded:self.expanded + k])
            images = [batch.keys(batch.right(batch.left(packed, c.d), c.d_inv))
                      for c in conjugators]
            before = len(queue)
            for edge, y in enumerate(chain.from_iterable(zip(*images)),
                                     self.expanded * len(conjugators)):
                if y not in seen:
                    seen[y] = edge
                    append(y)
            self.expanded += k
            self.rate = max(len(queue) - before, 1) / k

    def path(self, y: bytes) -> list[int]:
        """The indices of the conjugators on the walk's path from y back to
        x0, the last edge first."""
        out = []
        edge = self.seen[y]
        while edge >= 0:
            parent, gi = divmod(edge, len(self.conjugators))
            out.append(gi)
            edge = self.seen[self.queue[parent]]
        return out


@lru_cache(maxsize=None)
def _orbit_walk(g: GroupSpec, x0: bytes) -> _Walk:
    """The conjugation-orbit walk of the packed matrix x0 in g, one per
    (g, x0): the power-map search grows it toward each call's target, so
    every k and every later call with an equal u start from the conjugates
    already found.  The key is the packed matrix, so u may be given as
    lists of lists."""
    return _Walk(x0, _conjugators(g), _lanes(g.dim, g.p))


def _signed_permutation(J: Matrix) -> tuple[list[int], list[int]]:
    """J read as a signed permutation: J[i][s(i)] = c_i, zero elsewhere."""
    s = [next(j for j in range(len(J)) if J[i][j]) for i in range(len(J))]
    return s, [J[i][s[i]] for i in range(len(J))]


@lru_cache(maxsize=None)
def _gram_test(J: Matrix, p: int) -> Callable[[Sequence[int]], bool]:
    """A test of X^T J X = J for a candidate X given by its row-major entries.
    With J[i][s(i)] = c_i, (X^T J X)_ab = sum_i c_i X[i][a] X[s(i)][b].
    X^T J X is symmetric or alternating with J, so the entries with a <= b
    decide; they are compared with J one at a time, the pairings (a, s(a))
    first since an intertwiner most often fails there, and the test stops at
    the first mismatch.  An entry that rejects a candidate moves to the
    front, so the next candidate is compared there first: the candidates of
    one scan tend to fail at the same entry, however deep in the order it
    lies."""
    N = len(J)
    s, coefs = _signed_permutation(J)
    upper = [(a, s[a]) for a in range(N) if a <= s[a]]
    upper += [(a, b) for a in range(N) for b in range(a, N) if b != s[a]]
    entries = [
        (itemgetter(*[i * N + a for i in range(N)]),
         itemgetter(*[s[i] * N + b for i in range(N)]),
         J[a][b])
        for a, b in upper
    ]

    def preserves(flat: Sequence[int]) -> bool:
        for rank, (left, right, want) in enumerate(entries):
            if sum(map(mul, map(mul, coefs, left(flat)), right(flat))) % p != want:
                if rank:
                    entries.insert(0, entries.pop(rank))
                return False
        return True

    return preserves


def _is_element(g: GroupSpec, m: Matrix) -> bool:
    """Is the square matrix m, of the group's size, in g: does it pass the
    Gram test, with det 1 unless g is symplectic?  The same answer as
    `is_isometry` without its two dense products."""
    return (_gram_test(form_matrix(g), g.p)(list(chain.from_iterable(m)))
            and (g.family is Family.SP or det(m, g.p) == 1))


def _plane_roots(
    J: Matrix, p: int, C: Sequence[int], B: Sequence[int]
) -> Callable[[Sequence[int]], Iterator[Sequence[int]]]:
    """For the plane Y + sC + tB of the lex scan, a function of Y that
    yields, for each row s = 0, 1, ... in turn, the t (in increasing order)
    at which entry (0, s(0)) of the Gram matrix equals J's; no other t can
    pass the Gram test.  With L_i(X) = X[i][0] and R_i(X) = X[s(i)][s(0)],
    that entry is the quadratic form E(X) = sum_i c_i L_i(X) R_i(X), so on
    the plane it is a0 + a1 s + a2 s^2 + (b0 + b1 s) t + gamma t^2: the
    coefficients a0, a1 and b0 are read off Y once per plane, the rest off C
    and B once.  The roots of each row's quadratic in t are found by
    evaluating it at every t and kept per (constant, linear) coefficient
    pair, of which there are at most p^2."""
    N = len(J)
    perm, coefs = _signed_permutation(J)
    col = perm[0]
    left = itemgetter(*[i * N for i in range(N)])
    right = itemgetter(*[perm[i] * N + col for i in range(N)])

    def form(lx: Sequence[int], rz: Sequence[int]) -> int:
        return sum(map(mul, map(mul, coefs, lx), rz))

    lc, rc, lb, rb = left(C), right(C), left(B), right(B)
    a2, b1, gamma = form(lc, rc), form(lc, rb) + form(lb, rc), form(lb, rb) % p
    known: dict[tuple[int, int], Sequence[int]] = {}

    def rows(y: Sequence[int]) -> Iterator[Sequence[int]]:
        ly, ry = left(y), right(y)
        a0 = form(ly, ry) - J[0][col]
        a1 = form(ly, rc) + form(lc, ry)
        b0 = form(ly, rb) + form(lb, ry)
        for s in count():
            key = ((a0 + s * (a1 + s * a2)) % p, (b0 + s * b1) % p)
            roots = known.get(key)
            if roots is None:
                c, b = key
                roots = known[key] = [t for t in range(p) if (c + t * (b + t * gamma)) % p == 0]
            yield roots

    return rows


def _lex_rows(
    basis: list[tuple[int, ...]], p: int, J: Matrix, special: bool
) -> Generator[int, None, tuple[int, Matrix | None]]:
    """The lexicographic scan of the intertwiner space, one row per step of
    the generator.  A row is the p candidates X0 + tB, t = 0..p-1, for B the
    last basis vector and X0 a combination of the others; rows come in lex
    order of their coefficients, so candidate t of row r is scan step
    rp + t + 1.  Only the t that `_plane_roots` returns go on to the full
    Gram test, then det (when `special` is set), then the isometry check.
    Yields the number of steps checked after each row without a witness;
    returns the deciding step with the witness, the first accepted
    candidate, or p^c + 1 with None when the scan runs out."""
    N = len(J)
    if len(basis) > 1:
        *outer, C, B = basis
        width = p
    else:
        outer, C, B, width = [], (0,) * N * N, basis[0], 1
    plane = _plane_roots(J, p, C, B)
    preserves = _gram_test(J, p)
    checked = 0
    for y in _span(outer, _lanes(N, p)):
        for s, roots in zip(range(width), plane(y)):
            for t in roots:
                flat = [(a + s * c + t * b) % p for a, c, b in zip(y, C, B)]
                if not preserves(flat):
                    continue
                X = tuple(tuple(flat[i * N:(i + 1) * N]) for i in range(N))
                if not special or det(X, p) == 1:
                    if not is_isometry(X, J, p, special):
                        raise ArithmeticError("lex witness check failed")  # unreachable
                    return checked + t + 1, X
            checked += p
            yield checked
    return checked + 1, None


class _LexScan:
    """`_lex_rows` run on demand: `checked` counts the steps known not to
    decide, and `step` and `witness` are set once the scan decides."""

    def __init__(self, basis: list[tuple[int, ...]], p: int, J: Matrix, special: bool):
        self.rows = _lex_rows(basis, p, J, special)
        self.checked = 0
        self.step: int | None = None
        self.witness: Matrix | None = None

    def scan(self, limit: int) -> None:
        """Scan whole rows until `limit` steps are checked or the scan
        decides."""
        while self.step is None and self.checked < limit:
            try:
                self.checked = next(self.rows)
            except StopIteration as done:
                self.step, self.witness = done.value
                self.checked = self.step - 1


_FIRST_HORIZON = 64  # steps the lex scan runs ahead before the walk first moves


def power_conjugacy_search(
    g: GroupSpec, u: Matrix, k: int, budget: int = DEFAULT_BUDGET,
    *, stats: dict | None = None,
) -> Matrix | None:
    """A witness X with X u X^{-1} = u^k inside the finite isometry group
    (det 1 where the group demands it), or None when there is none.

    If u^k = u the identity is the witness.  Otherwise two exact searches
    race, and each has a deciding step: the lexicographic scan of the
    intertwiner space {X : X u = u^k X} decides at the index of its first
    isometry plus 1, or at p^c + 1 when the c-dimensional space holds none;
    the breadth-first walk of the conjugation orbit of u under the group
    generators decides at the position of u^k among the new conjugates, or
    at their number plus 1 when the orbit closes without meeting u^k.  The
    search with the smaller deciding step gives the answer, the scan on a
    tie, so the witness is deterministic: the first isometry in lex order,
    or the product of the conjugators along the walk's path.  The scan runs
    ahead to a doubling horizon, or straight to the walk's deciding step
    once that is known, and the walk follows only as far as it must to tell
    which step is smaller.  The walk of (g, u) is kept
    (`_orbit_walk`) and grown further by later calls; a call that leaves it
    past CENSUS_CAP conjugates drops every kept walk.  A smaller step above
    `budget` raises; the search never truncates.

    A dict passed as `stats` is filled with what decided: `decided_by`
    (`identity`, `lex` or `orbit`), `rounds` (the smaller deciding step, 0
    for the identity) and `intertwiner_dim` (None for the identity); and
    with what it cost: `lex_checked` (the scan steps known not to decide, 0
    for the identity) and `walk_size` (the conjugates the kept walk holds
    after the call, u among them; None for the identity).
    """
    _check_model(g)
    p = g.p
    if gcd(k, p) != 1:
        raise InputError("k must be coprime to p")
    J = form_matrix(g)
    N = len(J)
    if len(u) != N:
        raise InputError("dimension mismatch")
    u = tuple(tuple(int(x) % p for x in row) for row in u)
    if any(len(row) != N for row in u) or not _is_element(g, u):
        raise InputError("u is not an element of the group")
    special = g.family is not Family.SP
    uk = mat_pow(u, k, p)
    if uk == u:
        if stats is not None:
            stats.update(decided_by="identity", rounds=0, intertwiner_dim=None,
                         lex_checked=0, walk_size=None)
        return identity_matrix(N)
    basis = nullspace(_intertwiner_equations(u, uk, p), p)
    lex = _LexScan(basis, p, J, special)
    lanes = _lanes(N, p)
    walk, target = _orbit_walk(g, lanes.key(u)), lanes.key(uk)
    horizon = min(_FIRST_HORIZON, budget)
    try:
        while True:
            # once the walk's deciding step is known the scan runs to it, not
            # to a doubling horizon past it
            known = walk.step(target)
            lex.scan(horizon if known is None else min(known, budget))
            walk.grow(horizon if lex.step is None else min(lex.step - 1, budget), target)
            # a search wins once the other is known not to decide before it
            step = walk.step(target)
            if step is not None and step <= lex.checked:
                name, rounds = "orbit", step
            elif lex.step is not None and lex.step <= walk.checked(target) + 1:
                name, rounds = "lex", lex.step
            elif min(lex.checked, walk.checked(target)) >= budget:
                raise BudgetExceededError(f"neither search decided within {budget} rounds")
            else:
                horizon = min(2 * horizon, budget)
                continue
            break
    finally:
        if len(walk.queue) > CENSUS_CAP:  # no walk past the census's cap is kept
            _orbit_walk.cache_clear()
    if rounds > budget:
        raise BudgetExceededError(f"neither search decided within {budget} rounds")
    if stats is not None:
        stats.update(decided_by=name, rounds=rounds, intertwiner_dim=len(basis),
                     lex_checked=lex.checked, walk_size=len(walk.queue))
    if name == "lex":
        return lex.witness
    if target not in walk.seen:
        return None
    w = identity_matrix(N)
    for gi in walk.path(target):
        w = mat_mul(w, walk.conjugators[gi].h, p)
    if mat_mul(w, u, p) != mat_mul(uk, w, p):
        raise ArithmeticError("orbit witness check failed")  # unreachable
    return w


# ---------------------------------------------------------------------------
# class census


def _closure(g: GroupSpec, conjugators: Sequence[_Conjugator]) -> list[bytes]:
    """The packed elements of the subgroup that the conjugators' h generate:
    the orbit of the identity under right multiplication, a walk whose steps
    have no row update and h's offsets as their column update.  More than
    CENSUS_CAP elements raise BudgetExceededError."""
    lanes = _lanes(g.dim, g.p)
    walk = _Walk(lanes.key(identity_matrix(g.dim)),
                 [_Conjugator(c.h, (), c.d) for c in conjugators], lanes)
    walk.grow(CENSUS_CAP)
    if not walk.closed or len(walk.queue) > CENSUS_CAP:
        raise BudgetExceededError(f"the closure stops at {CENSUS_CAP} elements")
    return walk.queue


@lru_cache(maxsize=None)
def class_census(g: GroupSpec) -> tuple[tuple[Matrix, ...], dict[Matrix, int]]:
    """Conjugacy classes by raw orbit computation: representatives (the least
    element of each class in lex order) and an element -> class map, whose
    length is the group order.  The group is the closure of the generators;
    then each class is walked under conjugation.  More than CENSUS_CAP
    elements raise BudgetExceededError."""
    conjugators = _conjugators(g)
    lanes = _lanes(g.dim, g.p)
    group = _closure(g, conjugators)
    index: dict[bytes, int] = {}
    reps: list[bytes] = []
    for m in sorted(group):
        if m in index:
            continue
        walk = _Walk(m, conjugators, lanes)
        walk.grow(len(group))
        index.update(dict.fromkeys(walk.queue, len(reps)))
        reps.append(m)
    return (tuple(map(lanes.matrix, reps)),
            {lanes.matrix(m): ci for m, ci in index.items()})


@lru_cache(maxsize=None)
def root_subgroup(g: GroupSpec) -> frozenset[Matrix]:
    """The subgroup generated by the root elements, the generators of order
    p, as a set of matrices: the closure of those generators alone.  More
    than CENSUS_CAP elements raise BudgetExceededError."""
    lanes = _lanes(g.dim, g.p)
    one = identity_matrix(g.dim)
    roots = [c for c in _conjugators(g) if mat_pow(c.h, g.p, g.p) == one]
    return frozenset(map(lanes.matrix, _closure(g, roots)))


def sl2_classes(q: int) -> tuple[tuple[Matrix, ...], dict[Matrix, int]]:
    """Conjugacy classes of the rank-one symplectic group Sp2(F_q)."""
    return class_census(GroupSpec(Family.SP, 1, q))


@lru_cache(maxsize=None)
def class_powers(g: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """The class power table of `class_census(g)`: for each representative m,
    in census order, the classes of m^0, m^1, ..., m^(o-1), where o is the
    element order of m, so the class of m^k is row[k % len(row)] for every
    integer k.  Each row is one walk of powers, multiplying by m up to the
    identity."""
    reps, index = class_census(g)
    one = identity_matrix(g.dim)

    def row(m: Matrix) -> tuple[int, ...]:
        classes, x = [index[one]], m
        while x != one:
            classes.append(index[x])
            x = mat_mul(x, m, g.p)
        return tuple(classes)

    return tuple(map(row, reps))


def brauer_fixed_classes(g: GroupSpec, k: int) -> int:
    """Number of conjugacy classes of g fixed by x -> x^k, by brute force: a
    class is fixed when its representative's k-th power lies in it, which
    the class power table answers without a product."""
    _, index = class_census(g)
    if gcd(k, len(index)) != 1:
        raise InputError("k must be coprime to the group order")
    return sum(row[k % len(row)] == ci for ci, row in enumerate(class_powers(g)))


def brauer_fixed_classes_sl2(q: int, k: int) -> int:
    """`brauer_fixed_classes` on the rank-one symplectic group Sp2(F_q)."""
    return brauer_fixed_classes(GroupSpec(Family.SP, 1, q), k)
