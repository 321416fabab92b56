"""Independent brute-force verification over prime fields.

This module knows no character theory and no closed-form criteria: it builds
the classical groups as explicit matrix groups preserving the standard
bilinear forms, and decides conjugacy questions by raw search.  A unipotent
representative of a given Jordan type is the Cayley transform of a nilpotent
e in the Lie algebra of the standard form, built on standard basis vectors
and summed as the series 1 + 2(e + e^2 + ...): an isometry by construction,
with no change of form, no inverse and no check per call.
The power-map search races two exact searches, a lexicographic scan of an
intertwiner space and a conjugation-orbit walk.  Each has a deciding step,
and the smaller one gives the answer, the scan on a tie; the scan runs ahead
to a doubling horizon and the walk follows only as far as the comparison
needs.  The walk depends only on the group and u, so one walk per (group, u)
is kept and grown toward the target u^k of each k, up to the census's
element cap; once the kept walk holds u^k or is closed, its deciding step is
known and the scan runs to that step instead of to a horizon past it.  The
kept walk also holds u's offsets and, for each k asked for so far, u^k and
the plan of the scan (its intertwiner basis, its plane constants and its
table of filter hits by plane), so a repeated (group, u, k) pays for none of
them again; its scan still runs to the deciding step.  The class census
walks the group itself as the orbit of the identity under right
multiplication, then each class under conjugation, up to an element cap, and
keeps its element -> class map on packed matrices; the same closure of the
root elements alone gives the subgroup they generate.  The class power table
decodes each representative and walks its powers once, up to the identity,
looking up the class of each power packed.  From it the classes fixed by
x -> x^r are counted once per group for every r mod the exponent of the group,
one count vector, so a Brauer count for any k is one entry of it; no other
element is decoded unless `class_census` itself is asked for.  The
closed-form modules are tested against this module, never the other way
around.

Every generator is a root or torus element, which differs from the identity
in a few entries, so conjugating by it is a row update and a column
update.  The walk runs these updates on packed matrices: a matrix is a bytes
key with one lane of at most 8 bytes per entry, a chunk of K matrices is one
int, and one lane-wise reduction mod p serves all K at once, so a chunk
costs a few big-int operations per generator.  The walk takes its parents in
chunks sized by the conjugates it still needs.  Dense products of tuples
serve everything else, the witness check and the power table among them: one
straight-line product is generated per shape (rows, inner, cols) and kept,
which unpacks both operands into locals, so a ragged or non-conforming
operand raises InputError, and reduces each entry once.  Its source grows
with rows * inner * cols, so shapes above 12^3 raise BudgetExceededError:
the oracle takes groups of dimension up to 12, and `verify` uses 5 at most.

The standard form is read once per group, as a `_Form`: building one rejects
the groups the oracle does not model, then lays out the basis and builds J
as a signed permutation, and from it the Gram test and the getters of the
plane filter of the lex scan.  The scan takes the p^2 candidates Y + sC + tB
that differ in the last two coefficients as one plane of p rows.  The first
entry of the candidate's Gram matrix X^T J X is a quadratic in s and t; Y
sets three of its coefficients, C and B the rest.  The plane filter
(`_HitTable`) finds the t of each row at which it equals J's by evaluation,
and keeps a plane's hits by Y's three coefficients, filled only up to the
row a scan stops at.  Only the hits go on to the full Gram test, and the
rows without one are passed over.  The test compares first the entry that
rejected the last candidate and stops at the first entry that differs from
the form; det runs, in SO, only on a candidate that passes.  The two are the
oracle's one membership test (`_Form.contains`), for the scan's candidates,
the group generators, and u once per kept walk.  Either search's witness X
is certified once, by X u = uk X in two products.  The intertwiner space is
the kernel of those equations, built as sparse rows from the entries at
which u and uk differ from the identity and reduced to its canonical basis
by the module's one row reduction, sparse and a row at a time, which det and
inverses share.

Matrices are tuples of tuples of residues mod p at the interface.  `mat`,
`mat_pow`, the row reduction and the power-map search read entries by
operator.index, so there a float or a string raises InputError.  The oracle
works over prime fields and split forms only, with p < 2^62 so that a sum of
two residues fits an 8-byte lane, and every decision is exact integer
arithmetic in pure Python."""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property, lru_cache
from itertools import chain, combinations, starmap
from math import ceil, gcd, lcm
from operator import gt, index, itemgetter, mul
from typing import NamedTuple

from .errors import BudgetExceededError, InputError, as_int
from .groups import Family, GroupSpec, factorize, power_exponent
from .partitions import EpsPartition

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_BUDGET = 10_000_000
CENSUS_CAP = 60_000  # elements; admits Sp4(F3) and SO5(F3), 51,840 each


# ---------------------------------------------------------------------------
# prime-field matrix toolkit


def mat(rows) -> Matrix:
    """rows as a tuple of tuples of ints; an entry without __index__ (a
    float, a string) raises InputError naming it."""
    return tuple(tuple(as_int(x, "a matrix entry") for x in row) for row in rows)


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
    """a b mod p, by the straight-line product of their shape (`_product`),
    as tuples; entries are not checked, so float entries give floats."""
    try:
        return _product(len(a), len(b), len(b[0]) if b else 0)(a, b, p)
    except ValueError:
        raise InputError(f"cannot multiply {_shape(a)} by {_shape(b)}") from None


def mat_pow(a: Matrix, e: int, p: int) -> Matrix:
    """a^e by squaring from the top bit down: one product per bit below it
    and one more per set bit, none with the identity.  Every product goes
    through `mat_mul`, which reduces its entries, so only e = 1 reduces a.
    a is read through `mat`, so an entry that is no integer raises
    InputError for every e, e = 0 and 1 included, as a non-square a does."""
    a = mat(a)
    if as_int(e, "e") < 0:
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


def _echelon(rows: Iterable[dict[int, int]], p: int) -> tuple[dict[int, dict[int, int]], int]:
    """The reduced row echelon form of the sparse rows {column: nonzero
    residue mod p}, which it consumes, and the product of the pivots scaled
    out (0 once a row reduces to zero).  A new row is cleared at the kept
    pivot columns, scaled to 1 at its least column if anything is left, and
    that column cleared from the kept rows.  A kept row is stored by its
    pivot column, in the order of the rows that gave it, without its pivot
    entry and the other pivot columns; only nonzero entries are touched or
    stored.  For a square matrix of full rank the determinant is the product
    times the sign of the order of the pivot columns."""
    echelon: dict[int, dict[int, int]] = {}
    scale = 1
    for row in rows:
        for c in row.keys() & echelon.keys():
            f = row.pop(c)
            for j, y in echelon[c].items():
                if x := (row.get(j, 0) - f * y) % p:
                    row[j] = x
                else:
                    del row[j]
        if not row:
            scale = 0
            continue
        c = min(row)
        pivot = row.pop(c)
        scale = scale * pivot % p
        if pivot != 1:
            inv = pow(pivot, -1, p)
            row = {j: x * inv % p for j, x in row.items()}
        for kept in echelon.values():
            if c in kept:
                f = kept.pop(c)
                for j, y in row.items():
                    if x := (kept.get(j, 0) - f * y) % p:
                        kept[j] = x
                    else:
                        del kept[j]
        echelon[c] = row
    return echelon, scale


def _kernel(rows: Iterable[dict[int, int]], ncols: int, p: int) -> list[tuple[int, ...]]:
    """Canonical basis of the kernel of the sparse rows (`_echelon`), one
    vector per free column, so it depends only on the kernel."""
    echelon, _ = _echelon(rows, p)
    vectors = {c: [0] * ncols for c in range(ncols) if c not in echelon}
    for c, v in vectors.items():
        v[c] = 1
    for c, top in echelon.items():
        for j, y in top.items():
            vectors[j][c] = -y % p
    return [tuple(v) for v in vectors.values()]


def _sparse(a: Sequence[Sequence[int]], p: int, what: str) -> list[dict[int, int]]:
    """a's rows as sparse rows for `_echelon`, their nonzero residues mod p
    by column, each entry read by operator.index; a ragged a or an entry
    that is no integer raises InputError."""
    if len(set(map(len, a))) > 1:
        raise InputError(f"{what} needs rows of one length, not {_shape(a)}")
    try:
        return [{j: y for j, x in enumerate(row) if (y := index(x) % p)} for row in a]
    except TypeError:
        mat(a)  # raises InputError naming the entry that is no integer
        raise


def det(a: Matrix, p: int) -> int:
    _square(a, "det")
    echelon, scale = _echelon(_sparse(a, p, "det"), p)
    inversions = sum(starmap(gt, combinations(echelon, 2)))  # of the pivot order
    return -scale % p if inversions % 2 else scale


def mat_inv(a: Matrix, p: int) -> Matrix:
    """a^-1 mod p, row c read off the kept row of pivot column c of [a | I]."""
    _square(a, "an inverse")
    n = len(a)
    rows = _sparse(a, p, "an inverse")
    for i, row in enumerate(rows):
        row[n + i] = 1
    echelon, _ = _echelon(rows, p)
    if any(c not in echelon for c in range(n)):
        raise InputError("matrix is singular")
    return tuple(tuple(echelon[c].get(n + j, 0) for j in range(n)) for c in range(n))


def nullspace(a: Sequence[Sequence[int]], p: int) -> list[tuple[int, ...]]:
    """Canonical basis of the kernel of the matrix (rows = equations): one
    vector per free column of the reduced row echelon form, so it depends
    only on the kernel.  The dense rows are read as sparse ones and reduced
    by `_kernel`; ragged rows raise InputError."""
    ncols = len(a[0]) if a else 0
    return _kernel(_sparse(a, p, "nullspace"), ncols, p)


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

    @cached_property
    def single(self) -> _Batch:
        """The batch of one matrix, built on first use: `_span` reduces with
        it."""
        return _Batch(self, 1)


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


def _intertwiners(d: Offsets, dk: Offsets, N: int, p: int) -> list[tuple[int, ...]]:
    """The canonical basis (`_kernel`) of the N x N matrices X, as row-major
    entries, with X d = dk X, where d and dk are the offsets of u and uk
    from the identity, so that X u = uk X: one sparse equation per entry
    (i, j) with a term, in which an entry (t, j, c) of d puts c at X[i][t]
    and an entry (i, t, c) of dk puts -c at X[t][j]; two terms on one
    unknown are summed, and a sum of 0 is left out, as `_echelon` takes
    nonzero entries only.  For a unipotent u, d and dk have a few entries
    each."""
    eqs: dict[int, dict[int, int]] = {}
    for t, j, c in d:
        for i in range(N):
            eqs.setdefault(i * N + j, {})[i * N + t] = c
    for i, t, c in dk:
        for j in range(N):
            eq = eqs.setdefault(i * N + j, {})
            if x := (eq.get(t * N + j, 0) - c) % p:
                eq[t * N + j] = x
            else:
                del eq[t * N + j]
    return _kernel(eqs.values(), N * N, p)


def _span(basis: list[tuple[int, ...]], lanes: _Lanes) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every combination of the basis mod p, packed and as entries, in
    lexicographic order of the coefficients with the last one fastest (the
    zero vector alone for an empty basis).  An odometer on a packed vector:
    a step that carries from position i on raises every coefficient from i
    on by one (mod p), so it adds the packed suffix sum of the basis from i
    and reduces once."""
    reduce = lanes.single.reduce
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
        yield v, unpack(v.to_bytes(size, "big"))
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


class _Form:
    """The standard form of a group the oracle models, read once.  The basis
    is v_1..v_n, then v_0 in SO_odd, then v_-n..v_-1; the form pairs v_i
    with v_-i by sgn(i)^eps and no other pair, so J is the signed
    permutation J[t][perm[t]] = coefs[t], built from the basis.  Building
    one rejects the groups the oracle does not model."""

    def __init__(self, g: GroupSpec):
        if g.field_degree != 1:
            raise InputError("the matrix oracle works over prime fields only")
        if g.twist != 1:
            raise InputError("the matrix oracle models the split even orthogonal form")
        if 2 * g.p >= 1 << 63:
            raise InputError("the matrix oracle packs entries in 8 bytes: p must be below 2^62")
        n, p = g.n, g.p
        self.p, self.special = p, g.family is not Family.SP
        basis = [*range(1, n + 1), *([0] if g.family is Family.SO_ODD else []), *range(-n, 0)]
        self.pos = {i: t for t, i in enumerate(basis)}
        N = len(basis)
        self.perm = perm = [self.pos[-i] for i in basis]
        self.coefs = coefs = [(1 if i >= 0 else -1) ** g.form_eps % p for i in basis]
        self.J = tuple(tuple(c if j == s else 0 for j in range(N)) for s, c in zip(perm, coefs))
        # The Gram test: does X^T J X = J for a candidate X given by its
        # row-major entries?  (X^T J X)_ab = sum_i c_i X[i][a] X[perm(i)][b],
        # and X^T J X is symmetric or alternating with J, so the entries with
        # a <= b decide.  They are compared with J one at a time, the
        # pairings (a, perm(a)) first since an intertwiner most often fails
        # there, and the test stops at the first mismatch.  An entry that
        # rejects a candidate moves to the front, so the next candidate is
        # compared there first: the candidates of one scan tend to fail at
        # the same entry, however deep in the order it lies.
        upper = [(a, perm[a]) for a in range(N) if a <= perm[a]]
        upper += [(a, b) for a in range(N) for b in range(a, N) if b != perm[a]]
        entries = [
            (itemgetter(*[i * N + a for i in range(N)]),
             itemgetter(*[perm[i] * N + b for i in range(N)]),
             self.J[a][b])
            for a, b in upper
        ]

        def preserves(flat: Sequence[int]) -> bool:
            for rank, (left, right, want) in enumerate(entries):
                if sum(map(mul, map(mul, coefs, left(flat)), right(flat))) % p != want:
                    if rank:
                        entries.insert(0, entries.pop(rank))
                    return False
            return True

        self.preserves = preserves
        # the plane filter's (`_HitTable`) entry (0, perm(0)) of the Gram
        # matrix, E(X) = sum_i c_i L_i(X) R_i(X): the getters of L and R, and
        # E on their values
        self.left = itemgetter(*[i * N for i in range(N)])
        self.right = itemgetter(*[perm[i] * N + perm[0] for i in range(N)])
        self.form: Callable[[Sequence[int], Sequence[int]], int] = (
            lambda lx, rz: sum(map(mul, map(mul, coefs, lx), rz)))

    def contains(self, flat: Sequence[int]) -> bool:
        """The oracle's one membership test: is the matrix with the row-major
        residues flat in the group, by the Gram test and, in SO, det 1?"""
        N = len(self.J)
        return self.preserves(flat) and (
            not self.special or det([flat[i:i + N] for i in range(0, N * N, N)], self.p) == 1)


class _Hits:
    """The hit offsets of the planes of one key (`_HitTable`), filled a row
    at a time: `offsets` holds those of the first `rows` rows, in increasing
    order."""

    __slots__ = ("a0", "a1", "b0", "rows", "offsets")

    def __init__(self, a0: int, a1: int, b0: int):
        self.a0, self.a1, self.b0, self.rows = a0, a1, b0, 0
        self.offsets: list[int] = []


class _HitTable:
    """The plane filter of the lex scan and its table of hits.  For the
    planes Y + sC + tB (s < width, t < p), a hit is an offset s p + t at
    which entry (0, perm(0)) of the Gram matrix equals J's; no other
    candidate of the plane can pass the Gram test.  With L_i(X) = X[i][0]
    and R_i(X) = X[perm(i)][perm(0)], that entry is the quadratic form E(X)
    = sum_i c_i L_i(X) R_i(X), so on the plane it is a0 + a1 s + a2 s^2 +
    (b0 + b1 s) t + gamma t^2: the coefficients a0, a1 and b0 are read off Y
    once per plane, the rest off C and B once.  The hits depend on Y only
    through (a0, a1, b0) mod p, so the planes of one key share one entry
    (`_Hits`).  `fill` extends an entry a row at a time, only as far as a
    scan reaches, from the roots of each row's quadratic in t; the roots are
    found by evaluating it at every t and kept per (constant, linear)
    coefficient pair, of which there are at most p^2.  A cold scan thus
    evaluates what a scan row by row does, and a warm one reads the rows
    filled before."""

    def __init__(self, form: _Form, C: Sequence[int], B: Sequence[int], width: int):
        p, left, right, f = form.p, form.left, form.right, form.form
        lc, rc, lb, rb = left(C), right(C), left(B), right(B)
        self.p, self.width, self.want, self.left, self.right, self.f = (
            p, width, form.coefs[0], left, right, f)
        self.a2, self.b1, self.gamma = f(lc, rc), f(lc, rb) + f(lb, rc), f(lb, rb) % p
        # a1 and b0 are linear in (L(Y), R(Y)): their weights, c R(C), c L(C)
        # and c R(B), c L(B)
        self.w1 = [*map(mul, form.coefs, rc), *map(mul, form.coefs, lc)]
        self.w0 = [*map(mul, form.coefs, rb), *map(mul, form.coefs, lb)]
        self.known: dict[int, tuple[int, ...]] = {}
        self.entries: dict[int, _Hits] = {}

    def __call__(self, y: Sequence[int]) -> _Hits:
        """The entry of the plane through Y, filled as far as scans reached."""
        p, ly, ry = self.p, self.left(y), self.right(y)
        both = ly + ry
        a0 = (self.f(ly, ry) - self.want) % p
        a1, b0 = sum(map(mul, both, self.w1)) % p, sum(map(mul, both, self.w0)) % p
        key = (a0 * p + a1) * p + b0
        hits = self.entries.get(key)
        if hits is None:
            hits = self.entries[key] = _Hits(a0, a1, b0)
        return hits

    def fill(self, hits: _Hits, rows: int) -> None:
        """Fill rows of hits until one holds a hit or `rows` (at most width)
        are filled."""
        p, a2, b1, gamma, known = self.p, self.a2, self.b1, self.gamma, self.known
        a0, a1, b0, offsets = hits.a0, hits.a1, hits.b0, hits.offsets
        s, end, found = hits.rows, min(rows, self.width), len(offsets)
        while s < end and len(offsets) == found:
            c, b = (a0 + s * (a1 + s * a2)) % p, (b0 + s * b1) % p
            roots = known.get(c * p + b)
            if roots is None:
                roots = known[c * p + b] = tuple(
                    t for t in range(p) if (c + t * (b + t * gamma)) % p == 0)
            offsets += [s * p + t for t in roots]
            s += 1
        hits.rows = s


@lru_cache(maxsize=None)
def _form(g: GroupSpec) -> _Form:
    """The standard form of g, one per group: its Gram test keeps its entry
    order from one call to the next."""
    return _Form(g)


def form_matrix(g: GroupSpec) -> Matrix:
    """Gram matrix of the standard form on the ordered basis: the pairing of
    v_i with v_{-i} is sgn(i)^eps, all other pairs vanish."""
    return _form(g).J


def _is_element(g: GroupSpec, m: Matrix) -> bool:
    """Is the square matrix m of residues, of g's size, in g (`_Form.contains`)?"""
    return _form(g).contains(list(chain.from_iterable(m)))


# ---------------------------------------------------------------------------
# unipotent representatives


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
    For odd p, u preserves the form as (1 + e)^T J = J (1 - e), and u - 1 =
    2e (1 - e)^-1 has the rank of e in every power, so u is unipotent of the
    Jordan type of e.  As e is nilpotent, u = 1 + 2(e + e^2 + ...), summed
    up to the first power of e that vanishes: products only, no inverse.
    M (e = M J) is built as sparse rows, and e read off it entry by entry,
    since J is a signed permutation; the series is summed on the sparse
    entries, and a row of u with none is the identity's row.
    """
    form = _form(g)
    p, pos = g.p, form.pos
    if ep.eps != g.form_eps or ep.total != g.dim:
        raise InputError("partition does not match the group")
    s = (-1) ** g.form_eps
    M: dict[int, dict[int, int]] = {}  # sparse rows {column: entry}

    def add(i: int, j: int, x: int) -> None:
        row = M.setdefault(pos[i], {})
        row[pos[j]] = row.get(pos[j], 0) + x

    def link(a: dict[int, int], b: dict[int, int]) -> None:
        # M += a b^T - s b a^T, vectors given as {basis index: coefficient}
        for i, x in a.items():
            for j, y in b.items():
                add(i, j, x * y)
                add(j, i, -s * x * y)

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
    # e = M J, J the signed permutation J[c][perm[c]] = coefs[c]: column c of
    # M, scaled, becomes column perm[c] of e
    perm, coefs = form.perm, form.coefs
    e = {i: row for i, entries in M.items()
         if (row := {perm[c]: y for c, x in entries.items() if (y := x * coefs[c] % p)})}
    series: dict[int, dict[int, int]] = {}  # e + e^2 + ..., mod p
    power = e
    while power:
        for i, row in power.items():
            total = series.setdefault(i, {})
            for j, x in row.items():
                total[j] = (total.get(j, 0) + x) % p
        product: dict[int, dict[int, int]] = {}
        for i, row in power.items():
            out: dict[int, int] = {}
            for c, x in row.items():
                for j, y in e.get(c, {}).items():
                    out[j] = out.get(j, 0) + x * y
            if out := {j: z for j, x in out.items() if (z := x % p)}:
                product[i] = out
        power = product
    one = identity_matrix(g.dim)
    return tuple(
        tuple(((i == j) + 2 * series[i].get(j, 0)) % p for j in range(g.dim)) if i in series
        else one[i] for i in range(g.dim))


# ---------------------------------------------------------------------------
# group generators

def group_generators(g: GroupSpec) -> list[Matrix]:
    """Unipotent root elements (parameter 1) plus, for orthogonal groups, a
    torus element of non-trivial spinor norm; together they generate the
    finite group over the prime field."""
    form = _form(g)
    p, pos = g.p, form.pos
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
    if not all(form.contains(list(chain.from_iterable(h))) for h in gens):
        raise ArithmeticError("a generator is not in the group")  # unreachable
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


class _Multiples(dict):
    """The packed multiples c v (c < p) of one vector, by c, each built the
    first time it is read."""

    def __init__(self, lanes: _Lanes, v: Sequence[int]):
        super().__init__()
        self.lanes, self.v = lanes, v

    def __missing__(self, c: int) -> int:
        p = self.lanes.p
        m = self[c] = int.from_bytes(self.lanes.pack([c * x % p for x in self.v]), "big")
        return m


class _ScanPlan:
    """What the lex scan of one intertwiner space reads, kept across scans.
    The candidates lie in planes Y + sC + tB, C and B the last two basis
    vectors and Y a combination of the others; a plane is `width` rows of p
    candidates, t running fastest, so it spans `size` scan steps.  A
    one-vector basis has one plane of one row (C = 0), an empty basis none.
    The plan holds the basis, the others (`outer`), the packed multiples sC
    (s < width) and tB (t < p), built as scans read them (`_Multiples`), and
    the plane filter (`_HitTable`), whose table of hit offsets fills as far
    as scans reach."""

    def __init__(self, form: _Form, basis: list[tuple[int, ...]]):
        p, N = form.p, len(form.J)
        self.basis, self.contains, self.lanes = basis, form.contains, _lanes(N, p)
        zero = (0,) * N * N
        if len(basis) > 1:
            *self.outer, C, B = basis
            width = p
        else:
            self.outer, C, B, width = [], zero, basis[0] if basis else zero, 1
        self.size, self.width = width * p, width
        self.sC, self.tB = _Multiples(self.lanes, C), _Multiples(self.lanes, B)
        self.hits = _HitTable(form, C, B, width)

    def planes(self) -> Iterator[tuple[int, _Hits]]:
        """Each plane in lex order of Y's coefficients: packed Y and the
        entry of its hits."""
        hits = self.hits
        for packed, y in _span(self.outer, self.lanes):
            yield packed, hits(y)


class _Power(NamedTuple):
    """A power u^k other than u as the search reads it: the matrix, its
    packed key (the walk's target) and the plan of the lex scan of the
    intertwiners X u = u^k X."""

    m: Matrix
    key: bytes
    plan: _ScanPlan


class _KeptWalk(_Walk):
    """The orbit walk of u that the power-map search keeps, with the state
    that depends on u alone: u's offsets from the identity, which give the u
    side of the intertwiner equations, and the powers of u met so far, by k
    (None where u^k = u).  Each power is built once, the first time its k is
    asked for: u^k by `mat_pow`, and with it the scan's plan, whose basis is
    reduced (`_intertwiners`) from the offsets of u and u^k."""

    def __init__(self, u: Matrix, conjugators: Sequence[_Conjugator], form: _Form):
        lanes = _lanes(len(u), form.p)
        super().__init__(lanes.key(u), conjugators, lanes)
        self.u, self.d, self.form = u, _offsets(u, lanes.p), form
        self.powers: dict[int, _Power | None] = {}

    def power(self, k: int) -> _Power | None:
        """u^k with its scan plan, or None when u^k = u: built the first
        time k is asked for, a dict read after."""
        try:
            return self.powers[k]
        except KeyError:
            p, N = self.lanes.p, len(self.u)
            uk = mat_pow(self.u, k, p)
            power = None if uk == self.u else _Power(uk, self.lanes.key(uk), _ScanPlan(
                self.form, _intertwiners(self.d, _offsets(uk, p), N, p)))
            self.powers[k] = power
            return power


@lru_cache(maxsize=None)
def _orbit_walk(g: GroupSpec, x0: bytes) -> _KeptWalk:
    """The conjugation-orbit walk of the packed matrix x0 in g, one per
    (g, x0), with the state that depends on x0 alone (`_KeptWalk`): the
    power-map search grows it toward each call's target, so every k and
    every later call with an equal u start from what is already found.  x0
    is tested for membership in g (`_is_element`) only here, when its walk
    is first kept: a matrix outside g raises InputError on every call, and
    nothing is kept for it."""
    u = _lanes(g.dim, g.p).matrix(x0)
    if not _is_element(g, u):
        raise InputError("u is not an element of the group")
    return _KeptWalk(u, _conjugators(g), _form(g))


class _LexScan:
    """The lexicographic scan of an intertwiner space, run on demand by its
    plan (`_ScanPlan`), a plane at a time.  Candidate t of row s of plane i
    is scan step (i width + s) p + t + 1.  Only the candidates at the
    plane's hits go on to the membership test (`_Form.contains`), each built
    packed as reduce(reduce(Y + sC) + tB) and unpacked once; the rows
    between them are passed over arithmetically.  The plane's entry of hits
    is filled only up to the row the scan stops at.  `checked` counts the
    steps known not to decide, always a whole number of rows; once the scan
    decides, `step` is the deciding step and `witness` the first accepted
    candidate, or p^c + 1 and None when the scan runs out."""

    def __init__(self, plan: _ScanPlan):
        self.plan = plan
        self.planes = plan.planes()
        self.checked = 0
        self.step: int | None = None
        self.witness: Matrix | None = None
        # the plane being scanned: its first step, packed Y, entry of hits
        # and the index of the next hit not yet tested
        self.base, self.index = 0, 0
        self.y, self.hits = next(self.planes)

    def scan(self, limit: int) -> None:
        """Scan whole rows until `limit` steps are checked or the scan
        decides: it stops at the first row boundary at or past limit."""
        plan = self.plan
        if self.step is not None or self.checked >= limit:
            return
        if not plan.basis:  # the one candidate is X = 0, which is no isometry
            self.step, self.checked = 2, 1
            return
        lanes = plan.lanes
        p, size, reduce, unpack = lanes.p, lanes.size, lanes.single.reduce, lanes.unpack
        sC, tB, contains, width, fill = plan.sC, plan.tB, plan.contains, plan.width, plan.hits.fill
        stop = -(-limit // p) * p  # the first row boundary at or past limit
        base, y, hits, i = self.base, self.y, self.hits, self.index
        offsets, checked = hits.offsets, self.checked
        while self.step is None and checked < limit:
            if i == len(offsets) and hits.rows < width:
                fill(hits, (stop - base) // p)  # the rows up to stop, or to a hit
            if i < len(offsets):  # the row of the next hit, unless it lies past stop
                s = offsets[i] // p
                start = base + s * p
                if start >= stop:
                    checked = stop
                    break
                row, end = reduce(y + sC[s]), (s + 1) * p
                while i < len(offsets) and offsets[i] < end and self.step is None:
                    key = reduce(row + tB[offsets[i] - s * p]).to_bytes(size, "big")
                    if contains(unpack(key)):
                        self.step, self.witness = base + offsets[i] + 1, lanes.matrix(key)
                    i += 1
                checked = start + p if self.step is None else self.step - 1
            elif checked < base + plan.size:  # no hit before stop or the plane's end
                checked = min(base + plan.size, stop)
            else:
                try:
                    y, hits = next(self.planes)
                except StopIteration:
                    self.step = checked + 1
                    break
                base, i, offsets = base + plan.size, 0, hits.offsets
        self.base, self.y, self.hits, self.index, self.checked = base, y, hits, i, checked


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
    which step is smaller.  Whichever search found it, the witness is
    certified once, by X u = u^k X in two products.  A smaller step above
    `budget` raises, as does any budget of 0 or below; the search never
    truncates.  A budget that is no integer raises InputError.

    u is read in one pass: each entry by operator.index (a float or a
    string raises InputError), reduced mod p and packed into the key of its
    walk, and later steps read the reduced u from the walk.  The walk of
    (g, u) is kept (`_orbit_walk`) and grown by later calls; a call that
    leaves it past CENSUS_CAP conjugates drops every kept walk.  u is tested
    for membership in g when its walk is first kept.  The kept walk also
    holds what depends on u and k alone (`_KeptWalk`): u^k, by `mat_pow`
    once per kept walk and k, and the plan of the scan (`_ScanPlan`), so a
    later call with the same (g, u, k) reduces no intertwiner basis and
    meets the planes it scanned before in the plan's hit table.  The call
    still runs its scan to the deciding step, and no answer is kept.

    A dict passed as `stats` is filled with what decided: `decided_by`
    (`identity`, `lex` or `orbit`), `rounds` (the smaller deciding step, 0
    for the identity) and `intertwiner_dim` (None for the identity); and
    with what it cost: `lex_checked` (the scan steps known not to decide, 0
    for the identity) and `walk_size` (the conjugates the kept walk holds
    after the call, u among them; None for the identity).
    """
    _form(g)  # rejects the groups the oracle does not model
    p, N = g.p, g.dim
    budget = as_int(budget, "budget")
    if gcd(as_int(k, "k"), p) != 1:
        raise InputError("k must be coprime to p")
    if len(u) != N:
        raise InputError("dimension mismatch")
    if any(len(row) != N for row in u):
        raise InputError("u is not an element of the group")
    try:
        x0 = _lanes(N, p).pack([index(x) % p for row in u for x in row])
    except TypeError:
        mat(u)  # raises InputError naming the entry that is no integer
        raise
    walk = _orbit_walk(g, x0)  # tests that u is in g, once per kept walk
    power = walk.power(k)
    if power is None:
        if stats is not None:
            stats.update(decided_by="identity", rounds=0, intertwiner_dim=None,
                         lex_checked=0, walk_size=None)
        return identity_matrix(N)
    target = power.key
    lex = _LexScan(power.plan)
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
        stats.update(decided_by=name, rounds=rounds, intertwiner_dim=len(power.plan.basis),
                     lex_checked=lex.checked, walk_size=len(walk.queue))
    w = None
    if name == "lex":
        w = lex.witness
    elif target in walk.seen:
        w = identity_matrix(N)
        for gi in walk.path(target):
            w = mat_mul(w, walk.conjugators[gi].h, p)
    if w is not None and mat_mul(w, walk.u, p) != mat_mul(power.m, w, p):
        raise ArithmeticError("witness check failed")  # unreachable
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
def _census(g: GroupSpec) -> tuple[list[bytes], dict[bytes, int]]:
    """The class census on packed matrices: the representatives, each the
    least element of its class in lex order, and an element -> class map
    whose length is the group order.  The group is the closure of the
    generators; then each class is walked under conjugation.  More than
    CENSUS_CAP elements raise BudgetExceededError."""
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
    return reps, index


@lru_cache(maxsize=None)
def class_census(g: GroupSpec) -> tuple[tuple[Matrix, ...], dict[Matrix, int]]:
    """Conjugacy classes by raw orbit computation: representatives (the least
    element of each class in lex order) and an element -> class map, whose
    length is the group order.  The packed census is decoded on the first
    call, every element of the group; the class power table and the Brauer
    counts read the packed census and never ask for it.  More than
    CENSUS_CAP elements raise BudgetExceededError."""
    reps, index = _census(g)
    lanes = _lanes(g.dim, g.p)
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


@lru_cache(maxsize=None)
def _sl2(q: int) -> GroupSpec:
    """The rank-one symplectic group Sp2(F_q), built and validated once per
    q; a q that GroupSpec rejects raises on every call, as nothing is kept."""
    return GroupSpec(Family.SP, 1, q)


def sl2_classes(q: int) -> tuple[tuple[Matrix, ...], dict[Matrix, int]]:
    """Conjugacy classes of the rank-one symplectic group Sp2(F_q)."""
    return class_census(_sl2(q))


@lru_cache(maxsize=None)
def class_powers(g: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """The class power table of `class_census(g)`: for each representative m,
    in census order, the classes of m^0, m^1, ..., m^(o-1), where o is the
    element order of m, so the class of m^k is row[k % len(row)] for every
    integer k.  Each row is one walk of powers, multiplying by m up to the
    identity; the powers are looked up packed in the packed census, so only
    the representatives are decoded."""
    reps, index = _census(g)
    lanes = _lanes(g.dim, g.p)
    one = identity_matrix(g.dim)
    first = index[lanes.key(one)]

    def row(key: bytes) -> tuple[int, ...]:
        m = lanes.matrix(key)
        classes, x = [first], m
        while x != one:
            classes.append(index[lanes.key(x)])
            x = mat_mul(x, m, g.p)
        return tuple(classes)

    return tuple(map(row, reps))


@lru_cache(maxsize=None)
def _fixed_counts(g: GroupSpec) -> tuple[int, tuple[int, ...]]:
    """|G| and the class side of Brauer's lemma as one count vector: entry r,
    for r mod the exponent of G (the lcm of the `class_powers` row lengths,
    at most |G| and so at most CENSUS_CAP), is the number of classes fixed by
    x -> x^r, those whose row holds their own class at r mod its length.  The
    rows are counted per element order o for each r mod o, and each order's
    counts repeated up to the exponent and summed."""
    tables: dict[int, list[int]] = {}
    for ci, row in enumerate(class_powers(g)):
        counts = tables.setdefault(len(row), [0] * len(row))
        for r, cj in enumerate(row):
            counts[r] += cj == ci
    exponent = lcm(*tables)
    repeated = (t * (exponent // len(t)) for t in tables.values())
    return len(_census(g)[1]), tuple(map(sum, zip(*repeated)))


def brauer_fixed_classes(g: GroupSpec, k: int) -> int:
    """Number of conjugacy classes of g fixed by x -> x^k, by brute force:
    the entry at k mod the exponent of the group's count vector, once k is
    checked to be an integer coprime to |G|."""
    order, counts = _fixed_counts(g)
    return counts[power_exponent(k, order) % len(counts)]


@lru_cache(maxsize=None)
def _sl2_counts(q: int) -> tuple[int, tuple[int, ...]]:
    """`_fixed_counts` of Sp2(F_q), kept by q so that a count hashes no
    GroupSpec."""
    return _fixed_counts(_sl2(q))


def brauer_fixed_classes_sl2(q: int, k: int) -> int:
    """`brauer_fixed_classes` on the rank-one symplectic group Sp2(F_q)."""
    order, counts = _sl2_counts(q)
    return counts[power_exponent(k, order) % len(counts)]
