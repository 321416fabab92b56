"""Seeded input generation for the three workloads.

Everything here is plain Python and imports nothing from `charfield`: the
library only ever sees the inputs built here.  The same seed gives the same
inputs in every process (no set or dict iteration order is relied on).
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("brauer-census", "field-queries", "powmap-grid")

POWMAP_BUDGET = 10_000_000  # the default budget of `charfield verify`
BRAUER_QS = (5, 7, 11, 13)

# field-queries: the pool is built in blocks with one fixed query mix, so
# every whole block has the same composition whatever the seed.
FIELD_BLOCKS = 70
FIELD_CLASSES_PER_BLOCK = 12  # each class gives one `field` and one `real` query
FIELD_OTHER_MIX = (  # (kind, queries per block)
    ("gammadelta", 2),
    ("powmap", 2),
    ("kgroup", 2),
    ("symbol", 1),
    ("wavefront", 1),
    ("malformed", 2),
)
FIELD_BLOCK_SIZE = 2 * FIELD_CLASSES_PER_BLOCK + sum(count for _, count in FIELD_OTHER_MIX)
FIELD_D_RANGE = (3, 100_000)  # class orders are log-uniform over this range
FIELD_SQUARE_SHARE = 0.3  # share of classes built over a square q
FIELD_SHAPE_SEED = 2005_14088  # the fixed sequence of groups and class shapes
FIELD_GROUPS = (
    ("sp", 1), ("sp", 2), ("sp", 3),
    ("so-odd", 1), ("so-odd", 2), ("so-odd", 3),
    ("so-even", 1), ("so-even", 2), ("so-even", 3),
)
SMALL_QS = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 49, 81, 121, 125, 169, 243)


# ---------------------------------------------------------------------------
# arithmetic helpers (independent of the library)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power(q: int) -> tuple[int, int]:
    """(p, a) with q = p**a, for q built by this module."""
    for a in range(40, 0, -1):
        p = round(q ** (1.0 / a))
        for cand in (p - 1, p, p + 1):
            if cand > 1 and cand**a == q and is_prime(cand):
                return cand, a
    raise ValueError(f"{q} is not a prime power")


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    result = n
    for p in factorize(n):
        result = result // p * (p - 1)
    return result


def legendre(a: int, p: int) -> int:
    """Euler's criterion; p an odd prime, a coprime to p."""
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def is_square_in_fq(k: int, q: int) -> bool:
    p, a = prime_power(q)
    return a % 2 == 0 or legendre(k, p) == 1


def galois_from_prime_power(ell: int, r: int, i_sign: int, m: int) -> int:
    """k mod m for the Galois element acting as zeta -> zeta**(ell**r) on
    roots of order prime to ell; on the ell-part k is 1, except that for
    ell = 2 the action on i is kept (k = 1 or 3 mod 4).  Plain CRT."""
    e, m_prime = 0, m
    while m_prime % ell == 0:
        m_prime //= ell
        e += 1
    k_prime = pow(ell, r, m_prime) if m_prime > 1 else 0
    if e == 0:
        return k_prime % m
    k_ell = (1 if i_sign == 1 else 3) if ell == 2 else 1
    ell_part = ell**e
    for k in range(k_ell, m, ell_part):  # k = k_ell mod ell**e
        if m_prime == 1 or k % m_prime == k_prime:
            return k
    raise ArithmeticError("no CRT solution")  # unreachable: moduli are coprime


def eps_partitions(n: int, eps: int) -> list[tuple[int, ...]]:
    """Partitions of n (parts decreasing) in which every part of parity eps
    has even multiplicity."""

    def parts_of(rest: int, largest: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, largest), 0, -1):
            for tail in parts_of(rest - first, first):
                yield (first,) + tail

    return [
        mu for mu in parts_of(n, n)
        if all(mu.count(m) % 2 == 0 for m in set(mu) if m % 2 == eps)
    ]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# powmap-grid: the cells of `charfield verify --suite powmap`


def powmap_groups() -> list[tuple[str, int, int, int]]:
    """(family, n, q, twist) in the order verify walks them."""
    groups = [("sp", n, q, 1) for q in (3, 5, 7) for n in (1, 2)]
    for q in (3, 5):
        groups += [("so-odd", 1, q, 1), ("so-odd", 2, q, 1),
                   ("so-even", 1, q, 1), ("so-even", 2, q, 1)]
    return groups


def natural_dim(family: str, n: int) -> int:
    return 2 * n + 1 if family == "so-odd" else 2 * n


def powmap_cells() -> list[dict]:
    cells = []
    for family, n, q, twist in powmap_groups():
        eps = 1 if family == "sp" else 0
        for mu in eps_partitions(natural_dim(family, n), eps):
            for k in range(1, q):
                cells.append({"family": family, "n": n, "q": q, "twist": twist,
                              "mu": list(mu), "k": k})
    return cells


def powmap_inputs(seed: int) -> list[dict]:
    """The cells in seeded order, except that each (group, Jordan type) meets
    its k = 1 cell first.  `verify` builds a representative just before that
    cell, so the build cost always lands on the same op whatever the seed."""
    cells = powmap_cells()
    random.Random(seed).shuffle(cells)
    first: dict[tuple, int] = {}
    for i, cell in enumerate(cells):
        first.setdefault((cell["family"], cell["n"], cell["q"], tuple(cell["mu"])), i)
    for i, cell in enumerate(cells):
        key = (cell["family"], cell["n"], cell["q"], tuple(cell["mu"]))
        if cell["k"] == 1 and first[key] != i:
            cells[first[key]], cells[i] = cells[i], cells[first[key]]
    return cells


# ---------------------------------------------------------------------------
# brauer-census: the (q, k) pairs of `charfield verify --suite brauer`


def brauer_pairs() -> list[tuple[int, int]]:
    pairs = []
    for q in BRAUER_QS:
        order = q * (q * q - 1)
        pairs += [(q, k) for k in range(1, order) if math.gcd(k, order) == 1]
    return pairs


def brauer_inputs(seed: int) -> list[list[int]]:
    pairs = [list(p) for p in brauer_pairs()]
    random.Random(seed).shuffle(pairs)
    return pairs


# ---------------------------------------------------------------------------
# field-queries: seed-generated CLI argument vectors


def _dual(family: str, n: int) -> tuple[str, int]:
    if family == "sp":
        return "so-odd", 2 * n + 1
    if family == "so-odd":
        return "sp", 2 * n
    return "so-even", 2 * n


def _find_prime(rng: random.Random, d0: int, residues: tuple[int, ...]) -> int:
    """An odd prime p = t*d0 + s with s in residues, t >= 1 from a random start."""
    t = rng.randint(1, 6)
    while True:
        for s in residues:
            c = t * d0 + s
            if c > 2 and is_prime(c):
                return c
        t += 1


def make_class(rng: random.Random, family: str, n: int, target_d: int, square: bool,
               shape: random.Random | None = None) -> dict:
    """A valid semisimple class of the dual group whose order d is
    max(3, target_d).  `shape` (by default rng) draws the multiplicities and
    which orbits the class has; rng draws q and the eigenvalues.  Returns the
    class JSON plus the facts the checker needs."""
    shape = shape or rng
    dual_family, dim = _dual(family, n)
    mult = 2 if dim >= 6 and shape.random() < 0.2 else 1
    rest = dim - 2 * mult
    d0 = max(3, target_d)
    if d0 % 2:  # the eigenvalue -1 would double an odd order: keep d on target
        mm1 = 0
    elif dual_family == "so-odd":  # odd mult(1), even mult(-1)
        mm1 = shape.choice(range(0, rest, 2))
    else:
        mm1 = shape.choice(range(0, rest + 1, 2))
    m1 = rest - mm1
    if square:
        p = _find_prime(rng, d0, (1, -1))
        q, kind = p * p, "split"  # p**2 = 1 (mod d0): orbits of size one
    else:
        kind = shape.choice(("split", "self-inverse"))
        if kind == "split" and d0 <= 2000 and shape.random() < 0.25:
            p = _find_prime(rng, d0, (1,))
            q = p**3
        else:
            q = _find_prime(rng, d0, (1,) if kind == "split" else (-1,))
    a = rng.randrange(1, d0)
    while math.gcd(a, d0) != 1:
        a = rng.randrange(1, d0)
    orbits = [{"frac": f"{a}/{d0}", "mult": mult}]
    if kind == "split":
        orbits.append({"frac": f"{d0 - a}/{d0}", "mult": mult})
    if mm1:
        orbits.append({"frac": "1/2", "mult": mm1})
    if m1:
        orbits.append({"frac": "0/1", "mult": m1})
    twist = 1
    plus_type = minus_type = None
    if dual_family == "so-odd":
        minus_type = rng.choice((1, -1)) if mm1 else None
    elif dual_family == "so-even":
        self_inverse_mult = mult if kind == "self-inverse" else 0
        twist = rng.choice((1, -1)) if rest else (-1) ** self_inverse_mult
        target = twist * (-1) ** self_inverse_mult
        if m1 and mm1:
            plus_type = rng.choice((1, -1))
            minus_type = plus_type * target
        elif m1:
            plus_type = target
        elif mm1:
            minus_type = target
    cls = {"family": family, "n": n, "q": q, "twist": twist, "orbits": orbits,
           "plus_type": plus_type, "minus_type": minus_type}
    return {"class": cls, "d": d0, "minus_one": mm1 > 0,
            "q_square": prime_power(q)[1] % 2 == 0}


def _gammadelta_query(rng: random.Random) -> dict:
    family, a, b = rng.choice((
        ("sp", 0, 1), ("sp", 1, 1), ("sp", 0, 2), ("sp", 2, 1), ("sp", 1, 2),
        ("so-odd", 1, 0), ("so-odd", 1, 1), ("so-odd", 2, 1),
        ("so-even", 1, 1), ("so-even", 0, 2), ("so-even", 2, 1), ("so-even", 1, 2),
    ))
    twist = rng.choice((1, -1)) if family == "so-even" else 1
    q = rng.choice(SMALL_QS)
    p = prime_power(q)[0]
    ell = rng.choice([x for x in (2, 3, 5, 7, 11) if x != p])
    r = rng.randint(0, 3)
    i_sign = rng.choice((1, -1)) if ell == 2 else (1 if pow(ell, r, 4) == 1 else -1)
    m = 4 * p
    k = galois_from_prime_power(ell, r, i_sign, m)
    argv = ["gammadelta", "--family", family, "--q", str(q), "--twist", str(twist),
            "--a", str(a), "--b", str(b), "--sigma-k", str(k), "--sigma-m", str(m)]
    return {"kind": "gammadelta", "argv": argv,
            "h": {"ell": ell, "r": r, "i_sign": i_sign}}


def _powmap_query(rng: random.Random) -> dict:
    family, n = rng.choice(FIELD_GROUPS)
    twist = rng.choice((1, -1)) if family == "so-even" else 1
    q = rng.choice(SMALL_QS)
    p = prime_power(q)[0]
    eps = 1 if family == "sp" else 0
    mu = rng.choice(eps_partitions(natural_dim(family, n), eps))
    k = rng.choice([x for x in range(1, 3 * p) if x % p])
    argv = ["powmap", "--family", family, "--n", str(n), "--q", str(q), "--twist", str(twist),
            "--mu", ",".join(map(str, mu)), "--k", str(k)]
    return {"kind": "powmap", "argv": argv}


def _kgroup_query(rng: random.Random) -> dict:
    family, n = rng.choice(FIELD_GROUPS)
    twist = rng.choice((1, -1)) if family == "so-even" else 1
    q = rng.choice(SMALL_QS)
    argv = ["kgroup", "--family", family, "--n", str(n), "--q", str(q), "--twist", str(twist)]
    # --minus-dim is asked of so-even only, where the subcommand and
    # semisimple.in_spinor_kernel are meant to agree; the other families
    # hit a known defect and are issued by the defect probe instead.
    if family == "so-even" and rng.random() < 0.7:
        argv += ["--minus-dim", str(rng.randint(0, 2 * n))]
    return {"kind": "kgroup", "argv": argv}


def _symbol_query(rng: random.Random) -> dict:
    delta = rng.choice((0, 1))
    e = rng.randint(1 - delta, 8)
    return {"kind": "symbol", "argv": ["symbol", "--e", str(e), "--delta", str(delta)]}


def _wavefront_query(rng: random.Random) -> dict:
    delta = rng.choice((0, 1))
    while True:
        e, f = rng.randint(0, 6), rng.randint(0, 6)
        if max(e, f) + delta >= 1:
            break
    return {"kind": "wavefront",
            "argv": ["wavefront", "--e", str(e), "--f", str(f), "--delta", str(delta)]}


MALFORMED = (
    ["field", "--class", '{"family": "sp", "n": 1'],
    ["field", "--class", json.dumps({"family": "sp", "n": 1, "q": 15,
                                     "orbits": [{"frac": "0/1", "mult": 3}]})],
    ["real", "--class", json.dumps({"family": "sp", "n": 1, "q": 7,
                                    "orbits": [{"frac": "0/1", "mult": 2}]})],
    ["field", "--class", json.dumps({"family": "so-odd", "n": 1, "q": 8,
                                     "orbits": [{"frac": "0/1", "mult": 2}]})],
    ["field", "--class", json.dumps({"family": "sp", "n": 1, "q": 7,
                                     "orbits": [{"frac": "1/3", "mult": 1}, {"frac": "0/1", "mult": 1}]})],
    ["powmap", "--family", "sp", "--n", "1", "--q", "7", "--mu", "2", "--k", "14"],
    ["powmap", "--family", "sp", "--n", "2", "--q", "5", "--mu", "3,1", "--k", "2"],
    ["symbol", "--e", "2", "--delta", "2"],
    ["symbol", "--e", "0", "--delta", "0"],
    ["wavefront", "--e", "0", "--f", "0", "--delta", "0"],
    ["gammadelta", "--family", "sp", "--q", "3", "--a", "1", "--b", "1", "--n", "5",
     "--sigma-k", "5", "--sigma-m", "12"],
    ["gammadelta", "--family", "sp", "--q", "3", "--a", "1", "--b", "1",
     "--sigma-k", "5", "--sigma-m", "10"],
    ["kgroup", "--family", "so-even", "--n", "2", "--q", "5", "--minus-dim", "3"],
    ["kgroup", "--family", "sp", "--n", "2"],
    ["real", "--class", json.dumps({"family": "gl", "n": 1, "q": 7,
                                    "orbits": [{"frac": "0/1", "mult": 1}]})],
)


def _malformed_query(rng: random.Random) -> dict:
    return {"kind": "malformed", "argv": list(rng.choice(MALFORMED))}


_OTHER = {
    "gammadelta": _gammadelta_query,
    "powmap": _powmap_query,
    "kgroup": _kgroup_query,
    "symbol": _symbol_query,
    "wavefront": _wavefront_query,
    "malformed": _malformed_query,
}


def field_inputs(seed: int) -> list[dict]:
    """The query pool, FIELD_BLOCKS blocks long.  In each block the class
    orders are stratified over FIELD_D_RANGE on a log scale, one class per
    stratum, and the other kinds appear in FIELD_OTHER_MIX proportions.

    The position inside each stratum follows a golden-ratio sequence over the
    blocks rather than the seed: the orders are log-uniform over the pool, and
    a run that covers the same number of blocks meets the same orders
    whatever the seed.  The group, whether q is a square and the shape of
    each class (multiplicities, split or self-inverse, which of the
    eigenvalues 1 and -1 occur) follow one fixed sequence too: at the same d
    a `field` query costs up to 2.5x more with more eigenvalue orbits, and
    this way every seed pays about the same for the same blocks.  The seed
    picks q, the eigenvalues and signs, the other queries and the order
    within a block."""
    rng = random.Random(seed)
    shape = random.Random(FIELD_SHAPE_SEED)
    lo, hi = (math.log(x) for x in FIELD_D_RANGE)
    pool: list[dict] = []
    for block_no in range(FIELD_BLOCKS):
        offset = (0.5 + block_no * 0.6180339887498949) % 1.0
        block = []
        for stratum in range(FIELD_CLASSES_PER_BLOCK):
            u = (stratum + offset) / FIELD_CLASSES_PER_BLOCK
            target = round(math.exp(lo + u * (hi - lo)))
            family, n = shape.choice(FIELD_GROUPS)
            square = shape.random() < FIELD_SQUARE_SHARE
            info = make_class(rng, family, n, target, square, shape)
            text = json.dumps(info.pop("class"), sort_keys=True)
            for cmd in ("field", "real"):
                block.append({"kind": cmd, "argv": [cmd, "--class", text], **info})
        for kind, count in FIELD_OTHER_MIX:
            block += [_OTHER[kind](rng) for _ in range(count)]
        rng.shuffle(block)
        pool += block
    return pool


# Inputs on which `charfield kgroup` is known to disagree with
# semisimple.in_spinor_kernel (it answers where the library rejects).
KGROUP_DEFECT_PROBES = (
    ["kgroup", "--family", "sp", "--n", "2", "--q", "3", "--minus-dim", "2"],
    ["kgroup", "--family", "so-odd", "--n", "2", "--q", "5", "--minus-dim", "2"],
    ["kgroup", "--family", "so-even", "--n", "1", "--q", "5", "--minus-dim", "4"],
    ["kgroup", "--family", "so-even", "--n", "2", "--q", "7", "--minus-dim", "-2"],
)


def make_inputs(workload: str, seed: int) -> list:
    if workload == "powmap-grid":
        return powmap_inputs(seed)
    if workload == "brauer-census":
        return brauer_inputs(seed)
    if workload == "field-queries":
        return field_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")
