"""The three workloads: what one op does, how its answer is checked against
an independent path, and which input properties are reported.

Calls into the library go through module attributes (`oracle.unipotent_rep`,
`cli.main`, ...) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import inputs as gen
from charfield import char_fields, cli, hc_action, oracle, power_maps, semisimple, symbols
from charfield.errors import InputError
from charfield.galois_arith import GaloisElement, PrimePowerAction
from charfield.groups import Family, GroupSpec
from charfield.partitions import EpsPartition, Partition, component_orders
from charfield.weyl_b import SeriesDescriptor

DEFAULT_SEED = 0
REFERENCE = Path(__file__).resolve().parent / "reference" / f"field-queries-seed{DEFAULT_SEED}.json"

# Every lru_cache of the library, taken before any tracer wraps a function.
LIBRARY_CACHES = [
    value.cache_clear
    for name, module in sorted(sys.modules.items())
    if name.startswith("charfield.")
    for value in vars(module).values()
    if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name
]


def clear_library_caches() -> None:
    """Bring the library's caches back to the state of a fresh process."""
    for clear in LIBRARY_CACHES:
        clear()


@dataclass
class Record:
    index: int  # position of the input in the workload's input list
    inp: object
    out: object
    latency: float  # seconds, without the calibration kernel's time inside the op
    error: str | None = None  # traceback of an unexpected exception
    slowdown: float | None = None  # of the host around the op, by hostspeed


class Workload:
    name = ""
    unit = 1  # a run ends on a whole number of these many inputs
    inside_kernel = "python"  # the hostspeed kernel sampled inside long ops

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = gen.make_inputs(self.name, seed)
        if self.unit is None:
            self.unit = len(self.inputs)
        self.problems: list[str] = []  # faults of the benchmark itself, not of an op

    def reset(self) -> None:
        """State at the start of a run: as a fresh `charfield` process."""
        clear_library_caches()

    def new_pass(self) -> None:
        pass

    def run(self, inp):
        raise NotImplementedError

    def check(self, records: list[Record]) -> dict[int, str]:
        """Failure message by record position, for every wrong answer."""
        out = {}
        for pos, rec in enumerate(records):
            if rec.error is not None:
                out[pos] = "unexpected exception: " + rec.error.strip().splitlines()[-1]
                continue
            try:
                msg = self.check_one(rec)
            except Exception as exc:  # a malformed answer must not stop the run
                msg = f"answer could not be checked: {exc!r}"
            if msg:
                out[pos] = msg
        return out

    def check_one(self, rec: Record) -> str | None:
        raise NotImplementedError

    def properties(self, records: list[Record]) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# exact matrix arithmetic mod p for the checks (independent of oracle)


def mat_mul_mod(a, b, p):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)) for row in a)


def mat_pow_mod(a, e, p):
    n = len(a)
    out = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for _ in range(e):
        out = mat_mul_mod(out, a, p)
    return out


def det_mod(a, p):
    rows = [[x % p for x in row] for row in a]
    n, det = len(rows), 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det = det * rows[c][c] % p
        inv = pow(rows[c][c], -1, p)
        for r in range(c + 1, n):
            f = rows[r][c] * inv % p
            rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
    return det % p


def transpose(a):
    return tuple(zip(*a))


def _mod(a, p):
    return tuple(tuple(x % p for x in row) for row in a)


# ---------------------------------------------------------------------------
# powmap-grid


def _group(cell: dict) -> GroupSpec:
    return GroupSpec(Family(cell["family"]), cell["n"], cell["q"], cell["twist"])


def check_powmap_cell(cell: dict, form, u, witness, rational: bool) -> str | None:
    """The verdict must equal the closed form; a witness X must satisfy
    X u = u^k X, preserve the form, and have det 1 in SO groups."""
    p, k = cell["q"], cell["k"]
    if (witness is not None) != rational:
        return f"verdict {witness is not None} but unipotent_rational says {rational}"
    J = _mod(form, p)
    if mat_mul_mod(mat_mul_mod(transpose(u), J, p), u, p) != J:
        return "representative does not preserve the form"
    if witness is None:
        return None
    X = _mod(witness, p)
    if mat_mul_mod(X, u, p) != mat_mul_mod(mat_pow_mod(u, k, p), X, p):
        return "witness does not satisfy X u = u^k X"
    if mat_mul_mod(mat_mul_mod(transpose(X), J, p), X, p) != J:
        return "witness does not preserve the form"
    det = det_mod(X, p)
    if det == 0 or (cell["family"] != "sp" and det != 1):
        return f"witness has det {det}"
    return None


def coefficient_space_size(u, k: int, p: int) -> int:
    """p**c, c = dim {X : X u = u^k X}, from the linear equations solved by
    the public oracle.nullspace."""
    N = len(u)
    uk = mat_pow_mod(u, k, p)
    eqs = []
    for i in range(N):
        for j in range(N):
            row = [0] * (N * N)
            for t in range(N):  # (X u)_ij - (u^k X)_ij
                row[i * N + t] = (row[i * N + t] + u[t][j]) % p
                row[t * N + j] = (row[t * N + j] - uk[i][t]) % p
            eqs.append(row)
    return p ** len(oracle.nullspace(eqs, p))


class PowmapGrid(Workload):
    """One op is one cell: the conjugacy search for u ~ u^k, then the closed
    form.  The representative u is built once per (group, Jordan type) and
    pass, inside the first op that needs it, as `verify` does."""

    name = "powmap-grid"
    unit = None  # the whole pass (set in __init__): two of its cells hold most of its cost
    inside_kernel = "python+numpy"

    def reset(self) -> None:
        super().reset()
        self.reps: dict = {}

    def new_pass(self) -> None:
        self.reps = {}

    def run(self, cell):
        g = _group(cell)
        ep = EpsPartition(Partition(cell["mu"]), g.form_eps)
        key = (cell["family"], cell["n"], cell["q"], tuple(cell["mu"]))
        u = self.reps.get(key)
        if u is None:
            u = self.reps[key] = oracle.unipotent_rep(g, ep)
        witness = oracle.power_conjugacy_search(g, u, cell["k"], gen.POWMAP_BUDGET)
        rational = power_maps.unipotent_rational(g, ep, cell["k"])
        return {"u": u, "witness": witness, "rational": rational}

    def check_one(self, rec):
        out = rec.out
        form = oracle.form_matrix(_group(rec.inp))
        return check_powmap_cell(rec.inp, form, out["u"], out["witness"], out["rational"])

    def cell_table(self, records: list[Record]) -> list[dict]:
        sizes: dict = {}
        rows = []
        for rec in records:
            cell, p, k = rec.inp, rec.inp["q"], rec.inp["k"]
            if rec.error is None:
                key = (cell["family"], cell["n"], p, tuple(cell["mu"]), k)
                if key not in sizes:
                    sizes[key] = coefficient_space_size(rec.out["u"], k, p)
                u = rec.out["u"]
                if mat_pow_mod(u, k, p) == _mod(u, p):
                    strategy = "identity"
                else:
                    strategy = "lex" if sizes[key] <= gen.POWMAP_BUDGET else "orbit"
                outcome = "witness" if rec.out["witness"] is not None else "no-witness"
            else:
                key, strategy, outcome = None, "error", "error"
            rows.append({"cell": cell, "coefficient_space": sizes.get(key),
                         "strategy": strategy, "outcome": outcome, "seconds": rec.latency})
        return rows

    def properties(self, records):
        rows = self.cell_table(records)
        total = sum(r["seconds"] for r in rows) or 1.0

        def share(pred):
            return sum(r["seconds"] for r in rows if pred(r)) / total

        return {
            "cells": len(rows),
            "time_share_coefficient_space_le_budget": share(
                lambda r: r["coefficient_space"] is not None and r["coefficient_space"] <= gen.POWMAP_BUDGET),
            "time_share_coefficient_space_gt_budget": share(
                lambda r: r["coefficient_space"] is not None and r["coefficient_space"] > gen.POWMAP_BUDGET),
            "time_share_no_witness": share(lambda r: r["outcome"] == "no-witness"),
            "cells_by_strategy": dict(sorted(Counter(r["strategy"] for r in rows).items())),
            "cells_by_outcome": dict(sorted(Counter(r["outcome"] for r in rows).items())),
            "per_cell": rows,
        }


# ---------------------------------------------------------------------------
# brauer-census


class BrauerCensus(Workload):
    """One op: the raw count of classes fixed by g -> g^k against the count
    predicted from the field formulas.  The class census is cleared at the
    start of a run, so each run pays it as a `verify` process does."""

    name = "brauer-census"

    def run(self, pair):
        q, k = pair
        return (oracle.brauer_fixed_classes_sl2(q, k), char_fields.predicted_fixed_count_rank1(q, k))

    def check_one(self, rec):
        raw, predicted = rec.out
        if raw != predicted:
            return f"raw count {raw} != predicted {predicted} for (q, k) = {tuple(rec.inp)}"
        return None

    def properties(self, records):
        return {
            "pairs_per_q_in_pass": dict(sorted(Counter(q for q, _ in self.inputs).items())),
            "ops_per_q": dict(sorted(Counter(rec.inp[0] for rec in records).items())),
        }


# ---------------------------------------------------------------------------
# field-queries


def response_digest(code, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:16]


def _argv_value(argv: list[str], flag: str):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _lift_unit(k: int, d: int, m: int) -> int:
    """A unit mod m congruent to the unit k mod d (d divides m)."""
    while math.gcd(k, m) != 1:
        k += d
    return k


def _spinor_class(g: GroupSpec, minus_dim: int):
    """The order <= 2 class of the even orthogonal group g whose -1
    eigenspace has the given dimension (raises InputError if none)."""
    m1 = 2 * g.n - minus_dim
    orbits = []
    if minus_dim:
        orbits.append(semisimple.EigenvalueOrbit(1, 2, minus_dim))
    if m1:
        orbits.append(semisimple.EigenvalueOrbit(0, 1, m1))
    orbits.sort(key=lambda o: (o.den, o.num))
    plus = 1 if m1 > 0 else None
    minus = (plus or 1) * g.twist if minus_dim > 0 else None
    if plus is not None and minus is None:
        plus = g.twist
    return semisimple.SemisimpleClass(g, tuple(orbits), plus, minus)


def expected_field_real(query: dict, result: dict) -> bool:
    p = gen.prime_power(json.loads(query["argv"][2])["q"])[0]
    return (result["d"] - 1) in result["stab"] and (
        not result["adjoin_sqrt_omega_p"] or p % 4 == 1)


def check_field_result(query: dict, result: dict) -> str | None:
    """d, the stabiliser and the degree against the benchmark's own
    arithmetic; stabiliser elements against semisimple.sigma_image."""
    cls_data = json.loads(query["argv"][2])
    d, stab = result["d"], result["stab"]
    if d != query["d"]:
        return f"d = {d}, expected {query['d']}"
    if 1 % d not in stab or any(not 0 <= k < max(d, 1) or math.gcd(k, d) != 1 for k in stab):
        return f"stab {stab[:8]} is not a set of units containing 1"
    adjoin = cls_data["family"] == "sp" and not query["q_square"] and query["minus_one"]
    if result["adjoin_sqrt_omega_p"] != adjoin:
        return f"adjoin flag {result['adjoin_sqrt_omega_p']}, expected {adjoin}"
    base_degree = result["degree"] // (2 if adjoin else 1)
    if base_degree * len(stab) != gen.euler_phi(d) or result["degree"] % (2 if adjoin else 1):
        return f"degree {result['degree']} with |stab| = {len(stab)} does not match phi({d})"
    if result["real"] != expected_field_real(query, result):
        return "real flag disagrees with stab and adjunction"
    cls = semisimple.class_from_dict(cls_data)
    m = 4 * d // math.gcd(4, d)
    for k in stab:
        sigma = GaloisElement(_lift_unit(k, d, m), m)
        if semisimple.sigma_image(cls, sigma) != cls:
            return f"k = {k} in stab moves the class"
    return None


def check_other(query: dict, code, res) -> str | None:
    """Checks of the non-field subcommands; res is the parsed result (None
    when nothing was printed)."""
    argv, kind = query["argv"], query["kind"]
    if kind == "malformed":
        return None if code == 2 and res is None else f"malformed input gave exit {code}"
    if kind == "kgroup":
        family, n, q = argv[2], int(_argv_value(argv, "--n")), int(_argv_value(argv, "--q"))
        twist = int(_argv_value(argv, "--twist") or 1)
        md = _argv_value(argv, "--minus-dim")
        member = None
        if md is not None:
            try:
                g = GroupSpec(Family(family), n, q, twist)
                member = semisimple.in_spinor_kernel(g, _spinor_class(g, int(md)))
            except InputError:
                return None if code == 2 else f"exit {code} where in_spinor_kernel raises"
        if code != 0:
            return f"exit {code}"
        want = family == "so-even" and pow(q, n, 4) == twist % 4
        if res["k_group_nontrivial"] != want:
            return f"k_group_nontrivial {res['k_group_nontrivial']}, expected {want}"
        if member is not None and (res.get("in_spinor_kernel") != member
                                   or res.get("minus_eigenspace_dim") != int(md)):
            return f"in_spinor_kernel {res.get('in_spinor_kernel')}, library says {member}"
        return None
    if code != 0:
        return f"exit {code}"
    if kind == "gammadelta":
        family, q, twist = argv[2], int(_argv_value(argv, "--q")), int(_argv_value(argv, "--twist"))
        a, b = int(_argv_value(argv, "--a")), int(_argv_value(argv, "--b"))
        desc = SeriesDescriptor(GroupSpec(Family(family), a + b, q, twist), True, a + b, a, b)
        h = query["h"]
        action = PrimePowerAction(h["ell"], h["r"], h["i_sign"] if h["ell"] == 2 else 0)
        want = hc_action.series_twist_sign_h(desc, action).value
        if res["gamma_delta"] != want or res["series_action"] != ("identity" if want == 1 else "twist"):
            return f"gamma_delta {res['gamma_delta']}, series_twist_sign_h says {want}"
        return None
    if kind == "powmap":
        family, q = argv[2], int(_argv_value(argv, "--q"))
        mu = [int(x) for x in _argv_value(argv, "--mu").split(",")]
        k = int(_argv_value(argv, "--k"))
        even_ok = all(mu.count(x) % 2 == 0 for x in set(mu) if x % 2 == 0)
        if family != "sp":
            want, criterion = True, "orthogonal-always-rational"
        else:
            want = even_ok or gen.is_square_in_fq(k, q)
            criterion = "even-multiplicities" if even_ok else "square-class-of-k"
        if res["rational"] != want or res["criterion"] != criterion:
            return f"powmap {res}, expected rational={want} by {criterion}"
        return None
    if kind == "symbol":
        e, delta = int(argv[2]), int(argv[4])
        top = list(range(e + 1)) if delta else list(range(1, e + 1))
        bottom = list(range(1, e + 1)) if delta else list(range(e))
        if (res["top"], res["bottom"], res["rank"], res["defect"]) != (top, bottom, e * (e + delta), delta):
            return f"symbol {res} is not the special symbol of ({e}, {delta})"
        return None
    if kind == "wavefront":
        e, f, delta = int(argv[2]), int(argv[4]), int(argv[6])
        parts = res["partition"]
        dim = 2 * (e * (e + delta) + f * (f + delta)) + delta
        if (res["dim"] != dim or sum(parts) != dim or res["eps"] != 0
                or any(x % 2 == 0 for x in parts) or parts != sorted(parts, reverse=True)):
            return f"wavefront {res} is not an odd-part partition of {dim}"
        ep = EpsPartition(Partition(parts), 0)
        if component_orders(ep)[2] != symbols.cuspidal_multiplicity(e, f, delta):
            return "wave-front component order differs from the cuspidal multiplicity"
        return None
    return f"unknown query kind {kind}"


class FieldQueries(Workload):
    """One op is one `charfield` command line, run in-process through
    cli.main with its output captured."""

    name = "field-queries"
    unit = gen.FIELD_BLOCK_SIZE  # every block has the same mix of kinds and class orders

    def __init__(self, seed: int):
        super().__init__(seed)
        self._field_real: dict[str, bool] = {}  # class JSON -> `real` of its field query
        self.reference = None
        if seed == DEFAULT_SEED:
            self.reference = json.loads(REFERENCE.read_text())
            if self.reference["pool_digest"] != gen.digest(self.inputs):
                self.problems.append(f"{REFERENCE.name} was recorded for another query pool")
                self.reference = None

    def run(self, query):
        return run_cli(query["argv"])

    def check(self, records):
        field_real = {}
        for rec in records:
            if rec.inp["kind"] == "field" and rec.error is None and rec.out["code"] == 0:
                with contextlib.suppress(ValueError, KeyError):
                    field_real[rec.inp["argv"][2]] = json.loads(rec.out["stdout"])["result"]["real"]
        self._field_real = field_real
        return super().check(records)

    def check_one(self, rec):
        msg = self.check_query(rec.inp, rec.out, self._field_real)
        if msg is None and self.reference is not None:
            if response_digest(rec.out["code"], rec.out["stdout"]) != self.reference["responses"][rec.index]:
                msg = "response differs from the recorded reference answer"
        return msg

    @staticmethod
    def check_query(query: dict, out: dict, field_real: dict) -> str | None:
        code, stdout = out["code"], out["stdout"]
        res = None
        if stdout:
            lines = stdout.splitlines()
            if len(lines) != 1:
                return f"expected one output line, got {len(lines)}"
            try:
                res = json.loads(lines[0])["result"]
            except (ValueError, KeyError):
                return "output is not a JSON result"
        kind = query["kind"]
        if kind not in ("field", "real"):
            return check_other(query, code, res)
        if code != 0 or res is None:
            return f"exit {code}"
        if kind == "field":
            return check_field_result(query, res)
        text = query["argv"][2]
        if text not in field_real:
            cls = semisimple.class_from_dict(json.loads(text))
            field_real[text] = char_fields.character_field(cls.group, cls).is_real
        if res["real"] != field_real[text]:
            return f"real = {res['real']} but the field of the same class says {field_real[text]}"
        return None

    def properties(self, records):
        classes = [rec.inp for rec in records if rec.inp["kind"] in ("field", "real")]
        decades = Counter(f"1e{int(math.log10(q['d']))}" for q in classes)
        seen, repeats = set(), 0
        for rec in records:
            key = tuple(rec.inp["argv"])
            repeats += key in seen
            seen.add(key)
        return {
            "queries_by_kind": dict(sorted(Counter(rec.inp["kind"] for rec in records).items())),
            "d_histogram_by_decade": dict(sorted(decades.items())),
            "square_q_share": sum(q["q_square"] for q in classes) / max(len(classes), 1),
            "repeated_query_share": repeats / max(len(records), 1),
            "pool_size": len(self.inputs),
        }


def run_cli(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects malformed command lines this way
            code = exc.code
    return {"code": code, "stdout": stdout.getvalue()}


def defect_probe() -> list[dict]:
    """Issue the inputs of the known `kgroup` defect and check them like any
    other kgroup query.  Reported beside the workload's own ops."""
    out = []
    for argv in gen.KGROUP_DEFECT_PROBES:
        query = {"kind": "kgroup", "argv": list(argv)}
        response = run_cli(argv)
        msg = FieldQueries.check_query(query, response, {})
        out.append({"argv": list(argv), "exit": response["code"], "failure": msg})
    return out


WORKLOAD_CLASSES = {cls.name: cls for cls in (BrauerCensus, FieldQueries, PowmapGrid)}
