import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

import charfield
from charfield import verify
from charfield.cli import build_parser, main
from charfield.errors import InputError
from charfield.groups import Family, GroupSpec
from charfield.semisimple import class_from_dict, enumerate_classes, in_spinor_kernel, order_of
from charfield.symbols import ENTRY_CAP
from charfield.verify import SUITES, _check


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


INVOLUTION = json.dumps(
    {"family": "sp", "n": 1, "q": 7,
     "orbits": [{"frac": "0/1", "mult": 1}, {"frac": "1/2", "mult": 2}],
     "minus_type": 1}
)


def test_field_subcommand(capsys):
    code, out, _ = _run(capsys, "field", "--class", INVOLUTION)
    assert code == 0
    data = json.loads(out)
    assert data["result"]["degree"] == 2
    assert data["result"]["adjoin_sqrt_omega_p"] is True
    assert data["result"]["real"] is False


def test_real_subcommand(capsys):
    code, out, _ = _run(capsys, "real", "--class", INVOLUTION)
    assert code == 0
    assert json.loads(out)["result"]["real"] is False


def test_powmap_subcommand(capsys):
    code, out, _ = _run(capsys, "powmap", "--family", "sp", "--n", "2",
                        "--q", "7", "--mu", "2,2", "--k", "3")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["rational"] is True
    assert data["result"]["criterion"] == "even-multiplicities"

    code, out, _ = _run(capsys, "powmap", "--family", "sp", "--n", "1",
                        "--q", "7", "--mu", "2", "--k", "3")
    data = json.loads(out)
    assert data["result"]["rational"] is False
    assert data["result"]["criterion"] == "square-class-of-k"

    for family, n, mu in (("so-odd", "1", "3"), ("so-even", "2", "3,1")):
        code, out, _ = _run(capsys, "powmap", "--family", family, "--n", n,
                            "--q", "5", "--mu", mu, "--k", "2")
        assert code == 0
        data = json.loads(out)
        assert data["result"]["rational"] is True
        assert data["result"]["criterion"] == "orthogonal-always-rational"


def test_gammadelta_subcommand(capsys):
    code, out, _ = _run(capsys, "gammadelta", "--family", "sp", "--q", "3",
                        "--a", "1", "--b", "1", "--sigma-k", "5", "--sigma-m", "12")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["gamma_delta"] == -1
    assert data["result"]["series_action"] == "twist"


def test_gammadelta_rejects_bad_sigma(capsys):
    # k = 3 is not coprime to the modulus 12; the modulus must be a positive
    # multiple of 4
    for k, m in (("3", "12"), ("1", "0"), ("1", "-12"), ("5", "-12"), ("1", "10")):
        for a in ("0", "1"):
            code, out, err = _run(capsys, "gammadelta", "--family", "sp", "--q", "3",
                                  "--a", a, "--b", "1", "--sigma-k", k, "--sigma-m", m)
            assert code == 2 and out == "", (k, m, a)
            assert "invalid input" in err


@pytest.mark.parametrize("n", ["0", "2", "5", "1", "-2"])
def test_gammadelta_refuses_n(capsys, n):
    # a principal series has rank a + b, so there is no --n to give, not
    # even one that repeats it
    argv = ["gammadelta", "--family", "sp", "--q", "3", "--a", "1", "--b", "1",
            "--n", n, "--sigma-k", "5", "--sigma-m", "12"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "", n
    assert "unrecognized arguments: --n" in out.err


def _parser_spec(parser):
    """Every action of the parser and, through its subcommand action, of each
    subparser, in declaration order, by what this project sets on it: flag,
    dest, required, nargs, const, default, type, choices, metavar and help,
    and each subcommand's name, help and handler.  The help action is left
    out, since its text is argparse's own."""
    spec = [parser.description]
    for action in parser._actions:
        if action.dest == "help":
            continue
        row = [action.option_strings, action.dest, action.required, action.nargs, action.const,
               action.default, getattr(action.type, "__name__", action.type), action.choices,
               action.metavar, action.help]
        if isinstance(action, argparse._SubParsersAction):
            row[7] = [[choice.dest, choice.help, action.choices[choice.dest].get_default("func").__name__,
                       _parser_spec(action.choices[choice.dest])]
                      for choice in action._choices_actions]
        spec.append(row)
    return spec


# the sha256 of _parser_spec's JSON, recorded while each subcommand's flags
# were still declared by hand; unlike the --help text, which argparse words
# and wraps differently across releases, it is the same under Python 3.10 to
# 3.13
_PARSER_SPEC_DIGEST = "e8ecc9d081b9c557fd566e57c1c2702216fb0b19b35f0fb0b16a22008589a327"


def test_parser_spec_is_pinned():
    spec = json.dumps(_parser_spec(build_parser()))
    assert hashlib.sha256(spec.encode()).hexdigest() == _PARSER_SPEC_DIGEST


@pytest.mark.parametrize("argv, flag", [
    (["field"], "--class"),
    (["classes", "--family", "sl", "--n", "1", "--q", "3"], "--family"),
    (["symbol", "--e", "2", "--delta", "0", "--bogus", "1"], "--bogus"),
    (["gammadelta", "--family", "sp", "--q", "3", "--a", "1", "--b", "1", "--n", "5",
      "--sigma-k", "5", "--sigma-m", "12"], "--n"),
], ids=["missing", "bad-choice", "unknown", "gammadelta-n"])
def test_argparse_rejections_name_the_flag(capsys, argv, flag):
    # a missing required flag, a bad --family choice, an unknown flag and
    # gammadelta's --n; argparse words the message, so only the flag is checked
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert flag in out.err


def test_symbol_and_wavefront(capsys):
    code, out, _ = _run(capsys, "symbol", "--e", "2", "--delta", "0")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["top"] == [1, 2]
    assert data["result"]["bottom"] == [0, 1]
    assert data["result"]["rank"] == 4

    code, out, _ = _run(capsys, "wavefront", "--e", "0", "--f", "1", "--delta", "1")
    assert code == 0
    assert json.loads(out)["result"]["partition"] == [3, 1, 1]

    # an answer with more entries than the cap is refused, not listed
    for argv in (["symbol", "--e", "1000000000", "--delta", "1"],
                 ["wavefront", "--e", "1000000000", "--f", "0", "--delta", "1"]):
        code, out, err = _run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("budget exceeded: "), err


def test_kgroup_subcommand(capsys):
    code, out, _ = _run(capsys, "kgroup", "--family", "so-even", "--n", "4",
                        "--q", "3", "--twist", "1")
    assert code == 0
    assert json.loads(out)["result"]["k_group_nontrivial"] is True

    code, out, _ = _run(capsys, "kgroup", "--family", "so-even", "--n", "3",
                        "--q", "3", "--twist", "1", "--minus-dim", "2")
    data = json.loads(out)
    assert data["result"]["k_group_nontrivial"] is False
    assert data["result"]["in_spinor_kernel"] is False  # 3 = 3 mod 4

    # --minus-dim answers exactly where the library does, and exits 2 where
    # in_spinor_kernel rejects the order <= 2 class with that -1 eigenspace;
    # on so-even an odd or out-of-range dimension is refused with the range
    for family, twist in (("sp", 1), ("so-odd", 1), ("so-even", 1), ("so-even", -1)):
        for n in (1, 2):
            for q in (3, 5):
                g = GroupSpec(Family(family), n, q, twist)
                for minus_dim in range(-2, 2 * n + 4):
                    try:
                        want = in_spinor_kernel(g, _order_two_class(g, minus_dim))
                    except InputError:
                        want = None
                    code, out, err = _run(capsys, "kgroup", "--family", family, "--n", str(n),
                                          "--q", str(q), "--twist", str(twist),
                                          "--minus-dim", str(minus_dim))
                    case = (family, twist, n, q, minus_dim)
                    if want is None:
                        assert code == 2 and out == "", case
                        assert err.startswith("invalid input: "), case
                        if family != "so-even":
                            assert err == ("invalid input: spinor-kernel test applies "
                                           "to so-even only\n"), case
                        else:
                            assert err == (f"invalid input: minus_dim must be even and in "
                                           f"0..{2 * n}, got {minus_dim}\n"), case
                    else:
                        assert code == 0, case
                        assert json.loads(out)["result"]["in_spinor_kernel"] is want, case


def _order_two_class(g, minus_dim):
    plus_dim = 2 * g.n - minus_dim
    return class_from_dict(
        {"family": g.family.value, "n": g.n, "q": g.q, "twist": g.twist,
         "orbits": [{"frac": frac, "mult": mult}
                    for frac, mult in (("0/1", plus_dim), ("1/2", minus_dim)) if mult],
         "plus_type": (1 if minus_dim else g.twist) if plus_dim else None,
         "minus_type": g.twist if minus_dim else None}
    )


def test_classes_roundtrip_through_field(capsys):
    code, out, _ = _run(capsys, "classes", "--family", "sp", "--n", "1", "--q", "7")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 8  # q + 1
    for line in lines:
        code, fout, _ = _run(capsys, "field", "--class", line)
        assert code == 0
        echoed = json.loads(fout)["input"]
        assert echoed == json.loads(line)


def test_classes_lists_every_class(capsys):
    # the dual of Sp4(F3) is SO5(F3), which has 12 semisimple classes, nine
    # of them of order at most q + 1 = 4
    code, out, _ = _run(capsys, "classes", "--family", "sp", "--n", "2", "--q", "3")
    assert code == 0
    assert len(out.splitlines()) == 12


def test_classes_byte_stable(capsys):
    _, out1, _ = _run(capsys, "classes", "--family", "sp", "--n", "1", "--q", "5")
    _, out2, _ = _run(capsys, "classes", "--family", "sp", "--n", "1", "--q", "5")
    assert out1 == out2


def test_malformed_input_exit_code(capsys):
    code, _, err = _run(capsys, "field", "--class", "{not json")
    assert code == 2
    code, _, err = _run(capsys, "powmap", "--family", "sp", "--n", "2",
                        "--q", "7", "--mu", "3,1", "--k", "2")
    assert code == 2  # partition not admissible for sp
    gl_class = json.dumps({"family": "gl", "n": 1, "q": 7,
                           "orbits": [{"frac": "0/1", "mult": 1}]})
    for cmd in ("field", "real"):
        code, out, err = _run(capsys, cmd, "--class", gl_class)
        assert code == 2 and out == ""
        assert "invalid input" in err


def test_malformed_class_values_exit_2(capsys):
    code, out, err = _run(capsys, "field", "--class", "[" * 50000 + "]" * 50000)
    assert code == 2 and out == "" and err.startswith("invalid input: ")
    base = json.loads(INVOLUTION)
    for key, value in (("plus_type", []), ("minus_type", {"a": 1}), ("n", float("inf")),
                       ("q", float("-inf"))):
        code, out, err = _run(capsys, "field", "--class", json.dumps({**base, key: value}))
        assert code == 2 and out == "" and err.startswith("invalid input: "), (key, err)
    orbits = [{"frac": "0/1", "mult": float("inf")}]
    code, out, err = _run(capsys, "real", "--class", json.dumps({**base, "orbits": orbits}))
    assert code == 2 and out == ""
    # only JSON integers count: nothing is rounded or parsed into another class
    for value in (1.7, True, "7"):
        for key in ("n", "q", "twist", "plus_type", "minus_type"):
            code, out, err = _run(capsys, "field", "--class", json.dumps({**base, key: value}))
            assert code == 2 and out == "" and err.startswith("invalid input: "), (key, value)
        orbits = [{"frac": "0/1", "mult": 1}, {"frac": "1/2", "mult": value}]
        code, out, err = _run(capsys, "field", "--class", json.dumps({**base, "orbits": orbits}))
        assert code == 2 and out == "" and err.startswith("invalid input: "), ("mult", value)


def test_verify_single_suite(capsys):
    code, out, _ = _run(capsys, "verify", "--suite", "gauss")
    assert code == 0
    data = json.loads(out.splitlines()[0])
    assert data["ok"] is True
    # the timing and the number of cases are numbers of their own, not text
    # in the detail: the 312 pairs (p, k) with p an odd prime <= 50
    assert data["cells"] == 312 and isinstance(data["seconds"], float)
    assert data["detail"] == "odd primes <= 50, all k"

    for name in ("wavefront", "fields"):
        code, out, _ = _run(capsys, "verify", "--suite", name)
        assert code == 0
        assert all(json.loads(line)["ok"] for line in out.splitlines())
    parser = build_parser()
    for name in SUITES:
        assert parser.parse_args(["verify", "--suite", name]).suite == name


def test_verify_stats_lines(capsys):
    # --stats adds one line per power-map cell after the check's own line,
    # and nothing for checks that do not time their cells
    code, plain, _ = _run(capsys, "verify", "--suite", "powmap")
    assert code == 0 and len(plain.splitlines()) == 1
    code, out, _ = _run(capsys, "verify", "--suite", "powmap", "--stats")
    assert code == 0
    check, *cells = [json.loads(line) for line in out.splitlines()]
    assert set(check) == set(json.loads(plain))
    assert check["ok"] is True and check["cells"] == len(cells) == 132
    keys = {"check", "family", "n", "q", "mu", "k", "decided_by", "rounds",
            "intertwiner_dim", "lex_checked", "walk_size", "seconds"}
    assert all(set(c) == keys and c["check"] == check["check"] for c in cells)
    assert {c["decided_by"] for c in cells} == {"identity", "lex", "orbit"}
    # the cells of the (4) class of Sp4(F_7) with no witness: the lex scan
    # runs out after 7^4 candidates
    slow = [c for c in cells if (c["family"], c["n"], c["q"], c["mu"]) == ("sp", 2, 7, [4])
            and c["k"] in (3, 5, 6)]
    assert [(c["decided_by"], c["rounds"], c["intertwiner_dim"]) for c in slow] == [
        ("lex", 7**4 + 1, 4)] * 3
    assert all(isinstance(c["seconds"], float) for c in cells)
    code, out, _ = _run(capsys, "verify", "--suite", "gauss", "--stats")
    assert code == 0 and len(out.splitlines()) == 1


def test_verify_stats_census_records(capsys):
    # the census suites give the first cell of each group a record: the group
    # order, the class count and the census time
    keys = {"check", "family", "n", "q", "order", "classes", "seconds"}
    for suite, groups in (("brauer", [("sp", 1, 5, 120, 9), ("sp", 1, 7, 336, 11),
                                      ("sp", 1, 11, 1320, 15), ("sp", 1, 13, 2184, 17),
                                      ("so-odd", 1, 5, 120, 7), ("so-odd", 1, 7, 336, 9),
                                      ("so-odd", 1, 11, 1320, 13), ("so-odd", 1, 13, 2184, 15)]),
                          ("spinor", [("so-even", 2, 3, 576, 20),
                                      ("so-even", 2, 5, 14400, 40)])):
        code, out, _ = _run(capsys, "verify", "--suite", suite, "--stats")
        assert code == 0
        check, *cells = [json.loads(line) for line in out.splitlines()]
        assert all(set(c) == keys and c["check"] == check["check"] for c in cells)
        assert [(c["family"], c["n"], c["q"], c["order"], c["classes"]) for c in cells] == groups
        assert all(isinstance(c["seconds"], float) for c in cells)


def test_verify_failure_exits_4(capsys, monkeypatch):
    # a failing cell fails its check: the line lists the failing cells' keys
    # and the command exits 4
    cells = [((1,), True), ((2,), False), ((3,), False)]
    monkeypatch.setitem(SUITES, "fields", lambda: [_check("stub", "all ok", cells)])
    code, out, _ = _run(capsys, "verify", "--suite", "fields")
    assert code == 4
    (data,) = [json.loads(line) for line in out.splitlines()]
    assert data["ok"] is False and data["cells"] == 3
    assert data["detail"] == "failures: [(2,), (3,)]"


def test_twist_sign_grid_keys_name_one_cell_each(monkeypatch):
    # a failing key of the twist-sign grid must say which cell failed, so no
    # two of its cells share a key
    cells = {}

    def capture(name, detail, it):
        cells[name] = list(it)
        return _check(name, detail, cells[name])

    monkeypatch.setattr(verify, "_check", capture)
    assert all(r.ok for r in verify.suite_relweyl())
    keys = [key for key, _ in cells["twist-sign-grid"]]
    assert len(keys) == len(set(keys)) == 1316


def _run_child(*argv, timeout=10):
    """The CLI in a child process with a timeout, so that a hang fails."""
    src = os.path.dirname(os.path.dirname(charfield.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "charfield", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


def test_gammadelta_at_large_rank():
    # the parity of the complement's length is the number of coordinates its
    # generator negates, so no element of W_n is built: the length itself
    # costs O(n^2) and a one-line signed permutation O(n) memory
    code, out, err = _run_child("gammadelta", "--family", "sp", "--q", "3", "--a", "1000000000",
                                "--b", "1000000000", "--sigma-k", "5", "--sigma-m", "12")
    assert code == 0, err
    assert json.loads(out)["result"]["gamma_delta"] == -1


def test_bounded_orbit_walks():
    # an orbit longer than the dual dimension is rejected before it is walked
    # out (1/64007 has 32,003 conjugates over F_3), and an order divisible by
    # p before any walk
    for q, frac in ((3, "1/64007"), (9, "1/3")):
        cls = json.dumps({"family": "sp", "n": 1, "q": q,
                          "orbits": [{"frac": "0/1", "mult": 2}, {"frac": frac, "mult": 1}]})
        code, out, err = _run_child("field", "--class", cls)
        assert code == 2 and out == "", frac
        assert err.startswith("invalid input: "), err
    # only the divisors of q^j - 1, j <= 7, are visited, so the full list of
    # the largest group the enumeration admits is printed well within the
    # timeout
    code, out, err = _run_child("classes", "--family", "sp", "--n", "3", "--q", "13")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 2366


def test_orbit_past_the_walk_cap():
    # 3 has order 500,000,003 mod 10^9 + 7.  The orbit fits the dual dimension
    # 2n + 1 at n = 10^9 but is too long to list (exit 3), and does not fit at
    # n = 10^5 (exit 2); neither is walked out
    line = ('{"family":"sp","n":1000000000,"q":3,'
            '"orbits":[{"frac":"0/1","mult":1},{"frac":"1/1000000007","mult":1}]}')
    code, out, err = _run_child("field", "--class", line)
    assert code == 3 and out == "", err
    assert err.startswith("budget exceeded: "), err
    code, out, err = _run_child("field", "--class", line.replace("1000000000", "100000"))
    assert code == 2 and out == "", err
    assert err.startswith("invalid input: "), err


def _sp2_class(q, orbits):
    return json.dumps({"family": "sp", "n": 1, "q": q,
                       "orbits": [{"frac": f, "mult": m} for f, m in orbits]})


# q = 10**18 + 9 is prime; the eigenvalue 1/(q + 1) has order D18 = q + 1
D18 = 10**18 + 10
Q18_CLASS = _sp2_class(D18 - 1, [("0/1", 1), (f"1/{D18}", 1)])


def test_field_at_q_near_10_to_18():
    # the stabiliser is {1, -1}
    d = D18
    factors = (2, 5, 11, 103, 4013, 21993833369)
    assert prod(factors) == d
    assert all(all(p % r for r in range(2, isqrt(p) + 1)) for p in factors)
    phi = prod(p - 1 for p in factors)
    for cmd in ("field", "real"):
        code, out, err = _run_child(cmd, "--class", Q18_CLASS)
        assert code == 0 and err == "", err
        result = json.loads(out)["result"]
        if cmd == "field":
            assert result["d"] == d and result["stab"] == [1, d - 1]
            assert 2 * result["degree"] == phi
        assert result["real"] is True


def test_field_with_large_stabilizer():
    # q = 180181 is a prime = 1 mod 45045 = 5 * 7 * 9 * 11 * 13, so every
    # primitive e-th root for these e is its own Frobenius orbit, and every
    # unit mod 45045 permutes the spectrum: |stab| = phi(45045) = 17280
    orbits = [(f"{a}/{e}", 1) for e in (5, 7, 9, 11, 13) for a in range(1, e) if gcd(a, e) == 1]
    cls = json.dumps({"family": "sp", "n": 19, "q": 180181,
                      "orbits": [{"frac": f, "mult": m} for f, m in [("0/1", 1)] + orbits]})
    code, out, err = _run_child("field", "--class", cls)
    assert code == 0 and err == "", err
    result = json.loads(out)["result"]
    assert result["d"] == 45045 and result["degree"] == 1
    assert result["stab"] == [k for k in range(45045) if gcd(k, 45045) == 1]


def test_primality_bound_exits_3():
    # 2**89 - 1 is prime, above the 3.3 * 10**24 up to which Miller-Rabin
    # with 13 bases decides primality
    for cmd in ("field", "real"):
        code, out, err = _run_child(cmd, "--class", _sp2_class(2**89 - 1, [("0/1", 3)]))
        assert code == 3 and out == ""
        assert err.startswith("budget exceeded: "), err


def _exit_code(argv):
    """main on argv in process: its exit code, argparse's included."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
FAMILIES = st.sampled_from([f.value for f in Family] + ["gl", ""]) | st.text(max_size=6)
Q = (st.integers(-3, 30) | st.integers(-10**30, 10**30)
     | st.sampled_from([3**7, 5**4, 10**9 + 7, 10**12 + 39, 10**18 + 9, 2**89 - 1, 3**60]))


VALID_CLASSES = [json.loads(INVOLUTION), json.loads(Q18_CLASS)] + [
    cls.to_dict()
    for g in (GroupSpec(Family.SP, 2, 5), GroupSpec(Family.SO_ODD, 2, 9), GroupSpec(Family.SO_EVEN, 2, 3, -1))
    for cls in enumerate_classes(g) if order_of(cls) <= 2 * g.q + 2]


@st.composite
def class_texts(draw):
    """A valid class line with up to three of its values replaced, removed or
    garbled, or text that is hardly a class at all."""
    data = json.loads(json.dumps(draw(st.sampled_from(VALID_CLASSES))))
    q = data["q"]
    dens = st.sampled_from([1, 2, 3, 4, 5, q - 1, q + 1, (q + 1) // 2, q * q + 1]) | st.integers(-2, 10**12)
    fracs = st.builds(lambda a, d: f"{a}/{d}", st.integers(-1, 40) | st.integers(-1, 10**12), dens)
    values = {"family": FAMILIES, "n": st.integers(-1, 6), "q": Q, "twist": st.sampled_from([1, -1, 0]),
              "plus_type": st.sampled_from([None, 1, -1, 0]), "minus_type": st.sampled_from([None, 1, -1, 0]),
              "frac": fracs | st.text(max_size=6), "mult": st.integers(-1, 4)}
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(values)))
        target = data
        if key in ("frac", "mult"):
            if not data["orbits"]:
                continue
            target = draw(st.sampled_from(data["orbits"]))
        action = draw(st.sampled_from(["replace", "replace", "garble", "remove"]))
        if action == "remove":
            target.pop(key, None)
        else:
            target[key] = draw(values[key] if action == "replace" else JSON_VALUES)
    text = json.dumps(data)
    return draw(st.sampled_from([text, text, text, text[:-1], json.dumps(data["orbits"])])
                | JSON_VALUES.map(json.dumps) | st.text(max_size=12))


@given(st.sampled_from(["field", "real"]), class_texts(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_fuzzed_class_lines_exit_cleanly(cmd, text, pretty):
    assert _exit_code([cmd, "--class", text] + ["--pretty"] * pretty) in (0, 2, 3)


@given(FAMILIES, st.integers(-1, 4) | st.text(max_size=3), st.integers(-3, 16) | Q,
       st.sampled_from([1, -1, 2]))
@settings(max_examples=200, deadline=None)
def test_fuzzed_classes_lines_exit_cleanly(family, n, q, twist):
    argv = ["classes", "--family", family, "--n", str(n), "--q", str(q), "--twist", str(twist)]
    assert _exit_code(argv) in (0, 2, 3)


# small data, and data past the cap up to 10^9; the listing of an answer
# near the cap (about 0.5 s each) is left to the cap's own test
E_F = st.integers(0, 1000) | st.integers(ENTRY_CAP // 2 + 1, 10**9)


@given(E_F, E_F, st.sampled_from([0, 1]))
@settings(max_examples=100, deadline=None)
def test_symbol_and_wavefront_at_large_e_f(e, f, delta):
    # exit 0 up to ENTRY_CAP entries, 3 past it, 2 only for the data the
    # library excludes; never an uncaught exception
    def expected(entries, excluded):
        return 2 if excluded else 3 if entries > ENTRY_CAP else 0

    argv = ["symbol", "--e", str(e), "--delta", str(delta)]
    assert _exit_code(argv) == expected(2 * e + delta, e == delta == 0)
    argv = ["wavefront", "--e", str(e), "--f", str(f), "--delta", str(delta)]
    assert _exit_code(argv) == expected(2 * max(e, f) + delta, e == f == delta == 0)
