"""Command-line front end: batch queries with JSON output.

Every subcommand is one library call that yields JSON objects, and `main`
prints each on its own line (machine-readable, byte stable across runs);
`--pretty` switches to indented output.  Exit codes: 0 success, 2 malformed
input, 3 budget exceeded (an enumeration, the oracle's rounds or the
factoring bound), 4 when a printed line reports `"ok": false` (a failed
verification check).

Each subcommand is declared once, as one row of `_COMMANDS` (name, help,
handler, flags), and each flag once, in `_FLAGS`; `build_parser` builds a
fresh parser from the two tables on every call.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator

from .char_fields import character_field, is_real_series
from .errors import BudgetExceededError, InputError
from .galois_arith import GaloisElement
from .groups import Family, GroupSpec
from .hc_action import series_permutation, series_twist_sign
from .partitions import EpsPartition, Partition
from .power_maps import rationality_criterion, unipotent_rational
from .semisimple import (
    SemisimpleClass,
    class_from_dict,
    enumerate_classes,
    has_central_twist_automorphism,
    in_spinor_kernel,
    involution_class,
)
from .symbols import special_symbol, wavefront_partition
from .verify import SUITES
from .weyl_b import SeriesDescriptor


def _emit(obj, pretty: bool) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2 if pretty else None))


def _answer(inp: dict, result: dict, *citations: str) -> dict:
    return {"input": inp, "result": result, "citations": list(citations)}


def _group(args) -> GroupSpec:
    return GroupSpec(args.family, args.n, args.q, args.twist)


def _class_arg(args) -> SemisimpleClass:
    try:
        data = json.loads(args.cls)
    except RecursionError as exc:
        raise InputError("class JSON is nested too deeply") from exc
    return class_from_dict(data)


def _cmd_field(args) -> Iterator[dict]:
    cls = _class_arg(args)
    yield _answer(cls.to_dict(), character_field(cls.group, cls).to_dict(),
                  "character-field-per-series", "symplectic-sqrt-adjunction")


def _cmd_real(args) -> Iterator[dict]:
    cls = _class_arg(args)
    yield _answer(cls.to_dict(), {"real": is_real_series(cls.group, cls)}, "series-realness")


def _cmd_powmap(args) -> Iterator[dict]:
    g = _group(args)
    mu = Partition(int(x) for x in args.mu.split(","))
    ep = EpsPartition(mu, g.form_eps)
    yield _answer({"family": g.family.value, "n": g.n, "q": g.q,
                   "mu": list(mu.parts), "k": args.k},
                  {"rational": unipotent_rational(g, ep, args.k),
                   "criterion": rationality_criterion(g, ep)},
                  "unipotent-power-map")


def _cmd_gammadelta(args) -> Iterator[dict]:
    m = args.a + args.b
    g = GroupSpec(args.family, m, args.q, args.twist)
    desc = SeriesDescriptor(g, True, m, args.a, args.b)
    sigma = GaloisElement(args.sigma_k, args.sigma_m)
    yield _answer({"family": g.family.value, "q": g.q, "a": args.a, "b": args.b,
                   "sigma_k": args.sigma_k, "sigma_m": args.sigma_m},
                  {"gamma_delta": series_twist_sign(desc, sigma).value,
                   "series_action": series_permutation(desc, sigma)},
                  "series-twist-sign")


def _cmd_symbol(args) -> Iterator[dict]:
    sym = special_symbol(args.e, args.delta)
    yield _answer({"e": args.e, "delta": args.delta},
                  {"top": list(sym.top), "bottom": list(sym.bottom),
                   "rank": sym.rank, "defect": sym.defect},
                  "special-symbols")


def _cmd_wavefront(args) -> Iterator[dict]:
    ep = wavefront_partition(args.e, args.f, args.delta)
    yield _answer({"e": args.e, "f": args.f, "delta": args.delta},
                  {"partition": list(ep.partition.parts), "eps": ep.eps, "dim": ep.total},
                  "wavefront-partition")


def _cmd_kgroup(args) -> Iterator[dict]:
    g = _group(args)
    result = {"k_group_nontrivial": has_central_twist_automorphism(g)}
    if args.minus_dim is not None:
        result["minus_eigenspace_dim"] = args.minus_dim
        result["in_spinor_kernel"] = in_spinor_kernel(g, involution_class(g, args.minus_dim))
    yield _answer({"family": g.family.value, "n": g.n, "q": g.q, "twist": g.twist}, result,
                  "central-twist-automorphism", "spinor-kernel-membership")


def _cmd_classes(args) -> Iterator[dict]:
    g = _group(args)
    for cls in enumerate_classes(g):
        yield cls.to_dict()


def _cmd_verify(args) -> Iterator[dict]:
    for name in list(SUITES) if args.suite == "all" else [args.suite]:
        for r in SUITES[name]():
            yield {"check": r.name, "ok": r.ok, "detail": r.detail,
                   "seconds": round(r.seconds, 3), "cells": r.cells}
            if args.stats:
                for cell in r.cell_stats:
                    yield {"check": r.name, **cell, "seconds": round(cell["seconds"], 6)}


_INT = {"type": int, "required": True}

# Every flag of every subcommand, declared once: its add_argument keywords.
_FLAGS = {
    "--class": {"dest": "cls", "required": True},
    "--pretty": {"action": "store_true"},
    "--family": {"required": True, "choices": [f.value for f in Family]},
    "--n": _INT,
    "--q": _INT,
    "--twist": {"type": int, "default": 1, "choices": [1, -1]},
    "--mu": {"required": True, "help": "comma-separated partition"},
    "--k": _INT,
    "--a": _INT,
    "--b": _INT,
    "--sigma-k": _INT,
    "--sigma-m": _INT,
    "--e": _INT,
    "--f": _INT,
    "--delta": {"type": int, "required": True, "choices": [0, 1]},
    "--minus-dim": {"type": int, "help": "dimension of the -1 eigenspace of an involution; "
                    "when both eigenspaces occur the +1 eigenspace is split and the -1 "
                    "eigenspace has the form's type, a single eigenspace has the form's type"},
    "--suite": {"default": "all", "choices": [*SUITES, "all"]},
    "--stats": {"action": "store_true",
                "help": "also print one line per power-map cell (the search that decided it, "
                "the deciding step and the search's time) and one line per group whose "
                "class census a check builds (its order, class count and census time)"},
}

_GROUP = ("--family", "--n", "--q", "--twist")

# One row per subcommand: name, help, handler and its flags in --help order; a
# (flag, text) pair gives the flag that help text in this subcommand alone.
_COMMANDS = (
    ("field", "character field of a series", _cmd_field, (("--class", "class JSON"), "--pretty")),
    ("real", "realness of a series", _cmd_real, ("--class", "--pretty")),
    ("powmap", "power-map rationality of a unipotent class", _cmd_powmap,
     ("--pretty", *_GROUP, "--mu", "--k")),
    ("gammadelta", "Galois twist sign of a principal series", _cmd_gammadelta,
     ("--pretty", "--family", "--q", "--twist", "--a", "--b", "--sigma-k", "--sigma-m")),
    ("symbol", "special two-row symbol", _cmd_symbol, ("--e", "--delta", "--pretty")),
    ("wavefront", "wave-front partition of a cuspidal datum", _cmd_wavefront,
     ("--e", "--f", "--delta", "--pretty")),
    ("kgroup", "central-twist predicates", _cmd_kgroup, ("--pretty", *_GROUP, "--minus-dim")),
    ("classes", "every semisimple class of the dual group", _cmd_classes, ("--pretty", *_GROUP)),
    ("verify", "run verification suites", _cmd_verify, ("--suite", "--stats", "--pretty")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charfield",
        description="Character fields, Galois actions and power maps for "
        "finite symplectic and special orthogonal groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, func, flags in _COMMANDS:
        sp = sub.add_parser(name, help=text)
        for flag in flags:
            flag, extra = (flag, {}) if isinstance(flag, str) else (flag[0], {"help": flag[1]})
            sp.add_argument(flag, **_FLAGS[flag], **extra)
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    failed = False
    try:
        for obj in args.func(args):
            _emit(obj, args.pretty)
            failed = failed or obj.get("ok") is False
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    return 4 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
