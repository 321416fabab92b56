"""Tests of the benchmark itself: inputs, checkers, span arithmetic and the
tail rule.  Run with `python3 -m pytest perfbench/tests`."""

import json
import math
import random
import signal
from time import perf_counter

import pytest

import hostspeed
import inputs
import run
import tracing
import workloads
from charfield import char_fields, oracle, semisimple
from charfield.groups import Family, GroupSpec
from charfield.partitions import EpsPartition, Partition


# -- inputs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert inputs.make_inputs(workload, 7) == inputs.make_inputs(workload, 7)


def test_other_seed_changes_field_queries():
    assert inputs.digest(inputs.field_inputs(1)) != inputs.digest(inputs.field_inputs(2))


def test_grids_match_verify():
    assert len(inputs.powmap_cells()) == 132
    assert len(inputs.brauer_pairs()) == 1024
    assert sorted(map(json.dumps, inputs.powmap_inputs(3))) == sorted(map(json.dumps, inputs.powmap_cells()))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_powmap_order_meets_k1_first(seed):
    seen = set()
    for cell in inputs.powmap_inputs(seed):
        key = (cell["family"], cell["n"], cell["q"], tuple(cell["mu"]))
        if key not in seen:
            assert cell["k"] == 1
            seen.add(key)


def test_field_blocks_have_fixed_mix():
    per_block = inputs.FIELD_BLOCK_SIZE
    pool = inputs.field_inputs(5)
    assert len(pool) == per_block * inputs.FIELD_BLOCKS
    kinds = [q["kind"] for q in pool[:per_block]]
    assert kinds.count("field") == kinds.count("real") == inputs.FIELD_CLASSES_PER_BLOCK
    for kind, count in inputs.FIELD_OTHER_MIX:
        assert kinds.count(kind) == count


def test_generated_classes_are_valid():
    rng = random.Random(11)
    for family, n in inputs.FIELD_GROUPS:
        for target in (3, 40, 900, 30_000):
            info = inputs.make_class(rng, family, n, target, rng.random() < 0.5)
            cls = semisimple.class_from_dict(info["class"])
            assert semisimple.order_of(cls) == info["d"]
            assert info["d"] == target
            assert cls.has_minus_one_eigenvalue() == info["minus_one"]


def test_galois_from_prime_power_matches_library():
    from charfield.galois_arith import PrimePowerAction, galois_from_prime_power

    for p in (3, 5, 7, 11):
        for ell in (2, 3, 5, 7, 11):
            if ell == p:
                continue
            for r in range(4):
                for i_sign in ((1, -1) if ell == 2 else (0,)):
                    h = PrimePowerAction(ell, r, i_sign)
                    mine = inputs.galois_from_prime_power(ell, r, h.i_sign, 4 * p)
                    assert mine == galois_from_prime_power(h, 4 * p).k


# -- checkers ---------------------------------------------------------------


def _sp4_cell(k):
    return {"family": "sp", "n": 2, "q": 5, "twist": 1, "mu": [2, 2], "k": k}


def test_powmap_checker_accepts_and_flags():
    cell = _sp4_cell(2)
    g = GroupSpec(Family.SP, 2, 5)
    u = oracle.unipotent_rep(g, EpsPartition(Partition([2, 2]), 1))
    witness = oracle.power_conjugacy_search(g, u, 2)
    form = oracle.form_matrix(g)
    assert witness is not None
    assert workloads.check_powmap_cell(cell, form, u, witness, True) is None
    # flipped verdict
    assert workloads.check_powmap_cell(cell, form, u, witness, False)
    assert workloads.check_powmap_cell(cell, form, u, None, True)
    # one witness entry changed
    bad = [list(row) for row in witness]
    bad[0][0] = (bad[0][0] + 1) % 5
    assert workloads.check_powmap_cell(cell, form, u, tuple(map(tuple, bad)), True)


def test_brauer_checker_flags_mismatch():
    wl = workloads.BrauerCensus.__new__(workloads.BrauerCensus)
    ok = workloads.Record(0, [5, 7], (3, 3), 0.0)
    bad = workloads.Record(1, [5, 7], (3, 4), 0.0)
    assert wl.check([ok, bad]) == {1: wl.check_one(bad)}


def _field_query(seed=3, family="sp", n=2, target=500):
    info = inputs.make_class(random.Random(seed), family, n, target, False)
    text = json.dumps(info.pop("class"), sort_keys=True)
    return {"kind": "field", "argv": ["field", "--class", text], **info}


def test_field_checker_flags_wrong_stab():
    query = _field_query()
    out = workloads.run_cli(query["argv"])
    assert out["code"] == 0
    result = json.loads(out["stdout"])["result"]
    assert workloads.check_field_result(query, result) is None
    wrong = dict(result, stab=[x for x in result["stab"] if x != 1])
    assert workloads.check_field_result(query, wrong)
    d = result["d"]
    stray = next(k for k in range(2, d) if k not in result["stab"] and math.gcd(k, d) == 1)
    wrong = dict(result, stab=sorted(result["stab"] + [stray]))
    assert workloads.check_field_result(query, wrong)
    assert workloads.check_field_result(query, dict(result, degree=result["degree"] + 1))


def test_real_checked_against_field_of_same_class():
    query = dict(_field_query(), kind="real")
    query["argv"] = ["real"] + query["argv"][1:]
    out = workloads.run_cli(query["argv"])
    assert workloads.FieldQueries.check_query(query, out, {}) is None
    flipped = json.loads(out["stdout"])
    flipped["result"]["real"] = not flipped["result"]["real"]
    out = {"code": 0, "stdout": json.dumps(flipped) + "\n"}
    assert workloads.FieldQueries.check_query(query, out, {})


def test_kgroup_checker_follows_in_spinor_kernel():
    query = {"kind": "kgroup", "argv": ["kgroup", "--family", "sp", "--n", "2", "--q", "3",
                                        "--minus-dim", "2"]}
    answered = {"code": 0, "stdout": json.dumps({"result": {
        "k_group_nontrivial": False, "in_spinor_kernel": False, "minus_eigenspace_dim": 2}}) + "\n"}
    assert workloads.FieldQueries.check_query(query, answered, {})
    assert workloads.FieldQueries.check_query(query, {"code": 2, "stdout": ""}, {}) is None


def test_malformed_must_exit_2():
    query = {"kind": "malformed", "argv": list(inputs.MALFORMED[0])}
    assert workloads.FieldQueries.check_query(query, workloads.run_cli(query["argv"]), {}) is None
    assert workloads.FieldQueries.check_query(query, {"code": 0, "stdout": ""}, {})


# -- spans and statistics -----------------------------------------------------


def test_self_times_on_synthetic_tree():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 6.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 4.0, 5.0, 1, 0],
        ["d", 6.0, 9.0, 0, 0],
        ["op", 10.0, 12.0, -1, 1],
        ["a", 10.5, 11.0, 5, 1],
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 1.0, 1.0, 3.0, 1.5, 0.5])
    totals = tracing.layer_totals(spans)
    assert totals["a"] == {"calls": 2, "self_s": pytest.approx(3.5)}
    assert tracing.self_time_by_op(spans, "a") == pytest.approx({0: 3.0, 1: 0.5})


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1, 0], ["x", 1.0, 4.0, 0, 0], ["y", 3.0, 6.0, 0, 0],
             ["z", 9.0, 12.0, 0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


@pytest.mark.parametrize("n, rank", [(5, 5), (10, 10), (11, 1), (20, 10), (132, 122), (1000, 990)])
def test_tail_rule(n, rank):
    samples = [float(i) for i in range(1, n + 1)]
    random.Random(n).shuffle(samples)
    value, percentile, count = run.tail_latency(samples)
    assert value == rank and count == n
    assert sum(s > value for s in samples) == (0 if n <= 10 else 10)
    assert percentile == pytest.approx(100.0 * rank / n)


def test_tail_is_taken_over_the_fastest_repetition_of_each_input():
    recs = [workloads.Record(i % 3, None, None, 0.0) for i in range(6)]
    assert sorted(run.input_latencies([5.0, 1.0, 3.0, 2.0, 4.0, 6.0], recs)) == [1.0, 2.0, 3.0]


def test_tracer_wraps_every_import_site():
    tracer = tracing.Tracer()
    original = semisimple.galois_stabilizer
    tracer.install()
    try:
        assert char_fields.galois_stabilizer is semisimple.galois_stabilizer is not original
        g = GroupSpec(Family.SP, 1, 7)
        cls = semisimple.class_from_dict({"family": "sp", "n": 1, "q": 7, "orbits": [
            {"frac": "0/1", "mult": 1}, {"frac": "1/2", "mult": 2}], "minus_type": 1})
        char_fields.character_field(g, cls)  # outside an op: not recorded
        assert tracer.spans == []
        tracer.begin_op(0)
        char_fields.character_field(g, cls)
        oracle.mat_pow(((1, 1), (0, 1)), 5, 7)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert semisimple.galois_stabilizer is original
    names = [s[0] for s in tracer.spans]
    assert names == ["op", "char_fields.character_field", "semisimple.galois_stabilizer"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    assert tracer.counts["oracle.mat_mul"] > 0


# -- host-speed scaling --------------------------------------------------------


class _Workload:
    inputs = [0, 1, 2]
    unit = 1

    def __init__(self, sleep_s):
        self.sleep_s = sleep_s

    def reset(self):
        pass

    def new_pass(self):
        pass

    def run(self, inp):
        end = perf_counter() + self.sleep_s
        while perf_counter() < end:  # busy, so that the timer's samples land inside
            pass
        return inp


def test_slowdown_is_kernel_time_over_reference():
    speed = hostspeed.HostSpeed("python")
    kernel, reference_s, _ = hostspeed.KERNELS["python"]
    kernel()
    slowdown = speed.sample("python")
    assert slowdown == pytest.approx(speed.samples["python"][-1] / reference_s)
    assert speed.scale(2.0, 1.0) == 2.0 and speed.scale(2.0, 2.0) == 1.0


def test_each_op_gets_the_samples_around_it():
    speed = hostspeed.HostSpeed("python")
    slowdowns = iter([1.0, 2.0, 4.0, 8.0])
    speed.sample = lambda name: next(slowdowns)
    speed._last = speed.sample("python")
    speed.begin_op()
    speed._inside.append(speed.sample("python"))  # as the timer's handler does
    speed._paused += 0.5
    paused, slowdown = speed.end_op()
    assert (paused, slowdown) == (0.5, pytest.approx((1.0 + 2.0 + 4.0) / 3))
    speed.begin_op()
    assert speed.end_op() == (0.0, pytest.approx((4.0 + 8.0) / 2))


def test_long_ops_are_sampled_inside_and_the_samples_taken_out():
    wl = _Workload(0.3)
    speed = hostspeed.HostSpeed("python", "python+numpy")
    records, _ = run.run_loop(wl, 0.5, speed=speed)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert [r.out for r in records] == [0, 1]
    assert len(speed.samples["python"]) == len(records) + 1  # before the first op, after each
    assert len(speed.samples["python+numpy"]) >= 2 * 2  # the timer's, inside the ops
    for rec in records:
        assert 0.25 < rec.latency < 0.3  # 0.3 s of wall time less the samples inside
        assert rec.slowdown > 0


def test_run_ends_on_a_whole_unit_of_inputs():
    wl = _Workload(0.0)
    wl.unit = 3
    records, _ = run.run_loop(wl, 0.0)
    assert [r.out for r in records] == [0, 1, 2]
