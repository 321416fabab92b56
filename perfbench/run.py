"""Benchmark of charfield's verification oracles and query path.

    python3 perfbench/run.py --workload {brauer-census,field-queries,powmap-grid}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from `src/`.  One
client issues one op at a time in this process (a closed loop).  Ops are
issued until --seconds have passed and the current unit of inputs is complete:
a block of 34 queries in field-queries, the whole pass over the 132 cells in
powmap-grid.  Every answer is checked after the timed loop.

--trace 0 prints the end-to-end metrics, their times scaled to a reference
host speed by calibration samples around and inside each op (hostspeed.py);
--trace 1 wraps the library's public functions, runs the workload traced,
replays part of it untraced, and prints the per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; a fuller report is written to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import inputs
from hostspeed import KERNELS, HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
SETUP_KERNEL_SAMPLES = 10  # calibration samples between two set-up probes
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
PROBE_TIMEOUT_S = 60


def tail_latency(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile, by rank, that has
    at least `beyond` samples above it; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - beyond if n > beyond else n  # 1-based rank of the reported sample
    return ordered[rank - 1], 100.0 * rank / n, n


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def machine_context() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "charfield").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
        "loadavg_start": read_loadavg(),
    }


def measure_setup(workload: str, seed: int, expected_digest: str):
    """Wall time of fresh interpreters that import charfield and build the
    inputs, SETUP_REPEATS times; each must build the same inputs as this
    process.  Calibration samples are taken before the first interpreter and
    after each (see hostspeed.py).  Returns (seconds, the same scaled to the
    reference host speed, problems)."""
    speed = HostSpeed("python")

    def slowdown() -> float:
        return statistics.fmean(speed.sample("python") for _ in range(SETUP_KERNEL_SAMPLES))

    times, scaled, problems = [], [], []
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    before = slowdown()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=PROBE_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            problems.append(f"setup probe did not finish within {PROBE_TIMEOUT_S} s")
            continue
        times.append(perf_counter() - t0)
        after = slowdown()
        scaled.append(speed.scale(times[-1], (before + after) / 2))
        before = after
        if proc.returncode != 0:
            problems.append(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        elif proc.stdout.strip() != expected_digest:
            problems.append("setup probe built different inputs from the same seed")
    return times, scaled, problems


def issue(wl, inp, op_id: int, tracer=None, speed=None):
    from workloads import Record

    if tracer is not None:
        tracer.begin_op(op_id)
    if speed is not None:
        speed.begin_op()
    error = out = None
    t0 = perf_counter()
    try:
        out = wl.run(inp)
    except Exception:  # an op that raises is a failed op, not a failed run
        error = traceback.format_exc()
    latency = perf_counter() - t0
    slowdown = None
    if speed is not None:
        paused, slowdown = speed.end_op()
        latency -= paused
    if tracer is not None:
        tracer.end_op()
    return Record(op_id % len(wl.inputs), inp, out, latency, error, slowdown)


def run_loop(wl, seconds: float, tracer=None, speed=None):
    """Closed loop: issue ops in input order until `seconds` have passed and
    the workload's current unit of inputs is complete.  With a HostSpeed, each
    op is followed by a calibration sample.  Returns (records, wall
    seconds)."""
    records = []
    n = len(wl.inputs)
    wl.reset()
    if speed is not None:
        speed.start()
    try:
        start = perf_counter()
        op_id = 0
        while True:
            if op_id and op_id % n == 0:
                wl.new_pass()
            records.append(issue(wl, wl.inputs[op_id % n], op_id, tracer, speed))
            op_id += 1
            if perf_counter() - start >= seconds and op_id % wl.unit == 0:
                return records, perf_counter() - start
    finally:
        if speed is not None:
            speed.stop()


def replay_untraced(wl, records, seconds: float):
    """Replay, untraced and in the same order, the ops whose traced latency
    is at most seconds/2, until their traced time adds up to seconds/2.
    Returns (traced seconds, untraced seconds, replayed records)."""
    chosen, budget, traced = [], seconds / 2, 0.0
    for rec in records:
        if rec.latency <= budget:
            chosen.append(rec)
            traced += rec.latency
            if traced >= budget:
                break
    wl.reset()
    replayed = [issue(wl, rec.inp, rec.index) for rec in chosen]
    return traced, sum(r.latency for r in replayed), replayed


def input_latencies(latencies: list[float], records) -> list[float]:
    """One latency per distinct input: its fastest repetition in the run.
    The tail is taken over these.  brauer-census meets each pair about three
    times in a run, and its raw tail of 3 ms ops is set by host stalls, not
    by the code; the other workloads issue each input once per run, so there
    it is the sample."""
    by_input: dict[int, float] = {}
    for latency, rec in zip(latencies, records):
        by_input[rec.index] = min(latency, by_input.get(rec.index, latency))
    return list(by_input.values())


def end_to_end(records, wall: float, setup, failed: int, speed) -> tuple[dict, dict]:
    """The op and set-up times scaled to the reference host speed (see
    hostspeed.py); the unscaled figures go into the report beside them.
    setup is (seconds, scaled seconds) of the set-up probes."""
    setup_times, setup_scaled = setup
    scaled = [speed.scale(r.latency, r.slowdown) for r in records]
    raw = [r.latency for r in records]
    tail, pct, n = tail_latency(input_latencies(scaled, records))
    raw_tail = tail_latency(input_latencies(raw, records))[0]
    metrics = {
        "ops_per_s": {"value": len(records) / sum(scaled), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(scaled), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * tail, "unit": "ms"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
    }
    extra = {
        "failed_op_ratio": {"value": failed / len(records), "unit": "ratio"},
        "op_tail_percentile": pct,
        "op_samples": n,
        "wall_s": wall,
        "setup_samples_s": setup_times,
        "unscaled": {
            "ops_per_s": len(records) / sum(raw),
            "op_p50_ms": 1e3 * statistics.median(raw),
            "op_tail_ms": 1e3 * raw_tail,
            "setup_s": statistics.median(setup_times),
        },
        "calibration": {
            name: {"reference_ms": 1e3 * KERNELS[name][1], "samples": len(times),
                   "ms_quartiles": [1e3 * x for x in statistics.quantiles(times, n=4)]}
            for name, times in speed.samples.items() if len(times) > 1
        },
    }
    return metrics, extra


def per_layer(wl, tracer, records, traced_s: float, untraced_s: float) -> tuple[dict, dict]:
    import tracing

    totals = tracing.layer_totals(tracer.spans)
    metrics = {}
    for name, unit in tracing.per_layer_names():
        if name in tracing.EXTRA:
            continue  # set below
        layer, _, field = name.rpartition(".")
        if tuple(layer.split(".")) in tracing.COUNTED:
            value = tracer.counts.get(layer, 0)
        else:
            value = totals.get(layer, {}).get(field, 0)
        metrics[name] = {"value": value, "unit": unit}
    pcs = tracing.self_time_by_op(tracer.spans, "oracle.power_conjugacy_search")
    no_witness = {i for i, r in enumerate(records)
                  if wl.name == "powmap-grid" and r.error is None and r.out["witness"] is None}
    metrics["oracle.power_conjugacy_search.no_witness_s"] = {
        "value": sum(pcs.get(i, 0.0) for i in no_witness), "unit": "s"}
    metrics["trace_overhead_ratio"] = {"value": traced_s / untraced_s if untraced_s else 1.0,
                                       "unit": "ratio"}
    total_pcs = sum(pcs.values())
    top = sorted(pcs.items(), key=lambda kv: -kv[1])[:5]
    extra = {
        "top_power_conjugacy_search_ops": [
            {"cell": records[i].inp, "self_s": s, "share": s / total_pcs,
             "outcome": "no-witness" if i in no_witness else "witness"} for i, s in top],
        "layer_expectations": {f"{m}.{f}": why for (m, f), why in
                               {**tracing.SPANNED, **tracing.COUNTED}.items()}
                              | {name: why for name, (_, why) in tracing.EXTRA.items()},
        "replay_traced_s": traced_s,
        "replay_untraced_s": untraced_s,
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "charfield" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'charfield'}; run from a charfield checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import charfield
    import workloads
    from tracing import Tracer

    if Path(charfield.__file__).resolve().parent != SRC / "charfield":
        print(f"error: imported charfield from {charfield.__file__}", file=sys.stderr)
        return 2

    context = machine_context()
    wl = workloads.WORKLOAD_CLASSES[args.workload](args.seed)
    input_digest = inputs.digest(wl.inputs)
    problems = list(wl.problems)
    setup = None
    if not args.trace:
        setup_times, setup_scaled, setup_problems = measure_setup(args.workload, args.seed,
                                                                  input_digest)
        setup = (setup_times, setup_scaled)
        problems += setup_problems

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            records, wall = run_loop(wl, args.seconds, tracer)
        finally:
            tracer.uninstall()
        traced_s, untraced_s, replayed = replay_untraced(wl, records, args.seconds)
        checked = records + replayed
    else:
        speed = HostSpeed("python", wl.inside_kernel)
        records, wall = run_loop(wl, args.seconds, speed=speed)
        checked = records

    failures = wl.check(records)
    if args.trace:
        failures |= {len(records) + pos: msg for pos, msg in wl.check(replayed).items()}
    probe = workloads.defect_probe() if args.workload == "field-queries" else []
    context["loadavg_end"] = read_loadavg()

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": context, "input_digest": input_digest,
        "ops": len(checked), "failed": len(failures),
        "failures": [{"op": pos, "input": checked[pos].inp, "failure": msg}
                     for pos, msg in sorted(failures.items())[:20]],
        "known_defect_probe": probe,
        "problems": problems,
        "inputs": wl.properties(records),
    }
    if args.trace:
        metrics, report["layers"] = per_layer(wl, tracer, records, traced_s, untraced_s)
    else:
        metrics, report["end_to_end_detail"] = end_to_end(records, wall, setup, len(failures),
                                                           speed)
    report["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.json.gz")

    print_summary(report)
    print(f"report: {OUT_DIR.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def print_summary(report: dict) -> None:
    print(f"perfbench {report['workload']} seed={report['seed']} seconds={report['seconds']} "
          f"trace={report['trace']}")
    print("context: " + json.dumps(report["context"], sort_keys=True))
    for name, m in report["metrics"].items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    detail = report.get("end_to_end_detail")
    if detail:
        print(f"  {'failed_op_ratio':48s} {detail['failed_op_ratio']['value']:>14.6g} ratio "
              f"({report['failed']} of {report['ops']})")
        print(f"  op_tail_ms is p{detail['op_tail_percentile']:.2f} of {detail['op_samples']} "
              f"per-input latencies ({TAIL_BEYOND} beyond it); setup_s is the scaled median of "
              f"{SETUP_REPEATS} fresh interpreters")
        raw = detail["unscaled"]
        for name, cal in detail["calibration"].items():
            print(f"  kernel {name}: reference {cal['reference_ms']:.3g} ms, quartiles this run "
                  + "/".join(f"{x:.3g}" for x in cal["ms_quartiles"]) + f" ms ({cal['samples']} samples)")
        print(f"  unscaled: ops_per_s {raw['ops_per_s']:.6g}, op_p50_ms {raw['op_p50_ms']:.6g}, "
              f"op_tail_ms {raw['op_tail_ms']:.6g}, setup_s {raw['setup_s']:.6g}")
    layers = report.get("layers")
    if layers and layers["top_power_conjugacy_search_ops"]:
        print("  largest oracle.power_conjugacy_search self times:")
        for row in layers["top_power_conjugacy_search_ops"]:
            c = row["cell"]
            print(f"    {c['family']} n={c['n']} q={c['q']} mu={tuple(c['mu'])} k={c['k']}: "
                  f"{row['self_s']:.2f} s ({100 * row['share']:.1f}%), {row['outcome']}")
    props = {k: v for k, v in report["inputs"].items() if k != "per_cell"}
    print("inputs: " + json.dumps(props, sort_keys=True))
    for row in report["failures"][:5]:
        print(f"FAILED op {row['op']}: {row['failure']}")
    for msg in report["problems"]:
        print(f"PROBLEM: {msg}")
    bad = [p for p in report["known_defect_probe"] if p["failure"]]
    if report["known_defect_probe"]:
        print(f"known kgroup defect probe: {len(bad)} of {len(report['known_defect_probe'])} "
              "inputs answered wrongly (not counted in the workload's ops)")
        for p in bad:
            print(f"  {' '.join(p['argv'])}: {p['failure']}")


if __name__ == "__main__":
    sys.exit(main())
