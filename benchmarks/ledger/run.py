#!/usr/bin/env python3
"""The perf ledger's one command.

Two ways in, one measurement underneath.

Contract form (what the benchmark driver runs, from the repo root)::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

runs repetitions of one workload in this process until ``S`` seconds are
used (at least two), checks every repetition's outputs, prints each
metric by name with its unit and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Ledger form (what a person runs)::

    python3 benchmarks/ledger/run.py [--workload W] [--seed 101] [--reps 5]
        [--scale 1.0] [--traced] [--out F] [--record]

runs each workload in its own subprocess, one at a time, prints the
table, and writes the result (with provenance and per-metric
min/median/max) to ``--out`` (default ``results/latest.json`` beside
this file). ``--record`` also appends it to ``history.jsonl``.

``--selfcheck`` runs the negative controls; ``--manifest`` rewrites
``BENCHMARK.json`` from ``manifest.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
HISTORY = os.path.join(HERE, "history.jsonl")
sys.path[:0] = [HERE, os.path.join(REPO, "src")]

UNATTRIBUTED_LIMIT = 0.15


# -- one repetition -------------------------------------------------------------


def measure(cls, seed: int, scale: float, mode: str = "plain",
            keep: bool = False) -> dict:
    """Build, time and check one fresh repetition.

    ``mode`` is ``plain`` (what end-to-end numbers come from), ``spans``
    (benchmark-side wrappers installed before anything is built) or
    ``stages`` (the repo's own header stamps switched on, for the virtual
    stage split). Timed regions run with GC deferred and start from a
    collected heap, as ``timeit`` does: a collection pause scales with the
    size of the simulated cluster, not with the loop under measurement.
    ``keep`` leaves the finished workload in the result under "workload";
    otherwise it is dropped, so that repetitions do not pile up in memory.
    """
    import layers
    import tracing

    rec = tracing.Recorder() if mode == "spans" else tracing.NULL
    undo = tracing.install(rec) if mode == "spans" else []
    try:
        gc.collect()
        workload = cls(seed, scale, rec, stage_stamps=(mode == "stages"))
        started = time.process_time()
        workload.setup()
        ended = time.process_time()
        setup_laps = segments(started, workload.laps, ended)
        workload.laps = []
        if mode == "spans":
            rec.reset()
            baseline = layers.program_counters(workload, rec)
        gc.collect()
        gc.disable()
        try:
            started = time.process_time()
            with rec.span(tracing.ROOT):
                workload.run()
            ended = time.process_time()
        finally:
            gc.enable()
        run_laps = segments(started, workload.laps, ended)
        result = workload.verify()
        rep = {
            "setup_s": sum(setup_laps),
            "run_s": sum(run_laps),
            "setup_laps": setup_laps,
            "run_laps": run_laps,
            "records": workload.records,
            "virtual_ms": workload.virtual_ms,
            "latency_p50_ms": workload.latency.percentile(50),
            "latency_p99_ms": workload.latency.percentile(99),
            "latency_mean_ms": workload.latency.mean(),
            "latency_n": workload.latency.count,
            "expected": result.expected,
            "failed": result.failed,
            "detail": result.detail,
            "stages": dict(workload.stage_means),
        }
        if mode == "spans":
            after = layers.program_counters(workload, rec)
            rep["counters"] = {k: after[k] - baseline[k] for k in after}
            rep["levels"] = layers.program_levels(workload)
            rep["recorder"] = rec
        if keep:
            rep["workload"] = workload
        return rep
    finally:
        tracing.uninstall(undo)


def segments(started: float, laps, ended: float) -> list:
    """Durations of the timing segments a repetition marked with lap()."""
    marks = [started, *laps, ended]
    return [b - a for a, b in zip(marks, marks[1:])]


def fastest(lap_lists) -> float:
    """CPU seconds of the work when nothing else ran: the sum, over the
    timing segments, of the fastest any repetition took for that segment.

    Segment k is the same simulated work in every repetition, and on a
    shared host interference only ever adds time, so the minimum is the
    estimate of the work's own cost. Taking it per segment (a few
    milliseconds each) rather than per repetition matters here: quiet
    stretches of milliseconds exist even while a neighbour is busy for
    tens of seconds, quiet stretches of a whole repetition do not.
    """
    lap_lists = list(lap_lists)
    if len({len(laps) for laps in lap_lists}) != 1:
        return min(sum(laps) for laps in lap_lists)   # not comparable segment-wise
    return sum(min(column) for column in zip(*lap_lists))


def virtual_fingerprint(rep: dict) -> tuple:
    """What must be bit-identical in every repetition of one seed."""
    return (rep["records"], rep["virtual_ms"], rep["latency_p50_ms"],
            rep["latency_p99_ms"], rep["latency_n"], rep["expected"], rep["failed"])


def summarise(values) -> dict:
    values = list(values)
    return {"min": min(values), "median": statistics.median(values),
            "max": max(values), "n": len(values)}


# -- one workload, in this process ------------------------------------------------


def run_end_to_end(cls, seed: int, scale: float, seconds: float, reps: int) -> dict:
    """Repetitions until the time budget is used (or exactly ``reps``).

    The simulation is deterministic, so every repetition does identical
    work: host-time metrics keep the fastest time seen for each timing
    segment (see :func:`fastest`), scaled to the reference host's speed
    (``hostspeed.py``); virtual-time metrics must be identical in all
    repetitions.
    """
    import hostspeed

    began = time.perf_counter()
    done = []
    longest = 0.0
    probe = hostspeed.Probe()
    while True:
        rep_began = time.perf_counter()
        done.append(measure(cls, seed, scale))
        probe.sample()
        longest = max(longest, time.perf_counter() - rep_began)
        if reps:
            if len(done) >= reps:
                break
        elif len(done) >= 2 and time.perf_counter() - began + longest > seconds:
            break
    first = done[0]
    identical = all(virtual_fingerprint(r) == virtual_fingerprint(first) for r in done)
    run_s = summarise(r["run_s"] for r in done)
    setup_s = summarise(r["setup_s"] for r in done)
    records = first["records"]
    virtual_s = first["virtual_ms"] / 1000.0
    # Measured CPU seconds -> CPU seconds of the quiet reference host.
    speed = probe.speed()
    metrics = {
        "host_records_per_s": records / (fastest(r["run_laps"] for r in done) * speed),
        "setup_s": fastest(r["setup_laps"] for r in done) * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_throughput_rps": records / virtual_s if virtual_s else 0.0,
        "sim_latency_p50_ms": first["latency_p50_ms"],
        "sim_latency_p99_ms": first["latency_p99_ms"],
    }
    return {
        "correct": identical and all(r["failed"] == 0 for r in done),
        "attempted": sum(r["expected"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": metrics,
        "detail": {
            "reps": len(done),
            "host_speed": speed,
            "segments": len(first["run_laps"]),
            "records": records,
            "latency_n": first["latency_n"],
            "virtual_identical": identical,
            "check": first["detail"],
            "run_s": run_s,
            "setup_s": setup_s,
            "host_records_per_s": summarise(records / r["run_s"] for r in done),
        },
    }


def run_traced(cls, seed: int, scale: float) -> dict:
    """One untraced repetition, one with the layer wrappers, one with the
    repo's stage stamps where the workload has a scalar Streams path, and
    the workload's rungs of the ladder."""
    import ladder
    import layers
    import workloads

    plain = measure(cls, seed, scale, keep=cls is workloads.TxnRead)
    own_us = 1e6 * plain["run_s"] / plain["records"]
    rungs = {}
    if cls is workloads.TxnWrite:
        rungs = ladder.write_ladder(seed, plain["records"])
        rungs["ladder.write.txn_us"] = own_us
    elif cls is workloads.TxnRead:
        rungs = ladder.read_ladder(plain.pop("workload"))
        rungs["ladder.read.clients_us"] = own_us
    elif cls is workloads.ReduceEosScalar:
        passthrough = measure(ladder.Passthrough, seed, scale)
        rungs = {
            "ladder.streams.passthrough_us":
                1e6 * passthrough["run_s"] / passthrough["records"],
            "ladder.streams.reduce_us": own_us,
        }
        plain["failed"] += passthrough["failed"]

    traced = measure(cls, seed, scale, "spans")
    rec = traced["recorder"]
    reps = [plain, traced]
    stages = {}
    if cls.stamps_stages:
        stamped = measure(cls, seed, scale, "stages")
        reps.append(stamped)
        stages = dict(stamped["stages"], latency_mean=stamped["latency_mean_ms"])

    metrics = layers.layer_metrics(
        rec, traced["counters"], traced["levels"], traced["run_s"],
        plain["run_s"], stages, rungs,
    )
    os.makedirs(RESULTS, exist_ok=True)
    rec.write_chrome_trace(os.path.join(RESULTS, f"trace_{cls.name}.json"))
    identical = all(
        virtual_fingerprint(r) == virtual_fingerprint(plain) for r in reps
    )
    attributed = metrics["trace.unattributed_share"] <= UNATTRIBUTED_LIMIT
    return {
        "correct": identical and attributed and all(r["failed"] == 0 for r in reps),
        "attempted": sum(r["expected"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
        "detail": {
            "reps": len(reps),
            "virtual_identical": identical,
            "attributed": attributed,
            "check": plain["detail"],
        },
    }


def contract_main(args) -> int:
    import manifest
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        result = run_traced(cls, args.seed, args.scale)
    else:
        result = run_end_to_end(cls, args.seed, args.scale, args.seconds, args.reps)
    detail = result.pop("detail")
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"reps {detail['reps']}: {detail['check']}")
    for name, value in result["metrics"].items():
        print(f"  {name:36s} {value:>16.6g} {manifest.UNITS[name]}")
    print(f"  failed {result['failed']} of {result['attempted']} expected results; "
          f"virtual metrics identical across repetitions: {detail['virtual_identical']}")
    if args.detail_out:
        with open(args.detail_out, "w") as f:
            json.dump({**result, "detail": detail}, f)
    result["metrics"] = {
        name: {"value": value, "unit": manifest.UNITS[name]}
        for name, value in result["metrics"].items()
    }
    if not detail.get("attributed", True):
        print(f"trace.unattributed_share above {UNATTRIBUTED_LIMIT}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


# -- the ledger: every workload, each in its own process ------------------------


def provenance(args) -> dict:
    def git(*argv) -> str:
        try:
            return subprocess.run(
                ["git", *argv], cwd=REPO, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain")),
        "src_dirty": bool(git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": args.seed,
        "scale": args.scale,
        "reps": args.reps,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_child(name: str, args, trace: int) -> dict:
    os.makedirs(RESULTS, exist_ok=True)
    detail_path = os.path.join(RESULTS, f".detail_{name}_{trace}.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(args.seed), "--scale", str(args.scale),
        "--reps", str(args.reps), "--trace", str(trace),
        "--detail-out", detail_path,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{name} (trace {trace}) exited with {done.returncode}")
    with open(detail_path) as f:
        result = json.load(f)
    os.remove(detail_path)
    return result


def ledger_main(args) -> int:
    import manifest

    names = [args.workload] if args.workload else [n for n, _ in manifest.WORKLOADS]
    stamp = provenance(args)
    if args.record and (args.scale != 1.0 or stamp["src_dirty"]):
        raise SystemExit(
            "--record refuses: needs --scale 1.0 and an unmodified src/ "
            f"(scale {args.scale}, src dirty: {stamp['src_dirty']})"
        )
    record = {"provenance": stamp, "workloads": {}}
    ok = True
    for name in names:
        entry = run_child(name, args, 0)
        if args.traced:
            traced = run_child(name, args, 1)
            entry["per_layer"] = traced["metrics"]
            entry["correct"] = entry["correct"] and traced["correct"]
            entry["failed"] += traced["failed"]
            entry["attempted"] += traced["attempted"]
        entry["failed_share"] = entry["failed"] / entry["attempted"]
        record["workloads"][name] = entry
        ok = ok and entry["correct"]
    out = args.out or os.path.join(RESULTS, "latest.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    if args.record:
        with open(HISTORY, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"\n{'workload':22s}" + "".join(f"{n:>20s}" for n in manifest.E2E_NAMES)
          + f"{'failed_share':>14s}")
    for name, entry in record["workloads"].items():
        print(f"{name:22s}"
              + "".join(f"{entry['metrics'][n]:>20.6g}" for n in manifest.E2E_NAMES)
              + f"{entry['failed_share']:>14.6g}")
    print(f"wrote {out}" + (f" and appended to {HISTORY}" if args.record else ""))
    return 0 if ok else 1


# -- negative controls ------------------------------------------------------------


def selfcheck_main(args) -> int:
    """Each checker must report failed_share > 0 on a planted defect."""
    import check
    import workloads
    from repro.config import READ_UNCOMMITTED

    scale = min(args.scale, 0.05)
    controls = {}

    class UncommittedReader(workloads.TxnWrite):
        isolation = READ_UNCOMMITTED

    leaky = measure(UncommittedReader, args.seed, scale)
    controls["txn: read-uncommitted verifier sees aborted records"] = check.Check(
        leaky["expected"], leaky["failed"])

    clean = measure(workloads.ReduceEosScalar, args.seed, scale, keep=True)
    workload = clean["workload"]
    inputs = check.input_records(workload.cluster, "input")
    rows = list(workload.outputs)
    fold = lambda aggregate, value: aggregate + value  # noqa: E731
    controls["reduce: one output dropped"] = check.check_fold(inputs, rows[1:], fold)
    controls["reduce: one output duplicated"] = check.check_fold(
        inputs, rows + rows[-1:], fold)
    controls["failover: one row lost and one duplicated vs golden"] = (
        check.check_multiset(rows, rows[1:] + rows[-1:]))

    windows = measure(workloads.WindowJoinOoo, args.seed, scale, keep=True)
    rows = list(windows["workload"].outputs)
    offline = {(key.key, key.window.start): value for _, key, value in rows}
    partition, key, value = rows[0]
    controls["window: one final result emitted twice"] = (
        check.check_final_windows(offline, rows + rows[:1], 0))
    controls["window: one count above the offline count"] = (
        check.check_final_windows(offline, [(partition, key, value + 1)] + rows[1:], 0))
    controls["window: one result missing with no late drop to explain it"] = (
        check.check_final_windows(offline, rows[1:], 0))

    ok = clean["failed"] == 0 and windows["failed"] == 0
    for label, result in controls.items():
        fired = result.failed > 0
        print(f"{'ok  ' if fired else 'FAIL'} {label}: "
              f"failed_share {result.failed_share:.6g}")
        ok = ok and fired
    print("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1


def manifest_main() -> int:
    import manifest

    path = os.path.join(REPO, "BENCHMARK.json")
    with open(path, "w") as f:
        json.dump(manifest.benchmark_json(), f, indent=2)
        f.write("\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float,
                        help="contract form: measure for this long, in this process")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--reps", type=int, default=0,
                        help="exact repetitions (ledger form default: 5)")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--traced", action="store_true",
                        help="ledger form: also take the per-layer run")
    parser.add_argument("--out")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--manifest", action="store_true")
    parser.add_argument("--detail-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash order must not be an input: restart with it pinned.
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + sys.argv[1:], dict(os.environ, PYTHONHASHSEED="0"))
    if args.manifest:
        return manifest_main()
    if args.selfcheck:
        return selfcheck_main(args)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        if not args.reps and args.seconds is None:
            parser.error("--trace needs --seconds or --reps")
        return contract_main(args)
    args.reps = args.reps or 5
    return ledger_main(args)


if __name__ == "__main__":
    sys.exit(main())
