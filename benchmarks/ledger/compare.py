#!/usr/bin/env python3
"""Compare ledger records: ``python3 benchmarks/ledger/compare.py A B``.

A is the parent, B the change. Each side names one or more records
written by ``run.py --out`` / ``--record``: comma-separated paths, where
``history.jsonl`` means every line of it and ``history.jsonl:-1`` one
line. With several records a side (the ten alternating pairs of the
README) the row shows each side's median, the spread is the distance
between the side's quartiles over its median, and the pairs B won are
counted; with one record a side the spread falls back to (max - min) /
median of that record's repetitions, which overstates it.

One row per (workload, end-to-end metric): both values, the relative
change signed so that positive is worse, the metric's bound, and

``regressed``   B is worse than A by more than the bound
``unresolved``  not regressed, but a side spreads wider than the bound,
                so "unchanged" cannot be claimed either
``ok``          otherwise

Exits non-zero on any regression, on any failed result, and, for two
records with the same git SHA, seed and scale, on any difference in a
virtual-time metric, ``failed_share`` or a count-type per-layer metric:
the simulation is deterministic, so two runs of one program must agree on
those to the last bit.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List

import manifest

BOUNDS = {m["name"]: m for m in manifest.END_TO_END}
COUNT_LAYER_NAMES = [m["name"] for m in manifest.PER_LAYER if m["unit"] == "count"]

Record = Dict[str, Any]


def load(side: str) -> List[Record]:
    records: List[Record] = []
    for part in side.split(","):
        path, _, line = part.partition(":")
        with open(path) as f:
            if path.endswith(".jsonl"):
                lines = [json.loads(text) for text in f if text.strip()]
                records.extend([lines[int(line)]] if line else lines)
            else:
                records.append(json.load(f))
    return records


def worsening(metric: str, a: float, b: float) -> float:
    """(B - A) / A, signed so that positive means B is worse."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return -change if BOUNDS[metric]["better"] == "higher" else change


def spread(records: List[Record], workload: str, metric: str) -> float:
    values = [r["workloads"][workload]["metrics"][metric] for r in records]
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / statistics.median(values)
    # Too few records to know how the estimator spreads between runs: use
    # what the repetitions inside the records show (host metrics only).
    widest = 0.0
    for record in records:
        stats = record["workloads"][workload].get("detail", {}).get(metric)
        if stats and stats["median"]:
            widest = max(widest, (stats["max"] - stats["min"]) / stats["median"])
    return widest


def compare(a: List[Record], b: List[Record]) -> List[Dict[str, Any]]:
    rows = []
    shared = [w for w in a[0]["workloads"]
              if all(w in r["workloads"] for r in a + b)]
    for workload in shared:
        for metric, spec in BOUNDS.items():
            values_a = [r["workloads"][workload]["metrics"][metric] for r in a]
            values_b = [r["workloads"][workload]["metrics"][metric] for r in b]
            va, vb = statistics.median(values_a), statistics.median(values_b)
            worse = worsening(metric, va, vb)
            wide = max(spread(a, workload, metric), spread(b, workload, metric))
            wins = ""
            if len(values_a) == len(values_b) > 1:
                won = sum(1 for x, y in zip(values_a, values_b)
                          if worsening(metric, x, y) < 0)
                wins = f"{won}/{len(values_a)}"
            if worse > spec["bound"]:
                verdict = "regressed"
            elif wide > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": metric, "a": va, "b": vb,
                         "worse": worse, "bound": spec["bound"], "spread": wide,
                         "wins": wins, "verdict": verdict})
    return rows


def determinism_breaks(a: Record, b: Record) -> List[str]:
    """Differences that two runs of the same program may not have."""
    same = all(
        a["provenance"].get(k) == b["provenance"].get(k)
        for k in ("git_sha", "seed", "scale")
    ) and a["provenance"].get("git_sha") not in (None, "unknown")
    if not same:
        return []
    breaks = []
    for workload, ea in a["workloads"].items():
        eb = b["workloads"].get(workload)
        if eb is None:
            continue
        for metric in manifest.VIRTUAL_NAMES:
            if ea["metrics"][metric] != eb["metrics"][metric]:
                breaks.append(f"{workload} {metric}: "
                              f"{ea['metrics'][metric]!r} != {eb['metrics'][metric]!r}")
        if ea["failed_share"] != eb["failed_share"]:
            breaks.append(f"{workload} failed_share differs")
        la, lb = ea.get("per_layer"), eb.get("per_layer")
        if la and lb:
            for metric in COUNT_LAYER_NAMES:
                if la[metric] != lb[metric]:
                    breaks.append(f"{workload} {metric}: {la[metric]!r} != {lb[metric]!r}")
    return breaks


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    rows = compare(a, b)
    print(f"A {a[0]['provenance']['git_sha'][:12]} x{len(a)}  "
          f"B {b[0]['provenance']['git_sha'][:12]} x{len(b)}")
    print(f"{'workload':22s}{'metric':22s}{'A':>14s}{'B':>14s}{'worse by':>10s}"
          f"{'bound':>7s}{'spread':>8s}{'B won':>7s}  verdict")
    for r in rows:
        print(f"{r['workload']:22s}{r['metric']:22s}{r['a']:>14.6g}{r['b']:>14.6g}"
              f"{r['worse']:>+10.2%}{r['bound']:>7.0%}{r['spread']:>8.1%}"
              f"{r['wins']:>7s}  {r['verdict']}")
    failed = sorted({w for rec in a + b for w, e in rec["workloads"].items()
                     if e["failed"]})
    breaks = [line for x, y in zip(a, b) for line in determinism_breaks(x, y)]
    for line in breaks:
        print(f"not deterministic: {line}")
    for workload in failed:
        print(f"failed results: {workload}")
    regressed = [r for r in rows if r["verdict"] == "regressed"]
    unresolved = sum(1 for r in rows if r["verdict"] == "unresolved")
    print(f"{len(regressed)} regressed, {unresolved} unresolved, "
          f"{len(rows) - len(regressed) - unresolved} ok")
    return 1 if regressed or breaks or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
