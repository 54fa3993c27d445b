"""Compare two result sets written by ``run.py --out``.

For each workload and end-to-end metric it prints both sides' medians and
quartiles and a verdict by the rule for a small sandbox: *improved* when
the new side wins at least nine tenths of the pairs (runs paired by seed,
ties count for neither) and the medians differ by more than the base's
own interquartile spread; *worse* under the mirrored rule, or when the new
median is worse than the base median by more than the metric's bound in
``BENCHMARK.json``; otherwise *unresolved*.  Per-layer metrics from traced
runs are printed as median deltas, without a verdict.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _by_seed(records, workload, section, metric) -> dict[int, float]:
    """End-to-end values come from untraced runs, per-layer ones from traced runs."""
    out = {}
    for r in records:
        traced = section == "per_layer"
        if r["workload"] == workload and r["trace"] == traced and metric in r.get(section, {}):
            out[r["seed"]] = r[section][metric]
    return out


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(base) & set(new))
    if not seeds:
        pairs = list(zip(base.values(), new.values()))
    else:
        pairs = [(base[s], new[s]) for s in seeds]
    if not pairs:
        return "unresolved"
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    q1, med_b, q3 = quartiles(list(base.values()))
    med_n = statistics.median(new.values())
    spread = q3 - q1
    if wins >= 0.9 * len(pairs) and abs(med_n - med_b) > spread:
        return "improved"
    if losses >= 0.9 * len(pairs) and abs(med_n - med_b) > spread:
        return "worse"
    if sign * (med_n - med_b) < -bound * abs(med_b):
        return "worse"
    return "unresolved"


def main(base_path: Path, new_path: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(base_path), load(new_path)
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for wl in workloads:
        print(f"== {wl}")
        print(f"  {'metric':<16} {'base q1/med/q3':>32} {'new q1/med/q3':>32}  verdict")
        for m in spec["end_to_end"]:
            b = _by_seed(base, wl, "end_to_end", m["name"])
            n = _by_seed(new, wl, "end_to_end", m["name"])
            if not b or not n:
                continue
            qb = "/".join(f"{v:.4g}" for v in quartiles(list(b.values())))
            qn = "/".join(f"{v:.4g}" for v in quartiles(list(n.values())))
            v = verdict(b, n, m["better"], m["bound"])
            print(f"  {m['name']:<16} {qb:>32} {qn:>32}  {v} ({len(b)} vs {len(n)} runs, {m['unit']})")
        fails_b = [r["failed"] for r in base if r["workload"] == wl and not r["trace"]]
        fails_n = [r["failed"] for r in new if r["workload"] == wl and not r["trace"]]
        print(f"  failed queries per run: base {fails_b}, new {fails_n}")
        for m in spec["per_layer"]:
            b = _by_seed(base, wl, "per_layer", m["name"])
            n = _by_seed(new, wl, "per_layer", m["name"])
            if not b or not n:
                continue
            mb, mn = statistics.median(b.values()), statistics.median(n.values())
            rel = f"{(mn - mb) / mb:+.1%}" if mb else "n/a"
            print(f"  {m['name']:<34} {mb:14.6g} -> {mn:14.6g} {m['unit']:<6} {rel}")
