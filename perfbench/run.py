"""Benchmark of the spechtideals verdict queries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --workload all --seed N --seconds S [--out FILE]
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

One run sends a workload's seeded queries through the public entry points
in a closed loop with one client: a single worker process (see
``worker.py``, a fresh one for each round) answers one query at a time.
Queries come in rounds of a fixed mix; a run is as many whole rounds as
fit in ``--seconds`` at the baseline, and no query starts after 1.4 x
``--seconds``.  Throughput is the median over the run's complete rounds,
so a spell in which the machine runs slow moves one round, not the run.
Every verdict is checked against ``expected.py``; a query over the
workload's budget kills the worker, counts as failed, and a fresh worker
takes over.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` the rounds run once untraced and once traced on the same
inputs, and the last line holds the per-layer metrics, including the
tracing overhead.  ``--workload all`` runs every workload that way and
prints both.  ``--out`` appends one JSON record per run, which
``--compare`` reads.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import math
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import expected  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
HARD_STOP = 1.4
END_TO_END = [
    ("setup_s", "s"), ("verdicts_per_s", "1/s"), ("verdict_s.p50", "s"),
    ("verdict_s.p90", "s"), ("peak_rss_mb", "MB"),
]


class WorkerGone(RuntimeError):
    pass


def child_env() -> dict:
    """Pinned threads and hashing for the worker, so runs compare."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(
        PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1", VECLIB_MAXIMUM_THREADS="1",
    )
    return env


class WorkerProcess:
    """One worker; ``setup_s`` is the time until it reports ready."""

    def __init__(self):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        )
        self.buf = b""
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)
        if self._recv(60.0) is None:
            self.kill()
            raise WorkerGone("worker did not start within 60 s")
        self.setup_s = time.perf_counter() - start

    def _recv(self, timeout: float):
        deadline = time.perf_counter() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not self.sel.select(left):
                return None
            chunk = os.read(self.proc.stdout.fileno(), 1 << 20)
            if not chunk:
                raise WorkerGone(f"worker exited with code {self.proc.wait()}")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def request(self, obj: dict, timeout: float):
        """The reply, or None when none came within ``timeout`` seconds."""
        try:
            self.proc.stdin.write(json.dumps(obj).encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkerGone("worker closed its input") from exc
        return self._recv(timeout)

    def close(self) -> None:
        self.sel.close()
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.sel.close()
        self.proc.stdin.close()
        self.proc.stdout.close()


def reference_loop() -> float:
    """A fixed pure-Python loop; its time flags runs slowed by the machine."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def setup_probes() -> list[float]:
    """Fresh-interpreter imports of spechtideals.cli, ahead of the rounds."""
    WorkerProcess().close()  # fills the bytecode cache; not a sample
    samples = []
    for _ in range(SETUP_PROBES):
        w = WorkerProcess()
        samples.append(w.setup_s)
        w.close()
    return samples


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Pass:
    """Runs rounds of queries on one worker and collects their outcomes."""

    def __init__(self, wl, seed: int, trace: bool):
        self.wl, self.seed, self.trace = wl, seed, trace
        self.samples: list[tuple[float, str]] = []
        self.wall = 0.0
        self.round_rates: list[float] = []  # correct verdicts per second, by complete round
        self.correct = 0
        self.failures: list[tuple[str, str]] = []
        self.incorrect = 0
        self.refused = 0
        self.peak_rss = 0.0
        self.digests: dict[str, str] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[dict] = []
        self.worker = None
        self.starts: list[float] = []  # setup_s of every worker this pass started

    def _start_worker(self) -> None:
        self.worker = WorkerProcess()
        self.starts.append(self.worker.setup_s)
        reply = self.worker.request(
            {"op": "prepare", "seed": f"{self.wl.name}:{self.seed}",
             "replays": self.wl.replays, "trace": self.trace}, 600.0)
        if not reply or not reply.get("ok"):
            raise WorkerGone(f"worker could not prepare: {reply}")

    def _fail(self, label: str, why: str, incorrect: bool) -> None:
        self.failures.append((label, why))
        self.incorrect += incorrect

    def _one(self, q: dict) -> None:
        label = workloads.label(q)
        start = time.perf_counter()
        try:
            reply = self.worker.request({"op": "query", "query": q}, self.wl.budget_s)
        except WorkerGone as exc:
            reply, gone = None, str(exc)
        else:
            gone = None
        if reply is None:
            self.samples.append((time.perf_counter() - start, label))
            self.worker.kill()
            self._fail(label, gone or f"over the {self.wl.budget_s:g} s budget", False)
            self._start_worker()
            return
        self.samples.append((reply.get("elapsed", time.perf_counter() - start), label))
        self.peak_rss = max(self.peak_rss, reply["maxrss_mb"])
        for k, v in reply.get("trace", {}).get("counts", {}).items():
            self.counts[k] = self.counts.get(k, 0.0) + v
        if self.trace:
            self.spans.append({"query": label, "spans": reply["trace"]["spans"]})
        if "error" in reply:
            self._fail(label, "raised: " + reply["error"].strip().splitlines()[-1], True)
            return
        code = reply["code"]
        if q["kind"] == "cli":
            text = reply["text"]
            self.digests[label] = hashlib.sha256((text or "").encode()).hexdigest()
            if code == 3:
                self.refused += 1
                self._fail(label, "refused by a resource cap (exit 3)", False)
                return
            errs = expected.check_cli(q["argv"], code, json.loads(text) if text else None)
        else:
            errs = reply["errors"]
        if errs:
            self._fail(label, "; ".join(errs), True)
        else:
            self.correct += 1

    def run(self, rounds: list[list[dict]] | None, seconds: float) -> list[list[dict]]:
        """Replays ``rounds`` if given; else runs the whole rounds that fit in ``seconds``.

        The workload's ``once`` queries run first, on a worker of their own,
        and count everywhere but in the round rates.  Each round gets a fresh
        worker, so state a long-lived process builds up (allocator layout,
        caches) does not carry the order of one round into the next;
        ``wall`` sums the queries' time, not the worker starts.  No query
        starts after ``HARD_STOP`` times ``seconds``, whatever the speed of
        the machine.  Returns the rounds that ran.
        """
        rng = random.Random(f"{self.wl.name}:{self.seed}:rounds")
        if rounds is None:
            count = max(1, int(seconds // self.wl.round_s))
            rounds = [self.wl.make_round(rng) for _ in range(count)]
        done: list[list[dict]] = []
        start = time.perf_counter()
        for i, queries in enumerate([self.wl.once] + rounds):
            if not queries or time.perf_counter() - start >= HARD_STOP * seconds:
                continue
            if i:
                done.append([])
            self._start_worker()
            round_start, round_correct = time.perf_counter(), self.correct
            try:
                for q in queries:
                    if time.perf_counter() - start >= HARD_STOP * seconds:
                        return done
                    self._one(q)
                    if i:
                        done[-1].append(q)
                if i:
                    self.round_rates.append(
                        (self.correct - round_correct) / (time.perf_counter() - round_start))
            finally:
                self.wall += time.perf_counter() - round_start
                self.worker.close()
        return done

    @property
    def attempted(self) -> int:
        return len(self.samples)

    def end_to_end(self) -> dict:
        times = [t for t, _ in self.samples]
        rates = self.round_rates or [self.correct / self.wall]
        return {
            "verdicts_per_s": statistics.median(rates),
            "verdict_s.p50": percentile(times, 0.5),
            "verdict_s.p90": percentile(times, 0.9),
            "peak_rss_mb": self.peak_rss,
        }

    def by_label(self) -> dict[str, float]:
        """Median time of each distinct query, to see which queries moved."""
        out: dict[str, list[float]] = {}
        for t, lab in self.samples:
            out.setdefault(lab, []).append(t)
        return {lab: statistics.median(ts) for lab, ts in sorted(out.items())}


def run_workload(name: str, seed: int, seconds: float, trace: bool, setup: bool) -> dict:
    """One run: end-to-end metrics from an untraced pass, per-layer from a traced one."""
    wl = workloads.WORKLOADS[name]
    ref_before = reference_loop()
    probes = setup_probes() if setup else []
    plain = Pass(wl, seed, trace=False)
    # a traced run times the same rounds twice, so each pass gets half the time
    rounds = plain.run(None, seconds / 2 if trace else seconds)
    e2e = plain.end_to_end()
    if setup:
        # the median over the probes and every worker start of the pass
        e2e["setup_s"] = statistics.median(probes + plain.starts)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": len(rounds), "attempted": plain.attempted,
        "failed": len(plain.failures), "correct": plain.incorrect == 0,
        "fail_rate": len(plain.failures) / plain.attempted,
        "failures": sorted(set(plain.failures)),
        "end_to_end": e2e,
        "wall_s": plain.wall,
        "round_rates": plain.round_rates,
        "query_s": plain.by_label(),
        "digest": hashlib.sha256(json.dumps(sorted(plain.digests.items())).encode()).hexdigest(),
    }
    if trace:
        traced = Pass(wl, seed, trace=True)
        traced.run(rounds, seconds)
        overhead = traced.wall - plain.wall
        record["per_layer"] = tracing.layer_metrics(traced.counts, traced.refused, overhead, plain.wall)
        record["traced_wall_s"] = traced.wall
        record["correct"] = record["correct"] and traced.incorrect == 0
        spans_dir = STATE / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        with open(spans_dir / f"{name}-seed{seed}.jsonl", "w") as fh:
            for item in traced.spans:
                fh.write(json.dumps(item) + "\n")
    record["reference_loop_s"] = [ref_before, reference_loop()]
    return record


def print_record(rec: dict) -> None:
    print(f"== {rec['workload']} seed={rec['seed']}: {rec['rounds']} round(s), "
          f"{rec['attempted']} queries in {rec['wall_s']:.2f} s, closed loop, one client")
    units = dict(END_TO_END)
    for name, value in rec["end_to_end"].items():
        print(f"  {name:<16} {value:12.6f} {units[name]}")
    print(f"  {'fail_rate':<16} {rec['fail_rate']:12.6f} ratio "
          f"({rec['failed']} of {rec['attempted']} attempted)")
    for label, why in rec["failures"]:
        print(f"  failed: {label}: {why}")
    if "per_layer" in rec:
        units = dict(tracing.PER_LAYER)
        for name, value in rec["per_layer"].items():
            print(f"  {name:<34} {value:14.6f} {units[name]}")
        print(f"  tracing overhead: {rec['per_layer']['trace.overhead_s']:.3f} s "
              f"(traced {rec['traced_wall_s']:.3f} s vs untraced {rec['wall_s']:.3f} s)")
    print(f"  report digest {rec['digest'][:16]} (information only)")
    print(f"  reference loop {rec['reference_loop_s'][0]:.4f} s before, "
          f"{rec['reference_loop_s'][1]:.4f} s after (diagnostic)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="append one JSON record per run")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        compare.main(*args.compare)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    if not (SRC / "spechtideals" / "cli.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2

    STATE.mkdir(exist_ok=True)
    with open(STATE / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # never two workloads at once
        names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        records = []
        for name in names:
            rec = run_workload(name, args.seed, args.seconds,
                               trace=bool(args.trace) or args.workload == "all",
                               setup=not args.trace or args.workload == "all")
            records.append(rec)
            print_record(rec)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
    if args.workload == "all":
        return 0 if all(r["correct"] for r in records) else 1
    rec = records[0]
    if args.trace:
        units = dict(tracing.PER_LAYER)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in rec["per_layer"].items()}
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in rec["end_to_end"].items()}
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
