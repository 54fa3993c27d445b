"""The process that runs a workload's queries, one at a time.

Usage: python3 perfbench/worker.py SRC_DIR

It imports ``spechtideals.cli`` from SRC_DIR and reports ``ready`` on
stdout, which ends the set-up that ``setup_s`` measures.  Then it answers
JSON requests, one per line, on stdin:

* ``{"op": "prepare", "seed": S, "replays": [...], "trace": bool}`` builds
  the replay inputs (outside any timing) and, when asked, installs the
  tracer;
* ``{"op": "query", "query": {...}}`` runs one query and returns its
  rendered report, exit code, time and this process's peak RSS;
* end of input ends the process.

The protocol uses the original stdout; anything the program prints goes
to stderr instead.  Other modules are imported where they are used, after
``ready``, so that ``setup_s`` times the package import alone.
"""

import json
import os
import sys
import time


def _maxrss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Worker:
    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.replays: list = []

    def prepare(self, req: dict) -> dict:
        import random

        import replays

        self.replays = replays.build(req["replays"], random.Random(req["seed"]))
        if req.get("trace") and self.tracer is None:
            import tracing

            self.tracer = tracing.Tracer()
            tracing.install(self.tracer)
        return {"ok": True, "replays": len(self.replays)}

    def _replay(self, item):
        from spechtideals import specht
        from spechtideals.fields import QQ

        if item.family == "radical":
            return specht.replay_radical_reduction(item.shape, item.k, item.combo, QQ)
        return specht.replay_aa1_reduction(item.shape.parts[0], item.k, item.combo, QQ)

    def query(self, q: dict) -> dict:
        out: dict = {}
        if self.tracer is not None:
            self.tracer.start_query()
        try:
            start = time.perf_counter()
            if q["kind"] == "cli":
                report, code = self.cli.run(q["argv"])
                text = report.render(report.config.output_format) if report else None
                out.update(code=code, text=text)
            else:
                item = self.replays[q["index"]]
                cert = self._replay(item)
                out["code"] = 0
            out["elapsed"] = time.perf_counter() - start
        except Exception:  # a query that raises is a failed query, not a dead worker
            import traceback

            out.update(code=None, error=traceback.format_exc(limit=6))
        if self.tracer is not None:
            counts, spans = self.tracer.take()
            out["trace"] = {"counts": counts, "spans": spans}
        if q["kind"] != "cli" and "error" not in out:
            out["errors"] = check_replay(item, cert)
            if self.tracer is not None:
                self.tracer.take()  # the check's own calls are not the query's work
        out["maxrss_mb"] = _maxrss_mb()
        return out


def check_replay(item, cert) -> list[str]:
    """The certificate must rewrite exactly x^a * sum c_T f_T."""
    import random

    import expected

    rng = random.Random(item.label)
    combo = [(cls.pairs, c) for cls, c in item.combo.items()]
    for _ in range(2):
        point = {i: rng.randrange(-1000, 1000) for i in range(1, item.nvars + 1)}
        coords = [point[i] for i in range(1, item.nvars + 1)]
        want = expected.replay_target(range(1, item.k + 1), combo, point)
        if cert.target.evaluate(coords) != want or cert.reconstruction().evaluate(coords) != want:
            return ["certificate does not rewrite x^a * sum c_T f_T"]
    return []


def main() -> None:
    protocol = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout = sys.stderr
    src = os.path.abspath(sys.argv[1])
    sys.path.insert(0, src)
    import spechtideals.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"spechtideals was imported from {cli.__file__}, not from {src}")
    protocol.write(json.dumps({"ready": True}) + "\n")

    worker = Worker(cli)
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "prepare":
            reply = worker.prepare(req)
        elif req["op"] == "query":
            reply = worker.query(req["query"])
        else:
            reply = {"error": f"unknown op {req['op']!r}"}
        protocol.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
