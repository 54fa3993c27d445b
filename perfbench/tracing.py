"""Per-layer tracing from outside the program.

``install`` wraps the public functions and methods listed in ``TARGETS``
wherever the package's modules look them up (a name that ``cli`` imported
from ``betti`` is patched in both modules).  Every wrapped call pushes a
frame on one stack, so a layer's self time is its time minus the time of
the calls it made into other layers.  Coarse boundaries also record spans
``(name, start, end, parent)``; hot methods only add counts and time.
``.calls`` counts every call; ``.s`` is inclusive time of the outermost
call of a name, so recursion is not counted twice.
Nothing here changes what the wrapped code returns.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("betti", "linalg", "ideals", "varieties", "specht", "poly", "tableaux", "cli")

# (module, attribute path, layer, metric key, records a span).  Targets
# that no PER_LAYER metric names are wrapped so that their time counts
# toward their own layer's self time, not their caller's.
TARGETS = [
    ("cli", "run", "cli", "run", True),
    ("cli", "Report.render", "cli", "render", False),
    ("betti", "cm_verdict", "betti", "cm_verdict", True),
    ("betti", "koszul_betti", "betti", "koszul", True),
    ("linalg", "Echelon.insert", "linalg", "insert", False),
    ("linalg", "Echelon.monic_rows", "linalg", "monic_rows", False),
    ("linalg", "Echelon.reduce_exact", "linalg", "reduce_exact", False),
    ("linalg", "rank_dense_mod_p", "linalg", "dense_rank", False),
    ("linalg", "rank_sparse", "linalg", "rank_sparse", False),
    ("linalg", "span_and_kernel", "linalg", "span_and_kernel", False),
    ("linalg", "echelon_span", "linalg", "echelon_span", False),
    ("linalg", "intersect_spans", "linalg", "intersect_spans", False),
    ("ideals", "GeneratedIdeal.component", "ideals", "component", False),
    ("ideals", "PartitionIdealK.component", "ideals", "component", False),
    ("ideals", "IntersectionInk.component", "ideals", "component", False),
    ("ideals", "SquarefreeDegreeIdeal.component", "ideals", "component", False),
    ("ideals", "SumIdealGeneric.component", "ideals", "component", False),
    ("ideals", "GeneratedIdeal.quotient_dim", "ideals", "quotient_dim", False),
    ("ideals", "Ideal.quotient_dim", "ideals", "quotient_dim", False),
    ("ideals", "QuotientRing.quotient_dim", "ideals", "quotient_dim", False),
    ("ideals", "QuotientRing.mult_map", "ideals", "mult_map", False),
    ("ideals", "IntersectionInk.dim", "ideals", "ink_dim", True),
    ("ideals", "equal_up_to_degree", "ideals", "equal", True),
    ("ideals", "specht_ideal", "ideals", "specht_ideal", False),
    ("ideals", "hilbert_function", "ideals", "hilbert_function", False),
    ("ideals", "socle", "ideals", "socle", False),
    ("ideals", "mult_injective", "ideals", "mult_injective", False),
    ("ideals", "sum_ideal", "ideals", "sum_ideal", False),
    ("varieties", "minimal_primes", "varieties", "minimal_primes", True),
    ("varieties", "height_and_purity", "varieties", "height_and_purity", False),
    ("varieties", "condition_star", "varieties", "condition_star", False),
    ("specht", "SpechtSystem.build", "specht", "build", False),
    ("specht", "straighten_quasi_h", "specht", "straighten", False),
    ("specht", "replay_radical_reduction", "specht", "replay", True),
    ("specht", "replay_aa1_reduction", "specht", "replay", True),
    ("specht", "MembershipCertificate.verify", "specht", "verify", False),
    ("specht", "independence_rank", "specht", "independence_rank", False),
    ("specht", "specht_poly", "specht", "specht_poly", False),
    ("poly", "Polynomial.__mul__", "poly", "mul", False),
    ("poly", "Polynomial.substitute", "poly", "substitute", False),
    ("poly", "substitute", "poly", "substitute", False),
    ("tableaux", "enumerate_standard_tableaux", "tableaux", "enumerate", False),
    ("tableaux", "enumerate_partitions", "tableaux", "enumerate_partitions", False),
]

# The per-layer metrics reported by a traced run, with units.  Derived
# ratios are computed in ``layer_metrics`` from the raw counters.
PER_LAYER = [
    ("betti.self_s", "s"), ("betti.koszul.calls", "count"), ("betti.koszul.s", "s"),
    ("betti.koszul.per_verdict", "ratio"), ("betti.cm_verdict.s", "s"),
    ("linalg.self_s", "s"), ("linalg.insert.calls", "count"), ("linalg.insert.s", "s"),
    ("linalg.insert.pivot_frac", "ratio"), ("linalg.monic_rows.calls", "count"),
    ("linalg.monic_rows.s", "s"), ("linalg.reduce_exact.s", "s"),
    ("linalg.dense_rank.calls", "count"), ("linalg.dense_rank.s", "s"),
    ("linalg.dense_rank.cells", "count"),
    ("ideals.self_s", "s"), ("ideals.component.calls", "count"),
    ("ideals.component.repeat_frac", "ratio"), ("ideals.mult_map.s", "s"),
    ("ideals.quotient_dim.s", "s"), ("ideals.ink_dim.calls", "count"),
    ("ideals.ink_dim.s", "s"), ("ideals.equal.s", "s"),
    ("varieties.self_s", "s"), ("varieties.minimal_primes.s", "s"),
    ("varieties.set_partitions.visited", "count"), ("varieties.condition_star.calls", "count"),
    ("varieties.condition_star.s", "s"), ("varieties.prime_frac", "ratio"),
    ("specht.self_s", "s"), ("specht.build.s", "s"), ("specht.straighten.calls", "count"),
    ("specht.straighten.s", "s"), ("specht.replay.calls", "count"), ("specht.replay.s", "s"),
    ("specht.verify.s", "s"), ("specht.cert_terms", "count"),
    ("poly.self_s", "s"), ("poly.mul.calls", "count"), ("poly.mul.s", "s"),
    ("poly.substitute.s", "s"),
    ("tableaux.self_s", "s"), ("tableaux.enumerate.calls", "count"),
    ("cli.self_s", "s"), ("cli.refused", "count"),
    ("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"),
]


class Tracer:
    """Counters, self times and spans of the wrapped calls, kept in memory."""

    def __init__(self):
        self.stack: list[list] = []  # [layer, start, time in other layers, span index]
        self.active: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.components_seen: set = set()

    def start_query(self) -> None:
        """Instances of one query never outlive it, so repeats reset here."""
        self.components_seen.clear()

    def take(self) -> tuple[dict, list]:
        """Counters and spans since the last call, then reset them."""
        counts, spans = dict(self.counts), list(self.spans)
        self.counts.clear()
        self.spans.clear()
        return counts, spans

    def wrap(self, fn, layer: str, key: str, span: bool):
        name = f"{layer}.{key}"
        stack, active, counts, spans = self.stack, self.active, self.counts, self.spans
        clock = time.perf_counter
        extra = getattr(self, "_on_" + key, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = active[name] == 0
            active[name] += 1
            span_idx = None
            if span:
                parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                span_idx = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            frame = [layer, clock(), 0.0, span_idx]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - frame[1]
                if span_idx is not None:
                    spans[span_idx][1:3] = [frame[1], end]
                parent = stack[-1] if stack else None
                if parent is None or parent[0] != layer:
                    counts[layer + ".self_s"] += dur - frame[2]
                    if parent is not None:
                        parent[2] += dur
                else:
                    parent[2] += frame[2]
                counts[name + ".calls"] += 1
                if outermost:
                    counts[name + ".s"] += dur
            if extra is not None:
                extra(args, result)
            return result

        return wrapper

    # -- counters that need the arguments or the result -------------------
    def _on_insert(self, args, result) -> None:
        if result is not None:
            self.counts["linalg.insert.pivots"] += 1

    def _on_dense_rank(self, args, result) -> None:
        rows, cols = args[0].shape
        self.counts["linalg.dense_rank.cells"] += rows * cols

    def _on_component(self, args, result) -> None:
        key = (id(args[0]), args[1])
        if key in self.components_seen:
            self.counts["ideals.component.repeats"] += 1
        self.components_seen.add(key)

    def _on_koszul(self, args, result) -> None:
        if self.active["betti.cm_verdict"]:
            self.counts["betti.koszul.in_verdict"] += 1

    def _on_minimal_primes(self, args, result) -> None:
        if self.active["varieties.minimal_primes"] == 0:
            self.counts["varieties.primes_found"] += len(result)

    def _on_replay(self, args, result) -> None:
        if self.active["specht.replay"] == 0:
            self.counts["specht.cert_terms"] += len(result.combination)

    def count_set_partitions(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for pi in fn(*args, **kwargs):
                counts["varieties.set_partitions.visited"] += 1
                yield pi

        return wrapper


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "spechtideals" or name.startswith("spechtideals."))]


def _patch_everywhere(orig, replacement) -> None:
    for mod in _modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every target in the already imported package."""
    import spechtideals.cli  # noqa: F401  (imports every layer)

    for module, path, layer, key, span in TARGETS:
        mod = sys.modules[f"spechtideals.{module}"]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(tracer.wrap(raw.__func__, layer, key, span)))
            else:
                setattr(cls, meth, tracer.wrap(raw, layer, key, span))
        else:
            orig = getattr(mod, path)
            _patch_everywhere(orig, tracer.wrap(orig, layer, key, span))
    orig = sys.modules["spechtideals.varieties"].set_partitions
    _patch_everywhere(orig, tracer.count_set_partitions(orig))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(c: dict, refused: int, overhead_s: float, untraced_s: float) -> dict:
    """The PER_LAYER metrics from summed raw counters of one traced pass."""
    g = lambda k: float(c.get(k, 0.0))  # noqa: E731
    out = {f"{layer}.self_s": g(f"{layer}.self_s") for layer in LAYERS}
    for name, _unit in PER_LAYER:
        if name not in out:
            out[name] = g(name)
    out["betti.koszul.per_verdict"] = _ratio(g("betti.koszul.in_verdict"), g("betti.cm_verdict.calls"))
    out["linalg.insert.pivot_frac"] = _ratio(g("linalg.insert.pivots"), g("linalg.insert.calls"))
    out["ideals.component.repeat_frac"] = _ratio(g("ideals.component.repeats"), g("ideals.component.calls"))
    out["varieties.prime_frac"] = _ratio(g("varieties.primes_found"), g("varieties.set_partitions.visited"))
    out["cli.refused"] = float(refused)
    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_frac"] = _ratio(overhead_s, untraced_s)
    return out
