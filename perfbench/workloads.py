"""The three workloads: which queries a round holds and why.

A round is a fixed mix, so every seed loads the same work: each query in
``fixed`` runs as often as it is listed (its weight), ``generated``
queries get seeded random inputs, and each prepared replay input runs
once; ``once`` queries run once per run, ahead of the rounds.  A round
holds at least 80 queries and takes about ``round_s`` seconds at the
baseline on a quiet machine; a run is a whole number of rounds, so every
run of a workload has the same mix, and three rounds give the 90th
percentile more than twenty samples beyond it.  The seed decides the random
inputs and the order.  Drawing the weighted queries at random instead
would move ``verdict_s.p50`` from seed to seed, because the many cheap
queries set it.  No query comes near its workload's budget at the
baseline, so the failure count repeats exactly; the one deliberate
exception is the frontier query of ``cm-grid``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def cli(*argv: str) -> dict:
    return {"kind": "cli", "argv": list(argv)}


def label(q: dict) -> str:
    return " ".join(q["argv"]) if q["kind"] == "cli" else f"replay #{q['index']}"


@dataclass
class Workload:
    name: str
    why: str
    budget_s: float
    round_s: float  # a round's length at the baseline on a quiet machine
    fixed: list[dict] = field(default_factory=list)
    once: list[dict] = field(default_factory=list)  # run once, ahead of the rounds
    generated: list[tuple] = field(default_factory=list)  # (make(rng) -> query, count)
    replays: list[dict] = field(default_factory=list)  # specs for replays.build

    def make_round(self, rng) -> list[dict]:
        queries = list(self.fixed)
        for make, count in self.generated:
            queries += [make(rng) for _ in range(count)]
        nreplays = sum(spec["count"] for spec in self.replays)
        queries += [{"kind": "replay", "index": i} for i in range(nreplays)]
        rng.shuffle(queries)
        return queries


# One tiny query into each layer a workload does not otherwise load, once per
# round, so that every per-layer time is measured on every workload rather
# than reading a constant zero.
_PROBE_KOSZUL = cli("cm-check", "--shape", "2,2", "--char", "2")
_PROBE_COLLAPSE = cli("radical-check", "--shape", "2,2", "--max-deg", "4", "--char", "2")
_PROBE_LOCI = cli("purity", "--shape", "2,1")
_PROBE_REPLAY = [{"family": "radical", "shape": [3, 2], "k": [1], "count": 1}]

# -- cm-grid ---------------------------------------------------------------------

# The frontier: cm-check (3,3,1) runs for more than ten minutes today.  It
# runs once per run, ahead of the rounds, so its fixed cost is paid once.
_CM_FRONTIER = [cli("cm-check", "--shape", "3,3,1", "--char", "0")]
# The mix is laid out by time at the baseline so that both percentiles fall
# inside a block of near-equal queries rather than in a gap between two: per
# round, 5 queries above 0.4 s, a block of four (2,2,1) queries at 0.28 s
# (ranks 6-9 from the top, around the 90th percentile), 12 at 0.01-0.12 s,
# and 60 tiny ones at 4-8 ms (the median falls two thirds of the way up
# them), where argument parsing and report rendering show.
_CM_TOP = [
    cli("cm-check", "--shape", "3,3", "--char", "0"),
    cli("cm-check", "--shape", "3,3", "--char", "2"),
    cli("cm-check", "--shape", "4,1,1", "--char", "0"),
    cli("cm-check", "--shape", "2,2,1", "--char", "0"),
    cli("cm-check", "--shape", "5,2", "--char", "0"),
]
_CM_P90 = [
    cli(cmd, "--shape", "2,2,1", "--char", ch) for cmd in ("cm-check", "betti") for ch in ("2", "3")
]
_CM_MIDDLE = [
    cli("betti", "--shape", "4,1,1", "--char", "2"),
    cli("betti", "--shape", "4,1,1", "--char", "3"),
    cli("betti", "--shape", "5,2", "--char", "3"),
    cli("cm-check", "--shape", "2,2", "--char", "0"),
    cli("cm-check", "--shape", "3,2", "--char", "0"),
    cli("cm-check", "--shape", "4,2", "--char", "0"),
]
_CM_CHEAP = ["1,1", "2,1", "1,1,1", "3,1", "4,1"]


def _small(shapes) -> list[dict]:
    return [cli(cmd, "--shape", s, "--char", ch)
            for s in shapes for cmd in ("cm-check", "betti") for ch in ("0", "2", "3")]


CM_GRID = Workload(
    name="cm-grid",
    why=("cm-check and betti on shapes n<=7, chars 0/2/3, closed loop, one client; "
         "loads betti Koszul ranks, linalg GF(p) echelons, ideals components; "
         "holds the (3,3,1) frontier"),
    budget_s=6.0,
    round_s=8.0,
    once=_CM_FRONTIER,
    fixed=_CM_TOP + _CM_P90 + _CM_MIDDLE + _small(["1,1,1,1"]) + 2 * _small(_CM_CHEAP)
    + [_PROBE_COLLAPSE, _PROBE_LOCI],
    replays=_PROBE_REPLAY,
)

# -- radical-grid ------------------------------------------------------------------

# Short rounds of identical mix, so the median over a run's rounds steadies
# throughput.  The mix is laid out by time at the baseline so that both
# percentiles fall inside a block of near-equal queries rather than in a gap
# between two: per round, 37 queries under 12 ms, a block of 24 at 14 ms
# (ranks 38-61, around the median), 24 at 19-90 ms, a block of six at
# 90-100 ms (ranks 86-91, around the 90th percentile) and 7 above.
_RAD_CHARS = ("0", "2", "3")


def _radical(shape: str, deg: str, chars=_RAD_CHARS) -> list[dict]:
    return [cli("radical-check", "--shape", shape, "--max-deg", deg, "--char", ch) for ch in chars]


_RAD_TOP = [
    # the dense collapse ranks: (3,3,1) at degree 6 builds the largest matrices
    *_radical("3,3,1", "6", ("0",)),
    *_radical("4,4", "5", ("0",)),
    *_radical("4,3", "6", ("0",)),
    *_radical("3,3", "7"),
    cli("catalan", "--n", "4"),
]
_RAD_P90 = 2 * _radical("5,2", "7")
_RAD_MIDDLE = 2 * (
    _radical("3,2,1", "7") + _radical("2,2,1", "6") + _radical("4,2", "6")
    + [cli("hilbert", "--shape", s, "--max-deg", "8") for s in ("5,2", "4,2")]
    + [cli("socle-probe", "--shape", "4,2", "--char", "0")]
)
_RAD_P50 = 6 * (_radical("3,2", "6") + [cli("socle-probe", "--shape", "4,2", "--char", "2")])
_RAD_BOTTOM = 3 * (
    _radical("2,2", "6")
    + [cli("hilbert", "--shape", s, "--max-deg", "8") for s in ("2,2", "3,2")]
    + [cli("socle-probe", "--shape", s, "--char", ch) for s in ("2,2", "3,2") for ch in ("0", "2")]
    + [cli("catalan", "--n", "3")]
) + _radical("2,2", "6") + [cli("hilbert", "--shape", "2,2", "--max-deg", "8")]

RADICAL_GRID = Workload(
    name="radical-grid",
    why=("radical-check fixtures plus (5,2), (4,4) and (3,2,1), hilbert, catalan, socle-probe, "
         "closed loop, one client; loads IntersectionInk dense collapse ranks and QQ echelons"),
    budget_s=20.0,
    round_s=5.5,
    fixed=_RAD_TOP + _RAD_P90 + _RAD_MIDDLE + _RAD_P50 + _RAD_BOTTOM
    + [_PROBE_KOSZUL, _PROBE_LOCI],
    replays=_PROBE_REPLAY,
)

# -- loci-replay ---------------------------------------------------------------------


def _random_set_partition(rng, n: int) -> str:
    nblocks = rng.randint(1, n)
    blocks: dict[int, list[int]] = {}
    for v in range(1, n + 1):
        blocks.setdefault(rng.randrange(nblocks), []).append(v)
    return "|".join(",".join(map(str, b)) for b in blocks.values())


# A round of about 6 s: every n = 8 shape gets both commands and two n = 9
# shapes one each ((4,4,1) has C(9,5) minimal primes, (5,3,1) is impure),
# with 74 small queries beside them.  The 90th percentile then falls in the
# middle of the 14 n = 8 queries (0.15-0.33 s), and the median among the
# small ones.  The other n = 9 shapes are drawn for condition-star.
_N8_SHAPES = ["5,3", "4,4", "3,3,2", "2,2,2,2", "5,2,1", "4,2,2", "4,3,1"]
_N9_SHAPES = ["7,2", "5,4", "8,1", "6,3", "3,3,3", "5,3,1", "4,4,1", "6,2,1", "4,3,2"]
_LOCI_SHAPES = _N8_SHAPES + _N9_SHAPES
_ENGINES = ("dominance", "flow", "brute")


def _condition_star(rng, engine: str) -> dict:
    shape = rng.choice(_LOCI_SHAPES)
    n = sum(int(p) for p in shape.split(","))
    return cli("condition-star", "--shape", shape, "--blocks", _random_set_partition(rng, n),
               "--engine", engine)


# two-row frames (width, pairs) -> letters, as in acceptance criterion 11
_FRAMES = {(3, 1): 4, (3, 2): 5, (4, 2): 6, (4, 3): 7}


def _straighten(rng) -> dict:
    (_, npairs), nvars = rng.choice(sorted(_FRAMES.items()))
    k = rng.randint(1, npairs)
    rest = list(range(k + 1, nvars + 1))
    rng.shuffle(rest)
    pairs = [(l + 1, rest[l]) for l in range(k)]
    tail = rest[k:]
    for _ in range(npairs - k):
        pairs.append((tail.pop(), tail.pop()))
    rng.shuffle(pairs)
    pairs = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in pairs]
    top = [a for a, _ in pairs] + sorted(tail)
    bottom = [b for _, b in pairs]
    tableau = ",".join(map(str, top)) + "/" + ",".join(map(str, bottom))
    return cli("straighten", "--tableau", tableau, "--prefix", str(k))


LOCI_REPLAY = Workload(
    name="loci-replay",
    why=("purity and minimal-primes at n=8,9, condition-star on random set partitions, "
         "straighten, membership replays; closed loop, one client; loads varieties, specht, poly"),
    budget_s=6.0,
    round_s=6.0,
    fixed=[cli(cmd, "--shape", s) for s in _N8_SHAPES for cmd in ("purity", "minimal-primes")]
    + [cli("minimal-primes", "--shape", "4,4,1"), cli("purity", "--shape", "5,3,1")]
    + [_PROBE_KOSZUL, _PROBE_COLLAPSE],
    generated=[(lambda rng, e=e: _condition_star(rng, e), 14) for e in _ENGINES]
    + [(_straighten, 20)],
    replays=[
        {"family": "radical", "shape": [3, 2], "k": [1], "count": 1},
        {"family": "radical", "shape": [4, 2], "k": [1], "count": 1},
        {"family": "radical", "shape": [3, 3], "k": [1, 2], "count": 2},
        {"family": "radical", "shape": [4, 4], "k": [1, 2, 3], "count": 2},
        {"family": "aa1", "shape": [3, 3, 1], "k": [1, 2], "count": 2},
        {"family": "aa1", "shape": [4, 4, 1], "k": [2, 3], "count": 2},
    ],
)

WORKLOADS = {w.name: w for w in (CM_GRID, RADICAL_GRID, LOCI_REPLAY)}
