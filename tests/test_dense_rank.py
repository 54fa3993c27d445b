"""The dense GF(p) rank agrees with the sparse one, and numpy loads only for it.

``linalg.rank_dense_mod_p`` ranks the large Koszul matrices of an
Artinian quotient; every other rank goes through ``linalg.rank_sparse``.
The two must agree on every matrix, including at the int64 edge, where p
is the largest prime below 2^31 and a product of two entries comes close
to 2^62.  ``betti`` imports numpy only inside the dense rank, so the
benchmark's queries, whose Koszul matrices all stay below
``betti._DENSE_CELLS`` cells, never load it.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from spechtideals import betti, cli
from spechtideals.fields import field_of
from spechtideals.linalg import rank_dense_mod_p, rank_sparse

_ROOT = Path(__file__).resolve().parents[1]
_PRIMES = [2, 3, 32003, 2**31 - 1]  # the last is the largest prime below 2^31


def _random_rows(rng, nrows, ncols, p, density=0.5):
    """Sparse rows with entries anywhere in [-p, 2p), so both kernels reduce."""
    return [
        {c: rng.randrange(-p, 2 * p) for c in range(ncols) if rng.random() < density}
        for _ in range(nrows)
    ]


def _low_rank_rows(rng, nrows, ncols, k, p):
    """A product of nrows x k and k x ncols matrices: rank at most k."""
    left = [[rng.randrange(p) for _ in range(k)] for _ in range(nrows)]
    right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(k)]
    rows = []
    for a in left:
        row = {}
        for c in range(ncols):
            v = sum(a[t] * right[t][c] for t in range(k)) % p
            if v:
                row[c] = v
        rows.append(row)
    return rows


def _agree(rows, ncols, p):
    dense = rank_dense_mod_p(rows, ncols, p)
    assert dense == rank_sparse(rows, field_of(p))
    return dense


@pytest.mark.parametrize("p", _PRIMES)
class TestKernelAgreement:
    def test_zero_matrices(self, p):
        assert _agree([], 5, p) == 0
        assert _agree([{}, {}, {}], 4, p) == 0
        assert _agree([{0: p, 2: -p}, {1: 2 * p}], 3, p) == 0  # entries that vanish mod p

    def test_duplicate_rows(self, p):
        rng = random.Random(p)
        rows = _random_rows(rng, 8, 12, p)
        assert _agree(rows + rows, 12, p) == _agree(rows, 12, p)
        assert _agree(rows[:1] * 6, 12, p) == (1 if any(v % p for v in rows[0].values()) else 0)

    @pytest.mark.parametrize("nrows, ncols", [(30, 5), (5, 30), (1, 40), (40, 1), (17, 17)])
    def test_tall_wide_and_square(self, p, nrows, ncols):
        rng = random.Random(nrows * 1000 + ncols)
        for density in (0.1, 0.5, 1.0):
            rank = _agree(_random_rows(rng, nrows, ncols, p, density), ncols, p)
            assert rank <= min(nrows, ncols)

    @pytest.mark.parametrize("nrows, ncols, k", [(20, 15, 3), (15, 20, 7), (12, 12, 11)])
    def test_rank_deficient(self, p, nrows, ncols, k):
        rng = random.Random(k)
        assert _agree(_low_rank_rows(rng, nrows, ncols, k, p), ncols, p) <= k

    def test_sizes_on_both_sides_of_the_cut(self, p):
        rng = random.Random(7)
        for nrows, ncols in [(40, 60), (60, 40), (48, 90), (90, 48)]:
            _agree(_random_rows(rng, nrows, ncols, p, 0.3), ncols, p)
        assert 40 * 60 <= betti._DENSE_CELLS < 48 * 90

    def test_entries_near_p(self, p):
        # entries just below p: the products of two reach (p - 1)^2
        rng = random.Random(1)
        rows = [{c: p - 1 - rng.randrange(min(p, 5)) for c in range(9)} for _ in range(9)]
        _agree(rows, 9, p)
        _agree([{c: p - 1 for c in range(6)} for _ in range(4)], 6, p)


def _run_in_fresh_interpreter(code: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True,
        timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


_BENCHMARK_QUERIES = """
import importlib.util, json, sys
from spechtideals import cli
spec = importlib.util.spec_from_file_location("perfbench_workloads", sys.argv[1])
mod = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = mod  # dataclasses look their module up there
spec.loader.exec_module(mod)
argvs = sorted({
    tuple(q["argv"]) for wl in mod.WORKLOADS.values() for q in wl.once + wl.fixed
    if q["kind"] == "cli"
})
before = "numpy" in sys.modules
for argv in argvs:
    cli.run(list(argv))
print(json.dumps({"queries": len(argvs), "before": before, "after": "numpy" in sys.modules}))
"""

_LARGE_DENSE = """
import json, sys
from spechtideals import cli
before = "numpy" in sys.modules
report, code = cli.run(["cm-check", "--shape", "4,4,1", "--char", "0"])
print(json.dumps({"before": before, "after": "numpy" in sys.modules, "code": code,
                  "report": report.render(report.config.output_format)}))
"""


class TestNumpyImport:
    def test_benchmark_queries_leave_numpy_unloaded(self):
        out = _run_in_fresh_interpreter(_BENCHMARK_QUERIES, str(_ROOT / "perfbench" / "workloads.py"))
        assert out["queries"] > 0
        assert out == {"queries": out["queries"], "before": False, "after": False}

    def test_large_artinian_matrix_loads_numpy_with_the_same_table(self, monkeypatch):
        # the largest Artinian Koszul matrix of (4,4,1) still built is d_3,
        # 140 x 336 (47,040 cells); d_1 and d_2 are derived, not built
        out = _run_in_fresh_interpreter(_LARGE_DENSE)
        assert (out["before"], out["after"], out["code"]) == (False, True, 0)
        monkeypatch.setattr(betti, "_DENSE_CELLS", 10**9)
        report, code = cli.run(["cm-check", "--shape", "4,4,1", "--char", "0"])
        assert code == 0
        assert report.render(report.config.output_format) == out["report"]
