"""Seeded inputs for the membership replays, built before any timing.

As in acceptance criterion 12, each input is a random integer combination
of kernel vectors: two-row classes whose sum, times x_1...x_k, lies in the
squarefree ideal, so the replay must succeed.  Runs inside the worker,
because the kernels come from the package's own linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from spechtideals.fields import QQ
from spechtideals.linalg import span_and_kernel
from spechtideals.poly import mono_mul, mono_support
from spechtideals.specht import all_two_row_classes, in_X
from spechtideals.tableaux import Partition


@dataclass
class ReplayInput:
    family: str  # "radical" for (n-d, d), "aa1" for (a, a, 1)
    shape: Partition
    k: int
    combo: dict
    nvars: int
    label: str


def _kernel(classes, nvars: int, k: int, d: int) -> list[dict]:
    xa = tuple(1 if i < k else 0 for i in range(nvars))
    rows, bad = [], {}
    for c in classes:
        row = {}
        for m, cf in c.f().terms.items():
            mm = mono_mul(m, xa)
            if len(mono_support(mm)) < d:
                row[bad.setdefault(mm, len(bad))] = cf
        rows.append(row)
    _, kernel = span_and_kernel(rows, QQ, len(bad))
    return kernel


def _pool(family: str, parts: tuple, k: int):
    """(classes, kernel, nvars) for one family, shape and prefix length."""
    if family == "radical":
        n, d = sum(parts), parts[1]
        nvars = n - 1
        classes = [c for c in all_two_row_classes(nvars, d - 1) if in_X(c, k)]
        return classes, _kernel(classes, nvars, k, d), nvars
    a = parts[0]
    nvars = 2 * a
    classes = all_two_row_classes(nvars, a)
    return classes, _kernel(classes, nvars, k, a + 1), nvars


def build(specs: list[dict], rng) -> list[ReplayInput]:
    """One input per (family, shape, k) draw; specs give the counts."""
    out: list[ReplayInput] = []
    pools: dict = {}
    for spec in specs:
        parts = tuple(spec["shape"])
        for _ in range(spec["count"]):
            k = rng.choice(spec["k"])
            key = (spec["family"], parts, k)
            if key not in pools:
                pools[key] = _pool(*key)
            classes, kernel, nvars = pools[key]
            combo: dict = {}
            while not combo:
                for kv in rng.sample(kernel, min(3, len(kernel))):
                    scale = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
                    for i, v in kv.items():
                        combo[classes[i]] = combo.get(classes[i], 0) + scale * v
                combo = {c: v for c, v in combo.items() if v}
            label = f"replay-{spec['family']} {','.join(map(str, parts))} k={k} #{len(out)}"
            out.append(ReplayInput(spec["family"], Partition(parts), k, combo, nvars, label))
    return out
