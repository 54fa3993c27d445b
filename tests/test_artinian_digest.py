"""The Artinian reductions of the small shapes stay the same.

``betti.artinian_reduction`` is run over both proxy primes on every
non-trivial shape with n <= 7, and its Betti tables, measured values
(length, e(V), h-vector) and trace lines are hashed.  A change to how the
forms are drawn, how a draw is accepted or how the quotient is measured
that alters any of these fails here.
"""

import hashlib
import json

from spechtideals.betti import PROXY_PRIMES, artinian_reduction
from spechtideals.fields import field_of
from spechtideals.tableaux import enumerate_partitions

# sha256 of the tables, measured values and traces below
_DIGEST = "15231e13db6bc8c8eb0d79f10e08e7ae061a3208101ceea68c06ce8d2e5b778b"


def artinian_digest() -> str:
    fields = [field_of(p) for p in PROXY_PRIMES]
    out = []
    for n in range(2, 8):
        for shape in enumerate_partitions(n):
            if shape.is_trivial:
                continue
            trace: list[str] = []
            tables, measured = artinian_reduction(shape, fields, trace)
            out.append([
                shape.text(),
                None if tables is None else [
                    [t.to_jsonable(), t.reduced, t.artinian_end] for t in tables
                ],
                sorted(measured.items()),
                trace,
            ])
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


def test_artinian_reductions_unchanged():
    assert artinian_digest() == _DIGEST
