"""The reports of the radical-grid and loci-replay workloads stay byte-identical.

Every distinct ``cli`` query of a round of the benchmark's workload
(``perfbench/workloads.py``) at seed 201 is run through ``cli.run`` and
rendered the way the benchmark worker renders it.  For radical-grid these
are its fixed queries: ``radical-check``, ``hilbert``, ``catalan``,
``socle-probe`` and the probes into the other layers.  For loci-replay they
are its fixed ``purity`` and ``minimal-primes`` queries and probes, plus the
seeded ``condition-star`` and ``straighten`` queries.  A change to the
collapse ranks, the degree-by-degree echelon, the minimal primes or the
two-row straightening that alters one of these reports fails here before
the benchmark sees it.
"""

import hashlib
import json
import random

import pytest
from conftest import perfbench_module

from spechtideals import cli

# sha256 of the rendered reports and exit codes the queries give
_DIGESTS = {
    "radical-grid": "cbcaaa17c74c47b79773c997a30c1e2e619680b7e266b94c34696fe8279b55b3",
    "loci-replay": "869943e8cfc7d98738b2f9f5402c8579fd62fd3c1004fc81c3f7811c9dd9b2eb",
}


def report_digest(workload: str, seed: int = 201) -> str:
    wl = perfbench_module("workloads").WORKLOADS[workload]
    queries = wl.once + wl.make_round(random.Random(seed))
    argvs = sorted({tuple(q["argv"]) for q in queries if q["kind"] == "cli"})
    out = []
    for argv in argvs:
        report, code = cli.run(list(argv))
        out.append([list(argv), code, report.render(report.config.output_format)])
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(_DIGESTS))
def test_reports_unchanged(workload):
    assert report_digest(workload) == _DIGESTS[workload]
