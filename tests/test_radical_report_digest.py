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

The ``radical-check`` content the digests pinned before the Artinian-length
certificate (``betti.radical_by_length``) replaced most bounded comparisons
is pinned on its own below: every workload's ``radical-check`` query keeps
its component dimensions, its ``equal_up_to_degree`` value and its exit
code.
"""

import hashlib
import json
import random

import pytest
from conftest import perfbench_module

from spechtideals import cli

# sha256 of the rendered reports and exit codes the queries give
_DIGESTS = {
    "radical-grid": "60a72fd7c3caa143c1e72ec6a321c785851d70728b655d039965f00f28e0ff4f",
    "loci-replay": "d9c1043bc7c18289b875bea55ada37d6d51dbec197fee60740f4df4f59fdc929",
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


# (shape, --max-deg) -> the component dimensions of I^Sp and I_{n,k} when
# they agree up to --max-deg (exit 0), the same in characteristics 0, 2, 3
_RADICAL = {
    ("2,2", 4): [0, 0, 2, 8, 19],
    ("2,2", 6): [0, 0, 2, 8, 19, 36, 60],
    ("2,2,1", 6): [0, 0, 0, 0, 5, 21, 55],
    ("3,2", 6): [0, 0, 5, 20, 50, 101, 180],
    ("3,3", 7): [0, 0, 0, 5, 30, 96, 231, 471],
    ("3,3,1", 6): [0, 0, 0, 0, 0, 21, 112],
    ("4,2", 6): [0, 0, 9, 38, 102, 222, 426],
    ("4,3", 6): [0, 0, 0, 14, 77, 245, 602],
    ("4,4", 5): [0, 0, 0, 0, 14, 112],
    ("5,2", 7): [0, 0, 14, 63, 182, 427, 882, 1667],
}
# ... and both columns, up to the first disagreeing degree, when they do not
# (exit 1)
_NOT_RADICAL = {("3,2,1", 7): ([0, 0, 0, 0], [0, 0, 0, 5])}


def test_radical_check_content_unchanged():
    wls = perfbench_module("workloads").WORKLOADS.values()
    argvs = sorted({
        tuple(q["argv"]) for wl in wls for q in wl.once + wl.fixed
        if q["kind"] == "cli" and q["argv"][0] == "radical-check"
    })
    assert len(argvs) == 25
    for argv in argvs:
        key = (argv[2], int(argv[4]))
        equal = key in _RADICAL
        specht, intersection = (_RADICAL[key], _RADICAL[key]) if equal else _NOT_RADICAL[key]
        report, code = cli.run(list(argv))
        payload = report.to_jsonable()
        verdicts = {v["name"]: v["value"] for v in payload["verdicts"]}
        assert payload["tables"]["component_dimensions"] == {
            "specht": specht,
            "intersection": intersection,
        }, argv
        assert (verdicts["equal_up_to_degree"], code) == (equal, 0 if equal else 1), argv


@pytest.mark.parametrize("workload", sorted(_DIGESTS))
def test_reports_unchanged(workload):
    assert report_digest(workload) == _DIGESTS[workload]
