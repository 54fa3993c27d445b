"""The reports of the cm-grid workload stay byte-identical.

Every ``cm-check`` and ``betti`` query of the benchmark's cm-grid workload
(``perfbench/workloads.py``) is run through ``cli.run`` and rendered the
way the benchmark worker renders it.  A change that alters one of these
reports, an entry, a flag or a provenance string, fails here before the
benchmark sees it.

The Betti tables of the ``betti`` queries are pinned on their own: their
entries, ``j_max``, ``closed_off`` flag, totals and diagram, with the exit
code, whichever path produced them.  A certified table restricted to the
query's bound must read the same as the Koszul table it replaces.
"""

import hashlib
import json

from conftest import perfbench_module

from spechtideals import cli

# sha256 of the rendered reports and exit codes the queries give
_DIGEST = "86b045aa037f34df65dcea35f3729a620ac121a4eadc519e2ec86074af1255e3"
# sha256 of the ``betti`` queries' tables and exit codes
_BETTI_TABLES_DIGEST = "6a9eba5736a208e14e261e40f4b53982716314ed40b31bd192afab4733fafab2"


def _argvs(commands) -> list[tuple]:
    wl = perfbench_module("workloads").WORKLOADS["cm-grid"]
    return sorted({
        tuple(q["argv"]) for q in wl.once + wl.fixed
        if q["kind"] == "cli" and q["argv"][0] in commands
    })


def report_digest() -> str:
    out = []
    for argv in _argvs(("cm-check", "betti")):
        report, code = cli.run(list(argv))
        out.append([list(argv), code, report.render(report.config.output_format)])
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


def betti_tables_digest() -> str:
    out = []
    for argv in _argvs(("betti",)):
        report, code = cli.run(list(argv))
        out.append([list(argv), code, report.tables["betti"], report.tables["betti_diagram"]])
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def test_betti_tables_unchanged():
    assert betti_tables_digest() == _BETTI_TABLES_DIGEST


def test_cm_grid_reports_unchanged():
    assert report_digest() == _DIGEST
