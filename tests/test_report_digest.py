"""The Koszul-path reports of the cm-grid workload stay byte-identical.

Every ``cm-check`` and ``betti`` query of the benchmark's cm-grid workload
(``perfbench/workloads.py``) is run through ``cli.run`` and rendered the
way the benchmark worker renders it.  A change to the Koszul path that
alters one of these reports, an entry, a flag or a provenance string,
fails here before the benchmark sees it.
"""

import hashlib
import json

from conftest import perfbench_module

from spechtideals import cli

# sha256 of the rendered reports and exit codes the queries give
_DIGEST = "a5dd0eddda98ef8feea059ac27fcd2ef84133e4cd3aa82478633bde00aab6ca0"


def report_digest() -> str:
    wl = perfbench_module("workloads").WORKLOADS["cm-grid"]
    argvs = sorted({
        tuple(q["argv"]) for q in wl.once + wl.fixed
        if q["kind"] == "cli" and q["argv"][0] in ("cm-check", "betti")
    })
    out = []
    for argv in argvs:
        report, code = cli.run(list(argv))
        out.append([list(argv), code, report.render(report.config.output_format)])
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


def test_cm_grid_reports_unchanged():
    assert report_digest() == _DIGEST
