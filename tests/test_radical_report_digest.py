"""The reports of the radical-grid workload stay byte-identical.

Every distinct fixed ``cli`` query of the benchmark's radical-grid
workload (``perfbench/workloads.py``): ``radical-check``, ``hilbert``,
``catalan``, ``socle-probe`` and the probes into the other layers, is run
through ``cli.run`` and rendered the way the benchmark worker renders it.
A change to the collapse ranks or the degree-by-degree echelon that alters
one of these reports fails here before the benchmark sees it.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from spechtideals import cli

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# sha256 of the rendered reports and exit codes the queries give
_DIGEST = "cbcaaa17c74c47b79773c997a30c1e2e619680b7e266b94c34696fe8279b55b3"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


def report_digest() -> str:
    wl = _workloads().WORKLOADS["radical-grid"]
    argvs = sorted({tuple(q["argv"]) for q in wl.once + wl.fixed if q["kind"] == "cli"})
    out = []
    for argv in argvs:
        report, code = cli.run(list(argv))
        out.append([list(argv), code, report.render(report.config.output_format)])
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


def test_radical_grid_reports_unchanged():
    assert report_digest() == _DIGEST
