"""The benchmark's replay inputs stay the ones it was calibrated on.

``perfbench/replays.py`` builds each membership-replay input from kernel
rows of ``linalg.span_and_kernel``.  A change to the linear-algebra core
that alters the kernel basis would silently change the benchmark's own
queries; this test fails first.  The digest covers every workload's
replay specs at seed 201.
"""

import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# sha256 of the inputs the benchmark's recorded baseline was run with
_DIGEST = "b74619fa7a9eb1026a8a52ed37fa07b7cddd82f8daf9978d7df482937dfab58f"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


def replay_digest(seed: int = 201) -> str:
    workloads, replays = _load("workloads"), _load("replays")
    out = []
    for name in sorted(workloads.WORKLOADS):
        for item in replays.build(workloads.WORKLOADS[name].replays, random.Random(seed)):
            combo = sorted(
                [list(c.pairs), list(c.singletons), str(v)] for c, v in item.combo.items()
            )
            out.append([name, item.label, combo])
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


def test_replay_inputs_unchanged():
    assert replay_digest() == _DIGEST
