"""The benchmark's replay inputs stay the ones it was calibrated on.

``perfbench/replays.py`` builds each membership-replay input from kernel
rows of ``linalg.span_and_kernel``.  A change to the linear-algebra core
that alters the kernel basis would silently change the benchmark's own
queries; this test fails first.  The digest covers every workload's
replay specs at seed 201.
"""

import hashlib
import json
import random

from conftest import perfbench_module

# sha256 of the inputs the benchmark's recorded baseline was run with
_DIGEST = "b74619fa7a9eb1026a8a52ed37fa07b7cddd82f8daf9978d7df482937dfab58f"


def replay_digest(seed: int = 201) -> str:
    workloads, replays = perfbench_module("workloads"), perfbench_module("replays")
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
