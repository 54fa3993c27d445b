"""The benchmark's tracing targets resolve the way its install step looks them up.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry in place: a module
attribute, or a method found in its own class's ``__dict__``.  A refactor
that moves such a method into a base class or deletes a function would
break the traced benchmark run; this test fails first.
"""

import importlib.util
import sys
from pathlib import Path

import spechtideals.cli  # noqa: F401  (imports every module a target names)

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_target_resolves():
    unresolved = []
    for module, path, *_ in _tracing_module().TARGETS:
        mod = sys.modules.get(f"spechtideals.{module}")
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name, None)
            ok = isinstance(cls, type) and meth in cls.__dict__
        else:
            ok = callable(getattr(mod, path, None))
        if not ok:
            unresolved.append(f"{module}.{path}")
    assert unresolved == []


def test_set_partitions_resolves():
    assert callable(sys.modules["spechtideals.varieties"].set_partitions)
