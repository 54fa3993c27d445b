"""The benchmark's tracing targets resolve the way its install step looks them up.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry in place: a module
attribute, or a method found in its own class's ``__dict__``.  A refactor
that moves such a method into a base class or deletes a function would
break the traced benchmark run; this test fails first.
"""

import sys

from conftest import perfbench_module

import spechtideals.cli  # noqa: F401  (imports every module a target names)


def test_every_target_resolves():
    unresolved = []
    for module, path, *_ in perfbench_module("tracing").TARGETS:
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
