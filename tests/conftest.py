"""Helpers shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name: str):
    """Load ``perfbench/<name>.py`` by its path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod
