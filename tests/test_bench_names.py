"""The benchmark's traced names must exist in dvbcalc.

The per-layer metrics read tracer scopes by name, and a scope nobody
entered reads as 0, so a renamed function would silently zero its metrics.
The benchmark files are loaded by path and not edited.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
metricspec = load("metricspec")


def function_scopes():
    keys = {name.rsplit(".", 1)[0] for name in metricspec.PER_LAYER}
    keys |= {member for members in tracer.GROUPS.values() for member in members}
    return sorted(
        key
        for key in keys
        if key not in tracer.LAYERS
        and key not in tracer.GROUPS
        and key.split(".", 1)[0] not in ("host", "trace")
        and not key.startswith("suites.run_suite.")
    )


@pytest.mark.parametrize("key", function_scopes())
def test_traced_scope_resolves(key):
    layer, *path = key.split(".")
    obj = importlib.import_module(f"dvbcalc.{layer}")
    for part in path:
        dunder = f"__{part}__"
        obj = getattr(obj, dunder if dunder in tracer.WRAPPED_DUNDERS else part)
    assert callable(obj)
