"""The benchmark's interface to the library.

``perfbench/`` reaches into starcert by name: its tracer wraps the layer
functions listed in ``tracing.LAYER_FUNCTIONS``, and its workloads build
sampling configs from ``oracle``.  A library change that deletes or renames
one of those breaks ``perfbench/run.py --trace 1``; these tests catch that
in the ordinary suite.  The perfbench files are loaded from their paths and
never modified.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


MANDATORY = [(mod, fn) for mod, fn, _, _, optional
             in _load("tracing").LAYER_FUNCTIONS if not optional]


@pytest.mark.parametrize("mod, fn", MANDATORY,
                         ids=[f"{m}.{f}" for m, f in MANDATORY])
def test_traced_layer_function_resolves(mod, fn):
    assert callable(getattr(importlib.import_module(f"starcert.{mod}"), fn))


def test_workload_sampling_configs_run():
    configs = _load("workloads").sampling_configs()
    assert configs["check_default"]["angles"] > 0
    assert configs["grid72"]["radii"] > 0
