"""Every name that bench/tracer.py patches exists in the package.

The tracer wraps functions and methods by name, so a cleanup that drops or
renames one of them breaks the traced benchmark runs; these tests catch it
in the default suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import clustercat.hammocks as hammocks


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = _load_tracer()


@pytest.mark.parametrize("module,attr,span", TRACER.FUNCTIONS,
                         ids=[f[2] for f in TRACER.FUNCTIONS])
def test_every_traced_function_exists(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), span


@pytest.mark.parametrize("module,cls,attr,span", TRACER.METHODS,
                         ids=[m[3] for m in TRACER.METHODS])
def test_every_traced_method_exists(module, cls, attr, span):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(vars(owner).get(attr)), span


def test_the_traced_witness_search_exists():
    assert callable(hammocks._pairing_witness)
