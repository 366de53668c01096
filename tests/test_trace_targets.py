"""Every rrqc name the benchmark's traced runs wrap still exists.

``bench/adapter.py`` lists them in ``TRACE_TARGETS``, and ``bench/tracing.py``
looks each one up when a ``--trace 1`` run starts, so a deleted or renamed
name would break every traced run. The adapter is loaded by file path, without
its ``Rrqc`` class, which re-imports rrqc and would give the other tests'
classes second identities.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ADAPTER = Path(__file__).resolve().parent.parent / "bench" / "adapter.py"


def load_adapter():
    name = "rrqc_bench_adapter"
    spec = importlib.util.spec_from_file_location(name, ADAPTER)
    module = importlib.util.module_from_spec(spec)
    # registered while it runs, since its dataclasses look their module up
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


ADAPTER_MODULE = load_adapter()
TARGETS = [
    (layer, path)
    for _, layer, paths, _ in ADAPTER_MODULE.TRACE_TARGETS
    for path in paths
]


def test_adapter_traces_every_layer():
    assert {layer for layer, _ in TARGETS} == set(ADAPTER_MODULE.LAYERS)


@pytest.mark.parametrize("layer, path", TARGETS, ids=[f"{l}.{p}" for l, p in TARGETS])
def test_trace_target_resolves(layer, path):
    # resolved as the tracer patches it: TABLE[*] is a module-level dict,
    # Class.attr an attribute defined on the class itself, and a plain name
    # a module attribute
    module = importlib.import_module(f"rrqc.{layer}")
    if path.endswith("[*]"):
        assert isinstance(getattr(module, path[:-3]), dict)
        return
    owner_path, _, attr = path.rpartition(".")
    owner = getattr(module, owner_path) if owner_path else module
    assert attr in vars(owner)
    assert callable(getattr(owner, attr))
