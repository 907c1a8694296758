"""The benchmark's span tracer still finds every package name it wraps.

perfbench/tracer.py times layers by replacing module attributes, so a
renamed or deleted function silently drops its per-layer metrics from the
benchmark.  These checks keep that visible in the main test suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_mod():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def modules(tracer_mod):
    # the modules by name, as perfbench/run.py loads them
    names = {module for module, _, _, _ in tracer_mod.WRAPS}
    return {name: importlib.import_module(f"forestbalance.{name}") for name in names}


def test_every_wrapped_name_is_defined(tracer_mod, modules):
    # checked per wrap: two wraps can share a span, so one of them going
    # missing would not show in Tracer.missing
    absent = [f"{module}.{path}" for module, path, _, _ in tracer_mod.WRAPS if _lookup(modules, module, path) is None]
    assert absent == []


def test_tracer_installs_every_span_and_restores_the_package(tracer_mod, modules):
    before = {(module, path): _lookup(modules, module, path) for module, path, _, _ in tracer_mod.WRAPS}
    with tracer_mod.Tracer(modules) as tracer:
        assert tracer.missing == set()
        assert all(_lookup(modules, m, p) is not fn for (m, p), fn in before.items())
    assert all(_lookup(modules, m, p) is fn for (m, p), fn in before.items())


def _lookup(modules, module, path):
    """The object the tracer would wrap for ``module.path``, or None when the package no longer defines it."""
    owner = modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
