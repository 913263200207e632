"""The benchmark under perfbench/ reaches into curvlab by name: its tracer
rebinds the functions listed in ``perfbench/tracer.py``, and its workloads
read keyword defaults by signature and curvature bundle fields by name.
These tests fail on a rename in the package, before the benchmark would
crash on it."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _, _ in _traced()])
def test_traced_function_resolves(module, path):
    owner = importlib.import_module(f"curvlab.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # a method is rebound on the class that defines it
    target = vars(owner).get(attr) if outer else getattr(owner, attr, None)
    assert callable(target), f"curvlab.{module}.{path}"


@pytest.mark.parametrize(
    "module, name, param",
    [
        ("variations", "first_variation_numeric", "t_step"),
        ("verify", "hessian_case", "t_step"),
        ("verify", "identity_case", "res"),
        ("variations", "gradient_ingredients", "use_structure"),
    ],
)
def test_keyword_defaults_read_by_the_benchmark(module, name, param):
    fn = getattr(importlib.import_module(f"curvlab.{module}"), name)
    parameter = inspect.signature(fn).parameters.get(param)
    assert parameter is not None and parameter.default is not inspect.Parameter.empty


def test_bundle_fields_read_by_the_benchmark():
    # the workloads' space-form check reads b.g and b.Rm4 of the bundles
    # from tensors.curvature and variations.gradient_ingredients
    from curvlab.charts import make_model
    from curvlab.tensors import curvature
    from curvlab.variations import gradient_ingredients

    base = make_model("s3-euler", 3)
    X = np.array([[0.9, 0.4, 1.1], [1.3, 2.0, 0.7]])
    for b, N in ((curvature(base, X[0]), 1), (gradient_ingredients(base, X)["bundle"], 2)):
        assert b.g.shape == (N, 3, 3)
        assert b.Rm4.shape == (N, 3, 3, 3, 3)


def test_constants_printed_in_the_benchmark_provenance():
    from curvlab import fields, tensors

    assert isinstance(fields.DEFAULT_FD_REL_STEP, float)
    assert isinstance(tensors.FIELD_FD_REL_STEP, float)


def test_pointwise_calls_made_by_the_benchmark():
    # the pointwise workload reads the dRic and dR keys of curvature_variations
    # and calls covariant_derivative with order=2 at single points
    from curvlab.charts import make_model
    from curvlab.spectral import s3_invariant_tt
    from curvlab.tensors import covariant_derivative
    from curvlab.variations import curvature_variations

    base = make_model("s3-euler", 3)
    h = s3_invariant_tt((2.0, -1.0, -1.0))
    x = np.array([0.9, 0.4, 1.1])
    v = curvature_variations(base, h, x)
    assert v["dRic"].shape == (3, 3) and np.shape(v["dR"]) == ()
    assert covariant_derivative(base, h, x, order=2).shape == (3, 3, 3, 3)
