"""The benchmark under perfbench/ reaches into curvlab by name: its tracer
rebinds the functions listed in ``perfbench/tracer.py``, its workloads,
child process and tracer read module attributes, and its workloads read
keyword defaults by signature and curvature bundle fields by name.  These
tests fail on a rename or a deletion in the package, before the benchmark
would crash on it."""

import ast
import importlib
import importlib.util
import inspect

import numpy as np
import pytest

from perfbench_names import benchmark_reads, curvlab_reads, traced


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _, _ in traced()])
def test_traced_function_resolves(module, path):
    owner = importlib.import_module(f"curvlab.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # a method is rebound on the class that defines it
    target = vars(owner).get(attr) if outer else getattr(owner, attr, None)
    assert callable(target), f"curvlab.{module}.{path}"


def _resolves(module: str, name: str) -> bool:
    owner = importlib.import_module("curvlab" + (f".{module}" if module else ""))
    if hasattr(owner, name):
        return True
    # a submodule the package's __init__ does not import, such as cli
    return not module and importlib.util.find_spec(f"curvlab.{name}") is not None


def test_every_name_the_benchmark_reads_resolves():
    reads = benchmark_reads()
    missing = sorted((m, n) for m, n in reads if not _resolves(m, n))
    assert not missing, f"perfbench reads (module, name) the package lacks: {missing}"
    # the reads the checks above lean on are found
    assert {("verify", "HESSIAN_MODELS"), ("variations", "second_variation_tt_predicted"),
            ("fields", "random_torus_metric"), ("", "__version__"), ("", "cli")} <= reads
    # the parser sees each way of reading a name, and a name that is gone
    code = (
        "import curvlab\nfrom curvlab import tensors as t\nfrom curvlab.fields import gone\n"
        "def f():\n    return t.curvature, curvlab.__version__, t.removed\n"
    )
    found = curvlab_reads(ast.parse(code))
    assert found == {("", "tensors"), ("fields", "gone"), ("tensors", "curvature"),
                     ("", "__version__"), ("tensors", "removed")}
    gone = [r for r in sorted(found) if not _resolves(*r)]
    assert gone == [("fields", "gone"), ("tensors", "removed")]


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
