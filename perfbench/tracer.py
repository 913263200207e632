"""Span tracer that wraps curvlab's public functions from outside the package.

Nothing under ``src/`` is edited: :class:`Tracer` rebinds every module
attribute (and class attribute, for methods) that refers to a traced
function, records one span per call -- name, start, end, parent -- and undoes
the rebinding on :meth:`Tracer.uninstall`.  Spans stay in memory; the
per-layer metrics are derived from them when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

from curvlab.charts import QuadratureGrid
from curvlab.tensors import CurvatureBundle

# (module, attribute path inside the module, metric prefix, reports nodes)
TRACED = [
    ("charts", "make_model", "charts.make_model", False),
    ("charts", "build_grid", "charts.build_grid", True),
    ("charts", "sqrt_det_grid", "charts.sqrt_det_grid", True),
    ("charts", "volume", "charts.volume", True),
    ("fields", "_TensorValuedField.eval_grid", "fields.eval_grid", True),
    ("fields", "_TensorValuedField.d1_grid", "fields.d1_grid", True),
    ("fields", "_TensorValuedField.d2_grid", "fields.d2_grid", True),
    ("fields", "fd_partials", "fields.fd_partials", True),
    ("fields", "analytic_metric_field", "fields.analytic_metric_field", False),
    ("fields", "analytic_sym_tensor_field", "fields.analytic_sym_tensor_field", False),
    ("tensors", "curvature_bundle", "tensors.curvature_bundle", True),
    ("tensors", "connection_arrays", "tensors.connection_arrays", True),
    ("tensors", "christoffel_arrays", "tensors.christoffel_arrays", True),
    ("tensors", "ricci_arrays", "tensors.ricci_arrays", True),
    ("tensors", "sym_tensor_cov_derivs", "tensors.sym_tensor_cov_derivs", True),
    ("tensors", "covariant_hessian_blocks", "tensors.covariant_hessian_blocks", True),
    ("tensors", "lichnerowicz_arrays", "tensors.lichnerowicz_arrays", True),
    ("functionals", "evaluate", "functionals.evaluate", True),
    ("variations", "gradient_ingredients", "variations.gradient_ingredients", True),
    ("variations", "curvature_variation_arrays", "variations.curvature_variation_arrays", True),
    ("variations", "first_variation_numeric", "variations.first_variation_numeric", False),
    ("variations", "second_variation_numeric", "variations.second_variation_numeric", False),
    ("variations", "tt_identity_suite", "variations.tt_identity_suite", False),
    ("variations", "conformal_identity_suite", "variations.conformal_identity_suite", False),
    ("variations", "PerturbationFamily.scale_factor", "variations.PerturbationFamily.scale_factor", False),
    ("spectral", "tt_defect", "spectral.tt_defect", True),
    ("spectral", "rayleigh_lichnerowicz", "spectral.rayleigh_lichnerowicz", False),
    ("atlas", "classify", "atlas.classify", False),
    ("atlas", "emit_atlas", "atlas.emit_atlas", False),
    ("verify", "curvature_case", "verify.curvature_case", False),
    ("verify", "gradient_case", "verify.gradient_case", False),
    ("verify", "hessian_case", "verify.hessian_case", False),
    ("verify", "rayleigh_case", "verify.rayleigh_case", False),
    ("verify", "identity_case", "verify.identity_case", False),
    ("cli", "run", "cli.run", False),
]

# Per-layer accuracy figures: the largest error of each kind seen in a run.
# They come from the workload's own checks and from the return values the
# tracer captures below; a workload that produces none of a kind reports 0.
ACCURACY = [
    "tensors.spaceform_dev",
    "variations.generic_lap_ric",
    "variations.identity_rel_err",
    "variations.d2_rel_err",
    "variations.d2_rel_err_estimate",
    "spectral.quotient_err",
]

BUNDLE_BYTES = "tensors.curvature_bundle.bytes"
FAILED_FRAC = "failed_frac"
TRACE_OVERHEAD = "trace_overhead_s"


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def _lap_ric(args, result):
    # only space-form bases, where Lap Ric and Hess R are exactly zero
    if args[0].lam is None:
        return None
    return max(_max_abs(result["lap_ric"]), _max_abs(result["hess_R"]))


def _identity(args, result):
    return max(c.rel_err for c in result)


def _quotient(args, result):
    report, meta = result
    return abs(report.quotient - meta["expected_quotient"])


# metric prefix -> (accuracy metric, error read from (args, return value))
CAPTURES = {
    "variations.second_variation_numeric": (
        "variations.d2_rel_err_estimate",
        lambda args, result: result.rel_err_estimate,
    ),
    "variations.gradient_ingredients": ("variations.generic_lap_ric", _lap_ric),
    "variations.tt_identity_suite": ("variations.identity_rel_err", _identity),
    "variations.conformal_identity_suite": ("variations.identity_rel_err", _identity),
    "verify.rayleigh_case": ("spectral.quotient_err", _quotient),
    "verify.curvature_case": (
        "tensors.spaceform_dev",
        lambda args, result: result["max_rm_dev"],
    ),
}


def per_layer_catalogue() -> list[dict]:
    """Every per-layer metric a traced run reports, with unit and direction."""
    out = []
    for _, _, prefix, nodes in TRACED:
        out.append({"name": f"{prefix}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{prefix}.self_s", "unit": "s", "better": "lower"})
        if nodes:
            out.append({"name": f"{prefix}.nodes", "unit": "count", "better": "lower"})
    out.append({"name": BUNDLE_BYTES, "unit": "B", "better": "lower"})
    out += [{"name": a, "unit": "1", "better": "lower"} for a in ACCURACY]
    out.append({"name": FAILED_FRAC, "unit": "1", "better": "lower"})
    out.append({"name": TRACE_OVERHEAD, "unit": "s", "better": "lower"})
    return out


def node_count(args, kwargs) -> int:
    """Nodes in a batched call: the first grid or point array among its arguments."""
    for a in list(args) + list(kwargs.values()):
        if isinstance(a, QuadratureGrid):
            return a.node_count
        if isinstance(a, np.ndarray):
            return 1 if a.ndim == 1 else a.shape[0]
    return 0


def bundle_bytes(bundle: CurvatureBundle) -> int:
    return sum(v.nbytes for v in vars(bundle).values() if isinstance(v, np.ndarray))


def _curvlab_modules():
    return [m for k, m in list(sys.modules.items()) if k == "curvlab" or k.startswith("curvlab.")]


class Rebinder:
    """Rebinds every binding of some functions in curvlab's modules, reversibly.

    The binding sites are found once, by :meth:`add`; :meth:`apply` and
    :meth:`restore` then only set attributes.
    """

    def __init__(self):
        self._sites = []  # (owner, attribute, original, replacement)

    def add(self, module: str, path: str, make_wrapper) -> None:
        owner = sys.modules[f"curvlab.{module}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if outer:  # a method: rebind it on its class
            original = owner.__dict__[attr]
            self._sites.append((owner, attr, original, make_wrapper(original)))
            return
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        for mod in _curvlab_modules():
            for name, value in vars(mod).items():
                if value is original:
                    self._sites.append((mod, name, original, wrapper))

    def apply(self) -> None:
        for owner, name, _, replacement in self._sites:
            setattr(owner, name, replacement)

    def restore(self) -> None:
        for owner, name, original, _ in reversed(self._sites):
            setattr(owner, name, original)


class Tracer:
    """In-memory spans around every function listed in :data:`TRACED`.

    Construct it after any other rebinding of these functions is applied.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.nodes: dict[str, int] = defaultdict(int)
        self.bundle_bytes = 0
        self.accuracy: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._rebinder = Rebinder()
        for module, path, prefix, nodes in TRACED:
            self._rebinder.add(module, path, lambda fn, p=prefix, n=nodes: self._wrap(p, fn, n))

    def install(self) -> None:
        self._rebinder.apply()

    def uninstall(self) -> None:
        self._rebinder.restore()

    def _wrap(self, name: str, fn, with_nodes: bool):
        capture = CAPTURES.get(name)
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if with_nodes:
                nodes = result.node_count if name == "charts.build_grid" else node_count(args, kwargs)
                self.nodes[name] += nodes
            if name == "tensors.curvature_bundle":
                self.bundle_bytes += bundle_bytes(result)
            if capture is not None:
                value = capture[1](args, result)
                if value is not None:
                    metric = capture[0]
                    self.accuracy[metric] = max(self.accuracy[metric], float(value))
            return result

        return traced

    def inclusive_s(self) -> dict[str, float]:
        """Time inside each traced function, children included, not counted
        twice when the function calls itself."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[name] += end - start
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        """calls, self time and nodes per traced function, plus bundle bytes."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - inner
        out: dict[str, float] = {}
        for _, _, prefix, nodes in TRACED:
            out[f"{prefix}.calls"] = calls[prefix]
            out[f"{prefix}.self_s"] = self_s[prefix]
            if nodes:
                out[f"{prefix}.nodes"] = self.nodes[prefix]
        out[BUNDLE_BYTES] = self.bundle_bytes
        return out
