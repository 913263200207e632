from math import gamma

import numpy as np
import pytest

from curvlab.charts import build_grid, make_model
from curvlab.fields import MetricField, SymTensorField, analytic_scalar_field, euler_su2_domain
from curvlab.tensors import _pair_index, _pair_norm2, bivector_product
from curvlab.verify import _X1


@pytest.fixture(scope="session")
def torus3():
    return make_model("torus", 3)


@pytest.fixture(scope="session")
def sphere3():
    return make_model("sphere", 3)


@pytest.fixture(scope="session")
def sphere4():
    return make_model("sphere", 4)


@pytest.fixture(scope="session")
def euler3():
    return make_model("s3-euler", 3)


@pytest.fixture(scope="session")
def poincare3():
    return make_model("poincare", 3)


@pytest.fixture(scope="session")
def torus3_grid(torus3):
    return build_grid(torus3.domain, 8)


@pytest.fixture(scope="session")
def euler3_grid(euler3):
    return build_grid(euler3.domain, (8, 12, 16))


def random_probes(domain, rng, count=100, margin=0.08):
    """Random chart points, keeping a margin from non-periodic boundaries."""
    lo = np.array([b[0] for b in domain.bounds])
    hi = np.array([b[1] for b in domain.bounds])
    span = hi - lo
    lo_eff = lo + np.where(domain.periodic, 0.0, margin * span)
    hi_eff = hi - np.where(domain.periodic, 0.0, margin * span)
    return rng.uniform(lo_eff, hi_eff, size=(count, domain.dimension))


def exact_sphere_volume(n: int, radius: float = 1.0) -> float:
    """Vol(S^n of radius r) = 2 pi^((n+1)/2) r^n / Gamma((n+1)/2)."""
    return float(2 * np.pi ** ((n + 1) / 2) / gamma((n + 1) / 2) * radius**n)


def metric_as_sym_tensor(g: MetricField) -> SymTensorField:
    """View a metric as a symmetric 2-tensor field (e.g. the direction h = g)."""
    return SymTensorField(domain=g.domain, _jet=g._jet, name=f"{g.name} (as tensor)")


def norm2_04(T, ginv):
    """|T|^2 for a batched (0,4) tensor antisymmetric in slots (0,1) and in
    slots (2,3), as Rm and W are: its pair matrix, then the pair norm."""
    l, i = _pair_index(ginv.shape[-1])[:2]
    return _pair_norm2(T[:, l, i][:, :, l, i], bivector_product(ginv, ginv))


def s3_second_harmonic():
    """x1^2 - 1/4, a second spherical harmonic on the Euler chart of every
    radius r, -Lap f = (8 / r^2) f, mean zero."""
    return analytic_scalar_field(euler_su2_domain(), _X1 * _X1 - 0.25, name="S^3 harmonic l=2")
