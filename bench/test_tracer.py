"""Self-test of the tracer: python3 -m pytest bench/test_tracer.py"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import numpy.linalg  # noqa: E402

import petzgap.cli  # noqa: E402,F401  (loads every module the CLI binds)
from petzgap import bounds, linalg, quadrature  # noqa: E402
from petzgap.algebra import pinching_spec  # noqa: E402
from petzgap.states import make_density  # noqa: E402
from tracer import Tracer, leftover_wrappers  # noqa: E402

# bounds.discrepancy_norm on two d = 2 DensityMatrix inputs:
#   _pair: 2 conditional_expectation (1 as_matrix each) and 2 make_density
#          (1 check_hermitian and 1 eigh each);
#   then 5 psd_power on raw matrices (1 eigh each) and 1 hs_norm (1 as_matrix);
#   every eigh makes 1 check_hermitian (1 as_matrix) and 1 LAPACK call.
# bounds reaches psd_power and conditional_expectation, and algebra reaches
# as_matrix, through names imported from other modules, so a tracer that
# patched only the defining module would count fewer.
DISCREPANCY_CALLS = {
    "bounds.discrepancy_norm": 1,
    "algebra.conditional_expectation": 2,
    "states.make_density": 2,
    "linalg.psd_power": 5,
    "linalg.hs_norm": 1,
    "linalg.eigh": 7,
    "lapack.eigh": 7,
    "linalg.check_hermitian": 9,
    "linalg.as_matrix": 12,
}


def traced(call):
    """Run call() traced; it must look functions up at call time."""
    tracer = Tracer()
    tracer.install()
    try:
        value = call()
    finally:
        tracer.uninstall()
    return value, tracer.summary()


def test_discrepancy_norm_call_counts():
    rho = make_density(np.array([[0.6, 0.1 + 0.05j], [0.1 - 0.05j, 0.4]]))
    sigma = make_density(np.diag([0.3, 0.7]))
    spec = pinching_spec(2, [1, 1])
    plain = bounds.discrepancy_norm(0.5, rho, sigma, spec)
    lapack = numpy.linalg.eigh

    value, summary = traced(
        lambda: bounds.discrepancy_norm(0.5, rho, sigma, spec))

    assert value == plain
    calls = {k[:-len(".calls")]: v for k, v in summary.items()
             if k.endswith(".calls") and v}
    assert calls == DISCREPANCY_CALLS
    assert summary["linalg.eigh.sum_d3"] == 7 * 2 ** 3
    assert summary["trace.spans"] == sum(DISCREPANCY_CALLS.values()) + 7
    assert leftover_wrappers() == []
    assert bounds.psd_power is linalg.psd_power
    assert numpy.linalg.eigh is lapack


def test_integrand_span_and_panels():
    # A cubic is exact on every panel, so each integrate call accepts its
    # first split: 3 panels of 15 nodes, 2 of them in the result.
    _, summary = traced(lambda: quadrature.integrate_halfline(
        lambda t: 1.0 / (1.0 + t) ** 2))
    assert summary["quadrature.integrate.calls"] == 2
    assert summary["quadrature.integrand_evals"] == summary[
        "quadrature.panels"] * 15
    _, summary = traced(lambda: quadrature.integrate(lambda t: t ** 3, 0.0, 1.0))
    assert summary["quadrature.integrand_evals"] == 45
    assert summary["quadrature.panels"] == 3
    assert summary["quadrature.useful_panel_ratio"] == 2 / 3
    assert summary["quadrature.integrand.self_s"] > 0.0
    assert summary["quadrature.self_s"] == summary[
        "quadrature.integrate.self_s"]


def test_self_times_add_up_to_root_spans():
    rho = make_density(np.diag([0.5, 0.5]))
    tracer = Tracer()
    tracer.install()
    try:
        bounds.discrepancy_norm(0.25, rho, rho, pinching_spec(2, [1, 1]))
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    root = spans["parent"] == -1
    total = float(np.sum(spans["end"][root] - spans["start"][root]))
    summary = tracer.summary()
    self_sum = summary["trace.fingerprint.self_s"] + sum(
        v for k, v in summary.items()
        if k.count(".") == 1 and k.endswith(".self_s"))
    assert abs(self_sum - total) < 1e-9
