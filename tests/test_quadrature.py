import math
import warnings

import numpy as np
import pytest

from petzgap.errors import NumericalFailure
from petzgap.quadrature import integrate, integrate_halfline


def test_polynomial_exact():
    assert integrate(lambda x: x ** 2, 0.0, 1.0) == pytest.approx(
        1.0 / 3.0, abs=1e-14)


def test_integrand_called_once_per_panel_with_all_nodes():
    shapes = []

    def recorded(g):
        def h(t):
            shapes.append(np.shape(t))
            return g(t)
        return h
    nodes = (173,)  # u = kH, |k| <= 86 = U_MAX / H
    assert integrate(recorded(lambda t: t ** 3), 0.0, 1.0) == pytest.approx(
        0.25, abs=1e-14)
    assert shapes == [nodes]
    shapes.clear()
    got = integrate_halfline(recorded(lambda t: 1.0 / (1.0 + t) ** 2))
    assert got == pytest.approx(1.0, abs=1e-14)
    assert shapes == [nodes] * 2


def test_log_kernel():
    assert integrate(lambda x: 1.0 / (1.0 + x), 0.0, 1.0) == pytest.approx(
        math.log(2.0), abs=1e-12)


def test_oscillatory_interval():
    assert integrate(np.sin, 0.0, 20.0) == pytest.approx(
        1.0 - math.cos(20.0), abs=1e-10)


def test_integrable_endpoint_singularity():
    assert integrate(lambda x: x ** -0.5, 0.0, 1.0) == \
        pytest.approx(2.0, abs=1e-8)


def test_array_valued_integrand():
    out = integrate(lambda x: np.stack([x, x ** 3], axis=-1), 0.0, 2.0)
    assert out == pytest.approx([2.0, 4.0], abs=1e-12)


def test_halfline_exponential():
    assert integrate_halfline(lambda t: np.exp(-t)) == pytest.approx(
        1.0, abs=1e-10)


def test_halfline_lorentzian():
    assert integrate_halfline(lambda t: 1.0 / (1.0 + t * t)) == pytest.approx(
        math.pi / 2.0, abs=1e-10)


def test_halfline_beta_integral():
    # int_0^inf t^{1/2} (1+t)^{-2} dt = pi / 2
    got = integrate_halfline(lambda t: np.sqrt(t) / (1.0 + t) ** 2)
    assert got == pytest.approx(math.pi / 2.0, abs=1e-8)


@pytest.mark.parametrize("gamma, tol", [
    (0.05, 1e-6), (0.1, 1e-13), (0.25, 1e-13), (0.5, 1e-13), (0.75, 1e-13),
    (0.9, 1e-13), (0.95, 1e-6)])
def test_halfline_beta_integrals_closed_form(gamma, tol):
    # int_0^inf t^(gamma-1) / (1+t) dt = pi / sin(gamma pi); the endpoints
    # t^(gamma-1) at 0 and s^-gamma of the tail at s = 1/t = 0 cost no extra
    # nodes, and only the truncation of the node range limits the ends
    got = integrate_halfline(lambda t: t ** (gamma - 1.0) / (1.0 + t))
    assert abs(got - math.pi / math.sin(gamma * math.pi)) <= tol


def test_halfline_power_growth_tail():
    # int_0^inf t^{3/4} / (1+t)^2 / (1+t^2) dt, finite with density-like
    # growth in the numerator; reference from a dense log-grid trapezoid
    def f(t):
        return t ** 0.75 / ((1.0 + t) ** 2 * (1.0 + t * t))
    grid = np.logspace(-12, 12, 2_000_001)
    want = float(np.trapezoid(f(grid), grid))
    assert integrate_halfline(f) == pytest.approx(want, abs=1e-7)


def test_halfline_matrix_valued():
    def f(t):
        out = np.zeros(t.shape + (2, 2))
        out[:, 0, 0] = np.exp(-t)
        out[:, 1, 1] = 1.0 / (1.0 + t * t)
        return out
    out = integrate_halfline(f)
    assert out[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert out[1, 1] == pytest.approx(math.pi / 2.0, abs=1e-10)


def test_non_finite_panel_raises_without_warnings():
    # log(x - 1/2) is nan below 1/2 and -inf at it; numpy's invalid-value
    # warning is not printed, the failure names the interval
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(NumericalFailure, match=r"non-finite value on "
                                                   r"\[0\.0, 1\.0\]"):
            integrate(lambda x: np.log(x - 0.5), 0.0, 1.0)
    assert seen == []


def test_nan_panel_raises_at_once():
    calls = []

    def nan_at_the_end(x):
        calls.append(x)
        return np.where(x > 0.9, np.nan, x)
    with pytest.raises(NumericalFailure, match=r"\[0\.0, 1\.0\]"):
        integrate(nan_at_the_end, 0.0, 1.0)
    assert len(calls) == 1
