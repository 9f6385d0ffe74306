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
    # the folded half line: one call on the nodes s and then 1/s
    assert shapes == [(2 * nodes[0],)]


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


@pytest.mark.parametrize("gamma", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                   0.9])
def test_folded_halfline_beta_family_to_roundoff(gamma):
    # pi / sin(gamma pi) = int_0^inf t^(gamma-1) / (1+t) dt; folded, the
    # integrand is s^(gamma-1) / (1+s) + s^-gamma / (1+s) on (0, 1]
    want = math.pi / math.sin(gamma * math.pi)
    got = integrate_halfline(lambda t: t ** (gamma - 1.0) / (1.0 + t))
    assert abs(got - want) <= 1e-14 * want


def test_folded_halfline_non_finite_tail_raises_without_warnings():
    # log(2 - t) is finite on (0, 1] and nan beyond t = 2: only the t > 1
    # half of the one integrand call is non-finite, and the failure names
    # the half line, not the (0, 1] the fold integrates on
    calls = []

    def finite_head(t):
        calls.append(t)
        return np.log(2.0 - t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure) as failure:
            integrate_halfline(finite_head)
    assert str(failure.value) \
        == "quadrature met a non-finite value on (0, inf)"
    assert len(calls) == 1
    head, tail = np.split(calls[0], 2)
    assert np.all(head <= 1.0) and np.all(np.isfinite(np.log(2.0 - head)))
    assert np.all(tail >= 1.0) and np.any(tail > 2.0)


def test_folded_halfline_columns_do_not_mix():
    # each trailing column is folded and summed over the nodes on its own,
    # so its integral is the same bits whichever columns share the call (a
    # lone column is one contiguous reduction, which numpy sums pairwise,
    # so the calls compared here all have two columns or more)
    columns = [lambda t: np.exp(-t), lambda t: 1.0 / (1.0 + t * t),
               lambda t: np.sqrt(t) / (1.0 + t) ** 2,
               lambda t: t ** -0.5 / (1.0 + t)]

    def stacked(picked):
        return integrate_halfline(
            lambda t: np.stack([columns[i](t) for i in picked], axis=-1))
    every = stacked(range(len(columns)))
    for i in range(len(columns)):
        for other in range(len(columns)):
            if other != i:
                assert stacked([other, i])[1] == every[i]
                assert stacked([i, other, i])[2] == every[i]


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
