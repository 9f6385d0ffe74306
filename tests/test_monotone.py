import dataclasses
import math

import numpy as np
import pytest

from petzgap.errors import InvalidInput
from petzgap.monotone import (builtin_neg_log, builtin_neg_power, c_constant,
                              rep_from_name)

from oracles import (constant_coefficient, grid_c_constant,
                     pick_coefficients, represent, stieltjes_density,
                     verify_representation)


def test_neg_log_basics():
    rep = builtin_neg_log()
    assert rep.eval(1.0) == pytest.approx(0.0)
    assert constant_coefficient(rep) == 0.0
    assert rep.density(3.7) == pytest.approx(1.0)
    assert rep.c_closed(0.7)[-1][1:] == (1.0, 0.0)
    assert rep.f_at_zero == math.inf


def test_neg_power_basics():
    rep = builtin_neg_power(0.5)
    assert rep.eval(1.0) == pytest.approx(-1.0)
    assert constant_coefficient(rep) == pytest.approx(math.sqrt(2) / 2)
    assert rep.density(1.0) == pytest.approx(1.0 / math.pi)
    assert rep.f_at_zero == 0.0


def test_neg_power_rejects_bad_alpha():
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(InvalidInput):
            builtin_neg_power(alpha)


def test_builtins_are_shared_frozen_objects():
    assert builtin_neg_log() is builtin_neg_log()
    assert builtin_neg_power(0.25) is builtin_neg_power(0.25)
    assert builtin_neg_power(0.25) is not builtin_neg_power(0.5)
    assert rep_from_name("neg-log") is builtin_neg_log()
    assert rep_from_name("neg-power:0.5") is builtin_neg_power(0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        builtin_neg_log().name = "neg-power:0.5"


def test_rep_from_name():
    assert rep_from_name("neg-log").name == "neg-log"
    rep = rep_from_name("neg-power:0.25")
    assert rep.eval(4.0) == pytest.approx(-math.sqrt(2.0))
    with pytest.raises(InvalidInput):
        rep_from_name("neg-sin")


def test_c_constant_neg_log_is_one():
    rep = builtin_neg_log()
    for t, beta in [(4.0, 0.3), (100.0, 0.5), (2.0, 0.9)]:
        assert c_constant(rep, t, beta) == pytest.approx(1.0)
    assert [c_constant(rep, t, 0.3) for t in (0.5, 4.0)] == [1.0, 1.0]
    assert rep.c_closed(0.3) == ((0.0, 1.0, 0.0),)


def test_c_constant_neg_power_low_beta():
    # interval [1/T, T^{b/(1-b)}]; sup of 1/w is at the left endpoint
    alpha = 0.4
    rep = builtin_neg_power(alpha)
    got = c_constant(rep, 4.0, 0.3)
    assert got == pytest.approx(math.pi / math.sin(alpha * math.pi) * 4 ** alpha,
                                rel=1e-12)


def test_c_constant_neg_power_high_beta():
    alpha = 0.4
    rep = builtin_neg_power(alpha)
    got = c_constant(rep, 4.0, 0.7)
    want = math.pi / math.sin(alpha * math.pi) * 4 ** (alpha * 3.0 / 7.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_c_constant_nondecreasing_in_t():
    # from T = 1 up, and nonincreasing below it, where the window's lower
    # end is T_R < 1; the two pieces meet at T = 1
    rep = builtin_neg_power(0.6)
    for beta in (0.4, 0.7):
        up = [c_constant(rep, t, beta) for t in (1.0, 1.5, 2.0, 4.0, 16.0,
                                                 256.0)]
        down = [c_constant(rep, t, beta) for t in (1.0, 0.5, 0.1, 1e-3)]
        assert all(b >= a - 1e-12 for a, b in zip(up, up[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(down, down[1:]))
        assert c_constant(rep, 1.0 - 1e-15, beta) == pytest.approx(
            up[0], rel=1e-14)


def test_c_constant_grid_matches_closed_form():
    # the brute-force sup of 1/w over the window agrees with the pieces of
    # c_closed, on both sides of T = 1
    closed = builtin_neg_power(0.5)
    for t, beta in [(4.0, 0.3), (9.0, 0.7), (0.25, 0.3), (0.1, 0.7)]:
        assert c_constant(closed, t, beta) == pytest.approx(
            grid_c_constant(closed, t, beta), rel=1e-3)


def test_pick_coefficients_log():
    a, b = pick_coefficients(np.log)
    assert a == pytest.approx(0.0, abs=1e-6)
    assert b == pytest.approx(0.0, abs=1e-6)


def test_pick_coefficients_half_power():
    a, b = pick_coefficients(np.sqrt)
    assert a == pytest.approx(0.0, abs=1e-6)
    assert b == pytest.approx(math.sqrt(2) / 2, abs=1e-6)


def test_pick_coefficients_linear():
    a, b = pick_coefficients(lambda z: z)
    assert a == pytest.approx(1.0, abs=1e-6)
    assert b == pytest.approx(0.0, abs=1e-6)


def test_pick_coefficients_match_powers():
    for alpha in (0.25, 0.5, 0.75):
        a, b = pick_coefficients(lambda z: z ** alpha)
        assert a == pytest.approx(0.0, abs=1e-6)
        assert b == pytest.approx(math.cos(alpha * math.pi / 2.0), abs=1e-6)
        assert b == pytest.approx(
            constant_coefficient(builtin_neg_power(alpha)), abs=1e-6)


def test_stieltjes_density_log():
    assert stieltjes_density(np.log, 2.0) == pytest.approx(1.0, rel=1e-6)


def test_stieltjes_density_half_power():
    assert stieltjes_density(np.sqrt, 1.0) == pytest.approx(1 / math.pi,
                                                            rel=1e-6)
    assert stieltjes_density(np.sqrt, 4.0) == pytest.approx(2 / math.pi,
                                                            rel=1e-6)


def test_stieltjes_density_matches_stored_densities():
    for rep, f in [(builtin_neg_log(), np.log),
                   (builtin_neg_power(0.3), lambda z: z ** 0.3),
                   (builtin_neg_power(0.75), lambda z: z ** 0.75)]:
        for t in np.logspace(-1, 1, 7):
            got = stieltjes_density(f, float(t))
            assert got == pytest.approx(float(rep.density(t)), rel=1e-3)


def test_stieltjes_density_rejects_nonpositive_point():
    with pytest.raises(InvalidInput):
        stieltjes_density(np.log, 0.0)


def test_represent_matches_eval():
    rep = builtin_neg_power(0.5)
    for x in (0.01, 0.5, 1.0, 7.0, 100.0):
        assert represent(rep, x) == pytest.approx(rep.eval(x), abs=1e-7)


def test_represent_exact_zero_at_one_for_log():
    assert represent(builtin_neg_log(), 1.0) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("rep_name", ["neg-log", "neg-power:0.25",
                                      "neg-power:0.5", "neg-power:0.75"])
def test_verify_representation_tight(rep_name):
    assert verify_representation(rep_from_name(rep_name)) <= 1e-6
