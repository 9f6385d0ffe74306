"""PairContext on the identity expectation: E = id gives E(x) = x itself, so
every gap is exactly 0, with or without a rotated basis."""

import numpy as np
import pytest

from petzgap.algebra import SubalgebraSpec, full_spec
from petzgap.context import PairContext
from petzgap.monotone import rep_from_name

from conftest import ginibre, haar_unitary


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_identity_expectation_gaps_are_exactly_zero(dim, rotated):
    spec = full_spec(dim)
    if rotated:
        spec = SubalgebraSpec(dim=dim, blocks=[(dim, 1)],
                              basis=haar_unitary(np.random.default_rng(dim),
                                                 dim))
    ctx = PairContext(ginibre(dim, dim, 300 + dim), ginibre(dim, dim, 400 + dim),
                      spec)
    assert ctx.rho_n is ctx.rho
    assert ctx.sigma_n is ctx.sigma
    for name in ("neg-log", "neg-power:0.5"):
        assert ctx.gap(rep_from_name(name)) == 0.0
    assert ctx.renyi_gap(0.5) == 0.0
