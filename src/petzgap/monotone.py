"""Operator monotone decreasing functions and their integral representations.

A function f that is operator monotone decreasing on (0, inf) has a
representation

    -f(x) = a*x + b + integral_0^inf ( t/(t^2+1) - 1/(t+x) ) w(t) dt

with a >= 0, b real, and w >= 0 the density of the representing measure.
The coefficients come from the Herglotz function G = -f extended to the upper
half plane: a = lim_{y->inf} G(iy)/(iy), b = Re G(i), and
w(t) = lim_{y->0+} Im G(-t + iy) / pi (Stieltjes inversion).

The package names exactly two families, the relative-entropy and the Renyi
(power) cases, and a = 0 for both:
    neg-log       f(x) = -log x     w(t) = 1
    neg-power:a   f(x) = -x^a       w(t) = sin(a*pi)/pi * t^a

for a in (0, 1). Subtracting the representation at x = 1 anchors it at f(1)
and drops b:

    f(x) = f(1) + integral_0^inf ( 1/(t+x) - 1/(t+1) ) w(t) dt,

whose integrand decays like t^-2 w(t) for every x, so the pipeline needs
only f and w (entropy.integral_reconstruction). Each family carries its
regularity constant C^f_{T,beta}
in closed form, and the pipeline reads these data as stored; the Pick and
Stieltjes extractions, the representation by quadrature and the grid sup of
1/w, which check them, are reference oracles in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidInput


@dataclass(eq=False, frozen=True)
class MonotoneDecreasingRep:
    """An operator monotone decreasing function with its representation data.

    eval: the function itself, vectorized over numpy arrays.
    density: w(t) for t > 0.
    growth: (C, c) certifying C^f_{T,beta} <= C * T^(2c) for T >= 1.
    f_at_zero: lim_{x->0+} f(x), may be +inf.
    c_closed: (T, beta) -> C^f_{T,beta}, elementwise over an array of T.
    """

    eval: callable
    density: callable
    growth: tuple
    name: str
    f_at_zero: float
    c_closed: callable


def _window_low(t, beta: float):
    """Lower end min(T_L^{-1}, T_R) of the regularity window, elementwise;
    for T < 1 the nominal ends come out reversed, and the enclosing window
    keeps the sup honest there."""
    if beta <= 0.5:
        t_l = t
        t_r = t ** (beta / (1.0 - beta))
    else:
        t_l = t ** ((1.0 - beta) / beta)
        t_r = t
    return np.minimum(1.0 / t_l, t_r)


_NEG_LOG = MonotoneDecreasingRep(
    eval=lambda x: -np.log(x),
    density=lambda t: np.ones_like(np.asarray(t, dtype=float)),
    growth=(1.0, 0.0),
    name="neg-log",
    f_at_zero=np.inf,
    c_closed=lambda t, beta: np.ones_like(t),
)


def builtin_neg_log() -> MonotoneDecreasingRep:
    """f(x) = -log x, one shared object."""
    return _NEG_LOG


def builtin_neg_power(alpha: float) -> MonotoneDecreasingRep:
    """f(x) = -x^alpha, one shared object per alpha."""
    if not 0.0 < alpha < 1.0:
        raise InvalidInput("power exponent must lie in (0, 1)")
    return _neg_power(float(alpha))


@cache
def _neg_power(alpha: float) -> MonotoneDecreasingRep:
    s = math.sin(alpha * math.pi) / math.pi
    return MonotoneDecreasingRep(
        eval=lambda x: -(x ** alpha),
        density=lambda t: s * np.asarray(t, dtype=float) ** alpha,
        growth=(1.0 / s, alpha / 2.0),
        name=f"neg-power:{alpha!r}",
        f_at_zero=0.0,
        # 1/w decreases, so its sup over the window sits at the lower end
        c_closed=lambda t, beta: _window_low(t, beta) ** (-alpha) / s,
    )


def rep_from_name(name: str) -> MonotoneDecreasingRep:
    """Parse "neg-log" or "neg-power:<alpha>"."""
    if not isinstance(name, str):
        raise InvalidInput(f"a function name must be a string, got {name!r}")
    if name == "neg-log":
        return builtin_neg_log()
    if name.startswith("neg-power:"):
        try:
            alpha = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise InvalidInput(f"bad power exponent in {name!r}") from exc
        return builtin_neg_power(alpha)
    raise InvalidInput(f"unknown monotone function {name!r}")


def c_constant(rep: MonotoneDecreasingRep, t, beta: float):
    """Regularity constant C^f_{T,beta} = sup 1/w over the window around 1,
    in closed form; T a number or an array, elementwise."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise InvalidInput("T must be positive")
    if not 0.0 < beta < 1.0:
        raise InvalidInput("beta must lie in (0, 1)")
    return rep.c_closed(t, beta)[()]  # a number for a number
