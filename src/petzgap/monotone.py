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
only f and w (entropy.reconstructions). Each family carries its
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
    f_at_zero: lim_{x->0+} f(x), may be +inf.
    c_closed: beta -> the pieces (T_0, C, c) of C^f_{T,beta} = C T^(2c),
        each for T from its T_0 up to the next piece's, the first from 0;
        the last holds on T >= 1, the growth the corollaries invert.
    alpha: the exponent of -x^alpha, None for -log x.
    """

    eval: callable
    density: callable
    name: str
    f_at_zero: float
    c_closed: callable
    alpha: float | None = None


_NEG_LOG = MonotoneDecreasingRep(
    eval=lambda x: -np.log(x),
    density=lambda t: np.ones_like(np.asarray(t, dtype=float)),
    name="neg-log",
    f_at_zero=np.inf,
    c_closed=lambda beta: ((0.0, 1.0, 0.0),),
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
        name=f"neg-power:{alpha!r}",
        f_at_zero=0.0,
        c_closed=lambda beta: _power_pieces(alpha, beta),
        alpha=alpha,
    )


def _power_pieces(alpha: float, beta: float) -> tuple:
    """C^f_{T,beta} of -x^alpha: 1/w decreases, so its sup over the window
    [T_L^-1, T_R] sits at the lower end min(T_L^-1, T_R), with (T_L, T_R) =
    (T, T^(b/(1-b))) for b <= 1/2 and (T^((1-b)/b), T) above. That end is a
    power of T on T < 1 (where the nominal ends come out reversed, and the
    enclosing window keeps the sup honest) and another on T >= 1."""
    big_c = math.pi / math.sin(alpha * math.pi)
    if beta <= 0.5:
        low, high = -alpha * beta / (2.0 * (1.0 - beta)), alpha / 2.0
    else:
        low, high = -alpha / 2.0, alpha * (1.0 - beta) / (2.0 * beta)
    return (0.0, big_c, low), (1.0, big_c, high)


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


def c_constant(rep: MonotoneDecreasingRep, t: float, beta: float) -> float:
    """Regularity constant C^f_{T,beta} = sup 1/w over the window around 1,
    in closed form: C T^(2c) on the piece of rep.c_closed(beta) that holds
    T."""
    if not t > 0.0:
        raise InvalidInput("T must be positive")
    if not 0.0 < beta < 1.0:
        raise InvalidInput("beta must lie in (0, 1)")
    _, big_c, c = [p for p in rep.c_closed(beta) if p[0] <= t][-1]
    return big_c * t ** (2.0 * c)
