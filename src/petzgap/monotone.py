"""Operator monotone decreasing functions and their integral representations.

A function f that is operator monotone decreasing on (0, inf) has a
representation

    -f(x) = a*x + b + integral_0^inf ( t/(t^2+1) - 1/(t+x) ) w(t) dt

with a >= 0, b real, and w >= 0 the density of the representing measure.
The coefficients come from the Herglotz function G = -f extended to the upper
half plane: a = lim_{y->inf} G(iy)/(iy), b = Re G(i), and
w(t) = lim_{y->0+} Im G(-t + iy) / pi (Stieltjes inversion).

Builtins:
    neg-log       f(x) = -log x     a=0, b=0,               w(t) = 1
    neg-power:a   f(x) = -x^a       a=0, b=cos(a*pi/2),     w(t) = sin(a*pi)/pi * t^a

for a in (0, 1). Note b = Re[i^a] = cos(a*pi/2); the identity fails with any
other constant. The pipeline reads these data as stored; the Pick and
Stieltjes extractions and the representation evaluated by quadrature, which
check them, are reference oracles in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import InvalidInput, NotRegular


@dataclass(eq=False, frozen=True)
class MonotoneDecreasingRep:
    """An operator monotone decreasing function with its representation data.

    eval: the function itself, vectorized over numpy arrays and accepting
        complex scalars (needed for coefficient extraction).
    a, b: linear and constant coefficients of -f.
    density: w(t) for t > 0, or None when no closed form is known.
    growth: (C, c) certifying C^f_{T,beta} <= C * T^(2c) for T >= 1, or None.
    f_at_zero: lim_{x->0+} f(x), may be +inf.
    c_closed: optional closed form (T, beta) -> C^f_{T,beta} for the exact
        regularity constant; grid estimation is used otherwise.
    """

    eval: callable
    a: float
    b: float
    density: callable | None
    growth: tuple | None
    name: str
    f_at_zero: float = field(default=np.inf)
    c_closed: callable | None = field(default=None)


def _interval(t: float, beta: float) -> tuple[float, float]:
    """Endpoints [T_L^{-1}, T_R] of the regularity window, enclosing order.

    For T < 1 the nominal endpoints come out reversed; the enclosing interval
    keeps the sup honest there.
    """
    if beta <= 0.5:
        t_l = t
        t_r = t ** (beta / (1.0 - beta))
    else:
        t_l = t ** ((1.0 - beta) / beta)
        t_r = t
    lo, hi = 1.0 / t_l, t_r
    return (min(lo, hi), max(lo, hi))


_NEG_LOG = MonotoneDecreasingRep(
    eval=lambda x: -np.log(x),
    a=0.0,
    b=0.0,
    density=lambda t: np.ones_like(np.asarray(t, dtype=float)),
    growth=(1.0, 0.0),
    name="neg-log",
    f_at_zero=np.inf,
    c_closed=lambda t, beta: 1.0,
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

    def c_closed(t, beta):
        lo, _ = _interval(t, beta)
        return lo ** (-alpha) / s

    return MonotoneDecreasingRep(
        eval=lambda x: -(x ** alpha),
        a=0.0,
        b=math.cos(alpha * math.pi / 2.0),
        density=lambda t: s * np.asarray(t, dtype=float) ** alpha,
        growth=(1.0 / s, alpha / 2.0),
        name=f"neg-power:{alpha:g}",
        f_at_zero=0.0,
        c_closed=c_closed,
    )


def rep_from_name(name: str) -> MonotoneDecreasingRep:
    """Parse "neg-log" or "neg-power:<alpha>"."""
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
    """Regularity constant C^f_{T,beta} = sup 1/w over the window around 1.

    Uses the rep's closed form when available, otherwise a 1024-point
    log-spaced grid over the enclosing window (an estimate; callers flag it).
    """
    if t <= 0.0:
        raise InvalidInput("T must be positive")
    if not 0.0 < beta < 1.0:
        raise InvalidInput("beta must lie in (0, 1)")
    if rep.c_closed is not None:
        return float(rep.c_closed(t, beta))
    if rep.density is None:
        raise NotRegular(f"{rep.name} has no density to bound")
    lo, hi = _interval(t, beta)
    grid = np.logspace(math.log10(lo), math.log10(hi), 1024)
    w = np.asarray(rep.density(grid), dtype=float)
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise NotRegular(f"{rep.name} density vanishes on the window")
    return float(np.max(1.0 / w))
