"""Call tracing of petzgap from outside the program.

`Tracer.install()` replaces the public functions of the traced modules, and
`numpy.linalg.eigh` as the LAPACK kernel, with span-recording wrappers.
Modules import functions by name (`from .linalg import psd_power`), so every
binding that *is* an original function, in every loaded `petzgap` module, is
replaced; `uninstall()` puts the originals back. The integrand handed to
`quadrature.integrate` gets its own span, `quadrature.integrand`, so the
bisection loop's own time is kept apart from the caller's integrand work.

Spans (name, start, end, parent) live in flat in-memory arrays and are only
aggregated after the traced command has finished. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
import types
from array import array

import numpy as np
import numpy.linalg

MODULES = ("states", "linalg", "algebra", "modular", "monotone", "entropy",
           "recovery", "bounds", "quadrature", "harness")

INTEGRAND = "quadrature.integrand"
EIGH = "linalg.eigh"
LAPACK_EIGH = "lapack.eigh"
FINGERPRINT = "trace.fingerprint"

# Gauss-Legendre nodes per quadrature panel: each panel calls the integrand
# once per node.
PANEL_NODES = 15


def public_functions(module) -> dict:
    """Public plain functions defined in `module` itself, by name."""
    return {name: obj for name, obj in vars(module).items()
            if isinstance(obj, types.FunctionType)
            and obj.__module__ == module.__name__
            and not name.startswith("_")}


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if isinstance(m, types.ModuleType)
            and (name == "petzgap" or name.startswith("petzgap."))]


def rebind(replacements: dict) -> list:
    """Point every `petzgap` module binding that *is* a key of
    `replacements` ({original: replacement}) at its replacement. Returns the
    (module, attribute, original) list that `restore` undoes."""
    by_id = {id(old): (old, new) for old, new in replacements.items()}
    undo = []
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))
    return undo


def restore(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


class Tracer:
    """Span recorder for one traced command."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._undo: list = []
        self._lapack_original = None
        self.eigh_inputs: set = set()
        self.eigh_sum_d3 = 0
        self.modules: dict[str, list[str]] = {}

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, name: str, fn, pre=None):
        """`fn` recording one span per call. `pre(args, kwargs)`, when given,
        runs before the span opens and returns the (args, kwargs) to call
        with."""
        fid = self._id(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            i = len(span_name)
            span_name.append(fid)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(i)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _fingerprint(self, args, kwargs):
        """pre hook of linalg.eigh: the input's content hash and d^3."""
        a = args[0] if args else kwargs["a"]
        m = np.ascontiguousarray(np.asarray(a, dtype=complex))
        self.eigh_inputs.add(
            (m.shape, hashlib.blake2b(m.tobytes(), digest_size=16).digest()))
        if m.ndim == 2:
            self.eigh_sum_d3 += m.shape[0] ** 3
        return args, kwargs

    def _integrate_pre(self, args, kwargs):
        """pre hook of quadrature.integrate: a span for each integrand call."""
        if args:
            return (self.wrap(INTEGRAND, args[0]),) + tuple(args[1:]), kwargs
        kwargs = dict(kwargs, f=self.wrap(INTEGRAND, kwargs["f"]))
        return args, kwargs

    def install(self) -> None:
        replacements = {}
        for short in MODULES:
            module = importlib.import_module("petzgap." + short)
            funcs = public_functions(module)
            self.modules[short] = sorted(funcs)
            for fname, fn in funcs.items():
                qual = f"{short}.{fname}"
                pre = None
                if qual == EIGH:
                    pre = self.wrap(FINGERPRINT, self._fingerprint)
                elif qual == "quadrature.integrate":
                    pre = self._integrate_pre
                replacements[fn] = self.wrap(qual, fn, pre)
        lapack = numpy.linalg.eigh
        self.modules["lapack"] = ["eigh"]
        self._lapack_original = lapack
        wrapped = self.wrap(LAPACK_EIGH, lapack)
        replacements[lapack] = wrapped
        numpy.linalg.eigh = wrapped
        self._undo = rebind(replacements)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []
        if self._lapack_original is not None:
            numpy.linalg.eigh = self._lapack_original
            self._lapack_original = None

    def summary(self) -> dict:
        """Counters and self times of the recorded spans, by metric name."""
        spans = self.spans()
        n = len(spans["name"])
        dur = spans["end"] - spans["start"]
        child = np.bincount(spans["parent"] + 1, weights=dur,
                            minlength=n + 1)[1:]
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(spans["name"], minlength=k)
        self_sum = np.bincount(spans["name"], weights=self_time, minlength=k)
        by_name = {name: (int(calls[i]), float(self_sum[i]))
                   for i, name in enumerate(self.names)}
        out = {}
        for module, funcs in self.modules.items():
            module_self = 0.0
            for fname in funcs:
                c, s = by_name.get(f"{module}.{fname}", (0, 0.0))
                out[f"{module}.{fname}.calls"] = c
                out[f"{module}.{fname}.self_s"] = s
                module_self += s
            out[f"{module}.self_s"] = module_self
        evals, integrand_self = by_name.get(INTEGRAND, (0, 0.0))
        integrate_calls = out["quadrature.integrate.calls"]
        panels = evals / PANEL_NODES
        # Each integrate call evaluates 1 + 2*pops panels, and a panel's value
        # enters the result only from an accepted pop (pops = 2*rejects + 1),
        # which contributes its two halves: useful = pops + 1 per call.
        useful = (panels + integrate_calls) / 2.0
        out["quadrature.integrand_evals"] = evals
        out["quadrature.integrand.self_s"] = integrand_self
        out["quadrature.panels"] = panels
        out["quadrature.useful_panel_ratio"] = useful / panels if panels else 0.0
        eigh_calls = out[f"{EIGH}.calls"]
        out["linalg.eigh.distinct_inputs"] = len(self.eigh_inputs)
        out["linalg.eigh.distinct_ratio"] = (
            len(self.eigh_inputs) / eigh_calls if eigh_calls else 0.0)
        out["linalg.eigh.sum_d3"] = self.eigh_sum_d3
        out["trace.fingerprint.self_s"] = by_name.get(FINGERPRINT, (0, 0.0))[1]
        out["trace.spans"] = n
        return out

    def spans(self) -> dict:
        """The raw spans as arrays, for writing out after the run."""
        return {
            "names": np.array(self.names),
            "name": np.array(self.span_name),
            "parent": np.array(self.span_parent),
            "start": np.array(self.span_start),
            "end": np.array(self.span_end),
        }


# Every wrapper shares this code object, which is how leftovers are found.
_WRAPPER_CODE = Tracer().wrap("probe", len).__code__


def leftover_wrappers() -> list:
    """Bindings that still hold a tracer wrapper, as module.attribute."""
    return [f"{m.__name__}.{attr}"
            for m in package_modules() + [numpy.linalg]
            for attr, value in vars(m).items()
            if getattr(value, "__code__", None) is _WRAPPER_CODE]
