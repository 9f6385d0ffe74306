"""Layout guard: no petzgap module reaches into another's private names.

Each module of src/petzgap is parsed with ast. A name that starts with one
underscore (dunders aside) is private to the module or class that defines
it, so the guard fails on

  - `from .x import _name` (or `import x._name`),
  - an attribute read `obj._name` on anything but `self` (another module,
    as in `modular._helper`, or another object, as in `ctx._difference`),
  - `getattr(obj, "_name")` on anything but `self`.

A quantity another module needs goes through a public name, such as the
PairContext methods the bounds read. No module holds a numpy Generator or
BitGenerator at module level: random state belongs to an object its caller
creates. Every bound report is built in
bounds: a guard fails if harness names BoundReport, gap_margin or
theorem_optimum. Errors are raised, not carried as values: every petzgap
exception a module constructs is the exception of a raise statement.

The benchmark reads petzgap from outside: bench/run.py --trace 1 prints a
counter for every per_layer name of BENCHMARK.json, and its tracer makes a
`<module>.<function>.calls` / `.self_s` counter only for a public function
of a petzgap module, so a per_layer name whose function is gone or private
is a KeyError there. Its trial clock rebinds harness.run_trial,
harness.run_reconstruct and bounds.proof_internals. A guard below checks
those names against the modules.

E's kind is decided in PairContext.__new__ alone: a guard fails on a src
comparison of blocks anywhere else, and on any file naming the old flags.
"""

import ast
import importlib
import json
import types
from pathlib import Path

import numpy as np
import pytest

from petzgap import errors

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "petzgap"
MODULES = sorted(SRC.glob("*.py"))
# counters the tracer makes for what is not a petzgap function: numpy's
# LAPACK eigh, its own fingerprint hook, and the integrand span
TRACER_SPANS = {"lapack.eigh", "trace.fingerprint", "quadrature.integrand"}
# the functions bench/run.py's trial clock rebinds
CLOCKED = {"harness.run_trial", "harness.run_reconstruct",
           "bounds.proof_internals"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def private_reaches(tree: ast.AST) -> list:
    """(line, source) of every reach into another owner's private name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            bad = [a.name for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Import):
            bad = [a.name for a in node.names
                   if any(_private(part) for part in a.name.split("."))]
        elif isinstance(node, ast.Attribute):
            bad = [node.attr] if _private(node.attr) \
                and not _is_self(node.value) else []
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("getattr", "setattr", "hasattr") \
                and len(node.args) >= 2 \
                and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            bad = [node.args[1].value] if _private(node.args[1].value) \
                and not _is_self(node.args[0]) else []
        else:
            bad = []
        if bad:
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_guard_sees_every_kind_of_reach():
    source = ("from .context import _ratio\n"
              "import petzgap._hidden\n"
              "x = ctx._difference(0.5)\n"
              "y = modular._helper\n"
              "z = getattr(ctx, '_memo')\n"
              "ok = self._memo, obj.__name__, getattr(self, '_memo')\n")
    assert sorted(line for line, _ in private_reaches(ast.parse(source))) \
        == [1, 2, 3, 4, 5]


def test_modules_found():
    assert {"bounds.py", "context.py", "harness.py"} \
        <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reaches_into_private_names(path):
    found = private_reaches(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name}: {found}"


def _public_function(qualname: str) -> bool:
    """module.function names a public plain function defined in that
    petzgap module itself, as the tracer counts them."""
    module_name, name = qualname.split(".")
    module = importlib.import_module("petzgap." + module_name)
    obj = vars(module).get(name)
    return isinstance(obj, types.FunctionType) \
        and obj.__module__ == module.__name__ and not name.startswith("_")


def test_bench_names_are_public_petzgap_functions():
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    functions = {m["name"].rsplit(".", 1)[0] for m in per_layer
                 if m["name"].count(".") == 2
                 and m["name"].endswith((".calls", ".self_s"))}
    assert "entropy.integral_reconstruction" in functions
    missing = sorted(f for f in (functions - TRACER_SPANS) | CLOCKED
                     if not _public_function(f))
    assert not missing, missing


# what a bound report is built from; every report is built in bounds, so
# harness names none of them
REPORT_BUILDERS = {"BoundReport", "gap_margin", "theorem_optimum"}


def named(tree: ast.AST) -> set:
    """Every name a module reads, imports or reaches as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return found


def test_guard_sees_every_kind_of_name():
    source = ("from .bounds import BoundReport\n"
              "bounds.gap_margin('dpi', g)\n"
              "optimum = theorem_optimum\n")
    assert named(ast.parse(source)) >= REPORT_BUILDERS


def test_harness_builds_no_bound_report():
    path = SRC / "harness.py"
    found = named(ast.parse(path.read_text(), filename=str(path))) \
        & REPORT_BUILDERS
    assert not found, sorted(found)


def random_state_held(module) -> list:
    """The module-level names of a module that hold a numpy Generator or
    BitGenerator."""
    return sorted(name for name, obj in vars(module).items()
                  if isinstance(obj, (np.random.Generator,
                                      np.random.BitGenerator)))


def test_guard_sees_a_held_generator():
    module = types.ModuleType("held")
    module.rng = np.random.default_rng(0)
    module.bits = np.random.Philox(0)
    module.seed = 0
    assert random_state_held(module) == ["bits", "rng"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_holds_a_random_generator(path):
    """Random state belongs to an object its caller creates (a generator
    from states.stream), never to a module."""
    name = "petzgap" if path.stem == "__init__" else "petzgap." + path.stem
    assert random_state_held(importlib.import_module(name)) == []


# the exception classes of petzgap
ERRORS = {name for name, obj in vars(errors).items()
          if isinstance(obj, type) and issubclass(obj, errors.PetzGapError)}


def errors_as_values(tree: ast.AST) -> list:
    """(line, source) of every petzgap exception constructed anywhere but
    directly as the exception of a raise."""
    raised = {id(node.exc) for node in ast.walk(tree)
              if isinstance(node, ast.Raise)}
    return [(node.lineno, ast.unparse(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in raised
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ERRORS]


def test_guard_sees_an_error_held_as_a_value():
    source = ("raise NotPSD('eigenvalue below -zero_threshold')\n"
              "raise errors.InvalidInput('bad') from exc\n"
              "slots = [InvalidInput('bad') if b else None for b in bad]\n"
              "error = errors.NotNormalized('trace')\n"
              "raise wrap(DomainError('off domain'))\n"
              "ok = NotAnError('x'), isinstance(s, PetzGapError)\n")
    assert sorted(line for line, _ in errors_as_values(ast.parse(source))) \
        == [3, 4, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_error_is_constructed_in_a_raise(path):
    found = errors_as_values(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name}: {found}"


def blocks_compared(tree: ast.AST) -> list:
    """The lines of every comparison that reads a `.blocks` attribute,
    outside PairContext.__new__, where E's kind is decided."""
    skip = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
           and cls.name == "PairContext" for method in cls.body
           if getattr(method, "name", None) == "__new__"
           for node in ast.walk(method)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and id(node) not in skip
                  and any(isinstance(n, ast.Attribute) and n.attr == "blocks"
                          for n in ast.walk(node)))


def test_guard_sees_a_blocks_comparison():
    source = ("class PairContext:\n"
              "    def __new__(cls, spec):\n"
              "        ok = spec.blocks == [(spec.dim, 1)]\n"
              "    def __init__(self, spec):\n"
              "        self.trace = spec.blocks == [(1, spec.dim)]\n"
              "single = 1 != len(ctx.spec.blocks)\n"
              "ok = [n for n, _ in spec.blocks]\n")
    assert blocks_compared(ast.parse(source)) == [5, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_e_kind_is_decided_only_in_pair_context_new(path):
    assert not blocks_compared(ast.parse(path.read_text())), path.name


def test_no_file_names_the_old_e_kind_flags():
    here = Path(__file__).resolve()
    found = [(path.name, flag) for path in [*(ROOT / "src").rglob("*.py"),
                                            *(ROOT / "tests").rglob("*.py")]
             if path != here for flag in ("e_is_identity", "e_is_trace")
             if flag in path.read_text()]
    assert not found, found
