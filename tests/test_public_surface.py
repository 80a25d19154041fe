"""The library's public surface still holds every name the benchmark under
``perfbench/`` wraps or calls.  The benchmark only warns when a traced name
is missing (the metric then reads zero), so a cut that removes one fails
here instead.  ``perfbench`` is read, never edited.  The surface through which
the library calls a model's local characteristics stays one function, and
so does the one through which it evaluates a closed-form flow."""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import popdmp as P

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(P.__file__).resolve().parent


def _spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", PERFBENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_function_and_method_resolves():
    spans = _spans()
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in spans.FUNCTIONS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    # the benchmark wraps a method where its class defines it
    missing += [f"{mod}.{cls}.{attr}" for mod, cls, attr, _, _ in spans.METHODS
                if attr not in vars(getattr(importlib.import_module(mod), cls, object))]
    assert missing == []


def test_every_name_the_workloads_call_resolves():
    names = set(re.findall(r"\bP\.([A-Za-z_]\w*)", (PERFBENCH / "workloads.py").read_text()))
    assert names
    missing = sorted(n for n in names if not hasattr(P, n))
    # the solve workload's output check looks mirrored points up on the grid
    if not callable(getattr(P.SimplexGrid, "vertex_index", None)):
        missing.append("SimplexGrid.vertex_index")
    assert missing == []


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(P.__path__)))
def test_every_module_exports_what_it_lists(name):
    mod = importlib.import_module(f"popdmp.{name}")
    listed = getattr(mod, "__all__", [])
    assert sorted(n for n in listed if not hasattr(mod, n)) == []


def test_only_the_checked_evaluator_calls_the_local_characteristics():
    # every evaluation of a model's hazard, jump kernel and cost rate goes
    # through model._local, which checks it against the model's contract;
    # a direct call elsewhere would bypass the check
    names = {"hazard", "jump_kernel", "cost_rate"}
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        evaluator = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_local"]
        allowed = {id(n) for f in evaluator for n in ast.walk(f)}
        calls += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and id(n) not in allowed
                  and (isinstance(n.func, ast.Attribute) and n.func.attr in names
                       or isinstance(n.func, ast.Call) and getattr(n.func.func, "id", "") == "getattr")]
    assert calls == []


def test_only_one_function_evaluates_a_closed_form_flow():
    # ClosedFormFlow.path is called in one place, which shapes its result
    # as (n, D) and checks that it is finite
    inside, outside = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = [f for f in tree.body
                  if isinstance(f, ast.FunctionDef) and f.name == "_closed_form_path"]
        allowed = {id(n) for f in helper for n in ast.walk(f)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and getattr(n.func, "attr", "") == "path":
                (inside if id(n) in allowed else outside).append(f"{path.name}:{n.lineno}")
    assert len(inside) == 1 and outside == []
