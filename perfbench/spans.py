"""In-memory span recording around calls into the popdmp layers.

A ``Tracer`` records one span per wrapped call: name, start, end, parent
span and run id.  ``install`` puts a timing wrapper at every binding where a
layer function or method is looked up (module globals, classes, and the
callables of the model instances in use) and returns a handle whose
``remove`` restores every original object.  Counts are recorded by the same wrappers,
so a ratio is always taken at the boundary where the work happens.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans and counts of one traced section, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent index or -1, run id)
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = 0
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; return its result."""
        nid = self._name_id(name)
        idx = len(self.spans)
        self.spans.append((nid, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            s = self.spans[idx]
            self.spans[idx] = (s[0], start, end, s[3], s[4])

    def records(self) -> list[tuple[str, float, float, int, int]]:
        return [(self.names[n], a, b, p, r) for n, a, b, p, r in self.spans]

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": self.names,
                       "fields": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans) -> np.ndarray:
    """Duration of each span minus the part of its interval that its
    children cover.  ``spans`` holds (name, start, end, parent, run) rows
    with ``parent`` an index into the same list, or -1."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = np.empty(len(spans))
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[i] = (end - start) - covered
    return out


def layer_totals(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self time per span name.  A span nested inside a span of
    the same name adds to neither total, so recursion is not counted twice."""
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        own[name] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += end - start
    return dict(total), dict(own)


# ---------------------------------------------------------------------------
# what gets wrapped

def _rows(arr) -> int:
    return int(np.shape(arr)[0]) if np.ndim(arr) else 1


def _count_barycentric(tr, args, kwargs, result):
    tr.counts["grid.barycentric_calls"] += 1
    tr.counts["grid.beliefs_located"] += _rows(args[1])


def _count_assembly(tr, args, kwargs, result):
    tr.counts["solver.operator_nnz"] += sum(int(m.nnz) for m in args[0].mats)


def _count_vi(tr, args, kwargs, result):
    tr.counts["solver.vi_iterations"] += int(result[1].iterations)


def _count_mc(tr, args, kwargs, result):
    n = kwargs["n_traj"] if "n_traj" in kwargs else args[3]
    tr.counts["sim.trajectories"] += int(n)


def _count_policy_lookup(tr, args, kwargs, result):
    tr.counts["solver.policy_lookup_rows"] += _rows(np.atleast_2d(args[1]))


def _counter(metric):
    def count(tr, args, kwargs, result):
        tr.counts[metric] += 1
    return count


def _row_counter(calls, rows):
    def count(tr, args, kwargs, result):
        tr.counts[calls] += 1
        tr.counts[rows] += _rows(args[0])
    return count


# (module, attribute, span name, counter); functions are wrapped at every
# popdmp module that binds them, so e.g. mdp.flow_path, sim.flow_path and
# filtering.flow_path are all covered.
FUNCTIONS = [
    ("popdmp.model", "flow_path", "model.flow_path", None),
    ("popdmp.model", "lambda_path", "model.lambda_path", None),
    ("popdmp.mdp", "build_tables", "mdp.build_tables", _counter("mdp.build_tables_calls")),
    ("popdmp.solver", "value_iteration", "solver.value_iteration", _count_vi),
    ("popdmp.solver", "sigma_sweep", "solver.sigma_sweep", None),
    ("popdmp.sim", "evaluate_policy_mc", "sim.mc", _count_mc),
    ("popdmp.sim", "cross_check", "sim.cross_check", None),
    ("popdmp.filtering", "update", "filtering.update", _counter("filtering.update_calls")),
    ("popdmp.filtering", "update_regularized", "filtering.update_regularized",
     _counter("filtering.update_regularized_calls")),
    ("popdmp.filtering", "filter_trajectory", "filtering.filter_trajectory", None),
]

# (module, class, method, span name, counter)
METHODS = [
    ("popdmp.grid", "SimplexGrid", "barycentric_batch", "grid.barycentric", _count_barycentric),
    ("popdmp.grid", "SimplexGrid", "nearest_vertex_batch", "grid.nearest_vertex", None),
    ("popdmp.solver", "BellmanSweep", "__init__", "solver.assembly", _count_assembly),
    ("popdmp.solver", "BellmanSweep", "bellman", "solver.bellman", _counter("solver.bellman_calls")),
    ("popdmp.solver", "BellmanSweep", "apply_assignment", "solver.apply_assignment",
     _counter("solver.apply_assignment_calls")),
    ("popdmp.solver", "BellmanSweep", "policy_fixed_point", "solver.fixed_point", None),
    ("popdmp.solver", "GridPolicy", "candidate_indices", "solver.policy_lookup", _count_policy_lookup),
    ("popdmp.mdp", "StageContext", "smoothed_dmat", "mdp.smoothed_dmat",
     _counter("mdp.smoothed_dmat_calls")),
    ("popdmp.sim", "SimTables", "ensure", "sim.tables", _counter("sim.tables_calls")),
    ("popdmp.sim", "SimTables", "ensure_span", "sim.tables", _counter("sim.tables_calls")),
    ("popdmp.sim", "RngStream", "generator", "sim.stream_setup", _counter("sim.streams")),
]

# (model attribute, span name, counter)
MODEL_CALLABLES = [
    ("hazard", "model.hazard", _row_counter("model.hazard_calls", "model.hazard_rows")),
    ("jump_kernel", "model.kernel", _row_counter("model.kernel_calls", "model.kernel_rows")),
]


def _wrap(tracer: Tracer, fn, name: str, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result
    return wrapper


def _warn(msg: str) -> None:
    print(f"perfbench: {msg}; its layer metrics read 0", file=sys.stderr)


class Installed:
    """Handle on installed wrappers; ``remove`` puts every original back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object, object]] = []

    def set(self, owner, attr: str, value, setter=setattr) -> None:
        self._undo.append((owner, attr, getattr(owner, attr), setter))
        setter(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original, setter = self._undo.pop()
            setter(owner, attr, original)


def install(tracer: Tracer, models) -> Installed:
    """Wrap every layer boundary for ``tracer``, including the callables of
    each model in ``models``; the caller must call ``remove`` on the result
    (use try/finally)."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "popdmp" or n.startswith("popdmp."))]
    handle = Installed()
    try:
        for mod_name, attr, name, count in FUNCTIONS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                _warn(f"{mod_name}.{attr} not found")
                continue
            wrapped = _wrap(tracer, fn, name, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        handle.set(mod, key, wrapped)
        for mod_name, cls_name, attr, name, count in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            fn = vars(cls).get(attr) if cls is not None else None
            if fn is None:
                _warn(f"{mod_name}.{cls_name}.{attr} not found")
                continue
            handle.set(cls, attr, _wrap(tracer, fn, name, count))
        for model in models:
            for attr, name, count in MODEL_CALLABLES:
                # the model is a frozen dataclass, so its fields are set directly
                handle.set(model, attr, _wrap(tracer, getattr(model, attr), name, count),
                           setter=object.__setattr__)
    except BaseException:
        handle.remove()
        raise
    return handle
