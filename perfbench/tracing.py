"""Spans and counters around the library's public functions.

The tracer wraps names from the benchmark's side: each function is replaced
in every ``multilevel_control`` module that holds it, so calls through
``from .x import y`` copies and function-local imports are caught as well as
calls through the defining module.  Methods are wrapped on their class.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` restores the
originals.

A span is (id, parent id, name, start, end, op id), kept in memory.  A
layer's self time is its span durations minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

Hook = Callable[["Tracer", tuple, dict, object], None]


def _grid_steps(tr, args, kwargs, result):
    tr.counts["lti.simulate_steps"] += len(kwargs.get("grid", args[2] if len(args) > 2 else ())) - 1


def _adjoint_nodes(tr, args, kwargs, result):
    tr.counts["lti.adjoint_rows_nodes"] += result.shape[0]


def _propagator_points(tr, args, kwargs, result):
    tr.counts["lti.propagator_points"] += result.shape[0]


def _iterations(tr, args, kwargs, result):
    tr.counts["dual.iterations"] += result.iterations


def _crossings(tr, args, kwargs, result):
    tr.counts["extract.crossings"] += result[0].size


def _lp_size(tr, args, kwargs, result):
    tr.counts["fenchel.lp_iterations"] += int(result.nit)
    tr.counts["fenchel.lp_vars"] += len(args[0])


# (module, attribute, span name or None for a counter only, call counter, hook).
# A dotted attribute is a method, wrapped on its class.
FUNCTIONS = [
    ("lti", "adjoint_rows", "lti.adjoint_rows", None, _adjoint_nodes),
    ("lti", "exp_action_integral", "lti.exp_action_integral", "lti.exp_action_integral_calls", None),
    ("lti", "simulate_forward", "lti.simulate_forward", None, _grid_steps),
    ("lti", "AdjointPropagator.__call__", None, "lti.propagator_calls", _propagator_points),
    ("pwl", "PwlConvex.value", "pwl.value", "pwl.value_calls", None),
    ("pwl", "PwlConvex.selection", "pwl.selection", "pwl.selection_calls", None),
    ("pwl", "conjugate", "pwl.conjugate", None, None),
    ("dual", "DualProblem.__init__", "dual.problem_build", None, None),
    ("dual", "DualProblem.bracket_grid", "dual.bracket_grid", None, None),
    ("dual", "minimize", "dual.minimize", None, _iterations),
    ("dual", "eval_functional", "dual.eval_functional", "dual.value_evals", None),
    ("dual", "eval_subgradient", "dual.eval_subgradient", "dual.subgrad_evals", None),
    ("dual", "subgradient_box", "dual.subgradient_box", "dual.subgradient_box_calls", None),
    ("dual", "ExactEvaluator.value_and_grad", "dual.exact_eval", "dual.exact_evals", None),
    ("dual", "ExactEvaluator.pieces", "dual.exact_pieces", None, None),
    ("extract", "find_switchings", "extract.find_switchings", "extract.find_switchings_calls", _crossings),
    ("extract", "extract_control", "extract.extract_control", None, None),
    ("extract", "verify_staircase", "extract.verify_staircase", None, None),
    ("fenchel", "build_discrete_primal", "fenchel.build_primal", None, None),
    ("fenchel", "solve_primal", "fenchel.solve_primal", None, None),
    ("fenchel", "linprog", None, None, _lp_size),
    ("fenchel", "duality_gap", "fenchel.duality_gap", None, None),
    ("fenchel", "optimality_fraction", "fenchel.optimality_fraction", None, None),
    ("solvable", "solvable_bound", "solvable.bound", None, None),
    ("config", "load_config", "config.load", None, None),
    ("experiments", "run_scenario", "experiments.run_scenario", None, None),
]

# per-layer metric -> ("self", span names) | ("count", counter) | ("ratio", numerator, denominator)
LAYER_METRICS = {
    "lti.adjoint_rows_s": ("self", ["lti.adjoint_rows"]),
    "lti.adjoint_rows_nodes": ("count", "lti.adjoint_rows_nodes"),
    "lti.expm_calls": ("count", "lti.expm_calls"),
    "lti.exp_action_integral_calls": ("count", "lti.exp_action_integral_calls"),
    "lti.exp_action_integral_s": ("self", ["lti.exp_action_integral"]),
    "lti.propagator_calls": ("count", "lti.propagator_calls"),
    "lti.propagator_points": ("count", "lti.propagator_points"),
    "lti.simulate_forward_s": ("self", ["lti.simulate_forward"]),
    "lti.simulate_steps": ("count", "lti.simulate_steps"),
    "pwl.value_calls": ("count", "pwl.value_calls"),
    "pwl.selection_calls": ("count", "pwl.selection_calls"),
    "pwl.eval_s": ("self", ["pwl.value", "pwl.selection"]),
    "pwl.conjugate_s": ("self", ["pwl.conjugate"]),
    "dual.problem_build_s": ("self", ["dual.problem_build"]),
    "dual.bracket_grid_s": ("self", ["dual.bracket_grid"]),
    "dual.minimize_s": ("self", ["dual.minimize"]),
    "dual.iterations": ("count", "dual.iterations"),
    "dual.value_evals": ("count", "dual.value_evals"),
    "dual.subgrad_evals": ("count", "dual.subgrad_evals"),
    "dual.step_accept_ratio": ("ratio", "dual.subgrad_evals", "dual.value_evals"),
    "dual.quadrature_eval_s": ("self", ["dual.eval_functional", "dual.eval_subgradient", "dual.subgradient_box"]),
    "dual.exact_evals": ("count", "dual.exact_evals"),
    "dual.exact_eval_s": ("self", ["dual.exact_eval", "dual.exact_pieces"]),
    "dual.subgradient_box_calls": ("count", "dual.subgradient_box_calls"),
    "extract.find_switchings_calls": ("count", "extract.find_switchings_calls"),
    "extract.find_switchings_s": ("self", ["extract.find_switchings"]),
    "extract.crossings": ("count", "extract.crossings"),
    "extract.extract_control_s": ("self", ["extract.extract_control"]),
    "extract.degenerate_raises": ("count", "extract.extract_control.raised.DegenerateAdjointError"),
    "extract.verify_staircase_s": ("self", ["extract.verify_staircase"]),
    "fenchel.build_primal_s": ("self", ["fenchel.build_primal"]),
    "fenchel.solve_primal_s": ("self", ["fenchel.solve_primal"]),
    "fenchel.lp_iterations": ("count", "fenchel.lp_iterations"),
    "fenchel.lp_vars": ("count", "fenchel.lp_vars"),
    "fenchel.duality_gap_s": ("self", ["fenchel.duality_gap"]),
    "fenchel.optimality_fraction_s": ("self", ["fenchel.optimality_fraction"]),
    "solvable.bound_s": ("self", ["solvable.bound"]),
    "config.load_s": ("self", ["config.load"]),
    "experiments.write_csv_s": ("self", ["experiments.write_csv"]),
    "experiments.write_csv_rows": ("count", "experiments.write_csv_rows"),
    "experiments.run_scenario_s": ("self", ["experiments.run_scenario"]),
}


class _ModuleProxy:
    """Stands in for a module in one importer, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(float)
        self.op_id = ""
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, span: Optional[str], counter: Optional[str] = None, hook: Optional[Hook] = None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                tracer.counts[counter] += 1
            if span is None:
                result = fn(*args, **kwargs)
            else:
                sid = len(tracer.spans)
                tracer.spans.append(None)
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer._stack.append(sid)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    tracer.counts[f"{span}.raised.{type(exc).__name__}"] += 1
                    raise
                finally:
                    tracer.spans[sid] = (sid, parent, span, start, time.perf_counter(), tracer.op_id)
                    tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _write_csv(self, fn):
        """experiments.write_csv with its row count; rows may be a generator."""
        tracer = self
        traced = self.wrap(fn, "experiments.write_csv")

        @functools.wraps(fn)
        def wrapper(path, header, rows):
            def counted():
                for row in rows:
                    tracer.counts["experiments.write_csv_rows"] += 1
                    yield row

            return traced(path, header, counted())

        return wrapper

    # -- installation ------------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _replace_everywhere(self, original, wrapped):
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "multilevel_control"]:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapped)

    def install(self):
        import scipy.linalg

        from multilevel_control import experiments, lti

        for mod_name, attr, span, counter, hook in FUNCTIONS:
            owner = importlib.import_module(f"multilevel_control.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self.wrap(cls.__dict__[meth], span, counter, hook))
            else:
                original = getattr(owner, attr)
                self._replace_everywhere(original, self.wrap(original, span, counter, hook))
        self._replace_everywhere(experiments.write_csv, self._write_csv(experiments.write_csv))
        # scipy.linalg.expm as lti calls it, and nowhere else
        self._set(lti, "sla", _ModuleProxy(scipy.linalg, expm=self.wrap(scipy.linalg.expm, None, "lti.expm_calls")))
        return self

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- reading -----------------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """A position to aggregate from: (span count, copy of the counters)."""
        return len(self.spans), dict(self.counts)

    def layer_metrics(self, since: tuple[int, dict]) -> dict:
        """Per-layer metrics over the spans and counts recorded after ``since``."""
        first, counts0 = since
        own = self_times(self.spans[first:])
        counts = {k: v - counts0.get(k, 0.0) for k, v in self.counts.items()}
        out = {}
        for metric, rule in LAYER_METRICS.items():
            if rule[0] == "self":
                out[metric] = sum(own.get(name, 0.0) for name in rule[1])
            elif rule[0] == "count":
                out[metric] = counts.get(rule[1], 0.0)
            else:
                den = counts.get(rule[2], 0.0)
                out[metric] = counts.get(rule[1], 0.0) / den if den else 0.0
        return out

    def write(self, path) -> None:
        """Spans as gzip CSV: id, parent, name, start, end, op id."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start,end,op\n")
            for sid, parent, name, start, end, op in self.spans:
                fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f},{op}\n")


def self_times(spans) -> dict:
    """Sum per span name of duration minus the union of its children's
    intervals (clipped to the parent)."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, _op in spans:
        children[parent].append((start, end))
    out: defaultdict = defaultdict(float)
    for sid, _parent, name, start, end, _op in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name] += (end - start) - covered
    return dict(out)
