"""Span tracing of the clarklab layers, installed from outside the package.

The tracer replaces public functions and methods of the package modules
with timing wrappers (module attributes and class attributes; every module
namespace that re-exports a function gets the wrapper too).  Nothing under
``src/`` is edited.  Each wrapped call is a span: inclusive time, self time
(inclusive minus the time of the wrapped calls it made), call count and, for
batched kernels, the number of rows it was handed.  Spans live in memory
and are turned into the per-layer metrics by ``layer_metrics``.

Targets that a later refactor removes are skipped and listed in
``Tracer.missing``; their metrics then read 0 instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

import numpy as np


class _Stat:
    __slots__ = ("calls", "incl", "self", "rows")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.rows = 0


class _Frame:
    __slots__ = ("name", "child", "extra")

    def __init__(self, name):
        self.name = name
        self.child = 0.0
        self.extra = None


def _rows(arr) -> int:
    shape = np.shape(arr)
    return int(math.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.counts = defaultdict(int)
        self.stack = []
        self.solves = []          # one dict per batch-solver call, with its _RowResults
        self.missing = []
        self._patches = []

    # -- span machinery -------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        stats = self.stats
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(name)
            if before is not None:
                before(self, frame, parent, args, kwargs)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                st = stats[name]
                st.calls += 1
                st.incl += dt
                st.self += dt - frame.child
                if parent is not None:
                    parent.child += dt
            if after is not None:
                after(self, frame, args, result, dt)
            return result

        return traced

    def patch_method(self, module, cls_name, attr, name, before=None, after=None):
        cls = getattr(sys.modules[module], cls_name, None)
        if cls is None or attr not in vars(cls):
            self.missing.append(f"{module}.{cls_name}.{attr}")
            return
        original = vars(cls)[attr]
        setattr(cls, attr, self._wrap(name, original, before, after))
        self._patches.append((cls, attr, original))

    def patch_function(self, module, attr, name, before=None, after=None):
        original = getattr(sys.modules[module], attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        traced = self._wrap(name, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "clarklab" or mod_name.startswith("clarklab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patches.append((mod, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def inside(self, name) -> bool:
        return any(f.name == name for f in self.stack)

    # -- layer boundaries -----------------------------------------------

    def install_solver_probe(self):
        """Wrap only the batch solver: one span per solve, which is enough
        for its wall time and the returned rows at no measurable cost."""
        importlib.import_module("clarklab.solvers")
        self.patch_function("clarklab.solvers", "gradient_flow_solve_batch", "solvers.flow",
                            before=_solve_begin, after=_solve_end)
        return self

    def install(self):
        for mod in ("spaces", "functionals", "models", "solvers", "deformation",
                    "topology", "minimax", "bvp", "cli"):
            importlib.import_module(f"clarklab.{mod}")

        self.patch_method("clarklab.spaces", "H01Grid", "riesz_of_load", "spaces.riesz",
                          before=_riesz_rows)
        for cls in ("H01Grid", "L2Truncation"):
            self.patch_method("clarklab.spaces", cls, "norm", "spaces.norm")

        for cls in ("ClarkModel", "SublinearEnergy", "WrapperFunctional"):
            self.patch_method("clarklab.models", cls, "value_of", "models.value",
                              before=_model_value)
            self.patch_method("clarklab.models", cls, "grad_of", "models.grad",
                              before=_model_grad)
        self.patch_method("clarklab.models", "CriticalSetOracle", "distance", "models.oracle")
        self.patch_function("clarklab.models", "enumerate_critical_set", "models.enumerate")

        self.patch_function("clarklab.functionals", "ps_diagnostic",
                            "functionals.ps_diagnostic")

        self.patch_function("clarklab.solvers", "gradient_flow_solve_batch", "solvers.flow",
                            before=_solve_begin, after=_solve_end)
        self.patch_function("clarklab.solvers", "accumulation_scan", "solvers.scan")

        self.patch_function("clarklab.deformation", "estimate_bounds", "deformation.bounds")
        self.patch_function("clarklab.deformation", "eta_epsilon_batch",
                            "deformation.batch_flow")
        self.patch_function("clarklab.deformation", "flow", "deformation.trace_flow",
                            after=_trace_flow_end)
        self.patch_function("clarklab.deformation", "_field_batch", "deformation.field",
                            before=_field_eval)
        for attr in ("value_of", "grad_of"):
            self.patch_method("clarklab.deformation", "TwoClusterFunctional", attr,
                              "deformation.functional")

        self.patch_function("clarklab.topology", "components", "topology.components",
                            before=_cloud_size)
        self.patch_function("clarklab.topology", "origin_component_stabilization",
                            "topology.stabilization")

        self.patch_function("clarklab.minimax", "sphere_sup_witness", "minimax.sup")
        self.patch_function("clarklab.minimax", "cj_upper_bound", "minimax.level")

        self.patch_function("clarklab.bvp", "shoot", "bvp.shoot")
        self.patch_function("clarklab.bvp", "nodal_family", "bvp.family")
        self.patch_function("clarklab.bvp", "reshoot_values", "bvp.reshoot")

        self.patch_function("clarklab.cli", "main", "cli.main")
        return self

    # -- metrics --------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the traced pass, by name."""
        s = self.stats
        c = self.counts
        value, grad = s["models.value"], s["models.grad"]
        model_calls = value.calls + grad.calls
        field_evals = c["field_evals_batch"] + c["field_evals_trace"]
        trace_attempts = c["field_evals_trace"] / 12.0
        accepted_rows = sum(sv["grad_rows"] - sv["rows"] for sv in self.solves)
        row_steps = sum(r.steps for sv in self.solves for r in sv["results"])
        return {
            "spaces.riesz_s": s["spaces.riesz"].incl,
            "spaces.riesz_calls": s["spaces.riesz"].calls,
            "spaces.riesz_rows": s["spaces.riesz"].rows,
            "spaces.norm_s": s["spaces.norm"].self,
            "models.value_s": value.self,
            "models.grad_s": grad.self,
            "models.value_calls": value.calls,
            "models.grad_calls": grad.calls,
            "models.rows_per_call": (value.rows + grad.rows) / model_calls if model_calls else 0.0,
            "models.oracle_s": s["models.oracle"].incl,
            "models.enumerate_s": s["models.enumerate"].incl,
            "solvers.flow_s": s["solvers.flow"].incl,
            "solvers.self_s": s["solvers.flow"].self,
            "solvers.accept_ratio": accepted_rows / row_steps if row_steps else 0.0,
            "deformation.bounds_s": s["deformation.bounds"].incl,
            "deformation.batch_flow_s": s["deformation.batch_flow"].incl,
            "deformation.trace_flow_s": s["deformation.trace_flow"].incl,
            "deformation.field_evals": field_evals,
            "deformation.rk4_attempts": field_evals / 12.0,
            "deformation.rk4_accept_ratio": (c["rk4_accepted_trace"] / trace_attempts
                                             if trace_attempts else 0.0),
            "topology.components_s": s["topology.components"].incl,
            "topology.components_calls": s["topology.components"].calls,
            "topology.max_cloud_points": c["max_cloud_points"],
            "topology.stabilization_s": s["topology.stabilization"].incl,
            "minimax.sup_calls": s["minimax.sup"].calls,
            "minimax.sup_s": s["minimax.sup"].incl,
            "minimax.value_calls": c["minimax_value_calls"],
            "bvp.shoot_s": s["bvp.shoot"].incl,
            "bvp.family_s": s["bvp.family"].incl,
            "bvp.reshoot_s": s["bvp.reshoot"].incl,
            "functionals.ps_diagnostic_s": s["functionals.ps_diagnostic"].incl,
            "cli.self_s": s["cli.main"].self,
        }

    def span_table(self) -> dict:
        return {name: {"calls": st.calls, "incl_s": st.incl, "self_s": st.self,
                       "rows": st.rows}
                for name, st in sorted(self.stats.items())}


# -- hooks: counts taken at the layer boundaries -----------------------------

def _riesz_rows(tracer, frame, parent, args, kwargs):
    tracer.stats["spaces.riesz"].rows += _rows(args[1])


def _model_value(tracer, frame, parent, args, kwargs):
    tracer.stats["models.value"].rows += _rows(args[1])
    if tracer.inside("minimax.sup"):
        tracer.counts["minimax_value_calls"] += 1


def _model_grad(tracer, frame, parent, args, kwargs):
    rows = _rows(args[1])
    tracer.stats["models.grad"].rows += rows
    if parent is not None and parent.name == "solvers.flow":
        parent.extra["grad_rows"] += rows


def _solve_begin(tracer, frame, parent, args, kwargs):
    seeds = args[1] if len(args) > 1 else kwargs["seeds"]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    frame.extra = {"rows": _rows(np.atleast_2d(seeds)), "max_flow_time": cfg.max_flow_time,
                   "grad_rows": 0}


def _solve_end(tracer, frame, args, result, dt):
    frame.extra["results"] = result
    frame.extra["seconds"] = dt
    tracer.solves.append(frame.extra)


def _trace_flow_end(tracer, frame, args, result, dt):
    tracer.counts["rk4_accepted_trace"] += len(result.times) - 1


def _field_eval(tracer, frame, parent, args, kwargs):
    if tracer.inside("deformation.trace_flow"):
        tracer.counts["field_evals_trace"] += 1
    elif tracer.inside("deformation.batch_flow"):
        tracer.counts["field_evals_batch"] += 1


def _cloud_size(tracer, frame, parent, args, kwargs):
    tracer.counts["max_cloud_points"] = max(tracer.counts["max_cloud_points"], len(args[0]))


def solver_stats(solves) -> dict:
    """Step statistics and stop reasons of every row the batch solver
    returned.  A row that did not converge hit the flow-time budget when its
    flow time reached ``max_flow_time``; otherwise its step collapsed
    (stalled).  One lockstep iteration advances every active row by a step,
    so a solve's iteration count is its largest row step count."""
    solves = [sv for sv in solves if sv["results"]]
    steps = np.array([r.steps for sv in solves for r in sv["results"]], dtype=float)
    longest = [max(r.steps for r in sv["results"]) for sv in solves]
    slots = sum(it * len(sv["results"]) for it, sv in zip(longest, solves))
    converged = sum(r.converged for sv in solves for r in sv["results"])
    budget = sum(not r.converged and r.flow_time >= sv["max_flow_time"]
                 for sv in solves for r in sv["results"])
    p50, p99 = np.percentile(steps, [50, 99]) if steps.size else (0.0, 0.0)
    return {
        "solvers.iterations": sum(longest),
        "solvers.row_steps_p50": float(p50),
        "solvers.row_steps_p99": float(p99),
        "solvers.row_steps_max": int(max(longest, default=0)),
        "solvers.occupancy": float(steps.sum()) / slots if slots else 0.0,
        "solvers.converged_share": converged / steps.size if steps.size else 0.0,
        "solvers.budget_rows": budget,
        "solvers.stalled_rows": steps.size - converged - budget,
    }
