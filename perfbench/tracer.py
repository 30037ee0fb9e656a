"""Span tracing of damp-planner's layers from outside the program.

`installed(tracer)` replaces each traced public function with a wrapper at
every place a damp_planner module binds it: its own module, the package
namespace and every module that imported it by name (`cli_reporting` and
`compensation_planner` bind `analyze`, `plan`, `assemble`, `eig_lr` ... that
way, and `stability_engine.analyze` reaches `sweep`/`track`/`assess` through
its module globals).  `AdmittanceTable.query` is wrapped on the class.  All
bindings are restored on exit.

Each wrapper records a span (name, parent span, start, end) and, for some
functions, a count of the work the call did.  `layer_metrics` turns the
spans into per-operation layer metrics.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("dq_core", "component_models", "network_assembly",
          "stability_engine", "compensation_planner", "cli_reporting")


# traced function -> how to count the work of one call from (args, kwargs,
# result); None counts calls only
TRACED = {
    "cli_reporting.run_command": None,
    "cli_reporting.load_network": None,
    "network_assembly.assemble": None,
    "network_assembly.assemble_grid": lambda a, k, mats: len(mats),
    "dq_core.evaluate": None,
    "stability_engine.analyze": None,
    "stability_engine.sweep": lambda a, k, samples: len(samples),
    "stability_engine.track": lambda a, k, traces: len(traces[0]) - 1 if traces else 0,
    "stability_engine.assess": lambda a, k, report: len(report.events),
    "stability_engine.eig_lr": None,
    "compensation_planner.compensation_table": None,
    "compensation_planner.plan": lambda a, k, cplan: sum(e.iterations for e in cplan.entries),
    "compensation_planner.calibrate_ad": None,
    "compensation_planner.verify_with_ad": None,
}
TABLE_QUERY = "component_models.table_query"


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    count: int = 0


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(Span(name, stack[-1] if stack else None, perf_counter()))
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid].end = perf_counter()
            if count is not None:
                spans[sid].count = count(args, kwargs, result)
            return result

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every traced function through tracer while the block runs."""
    package = importlib.import_module("damp_planner")
    modules = [package] + [importlib.import_module(f"damp_planner.{m}") for m in LAYERS]
    by_layer = dict(zip(LAYERS, modules[1:]))
    restore = []
    try:
        for qualname, count in TRACED.items():
            layer, fname = qualname.split(".")
            original = getattr(by_layer[layer], fname)
            wrapper = tracer.wrap(qualname, original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        restore.append((mod, attr, original))
        table_cls = by_layer["component_models"].AdmittanceTable
        restore.append((table_cls, "query", table_cls.query))
        table_cls.query = tracer.wrap(TABLE_QUERY, table_cls.query)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# (metric name, unit) in output order; see README.md for what each means
LAYER_METRICS = [
    ("cli_reporting.load_network.calls", "count"),
    ("cli_reporting.load_network.s", "s"),
    ("cli_reporting.run_command.self_s", "s"),
    ("network_assembly.assemble.calls", "count"),
    ("network_assembly.assemble.s", "s"),
    ("network_assembly.assemble_grid.calls", "count"),
    ("network_assembly.assemble_grid.points", "count"),
    ("network_assembly.assemble_grid.s", "s"),
    ("component_models.table_query.calls", "count"),
    ("component_models.table_query.s", "s"),
    ("dq_core.evaluate.calls", "count"),
    ("dq_core.evaluate.s", "s"),
    ("stability_engine.analyze.calls", "count"),
    ("stability_engine.sweep.points", "count"),
    ("stability_engine.sweep.self_s", "s"),
    ("stability_engine.track.steps", "count"),
    ("stability_engine.track.s", "s"),
    ("stability_engine.assess.events", "count"),
    ("stability_engine.assess.self_s", "s"),
    ("stability_engine.eig_lr.calls", "count"),
    ("stability_engine.eig_lr.s", "s"),
    ("compensation_planner.plan.s", "s"),
    ("compensation_planner.plan.self_s", "s"),
    ("compensation_planner.plan.eig_lr_calls", "count"),
    ("compensation_planner.plan.accumulation_steps", "count"),
    ("compensation_planner.plan.eig_per_step", "ratio"),
    ("compensation_planner.compensation_table.s", "s"),
    ("compensation_planner.calibrate_ad.s", "s"),
    ("compensation_planner.verify_with_ad.s", "s"),
]

# metrics that must repeat exactly between two traced passes over the same inputs
EXACT = [name for name, _ in LAYER_METRICS
         if name.endswith((".calls", ".points", ".steps", ".events",
                           "accumulation_steps", "eig_lr_calls"))]


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-operation layer metrics from one traced pass of n_ops operations.

    A metric is named after its span and a kind: `.s` is the summed duration
    of the spans, `.self_s` that minus the time their direct child spans
    cover, `.calls` the number of spans and `.points`/`.steps`/`.events`
    the summed counts.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    counted = defaultdict(int)
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] += sp.end - sp.start
    for i, sp in enumerate(spans):
        dur = sp.end - sp.start
        calls[sp.name] += 1
        total[sp.name] += dur
        self_time[sp.name] += dur - child_time[i]
        counted[sp.name] += sp.count

    def inside_plan(sp: Span) -> bool:
        while sp.parent is not None:
            sp = spans[sp.parent]
            if sp.name == "compensation_planner.plan":
                return True
        return False

    plan_eigs = sum(1 for sp in spans
                    if sp.name == "stability_engine.eig_lr" and inside_plan(sp))
    steps = counted["compensation_planner.plan"]
    by_kind = {"calls": calls, "s": total, "self_s": self_time,
               "points": counted, "steps": counted, "events": counted,
               "eig_lr_calls": {"compensation_planner.plan": plan_eigs},
               "accumulation_steps": {"compensation_planner.plan": steps}}
    out = {}
    for name, _ in LAYER_METRICS:
        span, kind = name.rsplit(".", 1)
        if kind in by_kind:
            out[name] = by_kind[kind].get(span, 0) / n_ops
    # a ratio of two per-operation counts; 0 when the planner did not run
    out["compensation_planner.plan.eig_per_step"] = plan_eigs / steps if steps else 0.0
    return out
