"""Span tracer for the benchmark's traced mode.

The tracer wraps, from outside the package, the public functions of every
fcco module and the public methods of the per-component objects in
`instances` and `outers`, which the solvers call once per sampled block.
Each call records a span (name, start, end, parent, cell id) into flat
in-memory arrays; nothing is written until the run ends, when `write()`
saves every span.  Nothing inside `src/fcco` is edited: `install()` swaps
module attributes, dict entries and class attributes, and `uninstall()`
puts every original back.

Wrapping a function object is not enough on its own, because fcco keeps
direct references to some functions: `solvers` and `metrics` import
`evaluate_objective` by name, `harness` imports `run` and `load_libsvm` by
name, and `solvers.run` dispatches baselines through the `_BASELINE_STEPS`
dict.  `install()` therefore replaces every reference to a wrapped function
that it finds in any fcco module namespace or module-level dict; the
span-count self-check in `workloads.py` catches a reference it misses.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "harness", "solvers", "problem", "instances", "outers", "datasets", "metrics")
# Modules whose public classes are traced method by method.
METHOD_LAYERS = ("instances", "outers")
STEP_FUNCTIONS = {"alexr_step": "alexr", "sox_step": "sox", "msvr_step": "msvr",
                  "bsgd_step": "bsgd"}
SOLVER_NAMES = ("alexr", "sox", "msvr", "bsgd", "sgd_uw")
NO_PARENT = -1


def _oracle_rows(args, _result):
    return getattr(args[0], "size", 1)


def _batch_rows(position):
    return lambda args, _result: len(args[position])


# Row counters.  Through the oracle protocol, an exact evaluation reads the
# oracle's population (`size`; 1 for coordinate oracles) and a stochastic call
# reads its batch.  stochastic_jtvp is left out because the default
# accumulate_jtvp calls it, and counting both would count the same rows twice.
ORACLE_ROWS = {
    "exact_value": _oracle_rows,
    "stochastic_value": _batch_rows(2),
    "accumulate_jtvp": _batch_rows(3),
}
FUNCTION_ROWS = {
    "datasets.parse_libsvm": ("datasets.rows_parsed", lambda args, result: len(result[1])),
    "harness.emit_records": ("harness.rows_emitted",
                             lambda args, _result: sum(len(rec.rows) for rec in args[0])),
    "solvers.run": ("solvers.oracle_count", lambda args, result: result.final_row.oracle_count),
}


class SpanLog:
    """Flat span arrays for one traced repetition."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.cell = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters = {}

    def __len__(self):
        return len(self.start)


class Tracer:
    """Installs span-recording wrappers around fcco's layer boundaries."""

    def __init__(self, fcco_modules):
        self.modules = fcco_modules  # layer name -> module
        self.names = []
        self._name_ids = {}
        self.log = SpanLog()
        self.logs = []
        self._stack = [NO_PARENT]
        self._cell = [0]
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, new_cell=False, name_of=None, rows=None):
        """Return a wrapper of `fn` recording one span per call.  `name_of`
        picks the span name from the call's arguments; `new_cell` marks a
        call that starts a (solver, seed) cell; `rows` is a row counter
        (counter name, rows(args, result))."""
        tracer = self
        stack = self._stack
        cell = self._cell
        clock = time.perf_counter_ns
        fixed_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            log = tracer.log
            i = len(log.start)
            log.name.append(fixed_id if name_of is None else tracer._name_id(name_of(args)))
            log.parent.append(stack[-1])
            prev_cell = cell[0]
            if new_cell:
                cell[0] = i + 1
            log.cell.append(cell[0])
            log.end.append(0)
            stack.append(i)
            log.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[i] = clock()
                stack.pop()
                cell[0] = prev_cell
            if rows is not None:
                counter, count = rows
                log.counters[counter] = log.counters.get(counter, 0) + count(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, key, value):
        """Replace owner[key] (dict) or owner.key (module/class/object) and
        remember how to undo it."""
        if isinstance(owner, dict):
            self._undo.append(("item", owner, key, owner[key]))
            owner[key] = value
        else:
            had = key in vars(owner)
            self._undo.append(("attr", owner, key, vars(owner)[key] if had else None, had))
            setattr(owner, key, value)

    def _function_wrappers(self):
        """Map id(original function) -> wrapper for every traced function."""
        wrappers = {}
        for layer, module in self.modules.items():
            for fname, obj in vars(module).items():
                if fname.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if fname in STEP_FUNCTIONS:
                    wrapper = self._wrap(obj, f"solvers.{STEP_FUNCTIONS[fname]}.step")
                elif fname == "sgd_step":
                    wrapper = self._wrap(obj, "solvers.sgd.step",
                                         name_of=lambda args: f"solvers.{args[1].variant}.step")
                else:
                    span = f"{layer}.{fname}"
                    wrapper = self._wrap(obj, span, new_cell=(span == "solvers.run"),
                                         rows=FUNCTION_ROWS.get(span))
                wrappers[id(obj)] = (obj, wrapper)
        harness = self.modules["harness"]
        for builder in set(harness.PROBLEM_BUILDERS.values()):
            wrappers[id(builder)] = (builder, self._wrap(builder, "harness.cell_build"))
        aggregate = harness._write_aggregate
        wrappers[id(aggregate)] = (aggregate, self._wrap(aggregate, "harness.aggregate"))
        return wrappers

    def install(self, problems=()):
        """Wrap every traced callable.  `problems` are ProblemInstance objects
        built outside the harness; their `aux_metrics` closures are traced."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = self._function_wrappers()
        namespaces = [sys.modules[name] for name in sorted(sys.modules)
                      if name == "fcco" or name.startswith("fcco.")]
        for module in namespaces:
            for key, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._set(module, key, wrappers[id(value)][1])
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if id(dvalue) in wrappers and wrappers[id(dvalue)][0] is dvalue:
                            self._set(value, dkey, wrappers[id(dvalue)][1])
        for layer in METHOD_LAYERS:
            module = self.modules[layer]
            for cname, cls in vars(module).items():
                if cname.startswith("_") or not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                for mname in dir(cls):
                    if mname.startswith("_"):
                        continue
                    raw = inspect.getattr_static(cls, mname)
                    if not inspect.isfunction(raw) or not raw.__module__.startswith("fcco"):
                        continue
                    rows = None
                    if layer == "instances" and mname in ORACLE_ROWS:
                        rows = ("instances.rows_touched", ORACLE_ROWS[mname])
                    self._set(cls, mname, self._wrap(raw, f"{layer}.{cname}.{mname}", rows=rows))
        for problem in problems:
            if problem.aux_metrics is not None:
                rows = sum(getattr(g, "size", 1) for g in problem.inners)
                self._set(problem, "aux_metrics",
                          self._wrap(problem.aux_metrics, "instances.aux_metrics",
                                     rows=("instances.rows_touched", lambda a, r, n=rows: n)))

    def uninstall(self):
        for entry in reversed(self._undo):
            if entry[0] == "item":
                _kind, owner, key, value = entry
                owner[key] = value
            else:
                _kind, owner, key, value, had = entry
                if had:
                    setattr(owner, key, value)
                else:
                    delattr(owner, key)
        self._undo = []

    def begin_rep(self):
        self.log = SpanLog()
        self._stack[:] = [NO_PARENT]
        self._cell[0] = 0

    def end_rep(self):
        self.logs.append(self.log)
        return self.log

    def write(self, path):
        """Save every recorded span to an uncompressed .npz file: `names`
        (span name by id) and, per traced rep k, the arrays `rep<k>_name`
        (id into `names`), `rep<k>_start_ns`, `rep<k>_end_ns`,
        `rep<k>_parent` (index within the rep, -1 for none) and
        `rep<k>_cell`.  Uncompressed, because compressing millions of
        spans takes longer than the run."""
        arrays = {"names": np.array(self.names)}
        for k, log in enumerate(self.logs):
            for field, dtype in (("name", np.int32), ("start", np.int64), ("end", np.int64),
                                 ("parent", np.int32), ("cell", np.int32)):
                key = f"rep{k}_{field}_ns" if field in ("start", "end") else f"rep{k}_{field}"
                arrays[key] = np.frombuffer(getattr(log, field), dtype=dtype)
        np.savez(path, **arrays)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


class RepSummary:
    """Per-name call counts, inclusive durations and self times of one rep."""

    def __init__(self, log, names):
        n = len(log)
        name = np.frombuffer(log.name, dtype=np.int32) if n else np.zeros(0, np.int32)
        parent = np.frombuffer(log.parent, dtype=np.int32) if n else np.zeros(0, np.int32)
        start = np.frombuffer(log.start, dtype=np.int64) if n else np.zeros(0, np.int64)
        end = np.frombuffer(log.end, dtype=np.int64) if n else np.zeros(0, np.int64)
        dur = (end - start).astype(float) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        self.spans = n
        self.counters = dict(log.counters)
        self.durations = {}
        self.self_s = {}
        for nid in np.unique(name):
            mask = name == nid
            self.durations[names[nid]] = dur[mask]
            self.self_s[names[nid]] = float(self_time[mask].sum())

    def matching(self, predicate):
        """Concatenated durations of every span name accepted by `predicate`."""
        parts = [d for key, d in self.durations.items() if predicate(key)]
        return np.concatenate(parts) if parts else np.zeros(0)

    def calls(self, predicate):
        return int(self.matching(predicate).size)

    def total_s(self, predicate):
        return float(self.matching(predicate).sum())


def is_name(full):
    return lambda key: key == full


def is_method(layer, method, cls=None):
    """Spans `<layer>.<Class>.<method>`, optionally of one class only."""
    def accept(key):
        parts = key.split(".")
        return (len(parts) == 3 and parts[0] == layer and parts[2] == method
                and (cls is None or parts[1] == cls))
    return accept


def is_class(layer, cls):
    return lambda key: key.startswith(f"{layer}.{cls}.")


def pct_us(samples, q):
    return float(np.percentile(samples, q)) * 1e6 if samples.size else 0.0


def layer_metrics(reps, run_s_traced):
    """Per-layer metrics over the traced reps.  Counts are those of one rep
    (every rep runs the same config); timing percentiles pool the samples of
    all reps; totals and self times are medians over reps."""
    first = reps[0]

    def pooled(predicate):
        return np.concatenate([rep.matching(predicate) for rep in reps])

    def med(values):
        return float(np.median(values))

    m = {}
    for solver in SOLVER_NAMES:
        name = f"solvers.{solver}.step"
        samples = pooled(is_name(name))
        m[f"solvers.{solver}.step_us_p50"] = pct_us(samples, 50)
        m[f"solvers.{solver}.step_us_p99"] = pct_us(samples, 99)
        m[f"solvers.{solver}.steps"] = first.calls(is_name(name))
    m["solvers.steps"] = first.calls(lambda key: key.startswith("solvers.") and key.endswith(".step"))
    m["solvers.run_self_s"] = med([rep.self_s.get("solvers.run", 0.0) for rep in reps])
    m["solvers.oracle_count"] = first.counters.get("solvers.oracle_count", 0)

    ev = is_name("problem.evaluate_objective")
    m["problem.evaluate_objective_us_p50"] = pct_us(pooled(ev), 50)
    m["problem.evaluate_objective_calls"] = first.calls(ev)
    m["problem.eval_share"] = med([rep.total_s(ev) / run_s for rep, run_s in zip(reps, run_s_traced)])
    for fname in ("primal_prox_step", "sample_outer_batch"):
        pred = is_name(f"problem.{fname}")
        m[f"problem.{fname}_us_p50"] = pct_us(pooled(pred), 50)
        m[f"problem.{fname}_calls"] = first.calls(pred)

    for method in ("stochastic_value", "accumulate_jtvp", "exact_value"):
        pred = is_method("instances", method)
        m[f"instances.{method}_calls"] = first.calls(pred)
        m[f"instances.{method}_us_p50"] = pct_us(pooled(pred), 50)
    aux = is_name("instances.aux_metrics")
    m["instances.aux_metrics_calls"] = first.calls(aux)
    m["instances.aux_metrics_us_p50"] = pct_us(pooled(aux), 50)
    m["instances.kernel_calls"] = first.calls(is_class("instances", "CoordinateNoiseKernel"))
    m["instances.rows_touched"] = first.counters.get("instances.rows_touched", 0)

    prox = is_method("outers", "prox_dual_quadratic")
    m["outers.prox_dual_calls"] = first.calls(prox)
    m["outers.prox_dual_us_p50"] = pct_us(pooled(prox), 50)
    m["outers.grad_calls"] = first.calls(is_method("outers", "grad"))
    value = is_method("outers", "value")
    m["outers.value_calls"] = first.calls(value)
    m["outers.value_us_p50"] = pct_us(pooled(value), 50)

    parse = is_name("datasets.parse_libsvm")
    m["datasets.parse_libsvm_calls"] = first.calls(parse)
    m["datasets.parse_libsvm_s"] = med([rep.total_s(parse) for rep in reps])
    m["datasets.rows_parsed"] = first.counters.get("datasets.rows_parsed", 0)

    m["harness.cell_build_calls"] = first.calls(is_name("harness.cell_build"))
    m["harness.emit_records_s"] = med([rep.total_s(is_name("harness.emit_records")) for rep in reps])
    m["harness.rows_emitted"] = first.counters.get("harness.rows_emitted", 0)
    m["harness.aggregate_s"] = med([rep.total_s(is_name("harness.aggregate")) for rep in reps])
    m["harness.sweep_rate_self_s"] = med([rep.self_s.get("harness.sweep_rate", 0.0) for rep in reps])
    m["cli.main_self_s"] = med([rep.self_s.get("cli.main", 0.0) for rep in reps])
    m["metrics.fit_rate_calls"] = first.calls(is_name("metrics.fit_rate"))
    return m

