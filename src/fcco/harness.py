"""Experiment harness: declarative JSON configs, seeded multi-run execution,
record emission, and empirical-rate sweeps.

A config names a problem builder, a list of solvers, seeds, and an eval
cadence; `run_experiment` writes one record file per (solver, seed) cell, an
aggregate file of seed-mean/std curves keyed by oracle count, and a manifest
that reproduces the outputs byte-identically when re-run.  `sweep_rate`
re-derives per-target step sizes from a preset for each accuracy level,
measures iterations-to-target on the seed-averaged gap curve, and fits the
log-log slope.
"""

from __future__ import annotations

import csv
import inspect
import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import List, Optional

import numpy as np

from . import __version__
from .datasets import build_synthetic_gdro, build_synthetic_pauc, load_grouped_csv, load_libsvm, PaucDataset
from .errors import ConfigValidationError, FccoError, InvalidParameterError
from .instances import build_gdro, build_hard_nonsmooth, build_hard_smooth, build_pauc
from .metrics import fit_rate
from .solvers import (
    SOLVER_NAMES,
    AlexrConfig,
    BaselineConfig,
    check_preset_epsilon,
    convex_preset,
    run,
    strongly_convex_preset,
)

# The record format, declared once: each column's type in file order, and
# each `emit` value's file extension.
RECORD_SCHEMA = {"solver": str, "seed": int, "t": int, "oracle_count": int,
                 "objective": float, "gap": float, "wall_nanos": int}
EMIT_EXTENSIONS = {"csv": "csv", "json_lines": "jsonl"}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    problem: dict
    solvers: List[dict]
    seeds: List[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])
    eval_every: int = 100
    emit: str = "csv"
    epsilons: Optional[List[float]] = None
    budget: Optional[int] = None


_FIELDS = {f.name for f in fields(ExperimentConfig)}
# A manifest echoes its config and adds four keys, so it runs as a config.
CONFIG_KEYS = _FIELDS | {"version", "cells", "best_cell", "comparison_axis"}
_KIND_NAMES = {bool: "a boolean", int: "an integer", str: "a string", float: "a number"}


def _fail(path, msg):
    raise ConfigValidationError(path, msg)


def _is_kind(value, kind):
    """isinstance for config values, where a number (kind float) is an int or
    a float, and a bool is never an int or a number."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _check_keys(prefix, mapping, known):
    for key in mapping:
        if key not in known:
            _fail(f"{prefix}{key}", f"unknown key; expected one of {sorted(known)}")


def _check_params(prefix, mapping, declared, is_grid=False):
    """Reject keys that `declared` (name -> default) does not name, and
    values or grid entries of the wrong kind: a type declared in place of a
    default (a required parameter) or a bool, int or str default takes that
    type, and a float or None default takes a number."""
    _check_keys(prefix, mapping, declared)
    for key, value in mapping.items():
        default = declared[key]
        kind = default if isinstance(default, type) else next(
            (k for k in (bool, int, str) if isinstance(default, k)), float)
        for item in value if is_grid else (value,):
            if not _is_kind(item, kind):
                _fail(f"{prefix}{key}", f"expected {_KIND_NAMES[kind]}, got {item!r}")


def _check_required(prefix, present, declared):
    for key, default in declared.items():
        if isinstance(default, type) and key not in present:
            _fail(f"{prefix}{key}", "required parameter is missing")


def validate_config(raw):
    """Validate a raw config mapping; raises ConfigValidationError with the
    offending field path.  Parameter names, defaults and value kinds come
    from one declaration each: `BUILDER_PARAMS` for problems, and the
    keyword arguments of each solver's config or preset (`_solver_params`)."""
    if not isinstance(raw, dict):
        _fail("<root>", "config must be a mapping")
    _check_keys("", raw, CONFIG_KEYS)
    problem = raw.get("problem")
    if not isinstance(problem, dict) or "builder" not in problem:
        _fail("problem.builder", "missing problem builder")
    _check_keys("problem.", problem, ("builder", "params"))
    builder = problem["builder"]
    if not isinstance(builder, str) or builder not in PROBLEM_BUILDERS:
        _fail("problem.builder", f"unknown builder {builder!r}")
    solvers = raw.get("solvers")
    if not isinstance(solvers, list) or not solvers:
        _fail("solvers", "need at least one solver")
    for i, solver in enumerate(solvers):
        at = f"solvers[{i}]"
        if not isinstance(solver, dict) or "name" not in solver:
            _fail(f"{at}.name", "missing solver name")
        _check_keys(f"{at}.", solver, ("name", "label", "params", "grid"))
        name = solver["name"]
        if not isinstance(name, str) or name not in SOLVER_NAMES:
            _fail(f"{at}.name", f"unknown solver {name!r}")
        label = solver.get("label", name)
        if not isinstance(label, str):
            _fail(f"{at}.label", "label must be a string")
        # csv quotes a comma, quote or newline in a cell, but not a lone "\r"
        if not label or "\r" in label:
            _fail(f"{at}.label", "label must be nonempty and hold no carriage return")
        params = solver.get("params", {})
        if not isinstance(params, dict):
            _fail(f"{at}.params", "params must be a mapping")
        grid = solver.get("grid", {})
        if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
            _fail(f"{at}.grid", "grid must map parameter names to lists")
        preset = None
        if name == "alexr":
            # the preset decides which keys are valid, so a grid cannot vary it
            preset = params.get("preset")
            if preset is not None and (not isinstance(preset, str) or preset not in ALEXR_PRESETS):
                _fail(f"{at}.params.preset", f"unknown preset {preset!r}")
            params = {k: v for k, v in params.items() if k != "preset"}
        declared = _solver_params(name, preset)
        _check_params(f"{at}.params.", params, declared)
        _check_params(f"{at}.grid.", grid, declared, is_grid=True)
        _check_required(f"{at}.params.", params.keys() | grid.keys(), declared)
    problem_params = problem.get("params", {})
    if not isinstance(problem_params, dict):
        _fail("problem.params", "params must be a mapping")
    _check_params("problem.params.", problem_params, BUILDER_PARAMS[builder])
    _check_required("problem.params.", problem_params, BUILDER_PARAMS[builder])
    config = ExperimentConfig(**{k: raw[k] for k in raw.keys() & _FIELDS})
    seeds = config.seeds
    if (not isinstance(seeds, list) or not seeds
            or not all(_is_kind(s, int) and s >= 0 for s in seeds)):
        _fail("seeds", "need a nonempty list of non-negative integer seeds")
    repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
    if repeated is not None:
        _fail("seeds", f"seed {repeated} is repeated; each seed runs once")
    if not _is_kind(config.eval_every, int) or config.eval_every < 1:
        _fail("eval_every", "must be a positive integer")
    if not isinstance(config.emit, str) or config.emit not in EMIT_EXTENSIONS:
        _fail("emit", f"unknown format {config.emit!r}")
    epsilons = config.epsilons
    if epsilons is not None:
        if (not isinstance(epsilons, list) or len(epsilons) < 1
                or any(not _is_kind(e, float) or not 0 < e < math.inf for e in epsilons)
                or any(b >= a for a, b in zip(epsilons, epsilons[1:]))):
            _fail("epsilons", "need a strictly decreasing list of positive finite targets")
    if config.budget is not None and (not _is_kind(config.budget, int) or config.budget < 0):
        _fail("budget", "must be a nonnegative integer")
    # two cells writing the same record file, or two entries with the same
    # best_cell key, would overwrite each other
    owner, key_owner = {}, {}
    for i, solver in enumerate(solvers):
        for label, name, params in expand_solver_grid(solver):
            fname = _cell_filename(label, seeds[0], config.emit)
            if fname in owner:
                _fail(f"solvers[{i}]", f"cell {label!r} writes the same record files as a cell"
                                       f" of solvers[{owner[fname]}]; give them distinct labels")
            owner[fname] = i
            _check_targets(f"solvers[{i}]", solver, params, epsilons)
            # build the cell so its config's own range checks fail here; a
            # strongly convex preset needs the built problem's n and mu
            if not (name == "alexr" and params.get("preset") == "strongly_convex"):
                try:
                    make_solver(name, params, seeds[0], None, label=label)
                except InvalidParameterError as exc:
                    _fail(f"solvers[{i}]", f"cell {label!r}: {exc}")
        key = solver.get("label", solver["name"])
        if key in key_owner:
            _fail(f"solvers[{i}]", f"best_cell key {key!r} is also that of solvers[{key_owner[key]}]"
                                   "; give the entries distinct labels")
        key_owner[key] = i
    # NaN fails every comparison: a NaN that no range check above refused fails here
    for prefix, mapping in [("problem.params.", problem_params)] + [
            (f"solvers[{i}].{part}.", solver.get(part, {}))
            for i, solver in enumerate(solvers) for part in ("params", "grid")]:
        for key, value in mapping.items():
            if any(v != v for v in (value if isinstance(value, list) else [value])):
                _fail(f"{prefix}{key}", "expected a number, got nan")
    return config


def _check_targets(at, entry, params, epsilons):
    """Check each target accuracy an ALEXR preset cell can receive: its own
    epsilon (or the fill) and each of a sweep's `epsilons`."""
    preset = params.get("preset") if entry["name"] == "alexr" else None
    cell = {**_solver_params("alexr", preset), **params}
    margin = cell.get("theta_margin")  # only the strongly convex preset has one
    # a NaN margin is left to validate_config's NaN pass, which names it
    if preset is None or (margin is not None and (cell["theta"] is not None or margin != margin)):
        return  # no target, or one that an explicit theta leaves unread
    where = "grid" if "epsilon" in entry.get("grid", {}) else "params"
    for path, eps in [(f"{at}.{where}.epsilon", cell["epsilon"])] + [
            ("epsilons", e) for e in epsilons or ()]:
        try:
            check_preset_epsilon(eps, margin)
        except FccoError as exc:
            _fail(path, str(exc))


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return validate_config(json.load(fh))


# ---------------------------------------------------------------------------
# problem builders
# ---------------------------------------------------------------------------


# Every builder's parameters and defaults; `str` marks the required file path.
# Builders receive these defaults merged with the config's params.
_GDRO = {"divergence": "cvar", "alpha": 0.5, "lam": 1.0, "weight_decay": 0.0,
         "risk_bound": 4.0, "f_star": None}
_PAUC = {"alpha": 0.5, "surrogate": "squared_hinge", "weight_decay": 0.0, "f_star": None}
BUILDER_PARAMS = {
    "hard_smooth": {"n": 100, "nu": 0.3, "sigma": 1.0},
    "hard_nonsmooth": {"n": 50, "nu": 0.5, "beta": 1.0, "alpha_reg": 1.0, "sigma": 1.0},
    "gdro_synthetic": {"data_seed": 0, "n_groups": 20, "d": 10, "samples_per_group": 200,
                       "heterogeneity": 0.5, **_GDRO},
    "gdro_csv": {"path": str, "group_column": "group", "label_column": "label",
                 "min_group_size": 1, **_GDRO},
    "pauc_synthetic": {"data_seed": 0, "n_pos": 50, "n_neg": 200, "d": 10, "separation": 1.0,
                       **_PAUC},
    "pauc_libsvm": {"path": str, **_PAUC},
}


def _gdro(data, p):
    problem = build_gdro(data, divergence=p["divergence"], alpha=p["alpha"], lam=p["lam"],
                         weight_decay=p["weight_decay"], risk_bound=p["risk_bound"])
    problem.f_star = p["f_star"]
    return problem


def _build_gdro_synthetic(p):
    rng = np.random.default_rng(p["data_seed"])
    return _gdro(build_synthetic_gdro(n_groups=p["n_groups"], d=p["d"],
                                      samples_per_group=p["samples_per_group"],
                                      heterogeneity=p["heterogeneity"], rng=rng), p)


def _build_gdro_csv(p):
    with open(p["path"], "r", encoding="utf-8") as fh:
        data = load_grouped_csv(fh, group_column=p["group_column"], label_column=p["label_column"],
                                min_group_size=p["min_group_size"])
    return _gdro(data, p)


def _pauc(data, p):
    problem = build_pauc(data, surrogate=p["surrogate"], weight_decay=p["weight_decay"])
    problem.f_star = p["f_star"]
    return problem


def _build_pauc_synthetic(p):
    rng = np.random.default_rng(p["data_seed"])
    return _pauc(build_synthetic_pauc(n_pos=p["n_pos"], n_neg=p["n_neg"], d=p["d"],
                                      separation=p["separation"], alpha=p["alpha"], rng=rng), p)


def _build_pauc_libsvm(p):
    feats, labels = load_libsvm(p["path"])
    return _pauc(PaucDataset(positives=feats[labels > 0], negatives=feats[labels <= 0],
                             alpha=p["alpha"]), p)


PROBLEM_BUILDERS = {
    # the hard-instance params are the library builders' keyword arguments
    "hard_smooth": lambda p: build_hard_smooth(**p),
    "hard_nonsmooth": lambda p: build_hard_nonsmooth(**p),
    "gdro_synthetic": _build_gdro_synthetic,
    "gdro_csv": _build_gdro_csv,
    "pauc_synthetic": _build_pauc_synthetic,
    "pauc_libsvm": _build_pauc_libsvm,
}


def _build(spec):
    """Build a config's problem from its params merged over the builder's defaults."""
    return PROBLEM_BUILDERS[spec["builder"]]({**BUILDER_PARAMS[spec["builder"]],
                                              **spec.get("params", {})})


# ALEXR's library callable per preset (None: explicit step sizes).
ALEXR_PRESETS = {None: AlexrConfig, "strongly_convex": strongly_convex_preset,
                 "convex": convex_preset}
# What make_solver supplies where the callable has no default, per preset and
# for BaselineConfig ("baseline"); mu=None stands for the problem's.
# The harness sets seed, label, n and variant itself: they are not config keys.
_SIZES = {"S": 1, "B": 1, "T": 0}
_FILLS = {None: {**_SIZES, "theta": 0.0},
          "strongly_convex": {**_SIZES, "mu": None, "epsilon": 1e-3},
          "convex": {**_SIZES, "epsilon": 1e-2}, "baseline": {"step": 1.0}}
_HARNESS_SET = {"seed", "label", "n", "variant"}


def _solver_factory(name, preset):
    if name != "alexr":
        return BaselineConfig, _FILLS["baseline"]
    return ALEXR_PRESETS[preset], _FILLS[preset]


def _solver_params(name, preset=None):
    """A solver entry's parameters mapped to their defaults: the keyword
    arguments of its config or preset, minus the ones the harness sets, with
    make_solver's fills where the library has no default, and `float`
    where neither has one (a required number)."""
    factory, fills = _solver_factory(name, preset)
    return {key: fills.get(key, float if p.default is p.empty else p.default)
            for key, p in inspect.signature(factory).parameters.items()
            if key not in _HARNESS_SET}


def make_solver(name, params, seed, problem, label=None):
    """Instantiate a solver config from an entry's params plus the fills the
    library leaves without a default; `alexr` params may name a preset whose
    step sizes are derived from the problem and a target accuracy."""
    params = dict(params)
    preset = params.pop("preset", None) if name == "alexr" else None
    factory, fills = _solver_factory(name, preset)
    kwargs = {**fills, **params, "seed": seed, "label": label or name}
    if name != "alexr":
        kwargs["variant"] = name
    elif preset == "strongly_convex":
        kwargs["n"] = problem.n
        if kwargs["mu"] is None:
            kwargs["mu"] = problem.mu
    return factory(**kwargs)


def expand_solver_grid(entry):
    """Expand an optional per-solver parameter grid into labeled cells
    (best-final-objective selection happens in the aggregate)."""
    grid = entry.get("grid")
    base = dict(entry.get("params", {}))
    name = entry["name"]
    if not grid:
        return [(entry.get("label", name), name, base)]
    cells = []
    keys = sorted(grid)
    for combo in itertools.product(*(grid[k] for k in keys)):
        params = dict(base)
        tag = ",".join(f"{k}={v}" for k, v in zip(keys, combo))
        params.update(dict(zip(keys, combo)))
        cells.append((f"{entry.get('label', name)}[{tag}]", name, params))
    return cells


# ---------------------------------------------------------------------------
# record emission
# ---------------------------------------------------------------------------


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _fmt_json(value):
    if isinstance(value, str) or (isinstance(value, float) and not math.isfinite(value)):
        return json.dumps(value)
    return _fmt(value)


def emit_records(records, path, fmt="csv", deterministic_wall=False):
    """Write records as CSV or JSON-lines with 17-significant-digit floats
    (round-trip exact).  With deterministic_wall, the hardware-dependent
    wall column is zeroed so re-runs are byte-identical."""
    if fmt not in EMIT_EXTENSIONS:
        raise ConfigValidationError("emit", f"unknown format {fmt!r}")
    rows = [(rec.solver, rec.seed, row.t, row.oracle_count, row.objective, row.gap,
             0 if deterministic_wall else row.wall_nanos)
            for rec in records for row in rec.rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RECORD_SCHEMA)
            writer.writerows([_fmt(v) for v in row] for row in rows)
        else:
            for row in rows:
                parts = ", ".join(f'"{k}": {_fmt_json(v)}' for k, v in zip(RECORD_SCHEMA, row))
                fh.write("{" + parts + "}\n")
    return path


def parse_records_csv(path):
    """Round-trip reader for emitted CSV: one dict per row, each value typed
    by RECORD_SCHEMA.  A row wider or narrower than the header raises
    ValueError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return [{key: RECORD_SCHEMA[key](value) for key, value in zip(header, row, strict=True)}
            for row in rows]


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------


def _cell_filename(label, seed, fmt):
    safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in label)
    return f"{safe}__seed{seed}.{EMIT_EXTENSIONS[fmt]}"


def _run_seed(problem, label, name, params, seed, eval_every):
    """One seed of one solver cell on a built problem."""
    return run(make_solver(name, params, seed, problem, label=label), problem, eval_every)


def run_experiment(config, out_dir):
    """Execute every (solver cell, seed) pair in this process and write
    records, an aggregate of seed-mean/std curves keyed by oracle count, and
    a manifest.

    Files are written only after every cell has run, and partial files are
    removed on failure.  `epsilons` and `budget` are sweep-rate's, and a
    config that sets them is refused before anything is built."""
    for name in ("epsilons", "budget"):
        if getattr(config, name) is not None:
            raise ConfigValidationError(name, "run does not read it; only sweep-rate does")
    # One build up front, before out_dir exists, and one per cell: the traced
    # benchmark pins these 1 + cells x seeds builds (ROADMAP item 2).
    _build(config.problem)
    os.makedirs(out_dir, exist_ok=True)
    cells = [(entry, cell) for entry in config.solvers for cell in expand_solver_grid(entry)]
    jobs = [(label, name, params, seed)
            for _entry, (label, name, params) in cells for seed in config.seeds]
    results = [_run_seed(_build(config.problem), *job, config.eval_every) for job in jobs]
    written = []
    try:
        by_cell = {}
        for (label, _name, _params, seed), rec in zip(jobs, results):
            fname = os.path.join(out_dir, _cell_filename(label, seed, config.emit))
            emit_records([rec], fname, config.emit, deterministic_wall=True)
            written.append(fname)
            by_cell.setdefault(label, []).append(rec)

        agg_path = os.path.join(out_dir, "aggregate.csv")
        _write_aggregate(by_cell, agg_path)
        written.append(agg_path)

        manifest = {
            "version": __version__,
            "problem": config.problem,
            "solvers": config.solvers,
            "seeds": config.seeds,
            "eval_every": config.eval_every,
            "emit": config.emit,
            "cells": [label for _entry, (label, _n, _p) in cells],
            "best_cell": _best_cells(by_cell, cells),
            "comparison_axis": "oracle_count",
        }
        man_path = os.path.join(out_dir, "manifest.json")
        with open(man_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(man_path)
        return man_path
    except Exception:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        raise


def _best_cells(by_cell, cells):
    """Best-final-objective cell of each solver entry's grid (the grid
    selection rule), keyed by the entry's label, which defaults to the
    solver name.  `cells` holds (entry, cell) pairs."""
    scored = {}
    for entry, (label, _name, _params) in cells:
        recs = by_cell[label]
        finals = [rec.rows[-1].objective for rec in recs]
        if all(math.isnan(v) for v in finals):
            finals = [rec.rows[-1].gap for rec in recs]
        key = entry.get("label", entry["name"])
        scored.setdefault(key, []).append((float(np.nanmean(finals)), label))
    return {key: min(entry_scores)[1] for key, entry_scores in scored.items()}


def _write_aggregate(by_cell, path):
    extra_keys = sorted({
        k for recs in by_cell.values() for rec in recs for k in rec.rows[0].extras
    })
    cols = ["solver", "t", "oracle_count", "objective_mean", "objective_std",
            "gap_mean", "gap_std"] + [f"{k}_mean" for k in extra_keys]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for label in sorted(by_cell):
            recs = by_cell[label]
            n_rows = min(len(rec.rows) for rec in recs)
            for j in range(n_rows):
                rows = [rec.rows[j] for rec in recs]
                objs = np.array([r.objective for r in rows])
                gaps = np.array([r.gap for r in rows])
                vals = [label, rows[0].t, rows[0].oracle_count,
                        float(np.mean(objs)), float(np.std(objs)),
                        float(np.mean(gaps)), float(np.std(gaps))]
                for k in extra_keys:
                    vals.append(float(np.mean([r.extras.get(k, math.nan) for r in rows])))
                writer.writerow([_fmt(v) for v in vals])


# ---------------------------------------------------------------------------
# rate sweeps
# ---------------------------------------------------------------------------


def iterations_to_reach(records, epsilon):
    """First recorded iteration at which the seed-averaged gap curve is at
    or below epsilon, or None."""
    n_rows = min(len(rec.rows) for rec in records)
    for j in range(n_rows):
        mean_gap = float(np.mean([rec.rows[j].gap for rec in records]))
        if mean_gap <= epsilon:
            return records[0].rows[j].t
    return None


def sweep_rate(config, out_dir):
    """For each target accuracy, re-derive the preset step sizes, run all
    seeds, measure iterations-to-target on the seed-mean gap curve, and fit
    the log-log slope over the converged targets.  The config holds one
    solver entry without a grid."""
    if not config.epsilons:
        raise ConfigValidationError("epsilons", "sweep-rate needs an epsilon list")
    if len(config.solvers) > 1:
        raise ConfigValidationError("solvers", "sweep-rate runs one solver entry, "
                                               f"got {len(config.solvers)}")
    entry = config.solvers[0]
    if entry.get("grid"):
        raise ConfigValidationError("solvers[0].grid", "sweep-rate takes no grid")
    problem = _build(config.problem)
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for eps in config.epsilons:
        params = dict(entry.get("params", {}))
        if params.get("preset") is not None:  # only the presets take a target
            params["epsilon"] = eps
        if config.budget is not None:
            params["T"] = config.budget
        records = [_run_seed(problem, entry.get("label", entry["name"]), entry["name"], params,
                             seed, config.eval_every) for seed in config.seeds]
        hit = iterations_to_reach(records, eps)
        entries.append({"epsilon": eps, "iterations": hit, "converged": hit is not None})

    converged = [(e["epsilon"], e["iterations"]) for e in entries if e["converged"]]
    report = {"entries": entries, "fit": None, "error": None}
    try:
        fit = fit_rate(converged)
        report["fit"] = {"slope": fit.slope, "intercept": fit.intercept,
                         "r_squared": fit.r_squared, "points": fit.points}
    except FccoError as exc:
        report["error"] = str(exc)
    path = os.path.join(out_dir, "rate_report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report
