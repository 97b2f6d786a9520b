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

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import __version__
from .datasets import build_synthetic_gdro, build_synthetic_pauc, load_grouped_csv, load_libsvm, PaucDataset
from .errors import ConfigValidationError, DataError, FccoError
from .instances import build_gdro, build_hard_nonsmooth, build_hard_smooth, build_pauc
from .metrics import fit_rate
from .solvers import (
    AlexrConfig,
    BaselineConfig,
    convex_preset,
    run,
    strongly_convex_preset,
)

RECORD_FIELDS = ("solver", "seed", "t", "oracle_count", "objective", "gap", "wall_nanos")


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


def _fail(path, msg):
    raise ConfigValidationError(path, msg)


def _check_keys(path, mapping, known):
    for key in mapping:
        if key not in known:
            _fail(f"{path}.{key}", f"unknown parameter; expected one of {sorted(known)}")


def _check_required(path, present, required):
    for key in required:
        if key not in present:
            _fail(f"{path}.{key}", "required parameter is missing")


def validate_config(raw):
    """Validate a raw config mapping; raises ConfigValidationError with the
    offending field path."""
    if not isinstance(raw, dict):
        _fail("<root>", "config must be a mapping")
    problem = raw.get("problem")
    if not isinstance(problem, dict) or "builder" not in problem:
        _fail("problem.builder", "missing problem builder")
    if problem["builder"] not in PROBLEM_BUILDERS:
        _fail("problem.builder", f"unknown builder {problem['builder']!r}")
    solvers = raw.get("solvers")
    if not isinstance(solvers, list) or not solvers:
        _fail("solvers", "need at least one solver")
    for i, solver in enumerate(solvers):
        if not isinstance(solver, dict) or "name" not in solver:
            _fail(f"solvers[{i}].name", "missing solver name")
        if solver["name"] not in SOLVER_NAMES:
            _fail(f"solvers[{i}].name", f"unknown solver {solver['name']!r}")
        params = solver.get("params", {})
        if not isinstance(params, dict):
            _fail(f"solvers[{i}].params", "params must be a mapping")
        grid = solver.get("grid", {})
        if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
            _fail(f"solvers[{i}].grid", "grid must map parameter names to lists")
        if solver["name"] == "alexr":
            preset = params.get("preset")
            if preset not in ALEXR_PARAMS:
                _fail(f"solvers[{i}].params.preset", f"unknown preset {preset!r}")
            known = ALEXR_PARAMS[preset] | {"preset"}
        else:
            known = BASELINE_PARAMS
        for part, keys in (("params", params), ("grid", grid)):
            _check_keys(f"solvers[{i}].{part}", keys, known)
        # explicit step sizes have no default; planted sweeps build no solver
        if (solver["name"] == "alexr" and params.get("preset") is None
                and problem["builder"] != "planted"):
            _check_required(f"solvers[{i}].params", params.keys() | grid.keys(), ("eta", "tau"))
    problem_params = problem.get("params", {})
    if not isinstance(problem_params, dict):
        _fail("problem.params", "params must be a mapping")
    _check_keys("problem.params", problem_params, BUILDER_PARAMS[problem["builder"]])
    _check_required("problem.params", problem_params, BUILDER_REQUIRED.get(problem["builder"], ()))
    seeds = raw.get("seeds", [1, 2, 3, 4, 5])
    if not isinstance(seeds, list) or not seeds or not all(isinstance(s, int) for s in seeds):
        _fail("seeds", "need a nonempty list of integer seeds")
    eval_every = raw.get("eval_every", 100)
    if not isinstance(eval_every, int) or eval_every < 1:
        _fail("eval_every", "must be a positive integer")
    emit = raw.get("emit", "csv")
    if emit not in ("csv", "json_lines"):
        _fail("emit", f"unknown format {emit!r}")
    epsilons = raw.get("epsilons")
    if epsilons is not None:
        if (not isinstance(epsilons, list) or len(epsilons) < 1
                or any(not isinstance(e, (int, float)) or e <= 0 for e in epsilons)
                or any(b >= a for a, b in zip(epsilons, epsilons[1:]))):
            _fail("epsilons", "need a strictly decreasing list of positive targets")
    budget = raw.get("budget")
    if budget is not None and (not isinstance(budget, int) or budget < 0):
        _fail("budget", "must be a nonnegative integer")
    return ExperimentConfig(problem=problem, solvers=solvers, seeds=seeds,
                            eval_every=eval_every, emit=emit,
                            epsilons=epsilons, budget=budget)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return validate_config(json.load(fh))


# ---------------------------------------------------------------------------
# problem builders
# ---------------------------------------------------------------------------


@dataclass
class BuiltProblem:
    problem: object
    f_star: Optional[float] = None
    x_star: Optional[np.ndarray] = None
    mu: float = 0.0


def _build_hard_smooth(params):
    inst = build_hard_smooth(n=params.get("n", 100), nu=params.get("nu", 0.3),
                             sigma=params.get("sigma", 1.0))
    return BuiltProblem(inst.problem, f_star=inst.f_star, x_star=inst.x_star, mu=inst.mu)


def _build_hard_nonsmooth(params):
    inst = build_hard_nonsmooth(
        n=params.get("n", 50), nu=params.get("nu", 0.5), beta=params.get("beta", 1.0),
        alpha_reg=params.get("alpha_reg", 1.0), sigma=params.get("sigma", 1.0))
    return BuiltProblem(inst.problem, f_star=inst.f_star, x_star=inst.x_star, mu=inst.mu)


def _build_gdro_synthetic(params):
    rng = np.random.default_rng(params.get("data_seed", 0))
    data = build_synthetic_gdro(
        n_groups=params.get("n_groups", 20), d=params.get("d", 10),
        samples_per_group=params.get("samples_per_group", 200),
        heterogeneity=params.get("heterogeneity", 0.5), rng=rng)
    problem = build_gdro(
        data, divergence=params.get("divergence", "cvar"),
        alpha=params.get("alpha", 0.5), lam=params.get("lam", 1.0),
        weight_decay=params.get("weight_decay", 0.0),
        risk_bound=params.get("risk_bound", 4.0))
    return BuiltProblem(problem, f_star=params.get("f_star"))


def _build_gdro_csv(params):
    with open(params["path"], "r", encoding="utf-8") as fh:
        data = load_grouped_csv(fh, group_column=params.get("group_column", "group"),
                                label_column=params.get("label_column", "label"),
                                min_group_size=params.get("min_group_size", 1))
    problem = build_gdro(
        data, divergence=params.get("divergence", "cvar"),
        alpha=params.get("alpha", 0.5), lam=params.get("lam", 1.0),
        weight_decay=params.get("weight_decay", 0.0),
        risk_bound=params.get("risk_bound", 4.0))
    return BuiltProblem(problem, f_star=params.get("f_star"))


def _build_pauc_synthetic(params):
    rng = np.random.default_rng(params.get("data_seed", 0))
    data = build_synthetic_pauc(
        n_pos=params.get("n_pos", 50), n_neg=params.get("n_neg", 200),
        d=params.get("d", 10), separation=params.get("separation", 1.0),
        alpha=params.get("alpha", 0.5), rng=rng)
    problem = build_pauc(data, surrogate=params.get("surrogate", "squared_hinge"),
                         weight_decay=params.get("weight_decay", 0.0))
    return BuiltProblem(problem, f_star=params.get("f_star"))


def _build_pauc_libsvm(params):
    feats, labels = load_libsvm(params["path"])
    try:
        feats = np.asarray(feats.todense())
    except (ValueError, MemoryError) as exc:
        raise DataError(f"{params['path']}: cannot densify the {feats.shape[0]}x{feats.shape[1]} "
                        f"LIBSVM matrix ({exc})") from exc
    data = PaucDataset(positives=feats[labels > 0], negatives=feats[labels <= 0],
                       alpha=params.get("alpha", 0.5))
    problem = build_pauc(data, surrogate=params.get("surrogate", "squared_hinge"),
                         weight_decay=params.get("weight_decay", 0.0))
    return BuiltProblem(problem, f_star=params.get("f_star"))


def _build_planted(params):
    return BuiltProblem(problem=None)


PROBLEM_BUILDERS = {
    "hard_smooth": _build_hard_smooth,
    "hard_nonsmooth": _build_hard_nonsmooth,
    "gdro_synthetic": _build_gdro_synthetic,
    "gdro_csv": _build_gdro_csv,
    "pauc_synthetic": _build_pauc_synthetic,
    "pauc_libsvm": _build_pauc_libsvm,
    "planted": _build_planted,
}

# Parameter names each builder reads (the planted pseudo-problem's are read
# by sweep_rate); validate_config rejects any other key.
_GDRO = {"divergence", "alpha", "lam", "weight_decay", "risk_bound", "f_star"}
_PAUC = {"alpha", "surrogate", "weight_decay", "f_star"}
BUILDER_PARAMS = {
    "hard_smooth": {"n", "nu", "sigma"},
    "hard_nonsmooth": {"n", "nu", "beta", "alpha_reg", "sigma"},
    "gdro_synthetic": _GDRO | {"data_seed", "n_groups", "d", "samples_per_group", "heterogeneity"},
    "gdro_csv": _GDRO | {"path", "group_column", "label_column", "min_group_size"},
    "pauc_synthetic": _PAUC | {"data_seed", "n_pos", "n_neg", "d", "separation"},
    "pauc_libsvm": _PAUC | {"path"},
    "planted": {"coeff", "power"},
}
# Parameters without a default: the builder reads them as params[key].
BUILDER_REQUIRED = {"gdro_csv": ("path",), "pauc_libsvm": ("path",)}

SOLVER_NAMES = ("alexr", "bsgd", "sox", "msvr", "sgd_erm", "sgd_uw")

# Parameter names make_solver reads: per alexr preset (None = explicit step
# sizes), and for every baseline.
_BATCHING = {"S", "B", "T"}
ALEXR_PARAMS = {
    None: _BATCHING | {"eta", "tau", "theta", "psi_mode", "averaging"},
    "strongly_convex": _BATCHING | {"mu", "epsilon", "theta", "theta_margin", "psi_mode"},
    "convex": _BATCHING | {"epsilon", "theta", "eta_coeff", "tau_coeff", "psi_mode"},
}
BASELINE_PARAMS = _BATCHING | {"step", "gamma", "averaging", "subgradient_fallback"}


def make_solver(name, params, seed, built, label=None):
    """Instantiate a solver config; `alexr` params may name a preset whose
    step sizes are derived from the problem and a target accuracy."""
    params = dict(params)
    label = label or name
    if name == "alexr":
        preset = params.pop("preset", None)
        common = dict(S=params.get("S", 1), B=params.get("B", 1), T=params.get("T", 0),
                      seed=seed, label=label)
        if preset == "strongly_convex":
            return strongly_convex_preset(
                mu=params.get("mu", built.mu), n=built.problem.n,
                epsilon=params.get("epsilon", 1e-3),
                theta=params.get("theta"), theta_margin=params.get("theta_margin", 0.5),
                psi_mode=params.get("psi_mode", "quadratic"), **common)
        if preset == "convex":
            return convex_preset(
                epsilon=params.get("epsilon", 1e-2), theta=params.get("theta", 0.0),
                eta_coeff=params.get("eta_coeff", 1.0), tau_coeff=params.get("tau_coeff", 1.0),
                psi_mode=params.get("psi_mode", "quadratic"), **common)
        if preset is not None:
            raise ConfigValidationError("solvers[].params.preset", f"unknown preset {preset!r}")
        return AlexrConfig(
            eta=params["eta"], tau=params["tau"], theta=params.get("theta", 0.0),
            psi_mode=params.get("psi_mode", "quadratic"),
            averaging=params.get("averaging", "uniform"), **common)
    return BaselineConfig(
        variant=name, step=params.get("step", 1.0), gamma=params.get("gamma", 0.9),
        S=params.get("S", 1), B=params.get("B", 1), T=params.get("T", 0),
        seed=seed, averaging=params.get("averaging", "last"),
        subgradient_fallback=params.get("subgradient_fallback", False), label=label)


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
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return f"{value:.17g}"
    return str(value)


def emit_records(records, path, fmt="csv", deterministic_wall=False):
    """Write records as CSV or JSON-lines with 17-significant-digit floats
    (round-trip exact).  With deterministic_wall, the hardware-dependent
    wall column is zeroed so re-runs are byte-identical."""
    rows = []
    for rec in records:
        for row in rec.rows:
            rows.append({
                "solver": rec.solver, "seed": rec.seed, "t": row.t,
                "oracle_count": row.oracle_count, "objective": row.objective,
                "gap": row.gap,
                "wall_nanos": 0 if deterministic_wall else row.wall_nanos,
            })
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            fh.write(",".join(RECORD_FIELDS) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row[k]) for k in RECORD_FIELDS) + "\n")
        elif fmt == "json_lines":
            for row in rows:
                parts = ", ".join(f'"{k}": {_fmt_json(row[k])}' for k in RECORD_FIELDS)
                fh.write("{" + parts + "}\n")
        else:
            raise ConfigValidationError("emit", f"unknown format {fmt!r}")
    return path


def parse_records_csv(path):
    """Round-trip reader for emitted CSV."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            vals = line.strip().split(",")
            row = dict(zip(header, vals))
            for key in ("t", "oracle_count", "wall_nanos"):
                row[key] = int(row[key])
            for key in ("objective", "gap"):
                row[key] = float(row[key])
            row["seed"] = int(row["seed"])
            out.append(row)
    return out


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------


def _cell_filename(label, seed, fmt):
    safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in label)
    ext = "csv" if fmt == "csv" else "jsonl"
    return f"{safe}__seed{seed}.{ext}"


def _run_cell(problem_spec, label, name, params, seed, eval_every):
    """Worker entry: rebuilds the problem so cells ship no live objects."""
    built = PROBLEM_BUILDERS[problem_spec["builder"]](problem_spec.get("params", {}))
    solver = make_solver(name, params, seed, built, label=label)
    return run(solver, built.problem, eval_every,
               f_star=built.f_star, x_star=built.x_star)


def run_experiment(config, out_dir, workers=1):
    """Execute every (solver cell, seed) pair and write records, an
    aggregate of seed-mean/std curves keyed by oracle count, and a manifest.

    Cells run concurrently up to `workers` processes; each worker rebuilds
    its problem from the config, and files are written only after all cells
    complete, so outputs are deterministic regardless of scheduling.
    Partial files are removed on failure."""
    os.makedirs(out_dir, exist_ok=True)
    built = PROBLEM_BUILDERS[config.problem["builder"]](config.problem.get("params", {}))
    if built.problem is None:
        raise ConfigValidationError("problem.builder", "planted mode is only valid for sweep-rate")
    written = []
    try:
        cells = []
        for entry in config.solvers:
            cells.extend(expand_solver_grid(entry))
        jobs = [(label, name, params, seed)
                for label, name, params in cells for seed in config.seeds]
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_run_cell, config.problem, label, name, params,
                                seed, config.eval_every)
                    for label, name, params, seed in jobs
                ]
                results = [f.result() for f in futures]
        else:
            results = [
                _run_cell(config.problem, label, name, params, seed, config.eval_every)
                for label, name, params, seed in jobs
            ]
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
            "cells": [label for label, _n, _p in cells],
            "best_cell": _best_cells(by_cell, config.solvers),
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


def _best_cells(by_cell, solver_entries):
    """Best-final-objective cell per solver name (the grid selection rule)."""
    best = {}
    for entry in solver_entries:
        name = entry["name"]
        candidates = [(label, recs) for label, recs in by_cell.items()
                      if label == entry.get("label", name) or label.startswith(f"{entry.get('label', name)}[")]
        scored = []
        for label, recs in candidates:
            finals = [rec.rows[-1].objective for rec in recs]
            if all(math.isnan(v) for v in finals):
                finals = [rec.rows[-1].gap for rec in recs]
            scored.append((float(np.nanmean(finals)), label))
        if scored:
            best[name] = min(scored)[1]
    return best


def _write_aggregate(by_cell, path):
    extra_keys = sorted({
        k for recs in by_cell.values() for rec in recs for k in rec.rows[0].extras
    })
    cols = ["solver", "t", "oracle_count", "objective_mean", "objective_std",
            "gap_mean", "gap_std"] + [f"{k}_mean" for k in extra_keys]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(cols) + "\n")
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
                fh.write(",".join(_fmt(v) for v in vals) + "\n")


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
    the log-log slope over the converged targets."""
    os.makedirs(out_dir, exist_ok=True)
    if not config.epsilons:
        raise ConfigValidationError("epsilons", "sweep-rate needs an epsilon list")
    entry = config.solvers[0]
    builder = config.problem["builder"]
    entries = []
    if builder == "planted":
        params = config.problem.get("params", {})
        coeff = params.get("coeff", 1.0)
        power = params.get("power", 2.0)
        for eps in config.epsilons:
            entries.append({"epsilon": eps, "iterations": coeff * eps ** (-power),
                            "converged": True})
    else:
        built = PROBLEM_BUILDERS[builder](config.problem.get("params", {}))
        for eps in config.epsilons:
            params = dict(entry.get("params", {}))
            params["epsilon"] = eps
            if config.budget is not None:
                params["T"] = config.budget
            records = []
            for seed in config.seeds:
                solver = make_solver(entry["name"], params, seed, built,
                                     label=entry.get("label", entry["name"]))
                records.append(run(solver, built.problem, config.eval_every,
                                   f_star=built.f_star, x_star=built.x_star))
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
