"""The benchmark's three workloads.

Each workload derives its inputs from the workload seed in `setup`, makes
one repetition of its calls into fcco in `call`, and checks the outputs in
`check`.  A repetition always does the same amount of work, whatever the
seed, so its wall time can be compared across seeds.  `expected_counts`
gives the span counts the configuration implies, for the traced run's
self-check; `selftest` feeds corrupted copies of real outputs to `check`.

Import this module only after `fcco` itself, so that the benchmark's
set-up time measures fcco's import and not the benchmark's.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import shutil
import traceback
from contextlib import redirect_stdout
from io import StringIO

import numpy as np

import fcco.cli as cli
from fcco import datasets, harness, instances, solvers


@dataclasses.dataclass
class Checked:
    attempted: int
    failed: int
    notes: list


def _failure(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _tree_bytes(path):
    """Total size of the files under `path` (0 if it does not exist)."""
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _dirs, files in os.walk(path) for name in files)


def _records_per_run(T, eval_every):
    """Rows `solvers.run` records: t = 0, every multiple of eval_every, and T."""
    return 1 + T // eval_every + (1 if T % eval_every else 0)


class HardSweep:
    """`harness.sweep_rate` with acceptance 02a's shape, scaled to a few
    seconds: hard_smooth n=100, nu=0.6, the strongly convex preset at S=10,
    B=1, eval_every=25.  Evaluation (one outer `value` per component per
    record) dominates; the step runs on the vectorized kernel path."""

    name = "hard-sweep"
    N, NU, S, B = 100, 0.6, 10, 1
    EPSILONS = [8e-3, 4e-3, 2e-3]
    BUDGET = 2000
    EVAL_EVERY = 25
    SEEDS_PER_REP = 3
    SLOPE_BAND = (-1.3, -0.7)

    def setup(self, seed, tmp):
        self.seeds = [1000 * seed + k for k in range(1, self.SEEDS_PER_REP + 1)]
        self.config = harness.validate_config({
            "problem": {"builder": "hard_smooth",
                        "params": {"n": self.N, "nu": self.NU, "sigma": 1.0}},
            "solvers": [{"name": "alexr",
                         "params": {"preset": "strongly_convex", "S": self.S, "B": self.B}}],
            "seeds": self.seeds,
            "eval_every": self.EVAL_EVERY,
            "epsilons": self.EPSILONS,
            "budget": self.BUDGET,
        })
        self.out = os.path.join(tmp, self.name)

    def problems(self):
        return ()

    @property
    def cells(self):
        return len(self.EPSILONS) * len(self.seeds)

    def oracle_count(self, raw):
        """The config's count: the sweep report holds no oracle counts.  The
        traced run's self-check compares it with the records' counts."""
        return self.cells * self.BUDGET * 2 * self.S * self.B

    def call(self):
        try:
            return harness.sweep_rate(self.config, self.out)
        except Exception as exc:  # a failed sweep fails its cells; the run goes on
            return exc

    def check(self, report):
        """Every target converges within the budget and the fitted slope
        lies in acceptance 02a's band.  A target that misses fails its seed
        cells; a missing or out-of-band slope fails every cell."""
        if isinstance(report, Exception):
            return Checked(self.cells, self.cells, [_failure(report)])
        try:
            failed, notes = 0, []
            entries = report["entries"]
            if [e["epsilon"] for e in entries] != self.EPSILONS:
                return Checked(self.cells, self.cells, ["report lists other targets"])
            for entry in entries:
                if not entry["converged"] or not entry["iterations"]:
                    failed += len(self.seeds)
                    notes.append(f"target {entry['epsilon']} missed the budget")
            slope = (report.get("fit") or {}).get("slope")
            lo, hi = self.SLOPE_BAND
            if slope is None or not lo <= slope <= hi:
                notes.append(f"slope {slope} outside [{lo}, {hi}]")
                failed = self.cells
            return Checked(self.cells, failed, notes)
        except (KeyError, TypeError) as exc:
            return Checked(self.cells, self.cells, [f"malformed report: {_failure(exc)}"])

    def quality(self, report):
        if isinstance(report, Exception):
            return {}
        hits = [e["iterations"] or 0 for e in report["entries"]]
        return {"iters_to_target": (sum(hits), "count", f"sum of sweep hits {hits}"),
                "slope": ((report.get("fit") or {}).get("slope"), "1",
                          f"log-log fit, band {list(self.SLOPE_BAND)}")}

    def selftest(self, report):
        missed = copy.deepcopy(report)
        missed["entries"][0].update(converged=False, iterations=None)
        return [(self.check(missed), len(self.seeds)),
                (self.check(RuntimeError("sweep raised")), self.cells)]

    def expected_counts(self):
        runs = self.cells
        steps = runs * self.BUDGET
        evals = 2 * _records_per_run(self.BUDGET, self.EVAL_EVERY) * runs
        return {
            "solvers.steps": steps,
            "solvers.alexr.steps": steps,
            "solvers.oracle_count": self.oracle_count(None),
            "problem.evaluate_objective_calls": evals,
            "instances.exact_value_calls": evals * self.N,
            "outers.value_calls": evals * self.N,
            # kernel path: draw, value_noise, values at x and x_prev (theta > 0),
            # accumulate_grad; no per-block oracle calls
            "instances.kernel_calls": 5 * steps,
            "instances.stochastic_value_calls": 0,
            "instances.accumulate_jtvp_calls": 0,
            "outers.prox_dual_calls": steps,
            "instances.rows_touched": evals * self.N,
            "metrics.fit_rate_calls": 1,
            "harness.cell_build_calls": 1,
            "datasets.parse_libsvm_calls": 0,
        }

    def bytes_written(self, report):
        return _tree_bytes(self.out)

    def cleanup(self, report):
        shutil.rmtree(self.out, ignore_errors=True)


class GdroCompare:
    """Library `solvers.run` calls with acceptance 09's shape: CVaR group-robust
    training on build_synthetic_gdro(20, 10, 200, 0.5), alexr/sox/msvr/bsgd/
    sgd_uw at S=B=8 with acceptance 09's step sizes, eval_every=T.  The
    per-block oracle path does almost all the work."""

    name = "gdro-compare"
    S = B = 8
    T = 250
    SEEDS_PER_REP = 2
    SOLVERS = ("alexr", "sox", "msvr", "bsgd", "sgd_uw")
    PER_BLOCK = ("alexr", "sox", "msvr", "bsgd")

    def setup(self, seed, tmp):
        data = datasets.build_synthetic_gdro(20, 10, 200, 0.5, np.random.default_rng(seed))
        self.problem = instances.build_gdro(data, divergence="cvar", alpha=0.5, weight_decay=0.01)
        self.n_samples = data.n_samples
        self.seeds = [1000 * seed + k for k in range(1, self.SEEDS_PER_REP + 1)]

    def problems(self):
        return (self.problem,)

    def make(self, solver, seed):
        S, B, T = self.S, self.B, self.T
        if solver == "alexr":
            return solvers.AlexrConfig(eta=100.0, tau=9.0, theta=1.0, S=S, B=B, T=T, seed=seed)
        params = {"sox": dict(step=100.0, gamma=0.1, subgradient_fallback=True),
                  "msvr": dict(step=100.0, gamma=0.5),
                  "bsgd": dict(step=100.0),
                  "sgd_uw": dict(step=100.0)}[solver]
        return solvers.BaselineConfig(variant=solver, S=S, B=B, T=T, seed=seed, **params)

    @property
    def cells(self):
        return len(self.SOLVERS) * len(self.seeds)

    def oracle_count(self, results):
        return sum(rec.final_row.oracle_count for rec in results.values()
                   if not isinstance(rec, Exception))

    def call(self):
        results = {}
        for solver in self.SOLVERS:
            for seed in self.seeds:
                try:
                    results[solver, seed] = solvers.run(self.make(solver, seed), self.problem,
                                                        eval_every=self.T)
                except Exception as exc:  # a failed cell is counted, not fatal
                    results[solver, seed] = exc
        return results

    def _expected_oracles(self, solver):
        per_step = self.S * self.B if solver.startswith("sgd") else 2 * self.S * self.B
        return per_step * self.T

    def check(self, results):
        """Per cell: it ran, every recorded value is finite, and the oracle
        count is the one the config implies, so counts are equal across
        alexr, sox, msvr and bsgd.  Across cells, as in acceptance 09:
        ALEXR's seed-mean final objective_avg is at most that of sox, msvr
        and bsgd (+1e-9); if not, the ALEXR cells fail.

        The ordering depends on the horizon.  At this T=250 ALEXR leads by
        at least 0.012 on data seeds 1-40; at T=500 to T=5000 sox leads;
        acceptance 09 has ALEXR leading again at T=50k.  Changing T means
        checking the ordering again."""
        failed, notes = set(), []
        for key in ((s, seed) for s in self.SOLVERS for seed in self.seeds):
            rec = results.get(key)
            if rec is None or isinstance(rec, Exception):
                failed.add(key)
                notes.append(f"{key}: {'missing' if rec is None else _failure(rec)}")
                continue
            values = [v for row in rec.rows
                      for v in (row.objective, row.objective_avg, *row.extras.values())]
            if not (np.all(np.isfinite(values)) and np.all(np.isfinite(rec.x_avg))):
                failed.add(key)
                notes.append(f"{key}: non-finite value")
            elif rec.final_row.oracle_count != self._expected_oracles(key[0]):
                failed.add(key)
                notes.append(f"{key}: oracle count {rec.final_row.oracle_count}")
        means = self._final_means(results)
        for solver in self.PER_BLOCK[1:]:
            if solver in means and not means.get("alexr", math.inf) <= means[solver] + 1e-9:
                failed.update(("alexr", seed) for seed in self.seeds)
                notes.append(f"alexr {means.get('alexr')} above {solver} {means[solver]}")
        return Checked(self.cells, len(failed), notes)

    def _final_means(self, results):
        means = {}
        for solver in self.SOLVERS:
            finals = [results.get((solver, seed)) for seed in self.seeds]
            if all(rec is not None and not isinstance(rec, Exception) for rec in finals):
                means[solver] = float(np.mean([rec.final_row.objective_avg for rec in finals]))
        return means

    def quality(self, results):
        means = self._final_means(results)
        out = {}
        if "alexr" in means:
            out["final_objective"] = (means["alexr"], "1", "seed-mean final objective_avg of alexr")
            best = min((means[s], s) for s in self.PER_BLOCK if s != "alexr" and s in means)
            out["alexr_minus_best_baseline"] = (
                means["alexr"] - best[0], "1", f"best of sox/msvr/bsgd is {best[1]}")
        return out

    def selftest(self, results):
        nan_avg = dict(results)
        key = ("alexr", self.seeds[0])
        rec = copy.copy(results[key])
        rec.rows = rec.rows[:-1] + [dataclasses.replace(rec.rows[-1], objective_avg=math.nan)]
        nan_avg[key] = rec
        raised = dict(results)
        raised["sox", self.seeds[0]] = RuntimeError("cell raised")
        return [(self.check(nan_avg), 1), (self.check(raised), 1)]

    def expected_counts(self):
        seeds = len(self.seeds)
        runs = self.cells
        steps = self.T * seeds
        evals = 2 * _records_per_run(self.T, self.T) * runs
        # alexr (theta=1) and msvr evaluate each sampled block at x and x_prev
        stochastic = self.S * steps * (2 + 1 + 2 + 1)
        accumulate = self.S * steps * len(self.PER_BLOCK)
        aux = _records_per_run(self.T, self.T) * runs
        return {
            "solvers.steps": steps * len(self.SOLVERS),
            "solvers.oracle_count": seeds * sum(self._expected_oracles(s) for s in self.SOLVERS),
            **{f"solvers.{s}.steps": steps for s in self.SOLVERS},
            "problem.evaluate_objective_calls": evals,
            "instances.exact_value_calls": evals * self.problem.n,
            "outers.value_calls": evals * self.problem.n,
            "instances.stochastic_value_calls": stochastic,
            "instances.accumulate_jtvp_calls": accumulate,
            "instances.aux_metrics_calls": aux,
            "instances.kernel_calls": 0,
            "outers.prox_dual_calls": self.S * steps,
            "instances.rows_touched": (self.B * (stochastic + accumulate)
                                       + evals * self.n_samples + aux * self.n_samples),
            "metrics.fit_rate_calls": 0,
            "datasets.parse_libsvm_calls": 0,
        }

    def bytes_written(self, results):
        return 0

    def cleanup(self, results):
        pass


class PaucCli:
    """`fcco run` through `cli.main` on a pauc_libsvm config: a 4.8 MB LIBSVM
    file from build_synthetic_pauc(200, 4000, 50), an ALEXR grid over theta
    plus sox, two seeds, eval_every=250, CSV records.  The only workload that
    parses LIBSVM (once per cell plus once up front), rebuilds the problem
    per cell and writes records, aggregate and manifest."""

    name = "pauc-cli"
    N_POS, N_NEG, DIM = 200, 4000, 50
    S = B = 8
    T = 500
    EVAL_EVERY = 250
    THETAS = [0.0, 1.0]
    SEEDS_PER_REP = 2

    def setup(self, seed, tmp):
        rng = np.random.default_rng(seed)
        data = datasets.build_synthetic_pauc(self.N_POS, self.N_NEG, self.DIM, 1.0, 0.5, rng)
        self.data_path = os.path.join(tmp, "pauc.libsvm")
        feats = np.vstack([data.positives, data.negatives])
        labels = np.concatenate([np.ones(self.N_POS), -np.ones(self.N_NEG)])
        with open(self.data_path, "w", encoding="utf-8") as fh:
            datasets.dump_libsvm(feats, labels, fh)
        self.seeds = [1000 * seed + k for k in range(1, self.SEEDS_PER_REP + 1)]
        common = {"S": self.S, "B": self.B, "T": self.T}
        self.config = {
            "problem": {"builder": "pauc_libsvm", "params": {"path": self.data_path, "alpha": 0.5}},
            "solvers": [
                {"name": "alexr", "params": {"eta": 1000.0, "tau": 1.0, **common},
                 "grid": {"theta": self.THETAS}},
                {"name": "sox", "params": {"step": 1000.0, "gamma": 0.5,
                                           "subgradient_fallback": True, **common}},
            ],
            "seeds": self.seeds,
            "eval_every": self.EVAL_EVERY,
            "emit": "csv",
        }
        self.config_path = os.path.join(tmp, "pauc-config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)
        self.tmp = tmp
        self.labels = [f"alexr[theta={theta}]" for theta in self.THETAS] + ["sox"]
        self.rep = 0

    def problems(self):
        return ()

    @property
    def cells(self):
        return len(self.labels) * len(self.seeds)

    def oracle_count(self, raw):
        """The config's count; `check` compares it with every record file."""
        return self.cells * self.T * 2 * self.S * self.B

    def call(self):
        self.rep += 1
        out = os.path.join(self.tmp, f"pauc-out-{self.rep}")
        printed = StringIO()
        try:
            with redirect_stdout(printed):
                code = cli.main(["--out", out, "run", self.config_path])
        except Exception as exc:  # a crashed CLI fails every cell; the run goes on
            code = _failure(exc)
        return {"code": code, "out": out, "printed": printed.getvalue().strip()}

    def record_path(self, out, label, seed):
        return os.path.join(out, harness._cell_filename(label, seed, "csv"))

    def check(self, raw):
        """Exit code 0, the manifest path printed, and per cell a record file
        that round-trips through parse_records_csv with the expected rows,
        finite objectives and the config's oracle count."""
        if raw["code"] != 0:
            return Checked(self.cells, self.cells, [f"exit {raw['code']}"])
        notes = []
        if raw["printed"] != os.path.join(raw["out"], "manifest.json"):
            return Checked(self.cells, self.cells, [f"printed {raw['printed']!r}"])
        rows_expected = _records_per_run(self.T, self.EVAL_EVERY)
        failed = 0
        for label in self.labels:
            for seed in self.seeds:
                path = self.record_path(raw["out"], label, seed)
                try:
                    rows = harness.parse_records_csv(path)
                    ok = (len(rows) == rows_expected
                          and all(r["solver"] == label and r["seed"] == seed for r in rows)
                          and all(math.isfinite(r["objective"]) for r in rows)
                          and rows[-1]["oracle_count"] == self.T * 2 * self.S * self.B)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    ok = False
                    notes.append(f"{label} seed {seed}: {_failure(exc)}")
                if not ok:
                    failed += 1
                    notes.append(f"{label} seed {seed}: record file failed its check")
        return Checked(self.cells, failed, notes)

    def quality(self, raw):
        try:
            with open(os.path.join(raw["out"], "manifest.json"), encoding="utf-8") as fh:
                best = json.load(fh)["best_cell"]["alexr"]
            with open(os.path.join(raw["out"], "aggregate.csv"), encoding="utf-8") as fh:
                rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        except (OSError, ValueError, KeyError):
            return {}
        finals = [float(r[3]) for r in rows if r[0] == best]
        if not finals:
            return {}
        return {"final_objective": (finals[-1], "1",
                                    f"seed-mean final objective of best cell {best}")}

    def selftest(self, raw):
        copy_out = raw["out"] + "-selftest"
        shutil.copytree(raw["out"], copy_out)
        try:
            nan_path = self.record_path(copy_out, self.labels[0], self.seeds[0])
            with open(nan_path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            fields = lines[-1].split(",")
            fields[4] = "nan"
            with open(nan_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
            os.remove(self.record_path(copy_out, self.labels[-1], self.seeds[-1]))
            corrupted = dict(raw, out=copy_out,
                             printed=os.path.join(copy_out, "manifest.json"))
            return [(self.check(corrupted), 2), (self.check(dict(raw, code=2)), self.cells)]
        finally:
            shutil.rmtree(copy_out, ignore_errors=True)

    def expected_counts(self):
        runs = self.cells
        builds = 1 + runs
        seeds = len(self.seeds)
        steps = self.T * runs
        alexr_steps = self.T * len(self.THETAS) * seeds
        evals = 2 * _records_per_run(self.T, self.EVAL_EVERY) * runs
        # theta=0 evaluates a block once, theta=1 twice; sox once
        stochastic = self.S * self.T * seeds * (1 + 2 + 1)
        accumulate = self.S * steps
        return {
            "solvers.steps": steps,
            "solvers.alexr.steps": alexr_steps,
            "solvers.sox.steps": self.T * seeds,
            "solvers.oracle_count": self.oracle_count(None),
            "problem.evaluate_objective_calls": evals,
            "instances.exact_value_calls": evals * self.N_POS,
            "outers.value_calls": evals * self.N_POS,
            "instances.stochastic_value_calls": stochastic,
            "instances.accumulate_jtvp_calls": accumulate,
            "instances.kernel_calls": 0,
            "outers.prox_dual_calls": self.S * alexr_steps,
            "instances.rows_touched": (self.B * (stochastic + accumulate)
                                       + evals * self.N_POS * self.N_NEG),
            "datasets.parse_libsvm_calls": builds,
            "datasets.rows_parsed": builds * (self.N_POS + self.N_NEG),
            "harness.cell_build_calls": builds,
            "harness.rows_emitted": runs * _records_per_run(self.T, self.EVAL_EVERY),
            "metrics.fit_rate_calls": 0,
        }

    def bytes_written(self, raw):
        return _tree_bytes(raw["out"])

    def cleanup(self, raw):
        shutil.rmtree(raw["out"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (HardSweep, GdroCompare, PaucCli)}
