"""Harness: config validation, record emission, experiments, rate sweeps, CLI."""

import csv
import json
import math
import os
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcco import harness

from fcco.cli import main as cli_main
from fcco.errors import ConfigValidationError, InvalidParameterError
from fcco.harness import (
    ExperimentConfig,
    emit_records,
    iterations_to_reach,
    make_solver,
    parse_records_csv,
    run_experiment,
    sweep_rate,
    validate_config,
)
from fcco.instances import build_hard_smooth
from fcco.metrics import fit_rate
from fcco.solvers import AlexrConfig, RunRecord, RunRow, run

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

BASE_CONFIG = {
    "problem": {"builder": "hard_smooth", "params": {"n": 6, "nu": 0.3, "sigma": 1.0}},
    "solvers": [
        {"name": "alexr", "params": {"eta": 0.5, "tau": 1.0, "theta": 1.0,
                                     "S": 2, "B": 1, "T": 40}},
        {"name": "bsgd", "params": {"step": 0.5, "S": 2, "B": 1, "T": 40}},
    ],
    "seeds": [1, 2, 3],
    "eval_every": 10,
    "emit": "csv",
}


# --- config validation ------------------------------------------------------


def test_validate_config_accepts_base():
    cfg = validate_config(BASE_CONFIG)
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.seeds == [1, 2, 3]


def test_validate_config_unknown_solver_names_field():
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["solvers"][1]["name"] = "sgdx"
    with pytest.raises(ConfigValidationError) as exc:
        validate_config(bad)
    assert exc.value.field == "solvers[1].name"


def test_validate_config_unknown_builder():
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["problem"]["builder"] = "mystery"
    with pytest.raises(ConfigValidationError) as exc:
        validate_config(bad)
    assert exc.value.field == "problem.builder"


@pytest.mark.parametrize("edit, field", [
    (lambda c: c["solvers"][1]["params"].update(stepp=3.0), "solvers[1].params.stepp"),
    (lambda c: c["solvers"][1]["params"].update(gama=0.1), "solvers[1].params.gama"),
    (lambda c: c["solvers"][0].update(grid={"etaa": [0.5, 1.0]}), "solvers[0].grid.etaa"),
    # preset-only keys are typos for explicit step sizes, and vice versa
    (lambda c: c["solvers"][0]["params"].update(eta_coeff=2.0), "solvers[0].params.eta_coeff"),
    (lambda c: c["solvers"][0]["params"].update(preset="convexx"), "solvers[0].params.preset"),
    (lambda c: c["problem"]["params"].update(nn=5), "problem.params.nn"),
])
def test_validate_config_rejects_unknown_parameter_keys(edit, field):
    bad = json.loads(json.dumps(BASE_CONFIG))
    edit(bad)
    with pytest.raises(ConfigValidationError) as exc:
        validate_config(bad)
    assert exc.value.field == field


@pytest.mark.parametrize("edit, field", [
    (lambda c: c.update(problem={"builder": "pauc_libsvm", "params": {"alpha": 0.5}}),
     "problem.params.path"),
    (lambda c: c.update(problem={"builder": "gdro_csv"}), "problem.params.path"),
    (lambda c: c["solvers"][0]["params"].pop("eta"), "solvers[0].params.eta"),
    (lambda c: c["solvers"][0]["params"].pop("tau"), "solvers[0].params.tau"),
])
def test_validate_config_rejects_missing_required_keys(tmp_path, capsys, edit, field):
    # keys the run reads without a default fail at validation, not as a
    # KeyError once the run has started
    bad = json.loads(json.dumps(BASE_CONFIG))
    edit(bad)
    with pytest.raises(ConfigValidationError) as exc:
        validate_config(bad)
    assert exc.value.field == field
    assert cli_main(["--out", str(tmp_path), "validate", write_config(tmp_path, bad)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}")


def test_validate_config_takes_required_keys_from_the_grid():
    config = json.loads(json.dumps(BASE_CONFIG))
    config["solvers"][0]["params"].pop("eta")
    config["solvers"][0]["grid"] = {"eta": [0.5, 1.0]}
    validate_config(config)


def test_validate_config_accepts_every_key_make_solver_reads():
    config = json.loads(json.dumps(BASE_CONFIG))
    config["solvers"] = [
        {"name": "alexr", "params": {"preset": "strongly_convex", "mu": 0.1, "epsilon": 1e-3,
                                     "theta_margin": 0.5, "psi_mode": "quadratic", "S": 2}},
        {"name": "alexr", "label": "alexr-convex",
         "params": {"preset": "convex", "eta_coeff": 1.0, "tau_coeff": 1.0},
         "grid": {"theta": [0.0, 1.0]}},
        {"name": "sox", "params": {"step": 1.0, "gamma": 0.5, "averaging": "last",
                                   "subgradient_fallback": True, "T": 3}},
    ]
    validate_config(config)


def test_validate_config_bad_epsilons():
    for epsilons in ([0.01, 0.02], [math.nan], [math.inf, 0.1], [0.1, math.nan]):
        bad = json.loads(json.dumps(BASE_CONFIG))
        bad["epsilons"] = epsilons
        with pytest.raises(ConfigValidationError):
            validate_config(bad)


def validation_error(config):
    with pytest.raises(ConfigValidationError) as exc:
        validate_config(config)
    return exc.value


def edited(edit):
    config = json.loads(json.dumps(BASE_CONFIG))
    edit(config)
    return config


@pytest.mark.parametrize("edit, field", [
    (lambda c: c.update(seed=[1]), "seed"),
    (lambda c: c.update(eval_evry=5), "eval_evry"),
    (lambda c: c.update(budgett=10), "budgett"),
    (lambda c: c["solvers"][0].update(lable="a"), "solvers[0].lable"),
    (lambda c: c["solvers"][1].update(gird={"step": [1.0]}), "solvers[1].gird"),
    (lambda c: c["problem"].update(parms={"n": 4}), "problem.parms"),
])
def test_validate_config_rejects_unknown_keys_at_every_level(tmp_path, capsys, edit, field):
    assert validation_error(edited(edit)).field == field
    assert cli_main(["--out", str(tmp_path), "validate", write_config(tmp_path, edited(edit))]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}: unknown key")


def test_cli_runs_a_manifest_as_its_config(tmp_path, capsys):
    first = tmp_path / "first"
    assert cli_main(["--out", str(first), "run", write_config(tmp_path, BASE_CONFIG)]) == 0
    second = tmp_path / "second"
    assert cli_main(["--out", str(second), "run", str(first / "manifest.json")]) == 0
    assert sorted(os.listdir(first)) == sorted(os.listdir(second))
    for name in sorted(os.listdir(first)):
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("solvers, field", [
    # two unlabeled entries of one solver would write alexr__seed1.csv twice
    ([{"name": "alexr", "params": {"eta": 0.5, "tau": 1.0}},
      {"name": "alexr", "params": {"eta": 2.0, "tau": 1.0}}], "solvers[1]"),
    # labels that differ only in characters the file name replaces
    ([{"name": "bsgd", "label": "a b"}, {"name": "sox", "label": "a_b"}], "solvers[1]"),
    # a grid that repeats a value repeats its cell
    ([{"name": "sox", "grid": {"step": [1.0, 1.0]}}], "solvers[0]"),
    # a label equal to another entry's grid cell
    ([{"name": "sox", "grid": {"step": [1.0]}}, {"name": "bsgd", "label": "sox[step=1.0]"}],
     "solvers[1]"),
])
def test_validate_config_rejects_colliding_cell_labels(solvers, field):
    config = dict(BASE_CONFIG, solvers=solvers)
    err = validation_error(config)
    assert err.field == field
    assert "same record files" in str(err)


def test_validate_config_accepts_distinct_labels():
    config = dict(BASE_CONFIG, solvers=[
        {"name": "alexr", "params": {"eta": 0.5, "tau": 1.0}},
        {"name": "alexr", "label": "alexr-slow", "params": {"eta": 2.0, "tau": 1.0}},
        {"name": "alexr", "label": "alexr-tau", "params": {"eta": 0.5},
         "grid": {"tau": [1.0, 2.0]}},
    ])
    validate_config(config)


@pytest.mark.parametrize("solvers, field", [
    # distinct cells, but both entries would report best_cell["alexr"]
    ([{"name": "alexr", "params": {"tau": 1.0}, "grid": {"eta": [0.5, 8.0]}},
      {"name": "alexr", "params": {"eta": 0.5}, "grid": {"tau": [1.0, 2.0]}}], "solvers[1]"),
    ([{"name": "sox", "label": "a", "grid": {"step": [1.0]}},
      {"name": "bsgd", "label": "a", "grid": {"step": [2.0]}}], "solvers[1]"),
])
def test_validate_config_rejects_colliding_best_cell_keys(tmp_path, capsys, solvers, field):
    config = dict(BASE_CONFIG, solvers=solvers)
    err = validation_error(config)
    assert err.field == field
    assert "best_cell key" in str(err) and "distinct labels" in str(err)
    assert cli_main(["--out", str(tmp_path), "validate", write_config(tmp_path, config)]) == 1


@pytest.mark.parametrize("edit, field, kind", [
    (lambda c: c["solvers"][0]["params"].update(T="4"), "solvers[0].params.T", "an integer"),
    (lambda c: c["solvers"][0]["params"].update(eta="0.5"), "solvers[0].params.eta", "a number"),
    (lambda c: c["problem"]["params"].update(n="6"), "problem.params.n", "an integer"),
    (lambda c: c["solvers"][1]["params"].update(S=2.5), "solvers[1].params.S", "an integer"),
    # a bool is neither an int nor a number
    (lambda c: c["solvers"][0]["params"].update(B=True), "solvers[0].params.B", "an integer"),
    (lambda c: c["solvers"][1]["params"].update(step=False), "solvers[1].params.step", "a number"),
    (lambda c: c["solvers"][1]["params"].update(subgradient_fallback=1),
     "solvers[1].params.subgradient_fallback", "a boolean"),
    (lambda c: c["solvers"][0]["params"].update(psi_mode=2), "solvers[0].params.psi_mode",
     "a string"),
    (lambda c: c["solvers"][0].update(grid={"theta": [0.0, "1"]}), "solvers[0].grid.theta",
     "a number"),
    (lambda c: c.update(problem={"builder": "gdro_csv", "params": {"path": 3}}),
     "problem.params.path", "a string"),
    (lambda c: c["problem"]["params"].update(nu=None), "problem.params.nu", "a number"),
    (lambda c: c["solvers"][0].update(label=7), "solvers[0].label", "a string"),
    (lambda c: c.update(eval_every=True), "eval_every", "a positive integer"),
    # np.random.default_rng refuses a negative seed once the run has started
    (lambda c: c.update(seeds=[1, -1]), "seeds", "non-negative integer"),
    # a repeated seed would run its cells twice and count them as two seeds
    (lambda c: c.update(seeds=[1, 2, 1]), "seeds", "seed 1 is repeated"),
    # an empty label would name the record file "__seed1.csv" while its
    # solver column says the solver's name
    (lambda c: c["solvers"][0].update(label=""), "solvers[0].label", "nonempty"),
    (lambda c: c["solvers"][0].update(label="a\rb"), "solvers[0].label", "carriage return"),
    # NaN fails every range comparison, so it must fail as a value
    (lambda c: c.update(problem={"builder": "gdro_synthetic",
                                 "params": {"weight_decay": math.nan}}),
     "problem.params.weight_decay", "got nan"),
    (lambda c: c["problem"]["params"].update(nu=math.nan), "problem.params.nu", "got nan"),
    (lambda c: c["solvers"][0].update(params={"preset": "strongly_convex", "mu": math.nan}),
     "solvers[0].params.mu", "got nan"),
    (lambda c: c["solvers"][0].update(grid={"theta_margin": [0.5, math.nan]},
                                      params={"preset": "strongly_convex", "theta": 0.5}),
     "solvers[0].grid.theta_margin", "got nan"),
    # with theta derived from it, a NaN margin used to fail as a bad epsilon
    (lambda c: c["solvers"][0].update(params={"preset": "strongly_convex",
                                              "theta_margin": math.nan}),
     "solvers[0].params.theta_margin", "got nan"),
    # where a cell's own range check reads the value, that check names it
    (lambda c: c["solvers"][0]["params"].update(eta=math.nan), "solvers[0]",
     "cell 'alexr': eta and tau must be positive"),
    (lambda c: c["solvers"][1]["params"].update(step=math.nan), "solvers[1]",
     "cell 'bsgd': step must be positive"),
    (lambda c: c["solvers"][0].update(grid={"tau": [1.0, math.nan]}), "solvers[0]",
     "cell 'alexr[tau=nan]': eta and tau must be positive"),
])
def test_validate_config_rejects_wrong_typed_values(tmp_path, capsys, edit, field, kind):
    # values of the wrong kind fail at validation with exit 1, not as a
    # TypeError traceback once the run has started
    err = validation_error(edited(edit))
    assert err.field == field
    assert kind in str(err)
    path = write_config(tmp_path, edited(edit))
    assert cli_main(["--out", str(tmp_path), "validate", path]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}")
    assert cli_main(["--out", str(tmp_path / "out"), "run", path]) == 1


def test_validate_config_accepts_ints_for_numbers():
    config = edited(lambda c: c["solvers"][0]["params"].update(eta=1, theta=1))
    config["problem"]["params"]["sigma"] = 1
    validate_config(config)


# The config surface: every builder's and solver's parameter names, and the
# ones without a default.  A signature edit that changes them shows here.
BUILDER_SURFACE = {
    "hard_smooth": ({"n", "nu", "sigma"}, set()),
    "hard_nonsmooth": ({"n", "nu", "beta", "alpha_reg", "sigma"}, set()),
    "gdro_synthetic": ({"divergence", "alpha", "lam", "weight_decay", "risk_bound", "f_star",
                        "data_seed", "n_groups", "d", "samples_per_group", "heterogeneity"}, set()),
    "gdro_csv": ({"divergence", "alpha", "lam", "weight_decay", "risk_bound", "f_star",
                  "path", "group_column", "label_column", "min_group_size"}, {"path"}),
    "pauc_synthetic": ({"alpha", "surrogate", "weight_decay", "f_star",
                        "data_seed", "n_pos", "n_neg", "d", "separation"}, set()),
    "pauc_libsvm": ({"alpha", "surrogate", "weight_decay", "f_star", "path"}, {"path"}),
}
SOLVER_SURFACE = {
    ("alexr", None): ({"S", "B", "T", "eta", "tau", "theta", "psi_mode", "averaging"},
                      {"eta", "tau"}),
    ("alexr", "strongly_convex"): ({"S", "B", "T", "mu", "epsilon", "theta", "theta_margin",
                                    "psi_mode"}, set()),
    ("alexr", "convex"): ({"S", "B", "T", "epsilon", "theta", "eta_coeff", "tau_coeff",
                           "psi_mode"}, set()),
    **{(name, None): ({"S", "B", "T", "step", "gamma", "averaging", "subgradient_fallback"},
                      set()) for name in ("bsgd", "sox", "msvr", "sgd_erm", "sgd_uw")},
}


def required_keys(declared):
    # a type declared in place of a default marks a required parameter
    return {key for key, default in declared.items() if isinstance(default, type)}


def test_config_surface_is_pinned():
    assert set(harness.PROBLEM_BUILDERS) == set(BUILDER_SURFACE) == set(harness.BUILDER_PARAMS)
    for builder, (known, required) in BUILDER_SURFACE.items():
        declared = harness.BUILDER_PARAMS[builder]
        assert (set(declared), required_keys(declared)) == (known, required), builder
    assert {name for name, _preset in SOLVER_SURFACE} == set(harness.SOLVER_NAMES)
    assert {preset for _name, preset in SOLVER_SURFACE} == set(harness.ALEXR_PRESETS)
    for (name, preset), (known, required) in SOLVER_SURFACE.items():
        declared = harness._solver_params(name, preset)
        assert (set(declared), required_keys(declared)) == (known, required), (name, preset)


def test_sweep_rate_accepts_solvers_without_a_target(tmp_path):
    # only the presets take `epsilon`; other solvers rerun the same config
    for entry in ({"name": "alexr", "params": {"eta": 0.5, "tau": 1.0, "S": 2}},
                  {"name": "sox", "params": {"step": 0.5, "S": 2}}):
        config = validate_config({
            "problem": {"builder": "hard_smooth", "params": {"n": 6}},
            "solvers": [entry], "seeds": [1], "eval_every": 10,
            "epsilons": [1.0, 0.5, 0.25], "budget": 40,
        })
        report = sweep_rate(config, tmp_path / entry["name"])
        assert len({e["iterations"] for e in report["entries"]}) == 1


def test_readme_configs_validate():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks
    for block in blocks:
        validate_config(json.loads(block))


# --- record emission ----------------------------------------------------------


def make_records(T=20):
    inst = build_hard_smooth(5, 0.3, 1.0)
    cfg = AlexrConfig(eta=0.5, tau=1.0, theta=1.0, S=2, B=1, T=T, seed=3, label="alexr")
    return [run(cfg, inst, eval_every=5)]


def test_emit_empty_records_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_records([], path, "csv")
    assert path.read_text() == "solver,seed,t,oracle_count,objective,gap,wall_nanos\n"


def test_emit_csv_round_trip_bit_exact(tmp_path):
    records = make_records()
    path = tmp_path / "rec.csv"
    emit_records(records, path, "csv")
    parsed = parse_records_csv(path)
    rows = records[0].rows
    assert len(parsed) == len(rows)
    for got, row in zip(parsed, rows):
        assert got["objective"] == row.objective  # 17 digits round-trip exactly
        assert got["gap"] == row.gap
        assert got["t"] == row.t
        assert got["oracle_count"] == row.oracle_count


def test_emit_json_lines_format(tmp_path):
    records = make_records()
    path = tmp_path / "rec.jsonl"
    emit_records(records, path, "json_lines")
    lines = path.read_text().splitlines()
    assert len(lines) == len(records[0].rows)
    for line, row in zip(lines, records[0].rows):
        obj = json.loads(line)
        assert set(obj) == {"solver", "seed", "t", "oracle_count", "objective",
                            "gap", "wall_nanos"}
        assert obj["objective"] == row.objective
    assert not lines[-1].endswith(",")
    assert path.read_text().endswith("\n")


def _record(solver, seed, objectives):
    rows = [RunRow(t=t, oracle_count=2 * t, objective=v, objective_avg=v, gap=-v,
                   dist_sq=0.0, dual_norm=0.0, wall_nanos=t) for t, v in enumerate(objectives)]
    return RunRecord(solver=solver, seed=seed, rows=rows,
                     x_last=np.zeros(1), x_avg=np.zeros(1))


def _bits(value):
    return np.float64(value).view(np.int64)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
def test_parse_records_csv_round_trips_every_float_bit(tmp_path_factory, objectives):
    path = tmp_path_factory.mktemp("records") / "rec.csv"
    emit_records([_record("alexr[eta=0.5,tau=1.0]", 3, objectives)], path, "csv")
    parsed = parse_records_csv(path)
    assert [_bits(r["objective"]) for r in parsed] == [_bits(v) for v in objectives]
    assert [_bits(r["gap"]) for r in parsed] == [_bits(-v) for v in objectives]
    assert {r["solver"] for r in parsed} == {"alexr[eta=0.5,tau=1.0]"}


def test_parse_records_csv_reads_nan_and_rejects_ragged_rows(tmp_path):
    path = tmp_path / "rec.csv"
    emit_records([_record("alexr", 1, [math.nan, 1.0])], path, "csv")
    assert math.isnan(parse_records_csv(path)[0]["objective"])
    lines = path.read_text().splitlines()
    for ragged in (lines[1] + ",7", lines[1].rsplit(",", 1)[0]):
        path.write_text("\n".join([lines[0], ragged]) + "\n")
        with pytest.raises(ValueError):
            parse_records_csv(path)


def test_emit_json_lines_writes_a_numpy_integer_seed(tmp_path):
    path = tmp_path / "rec.jsonl"
    emit_records([_record("alexr", np.int64(7), [math.inf, 0.25])], path, "json_lines")
    lines = path.read_text().splitlines()
    assert lines[0] == ('{"solver": "alexr", "seed": 7, "t": 0, "oracle_count": 0, '
                        '"objective": Infinity, "gap": -Infinity, "wall_nanos": 0}')
    assert [json.loads(line)["seed"] for line in lines] == [7, 7]


# --- experiments ----------------------------------------------------------------


def test_run_experiment_file_counts(tmp_path):
    config = validate_config(BASE_CONFIG)
    out = tmp_path / "exp"
    run_experiment(config, out)
    names = sorted(os.listdir(out))
    record_files = [n for n in names if "__seed" in n]
    assert len(record_files) == 2 * 3  # solvers x seeds
    assert "aggregate.csv" in names
    assert "manifest.json" in names


def test_run_experiment_rerun_byte_identical(tmp_path):
    config = validate_config(BASE_CONFIG)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_experiment(config, out1)
    run_experiment(config, out2)
    for name in sorted(os.listdir(out1)):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_experiment_manifest_round_trip(tmp_path):
    config = validate_config(BASE_CONFIG)
    out1 = tmp_path / "a"
    man_path = run_experiment(config, out1)
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    # re-run from the manifest alone
    config2 = validate_config({k: manifest[k] for k in
                               ("problem", "solvers", "seeds", "eval_every", "emit")})
    out2 = tmp_path / "b"
    run_experiment(config2, out2)
    for name in sorted(os.listdir(out1)):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert manifest["comparison_axis"] == "oracle_count"


def test_run_experiment_grid_selection(tmp_path):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["solvers"] = [
        {"name": "alexr", "grid": {"eta": [0.5, 2.0]},
         "params": {"tau": 1.0, "theta": 1.0, "S": 2, "B": 1, "T": 30}},
    ]
    out = tmp_path / "grid"
    run_experiment(validate_config(config), out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["cells"]) == 2
    assert manifest["best_cell"]["alexr"] in manifest["cells"]


def test_run_writes_valid_csv_for_two_key_grids_and_quoted_labels(tmp_path, capsys):
    # a two-key grid's label holds a comma, and a label may hold a quote: csv
    # quotes both, so every row is as wide as its header and reads back
    common = {"theta": 1.0, "S": 2, "B": 1, "T": 20}
    config = dict(BASE_CONFIG, seeds=[1, 2], solvers=[
        {"name": "alexr", "grid": {"eta": [0.5, 2.0], "tau": [1.0, 2.0]}, "params": common},
        {"name": "bsgd", "label": 'say "hi", bsgd', "params": {"step": 0.5, "S": 2, "T": 20}},
    ])
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert cli_main(["--out", str(out), "run", path]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "alexr[eta=0.5,tau=1.0]" in manifest["cells"]
    assert 'say "hi", bsgd' in manifest["cells"]
    for name in os.listdir(out):
        if name.endswith(".csv"):
            with open(out / name, encoding="utf-8", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows and all(len(row) == len(header) for row in rows), name
    with open(out / "aggregate.csv", encoding="utf-8", newline="") as fh:
        aggregate_cells = {row["solver"] for row in csv.DictReader(fh)}
    assert aggregate_cells == set(manifest["cells"])
    for label in manifest["cells"]:
        for seed in config["seeds"]:
            rows = parse_records_csv(out / harness._cell_filename(label, seed, "csv"))
            assert len(rows) == 3 and all(len(r) == 7 for r in rows)
            assert {(r["solver"], r["seed"]) for r in rows} == {(label, seed)}


def test_run_experiment_best_cell_per_labelled_entry(tmp_path):
    # two alexr entries keep one best cell each, chosen from their own cells
    # only: "a" must not pool the bsgd entry labelled "a[slow]"
    common = {"tau": 1.0, "theta": 1.0, "S": 2, "B": 1, "T": 30}
    config = dict(BASE_CONFIG, solvers=[
        {"name": "alexr", "label": "a", "params": dict(common, eta=0.5)},
        {"name": "alexr", "label": "b", "grid": {"eta": [0.5, 2.0, 8.0]}, "params": common},
        {"name": "bsgd", "label": "a[slow]", "params": {"step": 0.5, "S": 2, "B": 1, "T": 30}},
    ])
    out = tmp_path / "labelled"
    run_experiment(validate_config(config), out)
    manifest = json.loads((out / "manifest.json").read_text())
    finals = {}
    for label in manifest["cells"]:
        rows = [parse_records_csv(out / harness._cell_filename(label, seed, "csv"))[-1]
                for seed in config["seeds"]]
        finals[label] = sum(r["objective"] for r in rows) / len(rows)
    b_cells = [f"b[eta={eta}]" for eta in (0.5, 2.0, 8.0)]
    assert set(manifest["best_cell"]) == {"a", "b", "a[slow]"}
    assert manifest["best_cell"]["a"] == "a"
    assert manifest["best_cell"]["a[slow]"] == "a[slow]"
    assert manifest["best_cell"]["b"] == min(b_cells, key=finals.get)


@pytest.mark.parametrize("epsilon", [0, 0.0, -1e-3, math.nan, math.inf])
def test_convex_preset_rejects_epsilon_that_is_not_positive_and_finite(tmp_path, capsys,
                                                                       epsilon):
    params = {"preset": "convex", "epsilon": epsilon, "S": 2, "B": 1, "T": 5}
    with pytest.raises(InvalidParameterError, match="epsilon"):
        make_solver("alexr", params, 1, build_hard_smooth(6, 0.3, 1.0))
    # validation runs the preset's own check, so neither command starts a run
    path = write_config(tmp_path, dict(BASE_CONFIG, solvers=[{"name": "alexr", "params": params}]))
    for command in ("validate", "run"):
        assert cli_main(["--out", str(tmp_path / "out"), command, path]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: solvers[0].params.epsilon: epsilon must be positive and finite")


@pytest.mark.parametrize("edit, field", [
    (lambda c: c["solvers"][0].update(grid={"epsilon": [0.1, 0.0]}), "solvers[0].grid.epsilon"),
    # theta = 1 - theta_margin * epsilon must stay in (0, 1)
    (lambda c: c["solvers"][0].update(params={"preset": "strongly_convex", "epsilon": 4.0}),
     "solvers[0].params.epsilon"),
    (lambda c: c.update(solvers=[{"name": "alexr", "params": {"preset": "strongly_convex"}}],
                        epsilons=[3.0, 0.1]), "epsilons"),
])
def test_validate_config_checks_every_preset_target(tmp_path, capsys, edit, field):
    config = edited(lambda c: c.update(solvers=[{"name": "alexr", "params": {"preset": "convex"}}],
                                       epsilons=[0.1, 0.05]))
    validate_config(config)
    edit(config)
    assert validation_error(config).field == field
    assert cli_main(["--out", str(tmp_path), "validate", write_config(tmp_path, config)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}: epsilon")


@pytest.mark.parametrize("epsilon", [0.0, -1.0, 5.0, math.nan])
def test_strongly_convex_preset_names_epsilon(epsilon):
    # theta is derived from epsilon, so the message names what the config set
    params = {"preset": "strongly_convex", "epsilon": epsilon, "S": 2}
    with pytest.raises(InvalidParameterError, match="^epsilon"):
        make_solver("alexr", params, 1, build_hard_smooth(6, 0.3, 1.0))
    # an explicit theta leaves epsilon unread
    make_solver("alexr", dict(params, theta=0.5), 1, build_hard_smooth(6, 0.3, 1.0))


def _baseline(c, name):
    c["solvers"][1] = {"name": name, "params": {"step": 0.5, "S": 2, "T": 40}}
    return c["solvers"][1]


@pytest.mark.parametrize("edit, at, message", [
    (lambda c: c["solvers"][0]["params"].update(eta=-1.0), "solvers[0]: cell 'alexr'",
     "eta and tau must be positive"),
    (lambda c: c["solvers"][0]["params"].update(tau=0.0), "solvers[0]: cell 'alexr'",
     "eta and tau must be positive"),
    (lambda c: c["solvers"][0]["params"].update(theta=1.5), "solvers[0]: cell 'alexr'",
     "theta must lie in [0, 1]"),
    (lambda c: c["solvers"][0]["params"].update(S=0), "solvers[0]: cell 'alexr'",
     "S, B must be >= 1 and T >= 0"),
    (lambda c: c["solvers"][1]["params"].update(B=0), "solvers[1]: cell 'bsgd'",
     "S, B must be >= 1 and T >= 0"),
    (lambda c: _baseline(c, "sox")["params"].update(gamma=0.0), "solvers[1]: cell 'sox'",
     "gamma must lie in (0, 1]"),
    (lambda c: c["solvers"][0]["params"].update(psi_mode="mirror"), "solvers[0]: cell 'alexr'",
     "unknown psi_mode 'mirror'"),
    # both configs share one check of S, B, T and averaging: a baseline's
    # misspelt averaging used to run as 'last'
    (lambda c: c["solvers"][0]["params"].update(averaging="uniformm"), "solvers[0]: cell 'alexr'",
     "unknown averaging 'uniformm'"),
    (lambda c: c["solvers"][1]["params"].update(averaging="uniformm"), "solvers[1]: cell 'bsgd'",
     "unknown averaging 'uniformm'"),
    # a grid cell is named by its label, and a convex preset cell is built
    # too: B=0 used to divide by zero inside the preset
    (lambda c: c["solvers"][0].update(grid={"eta": [0.5, -1.0]}),
     "solvers[0]: cell 'alexr[eta=-1.0]'", "eta and tau must be positive"),
    (lambda c: c["solvers"][0].update(params={"preset": "convex", "B": 0}),
     "solvers[0]: cell 'alexr'", "B must be >= 1, got 0"),
    (lambda c: c["solvers"][0].update(params={"preset": "convex", "S": 0}),
     "solvers[0]: cell 'alexr'", "S, B must be >= 1 and T >= 0"),
    # msvr's staleness correction divides by 1 - gamma
    (lambda c: _baseline(c, "msvr")["params"].update(gamma=1.0), "solvers[1]: cell 'msvr'",
     "msvr needs gamma < 1: its correction degenerates at gamma=1"),
])
def test_solver_ranges_fail_at_validation(tmp_path, capsys, edit, at, message):
    # validate builds every cell that needs nothing from the problem, so the
    # config's own range check names the cell and neither command starts a run
    path = write_config(tmp_path, edited(edit))
    for command in ("validate", "run"):
        assert cli_main(["--out", str(tmp_path / "out"), command, path]) == 1
        assert capsys.readouterr().err == f"config error: {at}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [("epsilons", [0.1, 0.05]), ("budget", 100)])
def test_run_refuses_the_sweep_fields(tmp_path, capsys, field, value):
    # run used to accept them and ignore them, running each solver's own T
    path = write_config(tmp_path, edited(lambda c: c.update({field: value})))
    assert cli_main(["--out", str(tmp_path / "out"), "validate", path]) == 0
    capsys.readouterr()
    assert cli_main(["--out", str(tmp_path / "out"), "run", path]) == 1
    assert capsys.readouterr().err == (f"config error: {field}: run does not read it; "
                                       "only sweep-rate does\n")
    assert not (tmp_path / "out").exists()


def test_strongly_convex_cell_ranges_fail_when_the_experiment_runs(tmp_path, capsys):
    # the preset needs the built problem's n and mu, and S > n needs its n
    for params in ({"preset": "strongly_convex", "S": 0, "T": 5},
                   {"eta": 0.5, "tau": 1.0, "S": 7, "T": 5}):
        path = write_config(tmp_path, edited(lambda c: c["solvers"][0].update(params=params)))
        assert cli_main(["--out", str(tmp_path / "out"), "validate", path]) == 0
        assert cli_main(["--out", str(tmp_path / "out"), "run", path]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


def test_aggregate_keyed_by_oracle_count(tmp_path):
    config = validate_config(BASE_CONFIG)
    out = tmp_path / "exp"
    run_experiment(config, out)
    header = (out / "aggregate.csv").read_text().splitlines()[0].split(",")
    assert "oracle_count" in header
    assert "gap_mean" in header


# --- rate sweeps -----------------------------------------------------------------


# targets 0.02, 0.01 and 0.005 are reached after 85, 200 and 455 iterations
CONVERGING_SWEEP = {
    "problem": {"builder": "hard_smooth", "params": {"n": 6, "nu": 0.9}},
    "solvers": [{"name": "alexr", "params": {"preset": "strongly_convex", "S": 2}}],
    "seeds": [1, 2],
    "eval_every": 5,
    "epsilons": [0.02, 0.01, 0.005],
    "budget": 1000,
}


def expected_fit(report):
    fit = fit_rate([(e["epsilon"], e["iterations"]) for e in report["entries"]])
    return {"slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared,
            "points": fit.points}


def test_sweep_rate_fits_the_converged_targets(tmp_path):
    report = sweep_rate(validate_config(CONVERGING_SWEEP), tmp_path)
    assert all(e["converged"] and e["iterations"] > 0 for e in report["entries"])
    assert report["fit"] == expected_fit(report)
    assert report["error"] is None
    written = json.loads((tmp_path / "rate_report.json").read_text())
    assert written["fit"]["slope"] == report["fit"]["slope"]


def test_sweep_rate_budget_exhausted_flags_and_errors(tmp_path):
    config = validate_config({
        "problem": {"builder": "hard_smooth", "params": {"n": 6, "nu": 0.3, "sigma": 1.0}},
        "solvers": [{"name": "alexr",
                     "params": {"preset": "strongly_convex", "S": 2, "B": 1}}],
        "seeds": [1, 2],
        "eval_every": 5,
        "epsilons": [1e-6, 5e-7, 25e-8],
        "budget": 10,
    })
    report = sweep_rate(config, tmp_path)
    assert all(not e["converged"] for e in report["entries"])
    assert report["fit"] is None
    assert "3 points" in report["error"]


def test_iterations_to_reach_uses_seed_mean():
    inst = build_hard_smooth(6, 0.3, 1.0)
    records = []
    for seed in (1, 2, 3):
        cfg = AlexrConfig(eta=0.5, tau=1.0, theta=1.0, S=2, B=1, T=100, seed=seed)
        records.append(run(cfg, inst, eval_every=10))
    hit = iterations_to_reach(records, 1e9)
    assert hit == 0  # trivially reached at the first recorded row
    assert iterations_to_reach(records, -1.0) is None


# --- CLI --------------------------------------------------------------------------


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    assert cli_main(["--out", str(tmp_path), "validate", path]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_error_exit_code(tmp_path, capsys):
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["solvers"][0]["name"] = "unknown"
    path = write_config(tmp_path, bad)
    assert cli_main(["--out", str(tmp_path), "validate", path]) == 1
    assert "solvers[0].name" in capsys.readouterr().err


def test_cli_run_and_outputs(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "artifacts"
    assert cli_main(["--out", str(out), "run", path]) == 0
    assert (out / "manifest.json").exists()


def test_cli_sweep_rate_prints_the_fit(tmp_path, capsys):
    path = write_config(tmp_path, CONVERGING_SWEEP)
    assert cli_main(["--out", str(tmp_path / "sweep"), "sweep-rate", path]) == 0
    report = json.loads((tmp_path / "sweep" / "rate_report.json").read_text())
    assert capsys.readouterr().out == json.dumps(expected_fit(report), sort_keys=True) + "\n"


@pytest.mark.parametrize("edit, field", [
    (lambda c: c["solvers"].append({"name": "sox", "params": {"step": 0.5}}), "solvers"),
    (lambda c: c["solvers"][0].update(grid={"theta_margin": [0.5, 0.25]}), "solvers[0].grid"),
])
def test_cli_sweep_rate_rejects_what_it_would_ignore(tmp_path, capsys, edit, field):
    # sweep-rate runs one solver entry as it stands; it used to drop the rest
    config = json.loads(json.dumps(CONVERGING_SWEEP))
    edit(config)
    path = write_config(tmp_path, config)
    assert cli_main(["--out", str(tmp_path / "sweep"), "sweep-rate", path]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}: sweep-rate")
    assert not (tmp_path / "sweep").exists()


def test_cli_runtime_error_exit_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert cli_main(["--out", str(tmp_path), "run", missing]) == 2


def test_cli_libsvm_too_wide_to_densify_exits_cleanly(tmp_path, capsys):
    # one index near 2**63 parses, but the dense matrix cannot be allocated
    data = tmp_path / "wide.svm"
    data.write_text("+1 9223372036854775807:1\n-1 1:1\n")
    config = json.loads(json.dumps(BASE_CONFIG))
    config["problem"] = {"builder": "pauc_libsvm", "params": {"path": str(data)}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["--out", str(tmp_path / "out"), "run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(data) in err and "2x9223372036854775807" in err


def test_cli_pauc_libsvm_without_negatives_exits_cleanly(tmp_path, capsys):
    # validate does not read the file; run refuses it before sampling a
    # negative from an empty set
    data = tmp_path / "positives.svm"
    data.write_text("+1 1:1\n+1 1:2 2:1\n+1 2:3\n")
    config = dict(BASE_CONFIG, problem={"builder": "pauc_libsvm", "params": {"path": str(data)}})
    path = write_config(tmp_path, config)
    assert cli_main(["--out", str(tmp_path / "out"), "validate", path]) == 0
    assert cli_main(["--out", str(tmp_path / "out"), "run", path]) == 2
    assert capsys.readouterr().err == "error: pAUC data holds no negatives\n"
    assert not (tmp_path / "out").exists()  # the build fails before out_dir is made


def test_cli_sweep_rate_with_a_missing_data_file_makes_no_output_directory(tmp_path, capsys):
    config = dict(CONVERGING_SWEEP, problem={"builder": "gdro_csv",
                                             "params": {"path": str(tmp_path / "missing.csv")}})
    path = write_config(tmp_path, config)
    assert cli_main(["--out", str(tmp_path / "sweep"), "sweep-rate", path]) == 2
    assert "missing.csv" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("rows, message", [
    ("1.0,1,a\n2.0,0\n", "line 3: field count differs from the header's"),
    ("1.0,1,a\n2.0,0,b,c\n", "line 3: field count differs from the header's"),
    ("1.0,1,a\n2.0,,b\n", "line 3: non-numeric value"),
    ("1.0,1,a\n2.0,yes,b\n", "line 3: non-numeric value"),
    ("1.0,1,a\nx,0,b\n", "line 3: non-numeric value"),
])
def test_cli_run_rejects_malformed_csv_rows(tmp_path, capsys, rows, message):
    # a short row would make a group named None and a long one lose a field
    data = tmp_path / "groups.csv"
    data.write_text("f0,label,group\n" + rows)
    config = dict(BASE_CONFIG, problem={"builder": "gdro_csv", "params": {"path": str(data)}})
    assert cli_main(["--out", str(tmp_path / "out"), "run", write_config(tmp_path, config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_cli_emit_synthetic_gdro(tmp_path, capsys):
    assert cli_main(["--out", str(tmp_path), "emit-synthetic", "gdro",
                     "--n-groups", "2", "--dim", "2", "--samples-per-group", "5",
                     "--seed", "7"]) == 0
    out_path = capsys.readouterr().out.strip()
    from fcco.datasets import load_grouped_csv

    with open(out_path) as fh:
        data = load_grouped_csv(fh, group_column="group")
    assert data.n_groups == 2
    assert data.n_samples == 10


def test_cli_emit_synthetic_pauc(tmp_path, capsys):
    assert cli_main(["--out", str(tmp_path), "emit-synthetic", "pauc",
                     "--n-pos", "4", "--n-neg", "6", "--dim", "2"]) == 0
    out_path = capsys.readouterr().out.strip()
    from fcco.datasets import load_libsvm

    features, labels = load_libsvm(out_path)
    assert features.shape == (10, 2)
    assert (labels > 0).sum() == 4


def test_cli_pauc_libsvm_run_matches_the_synthetic_builder(tmp_path, capsys):
    # writer, reader and builder together: the emitted file reads back to the
    # dataset pauc_synthetic builds from the same seed, so every record file
    # is the same byte for byte
    sizes = {"n_pos": 6, "n_neg": 14, "d": 3, "separation": 1.5, "alpha": 0.5}
    assert cli_main(["--out", str(tmp_path), "emit-synthetic", "pauc", "--seed", "5",
                     "--n-pos", "6", "--n-neg", "14", "--dim", "3", "--separation", "1.5",
                     "--alpha", "0.5"]) == 0
    data = capsys.readouterr().out.strip()
    common = {"S": 2, "B": 2, "T": 30}
    config = {
        "solvers": [
            {"name": "alexr", "params": {"eta": 10.0, "tau": 1.0, "theta": 1.0, **common}},
            {"name": "sox", "params": {"step": 10.0, "gamma": 0.5,
                                       "subgradient_fallback": True, **common}},
        ],
        "seeds": [1, 2],
        "eval_every": 10,
        "emit": "csv",
    }
    outputs = {}
    for name, problem in (
            ("libsvm", {"builder": "pauc_libsvm", "params": {"path": data, "alpha": 0.5}}),
            ("synthetic", {"builder": "pauc_synthetic",
                           "params": {"data_seed": 5, **sizes}})):
        (tmp_path / name).mkdir()
        path = write_config(tmp_path / name, dict(config, problem=problem))
        assert cli_main(["--out", str(tmp_path / name / "out"), "run", path]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in (tmp_path / name / "out").iterdir()
                         if p.name != "manifest.json"}
    assert len(outputs["libsvm"]) == 5  # 2 cells x 2 seeds and the aggregate
    assert outputs["libsvm"] == outputs["synthetic"]
