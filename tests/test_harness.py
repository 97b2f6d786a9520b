"""Harness: config validation, record emission, experiments, rate sweeps, CLI."""

import json
import os

import pytest

from fcco.cli import main as cli_main
from fcco.errors import ConfigValidationError
from fcco.harness import (
    ExperimentConfig,
    emit_records,
    iterations_to_reach,
    parse_records_csv,
    run_experiment,
    sweep_rate,
    validate_config,
)
from fcco.instances import build_hard_smooth
from fcco.solvers import AlexrConfig, run


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
        {"name": "alexr", "params": {"preset": "convex", "eta_coeff": 1.0, "tau_coeff": 1.0},
         "grid": {"theta": [0.0, 1.0]}},
        {"name": "sox", "params": {"step": 1.0, "gamma": 0.5, "averaging": "last",
                                   "subgradient_fallback": True, "T": 3}},
    ]
    validate_config(config)


def test_validate_config_bad_epsilons():
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["epsilons"] = [0.01, 0.02]
    with pytest.raises(ConfigValidationError):
        validate_config(bad)


# --- record emission ----------------------------------------------------------


def make_records(T=20):
    inst = build_hard_smooth(5, 0.3, 1.0)
    cfg = AlexrConfig(eta=0.5, tau=1.0, theta=1.0, S=2, B=1, T=T, seed=3, label="alexr")
    return [run(cfg, inst.problem, eval_every=5, f_star=inst.f_star, x_star=inst.x_star)]


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


def test_run_experiment_worker_pool_matches_serial(tmp_path):
    config = validate_config(BASE_CONFIG)
    out1 = tmp_path / "serial"
    out2 = tmp_path / "pooled"
    run_experiment(config, out1, workers=1)
    run_experiment(config, out2, workers=2)
    assert sorted(os.listdir(out1)) == sorted(os.listdir(out2))
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


def test_aggregate_keyed_by_oracle_count(tmp_path):
    config = validate_config(BASE_CONFIG)
    out = tmp_path / "exp"
    run_experiment(config, out)
    header = (out / "aggregate.csv").read_text().splitlines()[0].split(",")
    assert "oracle_count" in header
    assert "gap_mean" in header


# --- rate sweeps -----------------------------------------------------------------


def test_sweep_rate_planted_slope(tmp_path):
    config = validate_config({
        "problem": {"builder": "planted", "params": {"coeff": 2.0, "power": 2.0}},
        "solvers": [{"name": "alexr", "params": {}}],
        "epsilons": [0.04, 0.02, 0.01],
    })
    report = sweep_rate(config, tmp_path)
    assert report["fit"]["slope"] == pytest.approx(-2.0, abs=1e-9)
    assert report["fit"]["r_squared"] == pytest.approx(1.0)


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
        records.append(run(cfg, inst.problem, eval_every=10,
                           f_star=inst.f_star, x_star=inst.x_star))
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


def test_cli_sweep_rate_planted(tmp_path, capsys):
    path = write_config(tmp_path, {
        "problem": {"builder": "planted", "params": {"coeff": 1.0, "power": 1.0}},
        "solvers": [{"name": "alexr", "params": {}}],
        "epsilons": [0.04, 0.02, 0.01],
    })
    assert cli_main(["--out", str(tmp_path / "sweep"), "sweep-rate", path]) == 0
    out = capsys.readouterr().out
    assert "-0.99" in out or "-1" in out


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

    mat, labels = load_libsvm(out_path)
    assert mat.shape[0] == 10
    assert (labels > 0).sum() == 4
