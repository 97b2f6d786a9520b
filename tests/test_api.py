"""The public surface: top-level names, the README quick start, the
modules `import fcco` loads, and running without scipy."""

import os
import pathlib
import re
import subprocess
import sys
import types

import fcco

PUBLIC_NAMES = [
    "__version__", "FccoError",
    "AlexrConfig", "BaselineConfig", "strongly_convex_preset", "convex_preset", "run",
    "RunRecord",
    "ProblemInstance", "InnerOracle", "Regularizer", "BoxDomain", "evaluate_objective",
    "build_hard_smooth", "build_hard_nonsmooth", "build_gdro", "build_pauc",
    "build_synthetic_gdro", "build_synthetic_pauc", "load_grouped_csv", "parse_libsvm",
    "pauc_exact", "fit_rate",
    "load_config", "validate_config", "run_experiment", "sweep_rate",
]
LOADED_MODULES = ["harness", "solvers", "problem", "instances", "outers", "datasets", "metrics"]
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_top_level_names_are_the_pinned_list():
    assert sorted(fcco.__all__) == sorted(PUBLIC_NAMES)
    # every other public attribute is a submodule
    public = {name for name, value in vars(fcco).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(PUBLIC_NAMES) - {"__version__"}
    assert all(hasattr(fcco, name) for name in PUBLIC_NAMES)


def test_readme_imports_resolve():
    imports = re.findall(r"^from (fcco\S*) import (.+)$", README.read_text(), re.MULTILINE)
    assert imports
    for module, names in imports:
        mod = __import__(module, fromlist=["_"])
        for name in names.split(","):
            assert hasattr(mod, name.strip()), (module, name)


def test_readme_quick_start_runs_verbatim(capsys):
    # the documented calls run and print the strongly convex preset's gap,
    # which ends below the target it was given
    block = re.search(r"## Quick start \(library\)\n\n```python\n(.*?)```", README.read_text(),
                      re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    gap = float(capsys.readouterr().out)
    assert 0.0 <= gap <= 1e-3


def test_import_loads_every_layer():
    # a fresh interpreter, so modules other tests imported do not count;
    # reading a LIBSVM file leaves scipy unloaded too
    code = ("import sys, fcco, fcco.cli; "
            "print(' '.join(m for m in sys.modules if m.startswith('fcco.'))); "
            "print('scipy' in sys.modules); "
            "fcco.datasets.parse_libsvm('1 1:0.5\\n'); "
            "print('scipy' in sys.modules)")
    src = str(pathlib.Path(fcco.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    modules, before, after = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
    ).stdout.splitlines()
    for layer in LOADED_MODULES:
        assert f"fcco.{layer}" in modules.split()
    assert (before, after) == ("False", "False")


def test_writing_dense_libsvm_does_not_load_scipy(tmp_path):
    # a fresh interpreter: writing dense rows, directly or through
    # `fcco emit-synthetic pauc`, and reading them back leave scipy unloaded
    code = ("import io, sys, numpy as np; from fcco import cli, datasets; "
            "buf = io.StringIO(); datasets.dump_libsvm(np.eye(3), [1, -1, 1], buf); "
            "seen = ['scipy' in sys.modules]; "
            "cli.main(['--out', sys.argv[1], 'emit-synthetic', 'pauc']); "
            "seen.append('scipy' in sys.modules); "
            "datasets.parse_libsvm(buf.getvalue()); "
            "seen.append('scipy' in sys.modules); print(seen)")
    src = str(pathlib.Path(fcco.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env,
        check=True,
    ).stdout.splitlines()
    assert out == [str(tmp_path / "synthetic_pauc.libsvm"), "[False, False, False]"]


def test_fcco_runs_on_numpy_alone(tmp_path):
    # a fresh interpreter in which any scipy import fails: importing fcco
    # loads every layer, and writing, reading and running a LIBSVM file all
    # succeed
    code = """
import json, sys
sys.modules["scipy"] = None
import fcco, fcco.cli
print(" ".join(m for m in sys.modules if m.startswith("fcco.")))
out = sys.argv[1]
print(fcco.cli.main(["--out", out, "emit-synthetic", "pauc", "--n-pos", "6", "--n-neg", "9"]))
data = out + "/synthetic_pauc.libsvm"
with open(data) as fh:
    features, labels = fcco.parse_libsvm(fh)
print(type(features).__name__, features.shape)
config = {"problem": {"builder": "pauc_libsvm", "params": {"path": data}},
          "solvers": [{"name": "alexr", "params": {"eta": 10.0, "tau": 1.0, "S": 2, "B": 2,
                                                   "T": 10}}],
          "seeds": [1], "eval_every": 5}
with open(out + "/config.json", "w") as fh:
    json.dump(config, fh)
print(fcco.cli.main(["--out", out + "/run", "run", out + "/config.json"]))
"""
    src = str(pathlib.Path(fcco.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    modules, *out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env,
        check=True,
    ).stdout.splitlines()
    for layer in LOADED_MODULES:
        assert f"fcco.{layer}" in modules.split()
    assert out == [str(tmp_path / "synthetic_pauc.libsvm"), "0", "ndarray (15, 3)",
                   str(tmp_path / "run" / "manifest.json"), "0"]
