"""The public surface: top-level names, the README quick start, and the
modules `import fcco` loads."""

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


def test_import_loads_every_layer():
    # a fresh interpreter, so modules other tests imported do not count;
    # scipy loads only when a LIBSVM file is first read or written
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
    assert (before, after) == ("False", "True")


def test_writing_dense_libsvm_does_not_load_scipy(tmp_path):
    # a fresh interpreter: writing dense rows, directly or through
    # `fcco emit-synthetic pauc`, leaves scipy unloaded; reading loads it
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
    assert out == [str(tmp_path / "synthetic_pauc.libsvm"), "[False, False, True]"]
