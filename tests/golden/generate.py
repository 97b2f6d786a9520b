"""Rewrite the golden outputs that tests/test_golden.py compares against.

Each `configs/<name>.json` runs through the CLI, with this directory as the
working directory so the configs' relative data paths resolve, and its
outputs go to `expected/<name>/`: `fcco sweep-rate` for a config that sets
`epsilons`, `fcco run` for any other.  `stamp.json` records the numpy
version, its BLAS and the CPU features numpy dispatches on; the test
compares floats bitwise only where these match.  The input `data/groups.csv`
is written only when it is missing.

Run from the repository root after a change that moves outputs on purpose:

    PYTHONPATH=src python tests/golden/generate.py
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import shutil

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
CONFIGS = sorted((HERE / "configs").glob("*.json"))


def stamp():
    """What decides the bits of a float output beyond the code itself."""
    try:
        deps = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return {"numpy": np.__version__, "machine": platform.machine()}
    blas = deps["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version')}",
            "machine": platform.machine(),
            "simd": sorted(deps.get("SIMD Extensions", {}).get("found", []))}


def command(config_path):
    with open(config_path, encoding="utf-8") as fh:
        return "sweep-rate" if "epsilons" in json.load(fh) else "run"


def run_case(config_path, out_dir):
    """Run one config through the CLI into `out_dir` (absolute)."""
    from fcco.cli import main

    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        code = main(["--out", str(out_dir), command(config_path),
                     str(config_path.relative_to(HERE))])
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"{config_path.name}: fcco exited with {code}")


def write_groups_csv(path):
    """Four interleaved groups, one of them three rows long, so that
    gdro_csv.json's min_group_size of 5 drops it."""
    from fcco.datasets import GroupedDataset, grouped_to_csv

    rng = np.random.default_rng(0)
    group_of = rng.permutation(np.repeat([0, 1, 2, 3], [12, 12, 3, 12]))
    labels = np.where(rng.random(len(group_of)) < 0.5, 1.0, -1.0)
    features = rng.standard_normal((len(group_of), 2)) + labels[:, None] * 0.5
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        grouped_to_csv(GroupedDataset(features, labels, group_of), fh)


def main():
    groups = HERE / "data" / "groups.csv"
    if not groups.exists():
        write_groups_csv(groups)
    expected = HERE / "expected"
    shutil.rmtree(expected, ignore_errors=True)
    for config_path in CONFIGS:
        run_case(config_path, expected / config_path.stem)
    with open(HERE / "stamp.json", "w", encoding="utf-8") as fh:
        json.dump(stamp(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(CONFIGS)} cases to {expected}")


if __name__ == "__main__":
    main()
