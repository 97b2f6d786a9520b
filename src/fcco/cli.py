"""Command-line entry point.

Subcommands:
  run <config>             execute an experiment config
  sweep-rate <config>      per-target preset runs plus a log-log rate fit
  validate <config>        check a config without running it
  emit-synthetic <kind>    write a synthetic dataset (gdro CSV / pauc libsvm)

All output paths are relative to --out.  Exit codes: 0 success, 1 config
validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .datasets import build_synthetic_gdro, build_synthetic_pauc, dump_libsvm, grouped_to_csv
from .errors import ConfigValidationError, FccoError
from .harness import load_config, run_experiment, sweep_rate


def _parser():
    parser = argparse.ArgumentParser(prog="fcco", description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".", help="output directory for all artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")

    p_sweep = sub.add_parser("sweep-rate", help="empirical iteration-complexity sweep")
    p_sweep.add_argument("config")

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")

    p_emit = sub.add_parser("emit-synthetic", help="write a synthetic dataset")
    p_emit.add_argument("kind", choices=["gdro", "pauc"])
    p_emit.add_argument("--seed", type=int, default=0)
    p_emit.add_argument("--name", default=None, help="output file name")
    p_emit.add_argument("--n-groups", type=int, default=4)
    p_emit.add_argument("--dim", type=int, default=3)
    p_emit.add_argument("--samples-per-group", type=int, default=50)
    p_emit.add_argument("--heterogeneity", type=float, default=0.5)
    p_emit.add_argument("--n-pos", type=int, default=50)
    p_emit.add_argument("--n-neg", type=int, default=200)
    p_emit.add_argument("--separation", type=float, default=1.0)
    p_emit.add_argument("--alpha", type=float, default=0.5)
    return parser


def _emit_synthetic(args):
    os.makedirs(args.out, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    if args.kind == "gdro":
        data = build_synthetic_gdro(args.n_groups, args.dim, args.samples_per_group,
                                    args.heterogeneity, rng)
        path = os.path.join(args.out, args.name or "synthetic_gdro.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            grouped_to_csv(data, fh)
    else:
        data = build_synthetic_pauc(args.n_pos, args.n_neg, args.dim,
                                    args.separation, args.alpha, rng)
        path = os.path.join(args.out, args.name or "synthetic_pauc.libsvm")
        feats = np.vstack([data.positives, data.negatives])
        labels = np.concatenate([np.ones(len(data.positives)), -np.ones(len(data.negatives))])
        with open(path, "w", encoding="utf-8") as fh:
            dump_libsvm(feats, labels, fh)
    print(path)
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            manifest = run_experiment(config, args.out)
            print(manifest)
            return 0
        if args.command == "sweep-rate":
            config = load_config(args.config)
            report = sweep_rate(config, args.out)
            print(json.dumps(report.get("fit"), sort_keys=True))
            return 0
        if args.command == "validate":
            load_config(args.config)
            print("ok")
            return 0
        return _emit_synthetic(args)  # argparse admits no other command
    except (ConfigValidationError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FccoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
