"""Command-line harness: run, compare, gradcheck, partition-stats.

Every command, gradcheck's network included, is configured by a JSON file plus
flag overrides (flags win).  The results a config produces depend only on the
config and seed; output paths never change the emitted bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import federation, metrics, nn
from .config import METHODS, OUTPUT_DIR_ENV, TOP_KEYS, parse_config
from .data import partition
from .errors import PfedmbError, ValidationError

GRADCHECK_BATCH = 8


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfedmb",
        description="Personalized federated learning with multi-branch layers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # no prefix matching, so that compare's --methods never takes a --method
    run, compare, grad, stats = (
        sub.add_parser(name, help=text, allow_abbrev=False) for name, text in (
            ("run", "run one experiment end to end"),
            ("compare", "run several methods on the identical data and seeds"),
            ("gradcheck", "verify gradients by finite differences"),
            ("partition-stats", "emit per-client class histograms"),
        )
    )
    # each subcommand takes only the flags it reads: run every override,
    # compare all but --method, gradcheck and partition-stats a few
    every, trains = (run, compare, grad, stats), (run, compare)
    for parsers, flag, kwargs in (
        (every, "--config", dict(help="JSON experiment config")),
        ((run,), "--method", dict(choices=METHODS)),
        ((run, compare, grad), "--branches", dict(type=int)),
        (trains, "--rounds", dict(type=int)),
        ((run, compare, stats), "--clients", dict(type=int)),
        (trains, "--participation", dict(
            type=float, help="fraction of clients sampled per round, in (0, 1]")),
        (trains, "--lr-alpha", dict(type=float, dest="lr_alpha")),
        (trains, "--lr-w", dict(type=float, dest="lr_w")),
        (trains, "--epochs", dict(type=int, dest="local_epochs")),
        (trains, "--batch-size", dict(type=int, dest="batch_size")),
        (every, "--seed", dict(type=int)),
        ((run, compare, stats), "--out", dict(
            dest="output_dir", help=f"output directory (default: ${OUTPUT_DIR_ENV})")),
        ((run, compare, grad), "--shared-alpha", dict(
            action=argparse.BooleanOptionalAction, dest="shared_alpha", default=None,
            help="one mixing vector shared by all layers")),
    ):
        for p in parsers:
            p.add_argument(flag, **kwargs)
    compare.add_argument("--methods", default="local,fedavg,pfedmb_plain_agg,pfedmb",
                         help="comma-separated methods to compare")
    return parser


def _overrides(args) -> dict:
    """The config keys given as flags; flags not passed, or not taken, are None."""
    return {k: getattr(args, k, None) for k in TOP_KEYS}


def cmd_run(args) -> int:
    config = parse_config(args.config, _overrides(args))
    result, _, _ = federation.run_experiment(config)
    paths = metrics.emit_results(result, config.output_dir)
    print(f"method={config.method} final_mean_test_acc={result.final_mean_accuracy:.4f}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_compare(args) -> int:
    methods = [m.strip() for m in str(args.methods).split(",") if m.strip()]
    if not methods:
        raise ValidationError("methods: give at least one method to compare")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ValidationError(f"methods: each method may appear once, repeated {repeated}")
    base_overrides = _overrides(args)
    # one file, one set of overrides: the configs differ only in method (and
    # the single branch fedavg requires), so every run shares data and seeds
    configs = []
    for method in methods:
        overrides = dict(base_overrides, method=method)
        if method == "fedavg":
            overrides["branches"] = 1
        configs.append(parse_config(args.config, overrides))

    out = Path(configs[0].output_dir)
    # a run that fails partway must not leave an earlier table beside its results
    (out / "compare.csv").unlink(missing_ok=True)
    accuracies = []
    for cfg in configs:
        result, _, _ = federation.run_experiment(cfg)
        metrics.emit_results(result, out / cfg.method)
        accuracies.append(result.final_mean_accuracy)

    table = out / "compare.csv"
    metrics.write_atomic(
        table, ",".join(methods) + "\n" + ",".join(f"{a:.10g}" for a in accuracies) + "\n"
    )
    print(",".join(methods))
    print(",".join(f"{a:.4f}" for a in accuracies))
    print(f"wrote {table}")
    return 0


def cmd_gradcheck(args) -> int:
    # gradcheck writes nothing, so a config without an output directory will do
    config = parse_config(args.config, dict(_overrides(args), output_dir=os.devnull))
    dataset = config.make_dataset()
    dims = config.layer_dims(dataset.input_dim, dataset.num_classes)
    branches, seed, shared = config.branches, config.seed, config.shared_alpha

    rng = np.random.default_rng(seed)
    net = nn.init_network(dims, branches, seed=[seed, federation.INIT_STREAM])
    layers = len(dims) - 1
    alpha = nn.AlphaParams(rng.normal(size=(1 if shared else layers, branches)), layers, shared)
    x = rng.normal(size=(GRADCHECK_BATCH, dims[0]))
    y = rng.integers(0, dims[-1], size=GRADCHECK_BATCH)

    report = nn.gradient_check(net, alpha, (x, y))
    print(f"weight group:      max rel err {report.w_error:.3e}")
    if branches == 1:
        print("mixing group:      identically zero (single branch), skipped")
    else:
        print(f"mixing group:      max rel err {report.alpha_error:.3e}")
    if report.skipped:
        print(f"skipped:           {report.skipped} coordinates at a ReLU kink")
    print(f"tolerance:         {nn.GRADCHECK_TOLERANCE:.0e}")
    print(f"result:            {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_partition_stats(args) -> int:
    config = parse_config(args.config, _overrides(args))
    dataset = config.make_dataset()
    part = partition(dataset, config.partition_spec)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "partition_stats.csv"
    lines = ["client,split,class,count"]
    for split in ("train", "val", "test"):
        for i, idx in enumerate(getattr(part, split)):
            hist = np.bincount(dataset.labels[idx], minlength=dataset.num_classes)
            for c in range(dataset.num_classes):
                lines.append(f"{i},{split},{c},{hist[c]}")
    metrics.write_atomic(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "compare": cmd_compare,
    "gradcheck": cmd_gradcheck,
    "partition-stats": cmd_partition_stats,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    except PfedmbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
