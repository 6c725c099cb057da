"""Command-line harness: run, compare, gradcheck, partition-stats.

Configuration comes from a JSON file plus flag overrides (flags win).  The
results a config produces depend only on the config and seed; output paths never
change the emitted bytes, and --threads is accepted for existing configs but
changes nothing (clients run one after another).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import federation, metrics, nn
from .config import METHODS, MINIMUMS, OUTPUT_DIR_ENV, TOP_KEYS, parse_config
from .data import partition
from .errors import PfedmbError, ValidationError

GRADCHECK_DIMS = [8, 16, 4]
GRADCHECK_BRANCHES = 3
GRADCHECK_BATCH = 8
GRADCHECK_H = 1e-5
GRADCHECK_TOLERANCE = 1e-4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfedmb",
        description="Personalized federated learning with multi-branch layers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--method", choices=METHODS)
        p.add_argument("--branches", type=int)
        p.add_argument("--rounds", type=int)
        p.add_argument("--clients", type=int)
        p.add_argument("--participation", type=float,
                       help="fraction of clients sampled per round, in (0, 1]")
        p.add_argument("--lr-alpha", type=float, dest="lr_alpha")
        p.add_argument("--lr-w", type=float, dest="lr_w")
        p.add_argument("--epochs", type=int, dest="local_epochs")
        p.add_argument("--batch-size", type=int, dest="batch_size")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", dest="output_dir",
                       help=f"output directory (default: ${OUTPUT_DIR_ENV})")
        p.add_argument("--threads", type=int)
        p.add_argument("--shared-alpha", action=argparse.BooleanOptionalAction,
                       dest="shared_alpha", default=None,
                       help="one mixing vector shared by all layers")

    run = sub.add_parser("run", help="run one experiment end to end")
    add_common(run)

    compare = sub.add_parser(
        "compare", help="run several methods on the identical data and seeds"
    )
    add_common(compare)
    compare.add_argument(
        "--methods",
        default="local,fedavg,pfedmb_plain_agg,pfedmb",
        help="comma-separated methods to compare",
    )

    grad = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    add_common(grad)
    grad.add_argument("--inject-fault", action="store_true",
                      help="corrupt one gradient entry (self-test of the check)")

    stats = sub.add_parser("partition-stats", help="emit per-client class histograms")
    add_common(stats)
    return parser


def _overrides(args) -> dict:
    """The config keys given as flags; flags that were not passed are None."""
    given = {k: getattr(args, k, None) for k in TOP_KEYS}
    return {k: v for k, v in given.items() if v is not None}


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

    out.mkdir(parents=True, exist_ok=True)
    table = out / "compare.csv"
    metrics.write_atomic(
        table, ",".join(methods) + "\n" + ",".join(f"{a:.10g}" for a in accuracies) + "\n"
    )
    print(",".join(methods))
    print(",".join(f"{a:.4f}" for a in accuracies))
    print(f"wrote {table}")
    return 0


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if args.config is not None:
        config = parse_config(args.config, _overrides(args))
        dataset = config.make_dataset()
        dims = config.layer_dims(dataset.input_dim, dataset.num_classes)
        branches = config.branches
        seed = config.seed
    else:
        if seed < MINIMUMS["seed"]:  # the rule a config's seed is held to
            raise ValidationError(f"seed: must be >= {MINIMUMS['seed']}, got {seed}")
        dims = GRADCHECK_DIMS
        branches = args.branches if args.branches is not None else GRADCHECK_BRANCHES

    rng = np.random.default_rng(seed)
    net = nn.init_network(dims, branches, seed=[seed, federation.INIT_STREAM])
    alpha = nn.AlphaParams(
        rng.normal(size=(len(dims) - 1, branches)), len(dims) - 1
    )
    x = rng.normal(size=(GRADCHECK_BATCH, dims[0]))
    y = rng.integers(0, dims[-1], size=GRADCHECK_BATCH)

    grads = None
    if args.inject_fault:
        _, grads = nn.loss_and_grads(net, alpha, (x, y))
        grads.d_weights[0][0, 0, 0] += 1.0

    report = nn.gradient_check(
        net, alpha, (x, y), h=GRADCHECK_H, tolerance=GRADCHECK_TOLERANCE, grads=grads
    )
    print(f"weight group:      max rel err {report.w_error:.3e}")
    if branches == 1:
        print("mixing group:      identically zero (single branch), skipped")
    else:
        print(f"mixing group:      max rel err {report.alpha_error:.3e}")
    print(f"tolerance:         {report.tolerance:.0e}")
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
