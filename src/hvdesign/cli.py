"""Command-line frontend.

Subcommands: train, optimize, sweep, eval, synth, export-embeddings.
A JSON config file (--config) is read as flags placed before the command
line's own, which override it; it may give required flags too. Every run
logs its fully resolved configuration so results can be reproduced. Exit
codes: 0 success, 2 for bad input (a flag, a config file, a CSV or a model
file), reported as one `error:` line on stderr.
`main` builds a parser with only the subcommand it runs, and with all six
for help, `--version`, no command or an unknown one.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time

from . import __version__
from .data import (
    Dataset,
    atomic_open,
    calibrate_quantizer,
    export_sample_hypervectors,
    generate_motivational,
    load_dataset_csv,
    load_model,
    model_bytes,
    save_dataset_csv,
    save_model,
)
from .errors import ConfigError, DataError, HvError
from .evolve import GAConfig, run_optimization
from .hypervector import _check_seed, uniform_flip_budget
from .model import predict_batch, train_model
from .objectives import (
    _avg_similarities,
    confusion_matrix,
    total_accuracy,
    weighted_accuracy,
)

log = logging.getLogger("hvdesign")


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError on every parse error; subparsers share the class."""

    def error(self, message):
        raise ConfigError(message)


def u64(value: str) -> int:
    """A seed: an integer in [0, 2**64), the range a model file stores. A
    ValueError (ConfigError is one) is argparse's "invalid u64 value"."""
    return _check_seed(int(value))


def _label_column(value: str):
    try:
        return int(value)
    except ValueError:
        return value


def _train_flags(p):
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--test", help="optional test CSV")
    p.add_argument("--label-col", type=_label_column, default="label")
    p.add_argument("--dim", type=int, default=2048)
    p.add_argument("--levels", type=int, default=20)
    p.add_argument("--out", help="model file to write")
    p.add_argument("--metrics-out", help="write metrics as JSON here")
    p.add_argument("--seed", type=u64, default=0, help="master RNG seed")


def _optimize_flags(p):
    p.add_argument("--data", required=True)
    p.add_argument("--label-col", type=_label_column, default="label")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--levels", type=int, default=20)
    p.add_argument("--pop", type=int, default=200)
    p.add_argument("--gens", type=int, default=150)
    p.add_argument("--crossover", type=float, default=0.9)
    p.add_argument("--mutation", type=float, default=0.1)
    p.add_argument("--out", required=True, help="Pareto front CSV")
    p.add_argument(
        "--best-models-out",
        help="prefix; writes <prefix>-accuracy.hdcm and <prefix>-robustness.hdcm",
    )
    p.add_argument("--seed", type=u64, default=0, help="master RNG seed")


def _sweep_flags(p):
    p.add_argument("--data", required=True)
    p.add_argument("--label-col", type=_label_column, default="label")
    p.add_argument("--dims", required=True, help="comma-separated even dimensions")
    p.add_argument("--levels", type=int, default=20)
    p.add_argument("--out", required=True, help="metrics CSV")
    p.add_argument("--seed", type=u64, default=0, help="master RNG seed")


def _eval_flags(p):
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-col", type=_label_column, default="label")
    p.add_argument("--metrics-out", help="write metrics as JSON here")


def _synth_flags(p):
    p.add_argument("--grid", type=int, default=40, help="grid points per axis")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=u64, default=0, help="master RNG seed")


def _export_embeddings_flags(p):
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-col", type=_label_column, default="label")
    p.add_argument("--out", required=True)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; given a subcommand name, it registers only that one."""
    parser = _Parser(
        prog="hvdesign",
        description="HDC classification with evolutionary flip-budget design",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_flags, _) in _SUBCOMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_line)
            add_flags(p)
            p.add_argument("--config", help="JSON file with defaults; flags override")
    return parser


def _config_flags(path) -> list:
    """A JSON config file as `--key=value` arguments; `null` values are skipped."""
    try:
        with open(path) as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path}: expected a JSON object")
    return [
        f"--{key.replace('_', '-')}={value if isinstance(value, str) else json.dumps(value)}"
        for key, value in values.items() if value is not None
    ]


def _config_path(argv) -> str | None:
    """The last --config value among a subcommand's arguments, or None.

    Read apart from the subcommand's parser, so that the file can give
    the flags that parser requires."""
    config = _Parser(add_help=False)
    config.add_argument("--config")
    return config.parse_known_args(argv)[0].config


def _training_split(args):
    """The training CSV and its quantizer, whose range error names the file."""
    train = load_dataset_csv(args.data, args.label_col)
    try:
        return train, calibrate_quantizer(train, args.levels)
    except DataError as exc:
        raise DataError(f"{args.data}: {exc}") from None


def _metrics(model, data: Dataset) -> dict:
    start = time.perf_counter()
    predicted = predict_batch(data.features, model)
    elapsed = time.perf_counter() - start
    confusion = confusion_matrix(data.labels, predicted, model.n_classes)
    recalls = {}
    for k in range(model.n_classes):
        row = confusion[k].sum()
        recalls[model.labels[k]] = float(confusion[k, k] / row) if row else None
    return {
        "wAcc": weighted_accuracy(confusion),
        "totalAcc": total_accuracy(confusion),
        "avgSim": _avg_similarities(model._scoring[1])[0],  # the Gram predict_batch used
        "perClassRecall": recalls,
        "confusion": confusion.tolist(),
        "samples": int(data.n_samples),
        "inferenceMsPerSample": 1000.0 * elapsed / data.n_samples,
    }


def _print_metrics(tag: str, metrics: dict) -> None:
    print(f"[{tag}] wAcc={metrics['wAcc']:.4f} totalAcc={metrics['totalAcc']:.4f} "
          f"avgSim={metrics['avgSim']:.4f} samples={metrics['samples']} "
          f"infTime={metrics['inferenceMsPerSample']:.4f}ms/sample")


def cmd_train(args) -> int:
    train, quantizer = _training_split(args)
    budget = uniform_flip_budget(args.dim, args.levels, features=train.n_features)
    model = train_model(train, quantizer, budget, args.seed)
    report = {"train": _metrics(model, train)}
    _print_metrics("train", report["train"])
    if args.test:
        test = load_dataset_csv(args.test, args.label_col, label_names=model.labels)
        report["test"] = _metrics(model, test)
        _print_metrics("test", report["test"])
    if args.out:
        save_model(model, args.out)
        report["modelBytes"] = os.path.getsize(args.out)
        print(f"model written to {args.out} ({report['modelBytes']} bytes)")
    if args.metrics_out:
        with atomic_open(args.metrics_out) as fh:
            json.dump(report, fh, indent=2)
    return 0


def cmd_optimize(args) -> int:
    train, quantizer = _training_split(args)
    config = GAConfig(
        population_size=args.pop,
        generations=args.gens,
        crossover_rate=args.crossover,
        mutation_rate=args.mutation,
        seed=args.seed,
        dim=args.dim,
        levels=args.levels,
    )
    front = run_optimization(train, quantizer, config)
    front.write_csv(args.out)
    best = max(front.members, key=lambda m: m[1].wacc)
    robust = min(front.members, key=lambda m: m[1].avg_sim)
    print(f"front size {len(front.members)}; best wAcc={best[1].wacc:.4f}, "
          f"most robust avgSim={robust[1].avg_sim:.4g}; written to {args.out}")
    if args.best_models_out:
        for tag, (budget, _) in (("accuracy", best), ("robustness", robust)):
            model = train_model(train, quantizer, budget, args.seed)
            save_model(model, f"{args.best_models_out}-{tag}.hdcm")
        print(f"best-member models written with prefix {args.best_models_out}")
    return 0


def cmd_sweep(args) -> int:
    try:
        dims = [int(d) for d in str(args.dims).split(",") if d]
    except ValueError:
        dims = []
    if not dims or any(d % 2 for d in dims):
        raise HvError(f"--dims must list even dimensions, got {args.dims!r}")
    train, quantizer = _training_split(args)
    rows = []
    for dim in dims:
        budget = uniform_flip_budget(dim, args.levels, features=train.n_features)
        model = train_model(train, quantizer, budget, args.seed)
        metrics = _metrics(model, train)
        size = len(model_bytes(model))
        rows.append((dim, metrics["wAcc"], metrics["totalAcc"], metrics["avgSim"], size))
        print(f"D={dim}: wAcc={metrics['wAcc']:.4f} totalAcc={metrics['totalAcc']:.4f} "
              f"avgSim={metrics['avgSim']:.4f} modelBytes={size}")
    with atomic_open(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["D", "wAcc", "totalAcc", "avgSim", "modelBytes"])
        for dim, wacc, total, sim, size in rows:
            writer.writerow([dim, repr(wacc), repr(total), repr(sim), size])
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    data = load_dataset_csv(args.data, args.label_col, label_names=model.labels)
    metrics = _metrics(model, data)
    _print_metrics("eval", metrics)
    for name, recall in metrics["perClassRecall"].items():
        print(f"  recall[{name}] = {'n/a' if recall is None else f'{recall:.4f}'}")
    print(f"  confusion = {metrics['confusion']}")
    if args.metrics_out:
        with atomic_open(args.metrics_out) as fh:
            json.dump(metrics, fh, indent=2)
    return 0


def cmd_synth(args) -> int:
    dataset = generate_motivational(args.grid, seed=args.seed)
    save_dataset_csv(dataset, args.out)
    print(f"{dataset.n_samples} samples, {dataset.n_classes} classes written to {args.out}")
    return 0


def cmd_export_embeddings(args) -> int:
    model = load_model(args.model)
    data = load_dataset_csv(args.data, args.label_col, label_names=model.labels)
    export_sample_hypervectors(model, data, args.out)
    print(f"{data.n_samples} x {model.table.dim} hypervector matrix written to {args.out}")
    return 0


# Subcommand name -> (help line, flag adder, handler), in the order help
# lists them.
_SUBCOMMANDS = {
    "train": ("train a baseline (uniform budget) model", _train_flags, cmd_train),
    "optimize": (
        "search flip budgets, export the Pareto front", _optimize_flags, cmd_optimize
    ),
    "sweep": ("baseline metrics across dimensions", _sweep_flags, cmd_sweep),
    "eval": ("evaluate a saved model on a CSV", _eval_flags, cmd_eval),
    "synth": ("generate the synthetic four-class dataset", _synth_flags, cmd_synth),
    "export-embeddings": (
        "dump sample hypervectors as CSV", _export_embeddings_flags, cmd_export_embeddings
    ),
}

# The handler of each subcommand; `main` dispatches through this dict, so
# wrapping one of its values wraps what `main` runs.
COMMANDS = {name: cmd for name, (_, _, cmd) in _SUBCOMMANDS.items()}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    if argv is None:
        argv = sys.argv[1:]
    # Only -h and --version may precede the subcommand, and both exit.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    parser = build_parser(command)
    try:
        config = _config_path(argv[1:]) if command else None
        if config is not None:
            argv = [argv[0], *_config_flags(config), *argv[1:]]
        args = parser.parse_args(argv)
        resolved = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        log.info("resolved config: %s", json.dumps(resolved, default=str, sort_keys=True))
        return COMMANDS[args.command](args)
    except (OSError, HvError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
