"""Command-line front end.

Subcommands:
  run          Chebyshev-scalarised sweep over (split, lambda) candidates.
  adversarial  Same sweep driven by the adversarial baseline.
  cull         Recompute the non-dominated mask of a candidates CSV.
  metrics      Score one saved model on a dataset and print the metric row.
  synth        Write a synthetic CSV + schema sidecar.

Exit codes: 0 success, 2 usage or configuration problem, 3 runtime failure.
Errors are reported as one JSON object on stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from .adversarial import AdversaryConfig, run_adversarial_sweep
from .data import (
    ColumnSchema,
    SplitPlan,
    encode_and_standardise,
    generate_synthetic,
    load_csv,
    write_dataset_csv,
)
from .errors import ConfigError, FairfrontError, IngestionError, InputError, ShapeError
from .evaluation import evaluate_test_metrics
from .network import load_model, save_model
from .pareto import (
    SweepConfig,
    _fmt,
    build_lambda_grid,
    cull_nondominated,
    read_candidates_csv,
    run_sweep,
    write_candidate_rows,
    write_candidates_csv,
)
from .propensity import PropensityConfig, PropensityModel
from .training import TrainConfig

CULL_METRICS = ("u_ato", "mv_eo", "mv_eopp", "mv_dp")

CONFIG_DEFAULTS = {
    "dataset_csv": None,
    "schema_json": None,
    "output_dir": "fairfront_out",
    "master_seed": 0,
    "num_splits": 100,
    "train_fraction": 0.5,
    "lambda_count": 15,
    "penalty_mode": "penultimate",
    "num_layers": 2,
    "hidden_width": 8,
    "dropout_prob": 0.2,
    "epochs": 500,
    "batch_size": 128,
    "learning_rate": 1e-3,
    "scheduler_factor": 0.9,
    "scheduler_patience": 10,
    "calibration_fraction": 0.2,
    "jobs": 1,
    "propensity": {
        "hidden_layers": 3,
        "hidden_width": 32,
        "dropout_prob": 0.2,
        "epochs": 100,
        "batch_size": None,  # falls back to the top-level batch_size
        "learning_rate": 1e-3,
    },
    "adversary": {
        "hidden_layers": 4,
        "hidden_width": 32,
        "pretrain_classifier_epochs": 2,
        "pretrain_adversary_epochs": 5,
        "rounds": 200,
        "learning_rate": 1e-3,
    },
}


def load_run_config(path) -> dict:
    """Read the JSON config, fill defaults, and reject unknown keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(user, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    resolved = json.loads(json.dumps(CONFIG_DEFAULTS))  # deep copy
    for key, value in user.items():
        if key not in resolved:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(resolved[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {key!r} must hold an object")
            for sub, sub_value in value.items():
                if sub not in resolved[key]:
                    raise ConfigError(f"unknown config key {key}.{sub!r}")
                resolved[key][sub] = sub_value
        else:
            resolved[key] = value
    for required in ("dataset_csv", "schema_json"):
        if not resolved[required]:
            raise ConfigError(f"config key {required!r} is required")
    return resolved


def _build_objects(resolved: dict):
    prop = dict(resolved["propensity"])
    if prop["batch_size"] is None:
        prop["batch_size"] = resolved["batch_size"]
    sweep_config = SweepConfig(
        num_layers=int(resolved["num_layers"]),
        hidden_width=int(resolved["hidden_width"]),
        dropout_prob=float(resolved["dropout_prob"]),
        penalty_mode=resolved["penalty_mode"],
        train=TrainConfig(
            epochs=int(resolved["epochs"]),
            batch_size=int(resolved["batch_size"]),
            learning_rate=float(resolved["learning_rate"]),
            scheduler_factor=float(resolved["scheduler_factor"]),
            scheduler_patience=int(resolved["scheduler_patience"]),
        ),
        propensity=PropensityConfig(
            hidden_layers=int(prop["hidden_layers"]),
            hidden_width=int(prop["hidden_width"]),
            dropout_prob=float(prop["dropout_prob"]),
            epochs=int(prop["epochs"]),
            batch_size=int(prop["batch_size"]),
            learning_rate=float(prop["learning_rate"]),
        ),
        calibration_fraction=float(resolved["calibration_fraction"]),
    )
    plan = SplitPlan(
        num_splits=int(resolved["num_splits"]),
        train_fraction=float(resolved["train_fraction"]),
        master_seed=int(resolved["master_seed"]),
    )
    grid = build_lambda_grid(int(resolved["lambda_count"]))
    return sweep_config, plan, grid


def _load_encoded_dataset(resolved: dict):
    schema = ColumnSchema.from_json(resolved["schema_json"])
    table = load_csv(resolved["dataset_csv"], schema)
    # The architecture is shared across splits, so the encoding (and with it
    # the feature width) is fixed once over all rows rather than per split.
    return encode_and_standardise(table, np.arange(table.n_rows))


def _write_sweep_outputs(out_dir: Path, resolved: dict, result, csv_name: str, started: float):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "resolved_config.json", "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
    if not result.candidates:
        raise FairfrontError(
            f"every sweep job failed; first error: {result.failures[0]['error'] if result.failures else 'unknown'}"
        )
    write_candidates_csv(out_dir / csv_name, result.candidates)
    models_dir = out_dir / "models"
    models_dir.mkdir(exist_ok=True)
    for c in result.candidates:
        save_model(models_dir / f"candidate_s{c.split_id:03d}_l{c.lambda_index:02d}.json", c.params, c.net_config)
    for split_id, model in sorted(result.propensity_models.items()):
        save_model(
            models_dir / f"propensity_s{split_id:03d}.json",
            model.params,
            model.config,
            temperature=model.temperature,
        )
    r = np.array([c.metrics["r_test"] for c in result.candidates])
    u = np.array([c.metrics["u_ato"] for c in result.candidates])
    summary = {
        "candidates": len(result.candidates),
        "failures": result.failures,
        "nondominated_ato": int(cull_nondominated(r, u).sum()),
        "wall_time_seconds": time.monotonic() - started,
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def cmd_sweep(args) -> int:
    """`run` and `adversarial`: one sweep over the configured splits and lambdas."""
    started = time.monotonic()
    resolved = load_run_config(args.config)
    _apply_overrides(resolved, args)
    sweep_config, plan, grid = _build_objects(resolved)
    if args.command == "adversarial":
        adv = resolved["adversary"]
        adv_config = AdversaryConfig(
            hidden_layers=int(adv["hidden_layers"]),
            hidden_width=int(adv["hidden_width"]),
            pretrain_classifier_epochs=int(adv["pretrain_classifier_epochs"]),
            pretrain_adversary_epochs=int(adv["pretrain_adversary_epochs"]),
            rounds=int(adv["rounds"]),
            learning_rate=float(adv["learning_rate"]),
        )
        sweep = functools.partial(run_adversarial_sweep, adv_config=adv_config)
        csv_name = "adversarial_candidates.csv"
    else:
        sweep, csv_name = run_sweep, "candidates.csv"
    dataset = _load_encoded_dataset(resolved)
    result = sweep(dataset, plan, grid, sweep_config, jobs=resolved["jobs"])
    out_dir = Path(resolved["output_dir"])
    summary = _write_sweep_outputs(out_dir, resolved, result, csv_name, started)
    print(
        f"wrote {summary['candidates']} {csv_name[:-4].replace('_', ' ')} "
        f"({summary['nondominated_ato']} non-dominated) to {out_dir / csv_name}; "
        f"{len(summary['failures'])} failed jobs"
    )
    return 0


def _apply_overrides(resolved: dict, args):
    if getattr(args, "out", None):
        resolved["output_dir"] = args.out
    if getattr(args, "jobs", None) is not None:
        resolved["jobs"] = args.jobs
    if getattr(args, "seed", None) is not None:
        resolved["master_seed"] = args.seed


def cmd_cull(args) -> int:
    rows, _ = read_candidates_csv(args.candidates)
    metric = args.metric
    r = np.array([row["r_test"] for row in rows])
    u = np.array([row[metric] for row in rows])
    keep = cull_nondominated(r, u)
    out_dir = Path(args.out) if args.out else Path(args.candidates).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"culled_{metric}.csv"
    write_candidate_rows(out_path, rows, keep, f"nondominated_{metric}")
    print(f"{int(keep.sum())} non-dominated of {len(rows)} in the (r_test, {metric}) plane -> {out_path}")
    return 0


def cmd_metrics(args) -> int:
    params, config, _ = load_model(args.model)
    p_params, p_config, temperature = load_model(args.propensity)
    if temperature is None:
        raise ConfigError(f"{args.propensity} lacks a temperature field; not a propensity model")
    propensity = PropensityModel(params=p_params, config=p_config, temperature=temperature)
    schema = ColumnSchema.from_json(args.schema)
    table = load_csv(args.dataset, schema)
    dataset = encode_and_standardise(table, np.arange(table.n_rows))
    if dataset.n_features != config.layer_sizes[0]:
        raise ConfigError(
            f"dataset encodes to {dataset.n_features} features but the model expects "
            f"{config.layer_sizes[0]}"
        )
    metrics = evaluate_test_metrics(
        params, config, dataset.features, dataset.sensitives, dataset.labels, propensity
    )
    print(",".join(_fmt(metrics[k]) for k in ("r_test", "u_ato", "mv_eo", "mv_eopp", "mv_dp")))
    return 0


def cmd_synth(args) -> int:
    dataset = generate_synthetic(
        n=args.n, p=args.p, bias_strength=args.beta, confounding=args.confounding, seed=args.seed or 0
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "synthetic.csv"
    schema_path = out_dir / "synthetic.schema.json"
    write_dataset_csv(dataset, csv_path, schema_path)
    print(f"wrote {dataset.n_rows} rows x {dataset.n_features} features to {csv_path} (+ {schema_path})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairfront", description="Fairness-accuracy Pareto front estimation"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in (("run", "Chebyshev-scalarised sweep"), ("adversarial", "adversarial-baseline sweep")):
        p_sweep = sub.add_parser(name, help=help_)
        p_sweep.add_argument("--config", required=True, help="JSON run configuration")
        p_sweep.add_argument("--out", help="output directory (overrides the config)")
        p_sweep.add_argument("--jobs", type=int, help="parallel split workers")
        p_sweep.add_argument("--seed", type=int, help="master seed (overrides the config)")
        p_sweep.set_defaults(func=cmd_sweep)

    p_cull = sub.add_parser("cull", help="recompute a non-dominated mask")
    p_cull.add_argument("candidates", help="candidates CSV to cull")
    p_cull.add_argument("--metric", choices=CULL_METRICS, default="u_ato")
    p_cull.add_argument("--out", help="output directory (default: next to the input)")
    p_cull.set_defaults(func=cmd_cull)

    p_metrics = sub.add_parser("metrics", help="score one model on a dataset")
    p_metrics.add_argument("model", help="classifier model JSON")
    p_metrics.add_argument("dataset", help="dataset CSV")
    p_metrics.add_argument("schema", help="schema JSON sidecar")
    p_metrics.add_argument("propensity", help="propensity model JSON (with temperature)")
    p_metrics.set_defaults(func=cmd_metrics)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--n", type=int, default=4000)
    p_synth.add_argument("--p", type=int, default=10)
    p_synth.add_argument("--beta", type=float, default=3.0, help="label bias strength")
    p_synth.add_argument("--confounding", type=float, default=1.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, IngestionError, InputError, ShapeError, FileNotFoundError) as exc:
        _report_error(exc)
        return 2
    except Exception as exc:  # runtime failure
        _report_error(exc)
        return 3


def _report_error(exc: Exception):
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)


def entrypoint():
    sys.exit(main())
