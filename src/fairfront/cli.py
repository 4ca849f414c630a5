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
import dataclasses
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
from .errors import (
    SEED, ConfigError, FairfrontError, IngestionError, InputError, ShapeError, at_least, check_value, open_input
)
from .evaluation import METRIC_NAMES, evaluate_test_metrics
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
from .propensity import PropensityConfig, PropensityModel, predict_propensity
from .training import TrainConfig

CULL_METRICS = METRIC_NAMES[1:]


def _defaults(cls) -> dict:
    """The fields of a config class that have a plain default, with that default."""
    return {f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}


# Every run-config key with its default.  Besides the keys of no config
# object, these are the config classes' fields with the classes' defaults.
CONFIG_DEFAULTS = {
    "dataset_csv": None,
    "schema_json": None,
    "output_dir": "fairfront_out",
    "num_splits": 100,
    "lambda_count": 15,
    "jobs": 1,
    **_defaults(SplitPlan),
    **_defaults(SweepConfig),
    **_defaults(TrainConfig),
    # batch_size None falls back to the top-level batch_size
    "propensity": {**_defaults(PropensityConfig), "batch_size": None},
    "adversary": _defaults(AdversaryConfig),
}

def load_run_config(path) -> dict:
    """Read the JSON config, fill defaults, and reject unknown keys."""
    with open_input(path, "config file", ConfigError, encoding="utf-8-sig") as fh:
        try:
            user = json.load(fh)
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
    for key in ("dataset_csv", "schema_json", "output_dir"):
        if not isinstance(resolved[key], str):
            raise ConfigError(f"config key {key!r} must be a path string, got {resolved[key]!r}")
    return resolved


def _build(cls, section: dict, where: str = "", **given):
    """cls from ``given`` and the section's values of its other fields.

    The class checks each value; its ConfigError gains the key's path.
    """
    values = {f.name: section[f.name] for f in dataclasses.fields(cls) if f.name not in given}
    try:
        return cls(**given, **values)
    except ConfigError as exc:
        raise ConfigError(f"config key {where}{exc}") from None


def _build_objects(resolved: dict):
    prop = dict(resolved["propensity"])
    if prop["batch_size"] is None:
        prop["batch_size"] = resolved["batch_size"]
    sweep_config = _build(
        SweepConfig,
        resolved,
        train=_build(TrainConfig, resolved),
        propensity=_build(PropensityConfig, prop, "propensity."),
    )
    plan = _build(SplitPlan, resolved)
    try:  # lambda_count and jobs, the keys of no config class
        grid = build_lambda_grid(resolved["lambda_count"])
        check_value("jobs", resolved["jobs"], **at_least(1))
    except ConfigError as exc:
        raise ConfigError(f"config key {exc}") from None
    return sweep_config, plan, grid, _build(AdversaryConfig, resolved["adversary"], "adversary.")


def _load_encoded_dataset(dataset_csv, schema_json):
    schema = ColumnSchema.from_json(schema_json)
    table = load_csv(dataset_csv, schema)
    # The architecture is shared across splits, so the encoding (and with it
    # the feature width) is fixed once over all rows rather than per split.
    return encode_and_standardise(table, np.arange(table.n_rows))


def _output_dir(path, option: str) -> Path:
    """path as an output directory that exists or can be made; else ConfigError naming option."""
    # Checked, not made: a command that stops before writing leaves no directory behind.
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"{option} {path} cannot be an output directory: {existing} is not a directory")
    return out


def _write_sweep_outputs(out_dir: Path, resolved: dict, result, csv_name: str, started: float):
    """Write a sweep's outputs; one without candidates writes its config and summary.json, then raises."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "resolved_config.json", "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
    nondominated = 0
    if result.candidates:
        nondominated = int(write_candidates_csv(out_dir / csv_name, result.candidates).sum())
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
    summary = {
        "candidates": len(result.candidates),
        "failures": result.failures,
        "nondominated_ato": nondominated,
        "wall_time_seconds": time.monotonic() - started,
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    if not result.candidates:
        raise FairfrontError(
            f"every sweep job failed; first error: {result.failures[0]['error'] if result.failures else 'unknown'}"
        )
    return summary


def cmd_sweep(args) -> int:
    """`run` and `adversarial`: one sweep over the configured splits and lambdas."""
    started = time.monotonic()
    resolved = load_run_config(args.config)
    _apply_overrides(resolved, args)
    sweep_config, plan, grid, adv_config = _build_objects(resolved)
    out_dir = _output_dir(resolved["output_dir"], "--out" if args.out else "config key 'output_dir'")
    if args.command == "adversarial":
        sweep = functools.partial(run_adversarial_sweep, adv_config=adv_config)
        csv_name = "adversarial_candidates.csv"
    else:
        sweep, csv_name = run_sweep, "candidates.csv"
    dataset = _load_encoded_dataset(resolved["dataset_csv"], resolved["schema_json"])
    result = sweep(dataset, plan, grid, sweep_config, jobs=resolved["jobs"])
    summary = _write_sweep_outputs(out_dir, resolved, result, csv_name, started)
    print(
        f"wrote {summary['candidates']} {csv_name[:-4].replace('_', ' ')} "
        f"({summary['nondominated_ato']} non-dominated) to {out_dir / csv_name}; "
        f"{len(summary['failures'])} failed jobs"
    )
    return 0


def _apply_overrides(resolved: dict, args):
    """Write the command-line options over the config; each value is checked here, so its error names the option."""
    if args.out:
        resolved["output_dir"] = args.out
    if args.jobs is not None:
        resolved["jobs"] = check_value("--jobs", args.jobs, **at_least(1))
    if args.seed is not None:
        resolved["master_seed"] = check_value("--seed", args.seed, **SEED)


def cmd_cull(args) -> int:
    rows, _ = read_candidates_csv(args.candidates)
    out_dir = _output_dir(args.out, "--out") if args.out else Path(args.candidates).parent
    metric = args.metric
    r = np.array([row["r_test"] for row in rows])
    u = np.array([row[metric] for row in rows])
    keep = cull_nondominated(r, u)
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
    dataset = _load_encoded_dataset(args.dataset, args.schema)
    for path, net in ((args.model, config), (args.propensity, p_config)):
        if dataset.n_features != net.layer_sizes[0]:
            raise ConfigError(
                f"dataset encodes to {dataset.n_features} features but model document {path} expects "
                f"{net.layer_sizes[0]}"
            )
    e_hat = predict_propensity(propensity, dataset.features)
    metrics = evaluate_test_metrics(params, config, dataset.features, dataset.sensitives, dataset.labels, e_hat)
    print(",".join(_fmt(metrics[k]) for k in METRIC_NAMES))
    return 0


def cmd_synth(args) -> int:
    out_dir = _output_dir(args.out, "--out")
    dataset = generate_synthetic(
        n=args.n, p=args.p, bias_strength=args.beta, confounding=args.confounding, seed=args.seed or 0
    )
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


if __name__ == "__main__":
    entrypoint()
