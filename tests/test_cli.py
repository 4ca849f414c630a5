"""Command-line interface: flows, outputs, exit codes."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairfront import cli
from fairfront.cli import main
from fairfront.network import load_model
from fairfront.pareto import SweepResult


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic dataset and one completed `run` shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    rc = main(["synth", "--out", str(root / "data"), "--n", "240", "--p", "4",
               "--beta", "2.5", "--seed", "3"])
    assert rc == 0
    config = {
        "dataset_csv": str(root / "data" / "synthetic.csv"),
        "schema_json": str(root / "data" / "synthetic.schema.json"),
        "output_dir": str(root / "out"),
        "num_splits": 2,
        "lambda_count": 3,
        "epochs": 8,
        "batch_size": 64,
        "master_seed": 5,
        "propensity": {"hidden_layers": 1, "hidden_width": 6, "epochs": 10},
    }
    config_path = root / "run.json"
    config_path.write_text(json.dumps(config))
    rc = main(["run", "--config", str(config_path)])
    assert rc == 0
    return root, config_path


def test_synth_outputs_are_loadable(tmp_path):
    rc = main(["synth", "--out", str(tmp_path), "--n", "50", "--p", "3", "--seed", "1"])
    assert rc == 0
    header = (tmp_path / "synthetic.csv").read_text().splitlines()[0]
    assert header == "x0,x1,x2,a,y"
    schema = json.loads((tmp_path / "synthetic.schema.json").read_text())
    assert schema["columns"]["a"] == "sensitive"
    assert schema["columns"]["y"] == "target"


def test_run_produces_complete_output_tree(workspace):
    root, _ = workspace
    out = root / "out"
    assert (out / "candidates.csv").exists()
    assert (out / "resolved_config.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["candidates"] == 6
    assert summary["failures"] == []
    assert summary["wall_time_seconds"] > 0
    lines = (out / "candidates.csv").read_text().splitlines()
    assert len(lines) == 7  # header + 2 splits x 3 lambdas
    models = sorted(p.name for p in (out / "models").iterdir())
    assert models == [
        "candidate_s000_l00.json", "candidate_s000_l01.json", "candidate_s000_l02.json",
        "candidate_s001_l00.json", "candidate_s001_l01.json", "candidate_s001_l02.json",
        "propensity_s000.json", "propensity_s001.json",
    ]
    _, _, temperature = load_model(out / "models" / "propensity_s000.json")
    assert temperature is not None and temperature > 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["epochs"] == 8
    assert resolved["scheduler_patience"] == 10  # default filled in


def test_rerun_is_byte_identical(workspace):
    root, config_path = workspace
    rc = main(["run", "--config", str(config_path), "--out", str(root / "out2"), "--jobs", "2"])
    assert rc == 0
    h1 = hashlib.sha256((root / "out" / "candidates.csv").read_bytes()).hexdigest()
    h2 = hashlib.sha256((root / "out2" / "candidates.csv").read_bytes()).hexdigest()
    assert h1 == h2


def test_adversarial_writes_candidates_summary_and_models(workspace, capsys):
    root, config_path = workspace
    config = json.loads(config_path.read_text())
    config["adversary"] = {
        "hidden_layers": 1, "hidden_width": 4,
        "pretrain_classifier_epochs": 1, "pretrain_adversary_epochs": 1, "rounds": 3,
    }
    adv_config_path = root / "adversarial.json"
    adv_config_path.write_text(json.dumps(config))
    serial, pooled = root / "adv", root / "adv_jobs2"
    assert main(["adversarial", "--config", str(adv_config_path), "--out", str(serial)]) == 0
    assert main(["adversarial", "--config", str(adv_config_path), "--out", str(pooled), "--jobs", "2"]) == 0
    assert "adversarial candidates" in capsys.readouterr().out
    lines = (serial / "adversarial_candidates.csv").read_text().splitlines()
    assert lines[0] == "split_id,lambda,r_test,u_ato,mv_eo,mv_eopp,mv_dp,nondominated_ato"
    assert len(lines) == 1 + 2 * 3
    assert not (serial / "candidates.csv").exists()
    summary = json.loads((serial / "summary.json").read_text())
    assert summary["candidates"] == 6 and summary["failures"] == []
    models = sorted(p.name for p in (serial / "models").iterdir())
    assert models == sorted(p.name for p in (root / "out" / "models").iterdir())
    for name in ["adversarial_candidates.csv", *(f"models/{m}" for m in models)]:
        assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name


@pytest.mark.parametrize("command, sweep", [("run", "run_sweep"), ("adversarial", "run_adversarial_sweep")])
def test_a_sweep_without_candidates_exits_3_and_keeps_its_failures(workspace, tmp_path, capsys, monkeypatch, command,
                                                                   sweep):
    root, config_path = workspace
    failures = [
        {"split_id": 0, "lambda_index": 0, "lambda": 0.0, "stage": "propensity", "error": "TrainingError: diverged"},
        {"split_id": 1, "lambda_index": 2, "lambda": 1.0, "stage": "bounds", "error": "NumericError: non-finite"},
    ]
    monkeypatch.setattr(cli, sweep, lambda *args, **kwargs: SweepResult(candidates=[], failures=failures))
    out = tmp_path / "out"
    assert main([command, "--config", str(config_path), "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "FairfrontError", "message": "every sweep job failed; first error: TrainingError: diverged"
    }
    summary = json.loads((out / "summary.json").read_text())
    assert summary["candidates"] == 0 and summary["failures"] == failures and summary["nondominated_ato"] == 0
    assert summary["wall_time_seconds"] > 0
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json", "summary.json"]


def _no_load(dataset_csv, schema_json):
    raise AssertionError("the dataset was loaded before the configuration was checked")


@pytest.mark.parametrize("command", ["run", "adversarial"])
def test_jobs_must_be_a_positive_integer(workspace, tmp_path, capsys, monkeypatch, command):
    root, config_path = workspace
    monkeypatch.setattr(cli, "_load_encoded_dataset", _no_load)
    assert main([command, "--config", str(config_path), "--out", str(tmp_path), "--jobs", "0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "jobs" in err["message"]
    string_jobs = tmp_path / "string_jobs.json"
    string_jobs.write_text(json.dumps({**json.loads(config_path.read_text()), "jobs": "2"}))
    assert main([command, "--config", str(string_jobs), "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "jobs" in err["message"]


@pytest.mark.parametrize(
    "propensity",
    [{"epochs": 0}, {"batch_size": 0}, {"learning_rate": -1e-3}, {"dropout_prob": 1.5}],
    ids=["epochs", "batch_size", "learning_rate", "dropout_prob"],
)
def test_bad_propensity_config_exits_2_before_loading(workspace, tmp_path, capsys, monkeypatch, propensity):
    _, config_path = workspace
    monkeypatch.setattr(cli, "_load_encoded_dataset", _no_load)
    config = json.loads(config_path.read_text())
    config["propensity"] = {**config["propensity"], **propensity}
    bad = tmp_path / "bad_propensity.json"
    bad.write_text(json.dumps(config))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "propensity" in err["message"]
    assert not (tmp_path / "out").exists()


def test_bad_dropout_prob_exits_2_before_loading(workspace, tmp_path, capsys, monkeypatch):
    _, config_path = workspace
    monkeypatch.setattr(cli, "_load_encoded_dataset", _no_load)
    bad = tmp_path / "bad_dropout.json"
    bad.write_text(json.dumps({**json.loads(config_path.read_text()), "dropout_prob": 1.5}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "dropout_prob" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value, option, named",
    [
        ("learning_rate", float("nan"), [], "learning_rate"),
        ("master_seed", -1, [], "master_seed"),
        ("master_seed", 5, ["--seed", "-3"], "--seed"),
    ],
    ids=["nan-learning_rate", "negative-master_seed", "negative-seed-option"],
)
def test_out_of_range_run_values_exit_2_before_loading(
    workspace, tmp_path, capsys, monkeypatch, key, value, option, named
):
    _, config_path = workspace
    monkeypatch.setattr(cli, "_load_encoded_dataset", _no_load)
    bad = tmp_path / "bad_value.json"
    # json writes a NaN as NaN, which json.load accepts
    bad.write_text(json.dumps({**json.loads(config_path.read_text()), key: value}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out"), *option]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and named in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "adversarial"])
@pytest.mark.parametrize("option, value, wants", [("--jobs", "0", ">= 1"), ("--seed", "-3", ">= 0")])
def test_a_bad_option_value_is_named_by_its_option(
    workspace, tmp_path, capsys, monkeypatch, command, option, value, wants
):
    _, config_path = workspace
    monkeypatch.setattr(cli, "_load_encoded_dataset", _no_load)
    assert main([command, "--config", str(config_path), "--out", str(tmp_path / "out"), option, value]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConfigError", "message": f"{option} must be an integer {wants}, got {value}"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("module", ["fairfront", "fairfront.cli"])
def test_python_m_runs_the_command_line(tmp_path, module):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def run(*args):
        return subprocess.run([sys.executable, "-m", module, *args], capture_output=True, text=True, env=env)

    shown = run("--help")
    assert shown.returncode == 0 and shown.stdout.startswith("usage: fairfront")
    missing = run("run", "--config", str(tmp_path / "missing.json"))
    assert missing.returncode == 2
    assert json.loads(missing.stderr)["message"] == f"config file not found: {tmp_path / 'missing.json'}"


def test_run_without_a_hidden_layer_exits_2_naming_num_layers(workspace, tmp_path, capsys):
    _, config_path = workspace
    bad = tmp_path / "no_hidden_layer.json"
    bad.write_text(json.dumps({**json.loads(config_path.read_text()), "num_layers": 1}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and err["message"].startswith("num_layers must be >= 2")
    assert not (tmp_path / "out").exists()


def test_synth_negative_seed_exits_2(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "data"), "--seed", "-1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "seed" in err["message"]
    assert not (tmp_path / "data").exists()


def test_cull_renames_mask_column(workspace, capsys):
    root, _ = workspace
    rc = main(["cull", str(root / "out" / "candidates.csv"), "--metric", "mv_dp"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "non-dominated" in printed
    culled = root / "out" / "culled_mv_dp.csv"
    header = culled.read_text().splitlines()[0]
    assert header.endswith("nondominated_mv_dp")
    # re-culling the culled file is accepted and idempotent on the mask column
    rc = main(["cull", str(culled), "--metric", "mv_dp", "--out", str(root / "out" / "again")])
    assert rc == 0
    again = (root / "out" / "again" / "culled_mv_dp.csv").read_text()
    assert again == culled.read_text()


CULL_INPUT = (
    "split_id,lambda,r_test,u_ato,mv_eo,mv_eopp,mv_dp,nondominated_ato\r\n"
    "0,0,0.5193837267154233,0.0031677795788379592,0.0054646412579964767,0.0054646412579964767,"
    "0.014016206771701395,1\r\n"
    "0,0.030800702882410234,0.52,1e-05,0.30000000000000004,0.004,0.013,0\r\n"
    "1,1,0.69,0.00043155435119923702,0.0033628053850088832,0.5,2.5e-17,1\r\n"
    "1,0.5,0.69,0.1,0.0033628053850088832,0.25,0.125,0\r\n"
)

# The bytes `cull --metric mv_eo` wrote for CULL_INPUT before it shared the
# sweep's CSV writer.
CULL_EXPECTED = (
    b"split_id,lambda,r_test,u_ato,mv_eo,mv_eopp,mv_dp,nondominated_mv_eo\r\n"
    b"0,0,0.51938372671542332,0.0031677795788379592,0.0054646412579964767,0.0054646412579964767,"
    b"0.014016206771701395,1\r\n"
    b"0,0.030800702882410234,0.52000000000000002,1.0000000000000001e-05,0.30000000000000004,"
    b"0.0040000000000000001,0.012999999999999999,0\r\n"
    b"1,1,0.68999999999999995,0.00043155435119923702,0.0033628053850088832,0.5,2.4999999999999999e-17,1\r\n"
    b"1,0.5,0.68999999999999995,0.10000000000000001,0.0033628053850088832,0.25,0.125,1\r\n"
)


def test_cull_output_bytes_are_stable(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_bytes(CULL_INPUT.encode())
    assert main(["cull", str(src), "--metric", "mv_eo", "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "culled_mv_eo.csv").read_bytes() == CULL_EXPECTED


def test_metrics_prints_five_values(workspace, capsys):
    root, _ = workspace
    out = root / "out"
    rc = main(["metrics",
               str(out / "models" / "candidate_s000_l00.json"),
               str(root / "data" / "synthetic.csv"),
               str(root / "data" / "synthetic.schema.json"),
               str(out / "models" / "propensity_s000.json")])
    assert rc == 0
    row = capsys.readouterr().out.strip().split(",")
    assert len(row) == 5
    values = [float(v) for v in row]
    assert values[0] > 0  # r_test is a positive BCE


def test_metrics_rejects_classifier_as_propensity(workspace, capsys):
    root, _ = workspace
    out = root / "out"
    rc = main(["metrics",
               str(out / "models" / "candidate_s000_l00.json"),
               str(root / "data" / "synthetic.csv"),
               str(root / "data" / "synthetic.schema.json"),
               str(out / "models" / "candidate_s000_l01.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "temperature" in err["message"]


@pytest.mark.parametrize("temperature", [float("nan"), 0.0, -1.5], ids=["nan", "zero", "negative"])
def test_metrics_propensity_temperature_out_of_range_exits_2_naming_the_file(workspace, tmp_path, capsys,
                                                                             temperature):
    root, _ = workspace
    models = root / "out" / "models"
    doc = json.loads((models / "propensity_s000.json").read_text())
    doc["temperature"] = temperature
    scorer = tmp_path / "scorer.json"
    scorer.write_text(json.dumps(doc))
    rc = main(["metrics", str(models / "candidate_s000_l00.json"), str(root / "data" / "synthetic.csv"),
               str(root / "data" / "synthetic.schema.json"), str(scorer)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(f"model document {scorer}: temperature must be ")


@pytest.mark.parametrize("widened", ["classifier", "propensity"])
def test_metrics_model_of_the_wrong_input_width_exits_2_naming_the_file(workspace, tmp_path, capsys, widened):
    root, _ = workspace
    models = root / "out" / "models"
    paths = {"classifier": models / "candidate_s000_l00.json", "propensity": models / "propensity_s000.json"}
    doc = json.loads(paths[widened].read_text())
    doc["layer_sizes"][0] += 1  # the dataset encodes to 4 features; this model expects 5
    doc["weights"][0] = [row + [0.0] for row in doc["weights"][0]]
    paths[widened] = tmp_path / f"{widened}.json"
    paths[widened].write_text(json.dumps(doc))
    rc = main(["metrics", str(paths["classifier"]), str(root / "data" / "synthetic.csv"),
               str(root / "data" / "synthetic.schema.json"), str(paths["propensity"])])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"] == f"dataset encodes to 4 features but model document {paths[widened]} expects 5"


def test_config_validation_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dataset_csv": "x.csv", "schema_json": "x.json", "frobnicate": 1}))
    assert main(["run", "--config", str(bad)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "frobnicate" in err["message"]

    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({
        "dataset_csv": "x.csv", "schema_json": "x.json",
        "propensity": {"mystery": 3},
    }))
    assert main(["run", "--config", str(nested)]) == 2


def test_missing_dataset_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "dataset_csv": str(tmp_path / "absent.csv"),
        "schema_json": str(tmp_path / "absent.schema.json"),
    }))
    assert main(["run", "--config", str(config)]) == 2
    capsys.readouterr()


def test_cull_missing_file_exit_code(tmp_path, capsys):
    assert main(["cull", str(tmp_path / "ghost.csv")]) == 2
    capsys.readouterr()


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "key, value",
    [
        ("epochs", None),
        ("num_splits", "ten"),
        ("propensity", {"epochs": []}),
        ("epochs", 2.5),
        ("epochs", "12"),
        ("epochs", True),
        ("lambda_count", 4.5),
        ("output_dir", 5),
        ("schema_json", ["a.json"]),
        ("adversary", {"rounds": "x"}),
    ],
    ids=[
        "null-epochs",
        "text-num_splits",
        "list-propensity-epochs",
        "fractional-epochs",
        "numeric-text-epochs",
        "bool-epochs",
        "fractional-lambda_count",
        "number-output_dir",
        "list-schema_json",
        "text-adversary-rounds",
    ],
)
def test_config_values_of_the_wrong_type_exit_2_before_loading(workspace, tmp_path, capsys, monkeypatch, key, value):
    _, config_path = workspace
    monkeypatch.setattr(cli, "_load_encoded_dataset", _no_load)
    bad = tmp_path / "bad_type.json"
    bad.write_text(json.dumps({**json.loads(config_path.read_text()), key: value}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and key in err["message"]


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("propensity", {"epochs": 0}, "config key propensity.epochs must be an integer >= 1, got 0"),
        ("adversary", {"rounds": "x"}, "config key adversary.rounds must be an integer >= 0, got 'x'"),
        ("hidden_width", 8.5, "config key hidden_width must be an integer >= 1, got 8.5"),
        ("calibration_fraction", 1, "config key calibration_fraction must be a finite number in (0, 1), got 1"),
        ("jobs", 0, "config key jobs must be an integer >= 1, got 0"),
        ("lambda_count", 1, "config key lambda_count must be an integer >= 2, got 1"),
    ],
    ids=["propensity-epochs", "adversary-rounds", "hidden_width", "calibration_fraction", "jobs", "lambda_count"],
)
def test_a_config_class_error_names_the_key_path(workspace, tmp_path, capsys, monkeypatch, key, value, message):
    _, config_path = workspace
    monkeypatch.setattr(cli, "_load_encoded_dataset", _no_load)
    bad = tmp_path / "bad_key.json"
    bad.write_text(json.dumps({**json.loads(config_path.read_text()), key: value}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": message}


def test_a_config_naming_penalty_mode_exits_2_as_an_unknown_key(workspace, tmp_path, capsys, monkeypatch):
    # the penalty always reads the last hidden layer, so no key chooses it
    _, config_path = workspace
    monkeypatch.setattr(cli, "_load_encoded_dataset", _no_load)
    old = tmp_path / "old.json"
    old.write_text(json.dumps({**json.loads(config_path.read_text()), "penalty_mode": "penultimate"}))
    assert main(["run", "--config", str(old), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConfigError", "message": "unknown config key 'penalty_mode'"}


def test_cull_non_numeric_cell_exits_2_naming_the_line(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_bytes(CULL_INPUT.replace("0.52,1e-05", "0.52,lots").encode())
    assert main(["cull", str(src)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and f"{src}:3" in err["message"]


def _model_text(**fields):
    return json.dumps({"layer_sizes": [4, 1], "dropout_prob": 0.2, "weights": [[[1, 2, 3, 4]]], "biases": [[0]],
                       **fields})


def _metrics_with_classifier(workspace, tmp_path, capsys, text) -> tuple[dict, Path]:
    """Run `metrics` on a classifier document of this text; returns the error and the path, after exit 2."""
    root, _ = workspace
    broken = tmp_path / "broken.json"
    broken.write_text(text)
    rc = main(["metrics", str(broken), str(root / "data" / "synthetic.csv"),
               str(root / "data" / "synthetic.schema.json"),
               str(root / "out" / "models" / "propensity_s000.json")])
    assert rc == 2
    return json.loads(capsys.readouterr().err), broken


def _assert_names_the_fault(err, path, field):
    """A fault of the document's structure (field None) is an InputError naming the file; a field
    value's fault is the ConfigError of the field's own check, naming the file and the field."""
    if field is None:
        assert err["error"] == "InputError" and str(path) in err["message"]
    else:
        assert err["error"] == "ConfigError" and err["message"].startswith(f"model document {path}: {field} ")


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"layer_sizes": [4, 8, 1],', None),
        ("5", None),
        (_model_text(weights=[[["a", 1]]]), None),
        (_model_text(weights=[[[1, 2, 3, 4], [1]]]), None),
        (_model_text(biases=[["x"]]), None),
        (_model_text(layer_sizes="ab"), "layer_sizes"),
        (_model_text(layer_sizes=[4.5, 1]), "layer_sizes[0]"),
        (_model_text(dropout_prob="high"), "dropout_prob"),
    ],
    ids=["truncated", "number", "text-weight", "ragged-weights", "text-bias", "text-layer_sizes",
         "fractional-layer_sizes", "text-dropout_prob"],
)
def test_metrics_model_that_is_not_a_json_object_exits_2(workspace, tmp_path, capsys, text, field):
    _assert_names_the_fault(*_metrics_with_classifier(workspace, tmp_path, capsys, text), field)


@pytest.mark.parametrize(
    "text, field",
    [
        (_model_text(dropout_prob="0.2"), "dropout_prob"),
        (_model_text(dropout_prob=True), "dropout_prob"),
        (_model_text(temperature="2"), "temperature"),
        (_model_text(temperature=True), "temperature"),
        (_model_text(weights=[[["1", "2", "3", "4"]]]), None),
        (_model_text(weights=[[[True, False, True, False]]]), None),
        (_model_text(biases=[["0"]]), None),
        (_model_text(weights=5), None),
        (_model_text(weights=[[[float("nan"), 2, 3, 4]]]), None),
        (_model_text(biases=[[float("inf")]]), None),
    ],
    ids=["numeric-text-dropout_prob", "bool-dropout_prob", "numeric-text-temperature", "bool-temperature",
         "numeric-text-weights", "bool-weights", "numeric-text-bias", "number-weights", "nan-weight",
         "infinite-bias"],
)
def test_metrics_model_values_that_are_not_json_numbers_exit_2(workspace, tmp_path, capsys, text, field):
    _assert_names_the_fault(*_metrics_with_classifier(workspace, tmp_path, capsys, text), field)


@pytest.mark.parametrize(
    "text, field",
    [
        (_model_text(layer_sizes=[4, 0, 1]), "layer_sizes[1]"),
        (_model_text(dropout_prob=1.5), "dropout_prob"),
        (_model_text(temperature=0), "temperature"),
    ],
    ids=["zero-width-layer", "dropout_prob-above-1", "zero-temperature"],
)
def test_metrics_model_field_out_of_range_exits_2_naming_the_file_and_the_field(
    workspace, tmp_path, capsys, text, field
):
    _assert_names_the_fault(*_metrics_with_classifier(workspace, tmp_path, capsys, text), field)


def test_metrics_missing_model_exits_2_naming_the_path(workspace, tmp_path, capsys):
    root, _ = workspace
    missing = tmp_path / "absent_model.json"
    assert main(["metrics", str(missing), str(root / "data" / "synthetic.csv"),
                 str(root / "data" / "synthetic.schema.json"),
                 str(root / "out" / "models" / "propensity_s000.json")]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "InputError", "message": f"model document not found: {missing}"
    }


def test_integer_learning_rates_build_float_rates(workspace, tmp_path):
    _, config_path = workspace
    config = tmp_path / "integer_rates.json"
    config.write_text(json.dumps({
        **json.loads(config_path.read_text()),
        "learning_rate": 1,
        "propensity": {"learning_rate": 1},
        "adversary": {"learning_rate": 1},
    }))
    resolved = cli.load_run_config(config)
    sweep_config, _, _, adv_config = cli._build_objects(resolved)
    for rate in (sweep_config.train.learning_rate, sweep_config.propensity.learning_rate, adv_config.learning_rate):
        assert type(rate) is float and rate == 1.0


def test_a_byte_order_mark_on_the_run_config_is_read_past(tmp_path):
    text = json.dumps({"dataset_csv": "d.csv", "schema_json": "d.schema.json", "propensity": {"epochs": 3}})
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert cli.load_run_config(marked) == cli.load_run_config(plain)


@pytest.mark.parametrize(
    "schema",
    [{"columns": ["a"]}, {"columns": {"s": "sensitive", "y": "target"}, "missing_values": 5}],
    ids=["columns-list", "missing_values-number"],
)
def test_metrics_malformed_schema_sidecar_exits_2(workspace, tmp_path, capsys, schema):
    root, _ = workspace
    sidecar = tmp_path / "bad.schema.json"
    sidecar.write_text(json.dumps(schema))
    models = root / "out" / "models"
    rc = main(["metrics", str(models / "candidate_s000_l00.json"), str(root / "data" / "synthetic.csv"),
               str(sidecar), str(models / "propensity_s000.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and str(sidecar) in err["message"]


def _config_with(tmp_path, config_path, **values) -> str:
    """A copy of the workspace's run config with the given keys replaced."""
    config = tmp_path / "edited.json"
    config.write_text(json.dumps({**json.loads(config_path.read_text()), **values}))
    return str(config)


def _argv_reading(workspace, tmp_path, slot: str, path) -> list[str]:
    """A command that reads path as its input ``slot``, and the workspace's files for the rest."""
    root, config_path = workspace
    if slot in ("config", "dataset_csv", "schema_json"):
        config = str(path) if slot == "config" else _config_with(tmp_path, config_path, **{slot: str(path)})
        return ["run", "--config", config, "--out", str(tmp_path / "out")]
    if slot == "candidates":
        return ["cull", str(path)]
    data, models = root / "data", root / "out" / "models"
    paths = {
        "model": models / "candidate_s000_l00.json", "dataset": data / "synthetic.csv",
        "schema": data / "synthetic.schema.json", "propensity": models / "propensity_s000.json", slot: path,
    }
    return ["metrics", *map(str, paths.values())]


@pytest.mark.parametrize(
    "slot, error",
    [("config", "ConfigError"), ("dataset_csv", "IngestionError"), ("schema_json", "ConfigError"),
     ("candidates", "InputError"), ("model", "InputError"), ("propensity", "InputError")],
)
def test_a_directory_given_as_an_input_file_exits_2_naming_it(workspace, tmp_path, capsys, slot, error):
    folder = tmp_path / "folder"
    folder.mkdir()
    assert main(_argv_reading(workspace, tmp_path, slot, folder)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error
    assert str(folder) in err["message"] and "Is a directory" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "slot, error, line",
    [("config", "ConfigError", 0), ("dataset_csv", "IngestionError", 0), ("dataset_csv", "IngestionError", 2),
     ("dataset_csv", "IngestionError", -1), ("schema_json", "ConfigError", 0), ("candidates", "InputError", 0),
     ("model", "InputError", 0)],
    ids=["config", "dataset_csv", "dataset_csv-third-line", "dataset_csv-last-line", "schema_json", "candidates",
         "model"],
)
def test_an_input_file_that_is_not_utf8_exits_2_naming_it(workspace, tmp_path, capsys, slot, error, line):
    # Bytes ff fe 00 at the start of the file, or at the start of one line of the workspace's
    # dataset; its last line lies past the first block that the reader decodes.
    bad = tmp_path / "bad"
    if line:
        lines = (workspace[0] / "data" / "synthetic.csv").read_bytes().splitlines(keepends=True)
        lines[line] = b"\xff\xfe\x00" + lines[line]
        bad.write_bytes(b"".join(lines))
    else:
        bad.write_bytes(b"\xff\xfe\x00")
    assert main(_argv_reading(workspace, tmp_path, slot, bad)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error
    assert str(bad) in err["message"] and "not utf-8 text" in err["message"]
    assert not (tmp_path / "out").exists()


def _no_work(*args, **kwargs):
    raise AssertionError("work ran before the output directory was checked")


@pytest.mark.parametrize(
    "command, option",
    [("run", "--out"), ("adversarial", "--out"), ("run", "config key 'output_dir'"), ("cull", "--out"),
     ("synth", "--out")],
)
@pytest.mark.parametrize("below", [False, True], ids=["the-file", "a-path-below-it"])
def test_a_file_given_as_the_output_directory_exits_2_before_any_work(
    workspace, tmp_path, capsys, monkeypatch, command, option, below
):
    root, config_path = workspace
    for name in ("_load_encoded_dataset", "cull_nondominated", "generate_synthetic"):
        monkeypatch.setattr(cli, name, _no_work)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = str(taken / "sub" if below else taken)
    if option == "--out":
        inputs = {"cull": [str(root / "out" / "candidates.csv")], "synth": []}
        argv = [command, *inputs.get(command, ["--config", str(config_path)]), "--out", out]
    else:
        argv = [command, "--config", _config_with(tmp_path, config_path, output_dir=out)]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "error": "ConfigError",
        "message": f"{option} {out} cannot be an output directory: {taken} is not a directory",
    }
    assert taken.read_text() == "kept"
