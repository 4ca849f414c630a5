"""Tabular ingestion, encoding, resampling splits, minibatches, and a synthetic generator.

A dataset arrives as a CSV file plus a JSON sidecar mapping each column to a
role (numeric, categorical, sensitive, target, ignore).  Rows with missing
values are dropped at load time; encoding derives every statistic (means,
stds, category vocabularies) from caller-designated training rows only.
"""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FRACTION, ConfigError, IngestionError, InputError, ShapeError, at_least, check_fields, check_value, open_input
)
from .metrics import _as_binary
from .network import _all_finite, _sigmoid

ROLE_NUMERIC = "numeric"
ROLE_CATEGORICAL = "categorical"
ROLE_SENSITIVE = "sensitive"
ROLE_TARGET = "target"
ROLE_IGNORE = "ignore"
ROLES = (ROLE_NUMERIC, ROLE_CATEGORICAL, ROLE_SENSITIVE, ROLE_TARGET, ROLE_IGNORE)

DEFAULT_MISSING = ("", "?")


@dataclass
class ColumnSchema:
    """Column-to-role map plus the missing-value sentinels."""

    columns: dict[str, str]
    missing_values: tuple[str, ...] = DEFAULT_MISSING

    def __post_init__(self):
        for name, role in self.columns.items():
            if role not in ROLES:
                raise ConfigError(f"column {name!r} has unknown role {role!r}")
        if sum(1 for r in self.columns.values() if r == ROLE_SENSITIVE) != 1:
            raise ConfigError("schema must name exactly one sensitive column")
        if sum(1 for r in self.columns.values() if r == ROLE_TARGET) != 1:
            raise ConfigError("schema must name exactly one target column")
        self.missing_values = tuple(self.missing_values)

    @property
    def sensitive_column(self) -> str:
        return next(n for n, r in self.columns.items() if r == ROLE_SENSITIVE)

    @property
    def target_column(self) -> str:
        return next(n for n, r in self.columns.items() if r == ROLE_TARGET)

    @classmethod
    def from_json(cls, path) -> "ColumnSchema":
        with open_input(path, "schema file", ConfigError, encoding="utf-8-sig") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"schema file {path} is not valid JSON: {exc}")
        if not isinstance(doc, dict) or not isinstance(doc.get("columns"), dict):
            raise ConfigError(f"schema file {path} must be an object whose 'columns' field is an object")
        missing = doc.get("missing_values", list(DEFAULT_MISSING))
        if not isinstance(missing, list) or not all(isinstance(v, str) for v in missing):
            raise ConfigError(f"schema file {path}: 'missing_values' must be a list of strings")
        return cls(columns=doc["columns"], missing_values=tuple(missing))

    def to_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": self.columns, "missing_values": list(self.missing_values)}, fh, indent=2)


@dataclass
class RawTable:
    """Parsed, missing-free rows prior to encoding.

    Binary columns (sensitive, target) are mapped to 0/1 by sorted level
    name; the original names are kept for provenance.
    """

    schema: ColumnSchema
    n_rows: int
    numeric: dict[str, np.ndarray]
    categorical: dict[str, np.ndarray]
    sensitives: np.ndarray
    labels: np.ndarray
    sensitive_levels: tuple[str, str]
    target_levels: tuple[str, str]
    dropped_rows: int


def load_csv(path, schema: ColumnSchema) -> RawTable:
    """Read an RFC-4180 CSV with a header row into a RawTable.

    Cells are whitespace-stripped before sentinel checks and parsing.  Any
    row with a missing value in a non-ignored column is dropped (the count is
    recorded).  Numeric cells must parse to finite floats; sensitive and
    target columns must carry exactly two distinct values after the drops.
    """
    with open_input(path, "data file", IngestionError, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: file is empty")
        header = [h.strip() for h in header]
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise IngestionError(f"{path}: header repeats columns: {repeated}")
        missing_in_file = [c for c in schema.columns if c not in header]
        if missing_in_file:
            raise IngestionError(f"{path}: schema columns absent from header: {missing_in_file}")
        unknown = [c for c in header if c not in schema.columns]
        if unknown:
            raise IngestionError(f"{path}: header columns missing from schema: {unknown}")
        col_index = {name: header.index(name) for name in schema.columns}
        active = {n: i for n, i in col_index.items() if schema.columns[n] != ROLE_IGNORE}
        sentinels = set(schema.missing_values)

        numeric_raw: dict[str, list[float]] = {
            name: [] for name, r in schema.columns.items() if r == ROLE_NUMERIC
        }
        categorical_raw: dict[str, list[str]] = {
            name: [] for name, r in schema.columns.items() if r == ROLE_CATEGORICAL
        }
        sens_raw: list[str] = []
        target_raw: list[str] = []
        dropped = 0
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise IngestionError(f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}")
            cells = {name: row[i].strip() for name, i in active.items()}
            if any(c in sentinels for c in cells.values()):
                dropped += 1
                continue
            for name in numeric_raw:
                cell = cells[name]
                try:
                    value = float(cell)
                except ValueError:
                    raise IngestionError(
                        f"{path}:{line_no}: column {name!r}: cannot parse {cell!r} as a number"
                    )
                if not np.isfinite(value):
                    raise IngestionError(
                        f"{path}:{line_no}: column {name!r}: non-finite value {cell!r}"
                    )
                numeric_raw[name].append(value)
            for name in categorical_raw:
                categorical_raw[name].append(cells[name])
            sens_raw.append(cells[schema.sensitive_column])
            target_raw.append(cells[schema.target_column])

    n = len(sens_raw)
    if n == 0:
        raise IngestionError(f"{path}: no usable rows after dropping {dropped} incomplete ones")

    def binarise(values: list[str], column: str) -> tuple[np.ndarray, tuple[str, str]]:
        levels = sorted(set(values))
        if len(levels) != 2:
            raise IngestionError(
                f"{path}: column {column!r} must have exactly 2 levels, found {len(levels)}: {levels[:6]}"
            )
        mapping = {levels[0]: 0, levels[1]: 1}
        return np.array([mapping[v] for v in values], dtype=np.int64), (levels[0], levels[1])

    sens, sens_levels = binarise(sens_raw, schema.sensitive_column)
    labels, target_levels = binarise(target_raw, schema.target_column)
    return RawTable(
        schema=schema,
        n_rows=n,
        numeric={k: np.asarray(v, dtype=np.float64) for k, v in numeric_raw.items()},
        categorical={k: np.asarray(v, dtype=object) for k, v in categorical_raw.items()},
        sensitives=sens,
        labels=labels,
        sensitive_levels=sens_levels,
        target_levels=target_levels,
        dropped_rows=dropped,
    )


@dataclass
class Dataset:
    """Encoded feature matrix with aligned sensitive and label vectors.

    The sensitive attribute is deliberately not a feature column.
    standardisation_stats records the (mean, std) pair applied to each
    retained numeric column, derived from training rows only.
    """

    features: np.ndarray
    sensitives: np.ndarray
    labels: np.ndarray
    feature_names: list[str]
    standardisation_stats: dict[str, tuple[float, float]] = field(default_factory=dict)
    sensitive_levels: tuple[str, str] = ("0", "1")
    target_levels: tuple[str, str] = ("0", "1")

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ShapeError(f"features must be 2-d, got shape {self.features.shape}")
        n = self.features.shape[0]
        if n < 2:
            raise InputError("a dataset needs at least two rows")
        if not _all_finite(self.features):
            raise InputError("encoded features contain non-finite entries")
        for name, vec in (("sensitives", self.sensitives), ("labels", self.labels)):
            if np.unique(_as_binary(vec, name, n)).shape[0] != 2:
                raise InputError(f"{name} must contain both levels")
        if len(self.feature_names) != self.features.shape[1]:
            raise ShapeError("feature_names length does not match the feature count")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def encode_and_standardise(table: RawTable, train_indices) -> Dataset:
    """Turn a RawTable into a model-ready Dataset.

    Numeric columns are shifted/scaled by the training rows' mean and
    population std; a column whose training std is zero is dropped with a
    warning.  Categorical columns one-hot encode against the sorted training
    vocabulary; values unseen in training encode as all-zero blocks.
    """
    idx = np.asarray(train_indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise InputError("train_indices must be a non-empty 1-d index array")
    if idx.min() < 0 or idx.max() >= table.n_rows:
        raise InputError("train_indices out of range")
    blocks: list[np.ndarray] = []
    names: list[str] = []
    stats: dict[str, tuple[float, float]] = {}
    for name in table.schema.columns:
        role = table.schema.columns[name]
        if role == ROLE_NUMERIC:
            col = table.numeric[name]
            mean = float(col[idx].mean())
            std = float(col[idx].std())
            if std == 0.0:
                warnings.warn(
                    f"numeric column {name!r} is constant on the training rows; dropping it",
                    UserWarning,
                    stacklevel=2,
                )
                continue
            blocks.append(((col - mean) / std)[:, None])
            names.append(name)
            stats[name] = (mean, std)
        elif role == ROLE_CATEGORICAL:
            col = table.categorical[name]
            vocab = sorted(set(col[idx]))
            onehot = np.zeros((table.n_rows, len(vocab)))
            for j, value in enumerate(vocab):
                onehot[:, j] = col == value
            blocks.append(onehot)
            names.extend(f"{name}={value}" for value in vocab)
    if not blocks:
        raise IngestionError("no feature columns survived encoding")
    features = np.hstack(blocks)
    if not np.any(features[idx].std(axis=0) > 0.0):
        raise IngestionError("every encoded feature is constant on the training rows")
    return Dataset(
        features=features,
        sensitives=table.sensitives,
        labels=table.labels,
        feature_names=names,
        standardisation_stats=stats,
        sensitive_levels=table.sensitive_levels,
        target_levels=table.target_levels,
    )


@dataclass
class SplitPlan:
    """How to draw the repeated train/test splits."""

    num_splits: int = field(metadata=at_least(1))
    train_fraction: float = field(default=0.5, metadata=FRACTION)
    master_seed: int = field(default=0, metadata=at_least(0))

    __post_init__ = check_fields


MAX_SPLIT_ATTEMPTS = 100


def make_splits(
    n: int, plan: SplitPlan, sensitives=None, labels=None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Draw the plan's random train/test partitions of range(n).

    Each split is a fresh permutation seeded from (master_seed, split_id).
    When sensitives/labels are supplied, a draw leaving either side without
    both levels of either vector is redrawn, up to 100 attempts per split.
    """
    if n < 2:
        raise InputError(f"cannot split {n} rows")
    checks = [np.asarray(v) for v in (sensitives, labels) if v is not None]
    for v in checks:
        if v.shape != (n,):
            raise ShapeError(f"level-check vector has shape {v.shape}, expected ({n},)")
    n_train = int(np.floor(plan.train_fraction * n))
    if n_train == 0 or n_train == n:
        raise ConfigError(
            f"train_fraction {plan.train_fraction} leaves an empty side for n={n}"
        )
    splits = []
    for split_id in range(plan.num_splits):
        for attempt in range(MAX_SPLIT_ATTEMPTS):
            rng = np.random.default_rng(
                np.random.SeedSequence([plan.master_seed, split_id, attempt])
            )
            perm = rng.permutation(n)
            train, test = perm[:n_train], perm[n_train:]
            ok = all(
                np.unique(v[part]).shape[0] == 2 for v in checks for part in (train, test)
            )
            if ok:
                splits.append((train, test))
                break
        else:
            raise InputError(
                f"split {split_id}: no draw kept both levels on both sides "
                f"after {MAX_SPLIT_ATTEMPTS} attempts"
            )
    return splits


@dataclass
class MiniBatch:
    """One step's batch: the positions it takes from every member's pass, as a (K, m) array.

    The four array fields are always None.  The benchmark's tracer
    (bench/spans.py, _gathered_bytes) reads them; they go when ROADMAP item 1
    drops that hook.
    """

    indices: np.ndarray
    features: None = None
    sensitives: None = None
    labels: None = None
    propensities: None = None


def minibatches(n: int, batch_size: int, rngs: list[np.random.Generator]) -> list[MiniBatch]:
    """One shuffled pass over n rows per stack member, cut into batches of batch_size.

    Member k's pass is rngs[k].permutation(n), drawn in member order, so each
    generator advances exactly as one permutation of n advances it; a
    training loop threads one stream per member through its shuffles and its
    dropout.  Batch j holds positions [j * batch_size, (j + 1) * batch_size)
    of every member's pass, and the last batch may be shorter; together the
    batches cover each member's n positions once.  n < 1, batch_size < 1 or
    no generator raises ConfigError.
    """
    n = check_value("n", n, **at_least(1))
    batch_size = check_value("batch_size", batch_size, **at_least(1))
    if not rngs:
        raise ConfigError("minibatches needs one generator per stack member, got none")
    order = np.stack([rng.permutation(n) for rng in rngs])
    return [MiniBatch(order[:, start : start + batch_size]) for start in range(0, n, batch_size)]


def generate_synthetic(
    n: int, p: int, bias_strength: float, confounding: float = 1.0, seed: int = 0
) -> Dataset:
    """Gaussian features with a confounded binary attribute and biased labels.

    x ~ N(0, I_p); a ~ Bernoulli(sigmoid(confounding * <w_a, x>));
    y ~ Bernoulli(sigmoid(<w_y, x> + bias_strength * a)).  w_a and w_y are
    unit vectors drawn deterministically from the seed, with w_y
    orthogonalised against w_a so that at bias_strength = 0 the label signal
    is independent of the attribute signal by construction.
    """
    n, p = check_value("n", n, **at_least(2)), check_value("p", p, **at_least(2))
    seed = check_value("seed", seed, **at_least(0))
    bias_strength = check_value("bias_strength", bias_strength, float)
    confounding = check_value("confounding", confounding, float)
    dir_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    w_a = dir_rng.standard_normal(p)
    w_a /= np.linalg.norm(w_a)
    w_raw = dir_rng.standard_normal(p)
    w_y = w_raw - np.dot(w_raw, w_a) * w_a
    w_y /= np.linalg.norm(w_y)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    for _ in range(MAX_SPLIT_ATTEMPTS):
        x = rng.standard_normal((n, p))
        a = (rng.random(n) < _sigmoid(confounding * (x @ w_a))).astype(np.int64)
        y = (rng.random(n) < _sigmoid(x @ w_y + bias_strength * a)).astype(np.int64)
        if np.unique(a).shape[0] == 2 and np.unique(y).shape[0] == 2:
            break
    else:
        raise InputError("synthetic draw kept yielding single-level attribute or label vectors")
    return Dataset(
        features=x,
        sensitives=a,
        labels=y,
        feature_names=[f"x{j}" for j in range(p)],
        standardisation_stats={f"x{j}": (0.0, 1.0) for j in range(p)},
    )


def write_dataset_csv(dataset: Dataset, csv_path, schema_path=None):
    """Serialise a purely numeric Dataset to CSV plus a JSON schema sidecar.

    Feature columns are written with repr-level precision so a reload parses
    back to the identical doubles.  Returns the schema that was written.
    """
    columns = dict.fromkeys(dataset.feature_names, ROLE_NUMERIC)
    columns["a"] = ROLE_SENSITIVE
    columns["y"] = ROLE_TARGET
    schema = ColumnSchema(columns=columns, missing_values=DEFAULT_MISSING)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + ["a", "y"])
        for i in range(dataset.n_rows):
            row = [repr(float(v)) for v in dataset.features[i]]
            row.append(str(int(dataset.sensitives[i])))
            row.append(str(int(dataset.labels[i])))
            writer.writerow(row)
    if schema_path is not None:
        schema.to_json(schema_path)
    return schema
