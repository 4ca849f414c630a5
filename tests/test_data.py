"""CSV ingestion, encoding, splitting, batching, and the synthetic generator."""
from __future__ import annotations

import codecs
import dataclasses

import numpy as np
import pytest

from fairfront.data import (
    ColumnSchema,
    Dataset,
    SplitPlan,
    encode_and_standardise,
    generate_synthetic,
    load_csv,
    make_splits,
    minibatches,
    write_dataset_csv,
)
from fairfront.errors import ConfigError, IngestionError, InputError, ShapeError


def write_csv(path, text):
    path.write_text(text.lstrip("\n"))
    return path


BASIC_SCHEMA = ColumnSchema(
    columns={
        "age": "numeric",
        "job": "categorical",
        "sex": "sensitive",
        "hired": "target",
        "note": "ignore",
    }
)

BASIC_CSV = """
age,job,sex,hired,note
30,clerk,m,yes,x
40,nurse,f,no,y
25,clerk,f,yes,z
55,smith,m,no,w
38,nurse,m,yes,v
44,smith,f,no,u
"""


def test_load_csv_happy_path(tmp_path):
    table = load_csv(write_csv(tmp_path / "d.csv", BASIC_CSV), BASIC_SCHEMA)
    assert table.n_rows == 6
    assert table.numeric["age"][0] == 30.0
    assert list(table.categorical["job"][:2]) == ["clerk", "nurse"]
    # binarisation follows sorted level order: f -> 0, m -> 1; no -> 0, yes -> 1
    assert table.sensitive_levels == ("f", "m")
    assert list(table.sensitives[:2]) == [1, 0]
    assert table.target_levels == ("no", "yes")
    assert list(table.labels[:2]) == [1, 0]
    assert table.dropped_rows == 0


def test_load_csv_drops_sentinel_rows_and_counts(tmp_path):
    text = BASIC_CSV.replace("40,nurse,f,no,y", "?,nurse,f,no,y").replace(
        "55,smith,m,no,w", "55,,m,no,w"
    )
    table = load_csv(write_csv(tmp_path / "d.csv", text), BASIC_SCHEMA)
    assert table.n_rows == 4
    assert table.dropped_rows == 2


def test_load_csv_header_must_match_schema(tmp_path):
    renamed = BASIC_CSV.replace("age,job", "age,career")
    with pytest.raises(IngestionError, match="absent from header.*job"):
        load_csv(write_csv(tmp_path / "d.csv", renamed), BASIC_SCHEMA)
    extra = "\n".join(
        line + (",surplus" if i == 0 else ",1") for i, line in enumerate(BASIC_CSV.strip().splitlines())
    )
    with pytest.raises(IngestionError, match="missing from schema.*surplus"):
        load_csv(write_csv(tmp_path / "d2.csv", extra), BASIC_SCHEMA)


def test_load_csv_rejects_a_repeated_header_column(tmp_path):
    schema = ColumnSchema(columns={"x": "numeric", "a": "sensitive", "y": "target"})
    text = "x,x,a,y\n1,5,0,0\n2,6,1,1\n3,7,0,1\n4,8,1,0\n"
    with pytest.raises(IngestionError, match=r"header repeats columns: \['x'\]"):
        load_csv(write_csv(tmp_path / "d.csv", text), schema)


def test_load_csv_numeric_parse_error_names_the_cell(tmp_path):
    bad = BASIC_CSV.replace("25,clerk", "abc,clerk")
    with pytest.raises(IngestionError, match=r"d\.csv:4"):
        load_csv(write_csv(tmp_path / "d.csv", bad), BASIC_SCHEMA)


def test_load_csv_rejects_nonbinary_sensitive(tmp_path):
    bad = BASIC_CSV.replace("44,smith,f,no,u", "44,smith,x,no,u")
    with pytest.raises(IngestionError, match="exactly 2"):
        load_csv(write_csv(tmp_path / "d.csv", bad), BASIC_SCHEMA)


def test_a_byte_order_mark_on_the_csv_and_schema_is_read_past(tmp_path):
    # Excel writes UTF-8 files with a leading BOM, which must not stick to the first column name.
    plain_schema, marked_schema = tmp_path / "plain.schema.json", tmp_path / "marked.schema.json"
    BASIC_SCHEMA.to_json(plain_schema)
    marked_schema.write_bytes(codecs.BOM_UTF8 + plain_schema.read_bytes())
    plain = load_csv(write_csv(tmp_path / "plain.csv", BASIC_CSV), ColumnSchema.from_json(plain_schema))
    marked_csv = tmp_path / "marked.csv"
    marked_csv.write_bytes(codecs.BOM_UTF8 + BASIC_CSV.lstrip("\n").encode("utf-8"))
    marked = load_csv(marked_csv, ColumnSchema.from_json(marked_schema))
    np.testing.assert_equal(dataclasses.asdict(marked), dataclasses.asdict(plain))


def test_schema_round_trip_and_validation(tmp_path):
    path = tmp_path / "schema.json"
    BASIC_SCHEMA.to_json(path)
    again = ColumnSchema.from_json(path)
    assert again.columns == BASIC_SCHEMA.columns
    assert again.missing_values == BASIC_SCHEMA.missing_values
    with pytest.raises(ConfigError):
        ColumnSchema(columns={"a": "numeric"})  # no sensitive/target
    with pytest.raises(ConfigError):
        ColumnSchema(columns={"a": "weird", "s": "sensitive", "y": "target"})


# ---------------------------------------------------------------------------
# encoding


def test_encode_standardises_on_train_rows_only(tmp_path):
    table = load_csv(write_csv(tmp_path / "d.csv", BASIC_CSV), BASIC_SCHEMA)
    train = np.array([0, 1, 2])
    ds = encode_and_standardise(table, train)
    age_col = ds.feature_names.index("age")
    ages = np.array([30.0, 40.0, 25.0])
    expected = (ages - ages.mean()) / ages.std()
    assert ds.features[:3, age_col] == pytest.approx(expected)
    # train rows standardise to mean 0 / std 1; the held-out rows do not
    assert ds.features[:3, age_col].mean() == pytest.approx(0.0, abs=1e-12)
    assert ds.features[3:, age_col].mean() != pytest.approx(0.0, abs=1e-6)


def test_encode_one_hot_unseen_level_becomes_zero_row(tmp_path):
    table = load_csv(write_csv(tmp_path / "d.csv", BASIC_CSV), BASIC_SCHEMA)
    train = np.array([0, 1, 2])  # jobs seen in train: clerk, nurse
    ds = encode_and_standardise(table, train)
    job_cols = [i for i, n in enumerate(ds.feature_names) if n.startswith("job=")]
    assert [ds.feature_names[i] for i in job_cols] == ["job=clerk", "job=nurse"]
    # one-hot blocks are indicators, never standardised; "smith" was not in
    # the train vocabulary, so its rows are all zeros across the block
    assert np.array_equal(ds.features[np.ix_([3, 5], job_cols)], np.zeros((2, 2)))
    assert np.array_equal(ds.features[np.ix_([0, 2], job_cols)], np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_encode_drops_constant_column_with_warning(tmp_path):
    text = "\n".join(
        line if i == 0 else line.replace(line.split(",")[0], "7", 1)
        for i, line in enumerate(BASIC_CSV.strip().splitlines())
    )
    table = load_csv(write_csv(tmp_path / "d.csv", text), BASIC_SCHEMA)
    with pytest.warns(UserWarning, match="constant"):
        ds = encode_and_standardise(table, np.arange(6))
    assert "age" not in ds.feature_names


def test_encode_adult_shaped_width(tmp_path):
    # 6 numeric + categoricals with vocab sizes 10/20/30/27 -> 93 columns
    rng = np.random.default_rng(0)
    sizes = {"c1": 10, "c2": 20, "c3": 30, "c4": 27}
    n = 400
    header = ["n1", "n2", "n3", "n4", "n5", "n6", *sizes, "sex", "hired"]
    rows = [",".join(header)]
    for i in range(n):
        cells = [f"{rng.normal():.4f}" for _ in range(6)]
        for col, k in sizes.items():
            # force full vocabulary coverage early so every level is in train
            level = i % k if i < 2 * max(sizes.values()) else int(rng.integers(k))
            cells.append(f"{col}_v{level}")
        cells.append("m" if rng.random() < 0.5 else "f")
        cells.append("yes" if rng.random() < 0.5 else "no")
        rows.append(",".join(cells))
    schema = ColumnSchema(
        columns={
            **{f"n{i}": "numeric" for i in range(1, 7)},
            **{c: "categorical" for c in sizes},
            "sex": "sensitive",
            "hired": "target",
        }
    )
    table = load_csv(write_csv(tmp_path / "adult_shaped.csv", "\n".join(rows) + "\n"), schema)
    ds = encode_and_standardise(table, np.arange(n))
    assert ds.n_features == 93


# ---------------------------------------------------------------------------
# splits and batches


def test_make_splits_partitions_and_is_deterministic():
    plan = SplitPlan(num_splits=5, train_fraction=0.6, master_seed=17)
    splits_a = make_splits(100, plan)
    splits_b = make_splits(100, plan)
    assert len(splits_a) == 5
    for (tr_a, te_a), (tr_b, te_b) in zip(splits_a, splits_b):
        assert np.array_equal(tr_a, tr_b) and np.array_equal(te_a, te_b)
        assert len(tr_a) == 60
        merged = np.sort(np.concatenate([tr_a, te_a]))
        assert np.array_equal(merged, np.arange(100))


def test_make_splits_guarantees_levels_when_asked():
    rng = np.random.default_rng(2)
    n = 40
    sensitives = np.zeros(n, dtype=int)
    sensitives[:3] = 1  # rare level
    labels = rng.integers(0, 2, size=n)
    plan = SplitPlan(num_splits=20, train_fraction=0.5, master_seed=1)
    for train, test in make_splits(n, plan, sensitives=sensitives, labels=labels):
        for side in (train, test):
            assert len(np.unique(sensitives[side])) == 2
            assert len(np.unique(labels[side])) == 2


def test_make_splits_impossible_level_raises():
    sensitives = np.zeros(10, dtype=int)
    sensitives[0] = 1  # one positive row cannot sit on both sides
    plan = SplitPlan(num_splits=1, train_fraction=0.5, master_seed=0)
    with pytest.raises(InputError, match="attempts"):
        make_splits(10, plan, sensitives=sensitives)


def test_minibatches_partition_and_determinism():
    idx = np.arange(17) * 3  # non-contiguous ids
    feats = np.arange(100).reshape(50, 2).astype(float)
    batches = list(minibatches(idx, 5, 99, features=feats))
    assert [len(b.indices) for b in batches] == [5, 5, 5, 2]
    seen = np.sort(np.concatenate([b.indices for b in batches]))
    assert np.array_equal(seen, np.sort(idx))
    for b in batches:
        assert np.array_equal(b.features, feats[b.indices])
    again = list(minibatches(idx, 5, 99))
    assert all(np.array_equal(a.indices, b.indices) for a, b in zip(batches, again))
    different = list(minibatches(idx, 5, 100))
    assert any(not np.array_equal(a.indices, b.indices) for a, b in zip(batches, different))


def test_minibatches_gather_into_out_like_fresh_arrays():
    rng = np.random.default_rng(4)
    idx = rng.permutation(30)[:23]  # a subset, in no order
    arrays = {
        "features": rng.normal(size=(30, 3)),
        "sensitives": rng.integers(0, 2, size=30),
        "labels": rng.random(30),
        "propensities": rng.random(30),
    }
    fresh_rng, out_rng = np.random.default_rng(8), np.random.default_rng(8)
    fresh = minibatches(idx, 5, fresh_rng, **arrays)
    out = {name: np.empty((idx.size, *a.shape[1:]), dtype=a.dtype) for name, a in arrays.items()}
    del out["labels"]  # an array without a buffer is gathered as before
    gathered = minibatches(idx, 5, out_rng, **arrays, out=out)
    assert fresh_rng.bit_generator.state == out_rng.bit_generator.state
    assert len(gathered) == len(fresh) == 5
    for a, b in zip(fresh, gathered):
        assert np.array_equal(a.indices, b.indices)
        for name in arrays:
            u, v = getattr(a, name), getattr(b, name)
            assert u.dtype == v.dtype and u.shape == v.shape and np.array_equal(u, v)
            assert np.shares_memory(v, out[name]) if name in out else not np.shares_memory(v, arrays[name])
    assert np.array_equal(out["features"], arrays["features"][np.concatenate([b.indices for b in fresh])])


def test_minibatches_out_checks_buffers_and_indices():
    feats = np.zeros((10, 2))
    with pytest.raises(ShapeError):
        minibatches(np.arange(10), 4, 0, features=feats, out={"features": np.empty((9, 2))})
    with pytest.raises(ShapeError):
        minibatches(np.arange(10), 4, 0, features=feats, out={"features": np.empty((10, 2), dtype=np.float32)})
    with pytest.raises(ConfigError):
        minibatches(np.arange(10), 4, 0, features=feats, out={"labels": np.empty(10)})
    for bad in ([0, 1, -1], [0, 1, 10]):
        with pytest.raises(InputError, match="lie in"):
            minibatches(np.array(bad), 2, 0, features=feats, out={"features": np.empty((3, 2))})


# ---------------------------------------------------------------------------
# synthetic generator


def test_synthetic_shapes_and_determinism():
    d1 = generate_synthetic(n=200, p=6, bias_strength=2.0, seed=4)
    d2 = generate_synthetic(n=200, p=6, bias_strength=2.0, seed=4)
    d3 = generate_synthetic(n=200, p=6, bias_strength=2.0, seed=5)
    assert d1.features.shape == (200, 6)
    assert np.array_equal(d1.features, d2.features)
    assert np.array_equal(d1.labels, d2.labels)
    assert not np.array_equal(d1.features, d3.features)
    assert set(np.unique(d1.sensitives)) == {0, 1}
    assert set(np.unique(d1.labels)) == {0, 1}


def test_synthetic_bias_strength_drives_base_rate_gap():
    def gap(beta):
        ds = generate_synthetic(n=6000, p=8, bias_strength=beta, seed=11)
        a, y = ds.sensitives, ds.labels
        return abs(y[a == 1].mean() - y[a == 0].mean())

    assert gap(3.0) > gap(0.0) + 0.2


@pytest.mark.parametrize(
    "name, value",
    [("n", 1), ("p", 1), ("n", 50.5), ("p", True), ("seed", -1), ("seed", 1.5),
     ("bias_strength", float("nan")), ("confounding", float("inf")), ("bias_strength", "3")],
)
def test_synthetic_checks_its_arguments(name, value):
    # a fractional seed would be truncated to another seed's data, a fractional n fail inside numpy
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        generate_synthetic(**{"n": 50, "p": 4, "bias_strength": 1.0, name: value})


DATASET_FIELDS = {
    "features": np.arange(8.0).reshape(4, 2),
    "sensitives": np.array([0, 1, 0, 1]),
    "labels": np.array([1, 0, 0, 1]),
    "feature_names": ["x0", "x1"],
}


@pytest.mark.parametrize(
    "changes, error, message",
    [
        ({"sensitives": np.array([0, 1, 0, 2])}, InputError, "sensitives must contain only 0/1 values"),
        ({"labels": np.array([0.0, 1.0, 0.5, 1.0])}, InputError, "labels must contain only 0/1 values"),
        ({"sensitives": np.zeros(4, dtype=int)}, InputError, "sensitives must contain both levels"),
        ({"labels": np.ones(4, dtype=int)}, InputError, "labels must contain both levels"),
        ({"features": np.array([[0.0, 1.0], [2.0, np.inf], [4.0, 5.0], [6.0, 7.0]])}, InputError, "non-finite"),
        ({"labels": np.array([1, 0, 1])}, ShapeError, "row count"),
        ({"features": np.zeros((1, 2)), "sensitives": np.array([1]), "labels": np.array([0])}, InputError,
         "two rows"),
    ],
    ids=["non-0-1-sensitives", "fractional-labels", "one-sensitive-level", "one-label-level",
         "non-finite-features", "short-labels", "one-row"],
)
def test_dataset_rejects_bad_rows(changes, error, message):
    Dataset(**DATASET_FIELDS)
    with pytest.raises(error, match=message):
        Dataset(**{**DATASET_FIELDS, **changes})


# ---------------------------------------------------------------------------
# round trip through the CSV writer


def test_write_dataset_csv_round_trip(tmp_path):
    ds = generate_synthetic(n=120, p=5, bias_strength=2.0, seed=8)
    csv_path = tmp_path / "synth.csv"
    schema_path = tmp_path / "synth.schema.json"
    write_dataset_csv(ds, csv_path, schema_path)
    table = load_csv(csv_path, ColumnSchema.from_json(schema_path))
    assert np.array_equal(table.sensitives, ds.sensitives)
    assert np.array_equal(table.labels, ds.labels)
    # repr-precision serialisation reloads the raw columns exactly
    for j in range(5):
        assert np.array_equal(table.numeric[f"x{j}"], ds.features[:, j])
    # and a fixed train set encodes the same matrix twice (no hidden state)
    once = encode_and_standardise(table, np.arange(60))
    twice = encode_and_standardise(table, np.arange(60))
    assert np.array_equal(once.features, twice.features)
