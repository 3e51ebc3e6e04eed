import numpy as np
import pytest

from cparm.dataset import AttributeSchema
from cparm.engines import encode
from cparm.errors import UnknownFeatureError
from oracles import dataset


def two_column_dataset(numeric, categorical, labels):
    schema = (
        AttributeSchema("num", 0, "numeric"),
        AttributeSchema("cat", 1, "categorical"),
    )
    return dataset(schema, (numeric, categorical), tuple(labels))


def test_two_point_standardization():
    ds = two_column_dataset([0.0, 2.0], ["a", "a"], [0, 1])
    matrix, _ = encode(ds, ["num"])
    assert matrix.rows[:, 0].tolist() == [-1.0, 1.0]


def test_one_hot_identity():
    ds = two_column_dataset([0.0, 1.0], ["tcp", "udp"], [0, 1])
    matrix, _ = encode(ds, ["cat"])
    assert matrix.rows.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_unseen_token_encodes_to_zero_block():
    train = two_column_dataset([0.0, 1.0], ["tcp", "udp"], [0, 1])
    test = two_column_dataset([0.5, 0.5], ["icmp", "tcp"], [0, 1])
    _, encoder = encode(train, ["cat"])
    rows = encoder.transform(test).rows
    assert rows[0].tolist() == [0.0, 0.0]
    assert rows[1].tolist() == [1.0, 0.0]


def test_missing_imputed_with_training_mode():
    train = two_column_dataset([1.0, 1.0, 4.0, None], ["x", "x", "y", None], [0, 0, 1, 1])
    matrix, encoder = encode(train, ["num", "cat"])
    # numeric mode is 1.0, so the None row encodes like a 1.0 row
    assert matrix.rows[3, 0] == matrix.rows[0, 0]
    # categorical mode is 'x'
    assert matrix.rows[3, 1:].tolist() == matrix.rows[0, 1:].tolist()


def test_standardization_invariant():
    rng = np.random.default_rng(4)
    values = [float(v) for v in rng.normal(37.0, 9.0, size=400)]
    ds = two_column_dataset(values, ["a"] * 400, [i % 2 for i in range(400)])
    matrix, _ = encode(ds, ["num"])
    col = matrix.rows[:, 0]
    assert abs(col.mean()) < 1e-9
    assert abs(col.std() - 1.0) < 1e-9


def test_constant_numeric_column_centers_only():
    ds = two_column_dataset([5.0, 5.0, 5.0], ["a", "b", "a"], [0, 1, 0])
    matrix, _ = encode(ds, ["num"])
    assert matrix.rows[:, 0].tolist() == [0.0, 0.0, 0.0]


def test_unknown_feature():
    ds = two_column_dataset([1.0], ["a"], [0])
    with pytest.raises(UnknownFeatureError):
        encode(ds, ["nope"])


def test_column_order_follows_request():
    ds = two_column_dataset([0.0, 2.0], ["tcp", "udp"], [0, 1])
    matrix, _ = encode(ds, ["cat", "num"])
    assert [c.attribute for c in matrix.columns] == ["cat", "num"]
    assert matrix.width == 3  # 2 one-hot + 1 numeric
