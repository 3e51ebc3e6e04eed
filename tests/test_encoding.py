import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cparm.dataset import AttributeSchema, load_csv, project
from cparm.engines.em import em_fit, em_predict, responsibilities
from cparm.engines.encoding import distinct_rows, encode
from cparm.engines.logistic import lr_fit, lr_predict, sigmoid
from cparm.errors import NonFiniteStatisticError, SchemaMismatchError
from oracles import dataset, distinct_rows_reference


def two_column_dataset(numeric, categorical, labels):
    schema = (
        AttributeSchema("num", "numeric"),
        AttributeSchema("cat", "categorical"),
    )
    return dataset(schema, (numeric, categorical), tuple(labels))


def rows_of(matrix):
    """The encoded training rows a matrix groups, in their order."""
    return matrix.distinct[matrix.inverse]


def test_two_point_standardization():
    ds = two_column_dataset([0.0, 2.0], ["a", "a"], [0, 1])
    matrix, _ = encode(project(ds, ["num"]))
    assert rows_of(matrix)[:, 0].tolist() == [-1.0, 1.0]


def test_one_hot_identity():
    ds = two_column_dataset([0.0, 1.0], ["tcp", "udp"], [0, 1])
    matrix, _ = encode(project(ds, ["cat"]))
    assert rows_of(matrix).tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_unseen_token_encodes_to_zero_block():
    train = two_column_dataset([0.0, 1.0], ["tcp", "udp"], [0, 1])
    test = two_column_dataset([0.5, 0.5], ["icmp", "tcp"], [0, 1])
    _, encoder = encode(project(train, ["cat"]))
    rows = encoder.transform(project(test, ["cat"]))
    assert rows[0].tolist() == [0.0, 0.0]
    assert rows[1].tolist() == [1.0, 0.0]


def test_missing_imputed_with_training_mode():
    train = two_column_dataset([1.0, 1.0, 4.0, None], ["x", "x", "y", None], [0, 0, 1, 1])
    rows = rows_of(encode(project(train, ["num", "cat"]))[0])
    # numeric mode is 1.0, so the None row encodes like a 1.0 row
    assert rows[3, 0] == rows[0, 0]
    # categorical mode is 'x'
    assert rows[3, 1:].tolist() == rows[0, 1:].tolist()


def test_standardization_invariant():
    rng = np.random.default_rng(4)
    values = [float(v) for v in rng.normal(37.0, 9.0, size=400)]
    ds = two_column_dataset(values, ["a"] * 400, [i % 2 for i in range(400)])
    matrix, _ = encode(project(ds, ["num"]))
    col = rows_of(matrix)[:, 0]
    assert abs(col.mean()) < 1e-9
    assert abs(col.std() - 1.0) < 1e-9


def test_constant_numeric_column_centers_only():
    ds = two_column_dataset([5.0, 5.0, 5.0], ["a", "b", "a"], [0, 1, 0])
    matrix, _ = encode(project(ds, ["num"]))
    assert rows_of(matrix)[:, 0].tolist() == [0.0, 0.0, 0.0]


def test_column_order_follows_request():
    ds = two_column_dataset([0.0, 2.0], ["tcp", "udp"], [0, 1])
    matrix, _ = encode(project(ds, ["cat", "num"]))
    assert [c.attribute for c in matrix.encoder.columns] == ["cat", "num"]
    assert matrix.width == 3  # 2 one-hot + 1 numeric


def test_column_names_follow_the_one_hot_layout():
    ds = two_column_dataset([0.0, 2.0, 1.0], ["tcp", "udp", "icmp"], [0, 1, 0])
    matrix, encoder = encode(ds)
    names = [c.names for c in encoder.columns]
    assert names == [("num",), ("cat=icmp", "cat=tcp", "cat=udp")]
    assert sum(map(len, names)) == matrix.width
    model = lr_fit(matrix)
    assert model.encoder is encoder
    assert model.to_dict()["columns"] == [*names[0], *names[1]]


def test_models_predict_a_loaded_test_set_as_its_encoded_matrix(tmp_path):
    # each fitted model encodes the test set with the encoder of its
    # training matrix: its predict equals the matrix predict (LR's logits,
    # EM's responsibilities and cluster mapping) on that encoder's transform,
    # on a test file with an unseen token and a missing cell in each column
    rng = np.random.default_rng(9)
    lines = ["num,proto,label"]
    for _ in range(60):
        label = int(rng.integers(2))
        lines.append(f"{rng.integers(4) + 3 * label},{('tcp', 'udp')[label]},{label}")
    (tmp_path / "train.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "test.csv").write_text(
        "num,proto,label\n1,tcp,0\n5,udp,1\n,udp,1\n2,,0\n4,icmp,1\n7,icmp,0\n"
    )
    train = load_csv(tmp_path / "train.csv", "label")
    test = load_csv(tmp_path / "test.csv", "label", train.schema)
    assert "icmp" in set(test.vocabularies[1]) - set(train.vocabularies[1])
    assert np.isnan(test.columns[0]).any() and (test.columns[1] < 0).any()

    matrix, encoder = encode(train)
    x = encoder.transform(test)
    assert x[4, 1:].tolist() == [0.0, 0.0]  # the unseen token's all-zero block

    lr = lr_fit(matrix)
    p1 = sigmoid(x @ lr.weights + lr.bias)
    labels, prob = lr_predict(lr, test)
    assert labels.tolist() == (p1 >= 0.5).astype(int).tolist()
    assert prob.tobytes() == p1.tobytes()

    em = em_fit(matrix, 3)
    resp = responsibilities(em, x)
    mapping = np.asarray(em.cluster_labels)
    labels, prob = em_predict(em, test)
    assert labels.tolist() == mapping[resp.argmax(axis=1)].tolist()
    assert prob.tobytes() == resp[:, mapping == 1].sum(axis=1).tobytes()


def signed_zero_training_set():
    """Nine rows in five groups: -0.0 and 0.0 standardize to themselves
    (the mean is 0.0) and so stay apart, and each column has a missing cell."""
    return two_column_dataset([-0.0, 0.0, 2.0, -2.0, None, -0.0, 2.0, -2.0, 0.0],
                              ["a", None, "b", "a", "b", "a", "b", None, "a"],
                              [0, 1, 1, 0, 1, 0, 1, 1, 0])


class TestFeatureMatrix:
    def test_groups_gather_back_to_the_encoded_rows_bitwise(self):
        train = signed_zero_training_set()
        matrix, encoder = encode(train)
        rows = encoder.transform(train)
        assert matrix.encoder is encoder
        assert rows_of(matrix).view(np.int64).tolist() == rows.view(np.int64).tolist()
        assert np.signbit(rows[:, 0]).any() and len(matrix.distinct) == 5 < len(rows)
        assert matrix.labels.tolist() == train.labels.tolist()

    def test_models_hold_the_matrix_encoder(self):
        matrix, _ = encode(signed_zero_training_set())
        assert lr_fit(matrix).encoder is matrix.encoder
        assert em_fit(matrix, 2).encoder is matrix.encoder

    def test_transform_is_float64_of_the_matrix_width(self):
        train = signed_zero_training_set()
        matrix, encoder = encode(train)
        test = two_column_dataset([1.0, None], ["c", "a"], [0, 1])  # an unseen token
        for ds in (train, test):
            x = encoder.transform(ds)
            assert x.dtype == np.float64 and x.shape == (ds.n_records, matrix.width)
        assert matrix.width == 3


def test_transform_refuses_other_columns():
    # the fitted columns in another order, with one kind changed, and with an
    # extra column: each is refused, though every fitted column is there
    train = two_column_dataset([0.0, 2.0], ["tcp", "udp"], [0, 1])
    _, encoder = encode(train)
    retyped = dataset((AttributeSchema("num", "categorical"), AttributeSchema("cat", "categorical")),
                      (["0", "2"], ["tcp", "udp"]), (0, 1))
    extra = dataset(train.schema + (AttributeSchema("more", "numeric"),),
                    ([0.0, 2.0], ["tcp", "udp"], [1.0, 1.0]), (0, 1))
    for test in (project(train, ["cat", "num"]), retyped, extra):
        with pytest.raises(SchemaMismatchError):
            encoder.transform(test)


@pytest.mark.parametrize("values", [[1e308, 1e308, 1.0], [1e200, -1e200, 0.0]],
                         ids=["mean", "variance"])
def test_overflowing_statistics_name_the_column(values):
    # finite cells whose sum or sum of squares overflows float64
    ds = two_column_dataset(values, ["a"] * 3, [0, 1, 0])
    with pytest.raises(NonFiniteStatisticError, match="'num'"):
        encode(ds)


def grouping(first, inverse):
    """distinct_rows' (first, inverse) as lists, with the groups numbered in
    the order of their first rows, as distinct_rows_reference numbers them."""
    ordered = sorted(first.tolist())
    rank = {row: g for g, row in enumerate(ordered)}
    return ordered, [rank[row] for row in first[inverse].tolist()]


class TestDistinctRows:
    def test_gathers_back_to_the_rows_bitwise(self):
        rng = np.random.default_rng(4)
        rows = rng.integers(-2, 3, size=(500, 3)).astype(float) / 2
        rows[rng.random(500) < 0.3, 1] = -0.0
        first, inverse = distinct_rows(rows)
        assert rows[first][inverse].tobytes() == rows.tobytes()
        assert len(first) == len({r.tobytes() for r in rows})

    def test_groups_equal_rows_under_their_earliest_row(self):
        rows = np.array([[2.0], [1.0], [2.0], [3.0], [1.0]])
        assert grouping(*distinct_rows(rows)) == ([0, 1, 3], [0, 1, 0, 2, 1])

    def test_all_distinct_rows_are_groups_of_one(self):
        # told apart by one column, and only by the columns together
        for rows in ([[3.0, 0.0], [1.0, 0.0], [2.0, 5.0]], [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]):
            first, inverse = distinct_rows(np.array(rows))
            assert grouping(first, inverse) == ([0, 1, 2], [0, 1, 2])

    def test_signed_zeros_are_separate_groups(self):
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
        assert grouping(*distinct_rows(rows)) == ([0, 1], [0, 1, 0])

    def test_wide_rows_group_by_content(self):
        # 70 columns of 2 values each: more combinations than an int64 holds
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 2, size=(300, 70)).astype(float)
        rows[150:] = rows[:150]
        first, inverse = distinct_rows(rows)
        assert rows[first][inverse].tobytes() == rows.tobytes()
        assert len(first) == len({r.tobytes() for r in rows}) == 150

    @settings(deadline=None)
    @given(st.data())
    def test_equals_the_reference(self, data):
        # duplicated rows up to 80 cells wide, twins that differ only in the
        # signs of their zeros
        width = data.draw(st.integers(1, 80))
        cell = st.sampled_from([0.0, -0.0, 1.0, -1.5, 5e-324, 1e300])
        pool = data.draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=1,
                                  max_size=12))
        rows = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40)))
        n = rows.shape[0]
        flip = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        rows[flip] = np.where(rows[flip] == 0, -rows[flip], rows[flip])
        assert grouping(*distinct_rows(rows)) == distinct_rows_reference(rows)
