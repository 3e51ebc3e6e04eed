import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cparm.dataset import AttributeSchema, project
from cparm.engines import encode, lr_fit
from cparm.engines.encoding import distinct_rows
from cparm.errors import NonFiniteStatisticError, SchemaMismatchError
from oracles import dataset, distinct_rows_reference


def two_column_dataset(numeric, categorical, labels):
    schema = (
        AttributeSchema("num", "numeric"),
        AttributeSchema("cat", "categorical"),
    )
    return dataset(schema, (numeric, categorical), tuple(labels))


def test_two_point_standardization():
    ds = two_column_dataset([0.0, 2.0], ["a", "a"], [0, 1])
    matrix, _ = encode(project(ds, ["num"]))
    assert matrix.rows[:, 0].tolist() == [-1.0, 1.0]


def test_one_hot_identity():
    ds = two_column_dataset([0.0, 1.0], ["tcp", "udp"], [0, 1])
    matrix, _ = encode(project(ds, ["cat"]))
    assert matrix.rows.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_unseen_token_encodes_to_zero_block():
    train = two_column_dataset([0.0, 1.0], ["tcp", "udp"], [0, 1])
    test = two_column_dataset([0.5, 0.5], ["icmp", "tcp"], [0, 1])
    _, encoder = encode(project(train, ["cat"]))
    rows = encoder.transform(project(test, ["cat"])).rows
    assert rows[0].tolist() == [0.0, 0.0]
    assert rows[1].tolist() == [1.0, 0.0]


def test_missing_imputed_with_training_mode():
    train = two_column_dataset([1.0, 1.0, 4.0, None], ["x", "x", "y", None], [0, 0, 1, 1])
    matrix, encoder = encode(project(train, ["num", "cat"]))
    # numeric mode is 1.0, so the None row encodes like a 1.0 row
    assert matrix.rows[3, 0] == matrix.rows[0, 0]
    # categorical mode is 'x'
    assert matrix.rows[3, 1:].tolist() == matrix.rows[0, 1:].tolist()


def test_standardization_invariant():
    rng = np.random.default_rng(4)
    values = [float(v) for v in rng.normal(37.0, 9.0, size=400)]
    ds = two_column_dataset(values, ["a"] * 400, [i % 2 for i in range(400)])
    matrix, _ = encode(project(ds, ["num"]))
    col = matrix.rows[:, 0]
    assert abs(col.mean()) < 1e-9
    assert abs(col.std() - 1.0) < 1e-9


def test_constant_numeric_column_centers_only():
    ds = two_column_dataset([5.0, 5.0, 5.0], ["a", "b", "a"], [0, 1, 0])
    matrix, _ = encode(project(ds, ["num"]))
    assert matrix.rows[:, 0].tolist() == [0.0, 0.0, 0.0]


def test_column_order_follows_request():
    ds = two_column_dataset([0.0, 2.0], ["tcp", "udp"], [0, 1])
    matrix, _ = encode(project(ds, ["cat", "num"]))
    assert [c.attribute for c in matrix.columns] == ["cat", "num"]
    assert matrix.width == 3  # 2 one-hot + 1 numeric


def test_column_names_follow_the_one_hot_layout():
    ds = two_column_dataset([0.0, 2.0, 1.0], ["tcp", "udp", "icmp"], [0, 1, 0])
    matrix, _ = encode(ds)
    names = [c.names for c in matrix.columns]
    assert names == [("num",), ("cat=icmp", "cat=tcp", "cat=udp")]
    assert sum(map(len, names)) == matrix.width
    assert lr_fit(matrix).column_names == names[0] + names[1]


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
        first, inverse = distinct_rows(rows, np.zeros(500, int))
        assert rows[first][inverse].tobytes() == rows.tobytes()
        assert len(first) == len({r.tobytes() for r in rows})

    def test_groups_equal_rows_under_their_earliest_row(self):
        rows = np.array([[2.0], [1.0], [2.0], [3.0], [1.0]])
        assert grouping(*distinct_rows(rows, np.zeros(5, int))) == ([0, 1, 3], [0, 1, 0, 2, 1])

    def test_all_distinct_rows_are_groups_of_one(self):
        # told apart by one column, and only by the columns together
        for rows in ([[3.0, 0.0], [1.0, 0.0], [2.0, 5.0]], [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]):
            first, inverse = distinct_rows(np.array(rows), np.zeros(3, int))
            assert grouping(first, inverse) == ([0, 1, 2], [0, 1, 2])

    def test_signed_zeros_are_separate_groups(self):
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
        assert grouping(*distinct_rows(rows, np.zeros(3, int))) == ([0, 1], [0, 1, 0])

    def test_labels_split_groups(self):
        rows = np.ones((4, 2))
        assert grouping(*distinct_rows(rows, np.array([1, 0, 1, 0]))) == ([0, 1], [0, 1, 0, 1])
        assert distinct_rows(rows, np.ones(4, int))[0].tolist() == [0]

    def test_wide_rows_group_by_content(self):
        # 70 columns of 2 values each: more combinations than an int64 holds
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 2, size=(300, 70)).astype(float)
        rows[150:] = rows[:150]
        first, inverse = distinct_rows(rows, np.zeros(300, int))
        assert rows[first][inverse].tobytes() == rows.tobytes()
        assert len(first) == len({r.tobytes() for r in rows}) == 150

    @settings(deadline=None)
    @given(st.data())
    def test_equals_the_reference(self, data):
        # duplicated rows up to 80 cells wide, twins that differ only in the
        # signs of their zeros, with labels that are all equal or mixed
        width = data.draw(st.integers(1, 80))
        cell = st.sampled_from([0.0, -0.0, 1.0, -1.5, 5e-324, 1e300])
        pool = data.draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=1,
                                  max_size=12))
        rows = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40)))
        n = rows.shape[0]
        flip = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        rows[flip] = np.where(rows[flip] == 0, -rows[flip], rows[flip])
        same = st.just([0] * n)
        labels = np.array(data.draw(same | st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        assert grouping(*distinct_rows(rows, labels)) == distinct_rows_reference(rows, labels)
