"""Instance and dataset validation."""

import numpy as np
import pytest

from margraph import Dataset, Instance
from margraph.errors import DataError


def _three_rows():
    return Dataset(np.zeros((3, 1)), np.ones((3, 1)))


@pytest.mark.parametrize("make, message", [
    (lambda: Instance(np.zeros((1, 2)), [1]), "input must be a vector"),
    (lambda: Instance([np.nan], [1]), "input contains non-finite"),
    (lambda: Instance([0.0], []), "empty label array"),
    (lambda: Instance([0.0], [1, 0]), "labels must be \\+1 or -1"),
    (lambda: Instance([0.0], [True]), r"^labels must be \+1 or -1, got a boolean array$"),
    (lambda: Dataset(np.zeros((2, 1)), np.ones((2, 1), bool)), r"^labels must be \+1 or -1, got a boolean array$"),
    (lambda: Instance([0.0], [[1, -1]]), "labels must be a vector"),
    (lambda: Dataset(np.zeros(3), np.ones((3, 1))), "X must be 2-d"),
    (lambda: Dataset([[np.inf]], [[1]]), "X contains non-finite"),
    (lambda: Dataset(np.zeros((2, 1)), np.ones(2)), "Y must be 2-d"),
    (lambda: Dataset(np.zeros((2, 1)), np.ones((3, 1))), "X has 2 rows but Y has 3"),
    (lambda: Dataset(np.zeros((2, 1)), np.ones((2, 0))), "at least one label column"),
    (lambda: _three_rows().subset([]), "a subset needs at least one row"),
    (lambda: _three_rows().subset([True, False, True]), "must be a list of integers, got bool"),
    (lambda: _three_rows().subset([0.7, 2.2]), "must be a list of integers, got float64"),
    (lambda: _three_rows().subset([[0, 1]]), "must be a list of integers, got int64 of shape \\(1, 2\\)"),
    (lambda: _three_rows().subset([-1]), "subset index -1 is out of range for 3 rows"),
    (lambda: _three_rows().subset([0, 3]), "subset index 3 is out of range for 3 rows"),
])
def test_instance_and_dataset_checks_name_the_fault(make, message):
    with pytest.raises(DataError, match=message):
        make()


def test_subset_takes_rows_in_the_given_order():
    X = np.arange(8.0).reshape(4, 2)
    Y = np.array([[1, -1], [-1, 1], [1, 1], [-1, -1]], dtype=np.int8)
    part = Dataset(X, Y).subset([3, 1])
    assert part.X.tolist() == [[6.0, 7.0], [2.0, 3.0]]
    assert part.Y.tolist() == [[-1, -1], [-1, 1]]
    assert part.Y.dtype == np.int8 and part.n_instances == 2
    assert Dataset(X, Y).subset(range(1, 3)).X.tolist() == [[2.0, 3.0], [4.0, 5.0]]
