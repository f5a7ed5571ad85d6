"""Instance and dataset validation."""

import numpy as np
import pytest

from margraph import Dataset, Instance
from margraph.errors import DataError


@pytest.mark.parametrize("make, message", [
    (lambda: Instance(np.zeros((1, 2)), [1]), "input must be a vector"),
    (lambda: Instance([np.nan], [1]), "input contains non-finite"),
    (lambda: Instance([0.0], []), "empty label array"),
    (lambda: Instance([0.0], [1, 0]), "labels must be \\+1 or -1"),
    (lambda: Instance([0.0], [[1, -1]]), "labels must be a vector"),
    (lambda: Dataset(np.zeros(3), np.ones((3, 1))), "X must be 2-d"),
    (lambda: Dataset([[np.inf]], [[1]]), "X contains non-finite"),
    (lambda: Dataset(np.zeros((2, 1)), np.ones(2)), "Y must be 2-d"),
    (lambda: Dataset(np.zeros((2, 1)), np.ones((3, 1))), "X has 2 rows but Y has 3"),
    (lambda: Dataset(np.zeros((2, 1)), np.ones((2, 0))), "at least one label column"),
])
def test_instance_and_dataset_checks_name_the_fault(make, message):
    with pytest.raises(DataError, match=message):
        make()
