import json
import math

import numpy as np
import pytest

from korbit import reports


@pytest.mark.parametrize("obj,text", [
    (None, "null"),
    (math.nan, '"nan"'),
    (math.inf, '"inf"'),
    (-math.inf, '"-inf"'),
    (np.float64(-math.inf), '"-inf"'),
    (np.array([[1.0, 0.5], [2.0, math.inf]]), '[[1, 0.5], [2, "inf"]]'),
    ({1: True, "b": np.int64(3), (2, 3): None},
     '{"1": true, "b": 3, "(2, 3)": null}'),
    ((np.bool_(False), 0.1), "[false, 0.10000000000000001]"),
], ids=["none", "nan", "inf", "-inf", "numpy-inf", "ndarray", "non-string-keys",
        "tuple"])
def test_dumps_writes_each_kind_of_value(obj, text):
    assert reports.dumps(obj) == text
    json.loads(text)  # non-finite floats are strings, so it stays JSON


@pytest.mark.parametrize("obj", [object(), {"a": [1, {2, 3}]}, b"bytes"],
                         ids=["object", "nested-set", "bytes"])
def test_dumps_refuses_values_it_cannot_write_deterministically(obj):
    with pytest.raises(TypeError, match="cannot serialize .* deterministically"):
        reports.dumps(obj)


@pytest.mark.parametrize("points,text", [
    (np.empty((0, 5)), "x,y,z,t,s\n"),
    ([1, 2.5, -3, 0, 1e-20], "x,y,z,t,s\n1,2.5,-3,0,9.9999999999999995e-21\n"),
    ([[1, 2, 3, 4, 5], [0.1, 0, 0, 0, 0]],
     "x,y,z,t,s\n1,2,3,4,5\n0.10000000000000001,0,0,0,0\n"),
], ids=["empty", "one-row", "two-rows"])
def test_points_to_csv_rows(points, text):
    assert reports.points_to_csv(points) == text


@pytest.mark.parametrize("points", [[1, 2, 3], np.zeros((2, 4))],
                         ids=["one-row", "two-rows"])
def test_points_to_csv_refuses_other_widths(points):
    with pytest.raises(ValueError, match="^points must have 5 coordinates$"):
        reports.points_to_csv(points)
