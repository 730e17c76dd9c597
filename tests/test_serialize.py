"""serialize: JSON round trips of signals, matrices and TF arrays."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborlab.operators import OperatorMatrix
from gaborlab.serialize import (
    array_from_dict,
    matrix_from_dict,
    signal_from_dict,
    signal_to_dict,
    tfarray_to_dict,
)
from gaborlab.signals import FiniteSignal

ENTRY = st.floats(-1e6, 1e6, allow_subnormal=False)


def complex_values(draw, size):
    re = draw(st.lists(ENTRY, min_size=size, max_size=size))
    im = draw(st.lists(ENTRY, min_size=size, max_size=size))
    return np.array(re) + 1j * np.array(im)


def through_json(payload):
    return json.loads(json.dumps(payload))


@given(st.integers(1, 4), st.integers(1, 3), st.data())
@settings(max_examples=50, deadline=None)
def test_signal_round_trip(n, dim, data):
    f = FiniteSignal(n, dim, complex_values(data.draw, n**dim))
    back = signal_from_dict(through_json(signal_to_dict(f)))
    assert (back.n, back.dim) == (n, dim)
    np.testing.assert_array_equal(back.values, f.values)


@given(st.integers(1, 5), st.data())
@settings(max_examples=50, deadline=None)
def test_matrix_round_trip(n, data):
    a = OperatorMatrix(complex_values(data.draw, n * n).reshape(n, n))
    payload = {"n": n, "re": a.entries.real.tolist(), "im": a.entries.imag.tolist()}
    np.testing.assert_array_equal(matrix_from_dict(through_json(payload)).entries,
                                  a.entries)


@given(st.integers(1, 3), st.integers(1, 2), st.data())
@settings(max_examples=50, deadline=None)
def test_tfarray_round_trip(n, m, data):
    v = complex_values(data.draw, n ** (2 * m)).reshape((n,) * (2 * m))
    np.testing.assert_array_equal(array_from_dict(through_json(tfarray_to_dict(v))), v)
