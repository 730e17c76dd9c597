"""JSON serialization for signals, matrices and STFT arrays.

Signals: {"n": int, "dim": int, "re": [...], "im": [...]} flat row-major.
Matrices: {"n": int, "re": nested, "im": nested}.  STFT arrays: stft's
(n,)*2m array flat, with "n", "m" and "shape".  "im" may be omitted for real
data, nested lists may be given flat, and every size must be a JSON integer.
"""

from __future__ import annotations

import numpy as np

from .operators import OperatorMatrix
from .signals import FiniteSignal

__all__ = [
    "signal_to_dict",
    "signal_from_dict",
    "tfarray_to_dict",
    "array_from_dict",
    "matrix_from_dict",
]


def _size(value, name: str) -> int:
    """A non-negative JSON integer; bool, float, null and text raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f'"{name}" must be a non-negative integer, got {value!r}')
    return value


def _complex_from(payload) -> np.ndarray:
    try:
        re = np.asarray(payload["re"], dtype=np.float64)
        im = np.asarray(payload.get("im", np.zeros_like(re)), dtype=np.float64)
    except TypeError as exc:
        raise ValueError(f'"re" and "im" must be lists of numbers: {exc}') from None
    if re.shape != im.shape:
        raise ValueError("re and im parts have different shapes")
    return re + 1j * im


def _complex_to(values: np.ndarray) -> dict:
    return {"re": values.real.ravel().tolist(), "im": values.imag.ravel().tolist()}


def signal_to_dict(f: FiniteSignal) -> dict:
    return {"n": f.n, "dim": f.dim, **_complex_to(f.values)}


def signal_from_dict(payload: dict) -> FiniteSignal:
    return FiniteSignal(_size(payload["n"], "n"), _size(payload.get("dim", 1), "dim"),
                        _complex_from(payload))


def tfarray_to_dict(v: np.ndarray) -> dict:
    """An (n,)*2m STFT array, as stft returns it."""
    return {"n": v.shape[0], "m": v.ndim // 2, "shape": list(v.shape), **_complex_to(v)}


def array_from_dict(payload: dict) -> np.ndarray:
    """Multi-axis complex array, shaped by "shape", or by "n" and "m"."""
    vals = _complex_from(payload)
    if "shape" in payload:
        shape = payload["shape"]
        if not isinstance(shape, list):
            raise ValueError(f'"shape" must be a list of integers, got {shape!r}')
        vals = vals.reshape(tuple(_size(s, "shape") for s in shape))
    elif "n" in payload and "m" in payload:
        vals = vals.reshape((_size(payload["n"], "n"),) * (2 * _size(payload["m"], "m")))
    return vals


def matrix_from_dict(payload: dict) -> OperatorMatrix:
    vals = _complex_from(payload)
    n = _size(payload.get("n", 0), "n") or int(round(np.sqrt(vals.size)))
    return OperatorMatrix(n, vals.reshape(n, n))
