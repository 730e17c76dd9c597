"""JSON serialization for signals, tables, matrices and TF arrays.

Signals: {"n": int, "dim": int, "re": [...], "im": [...]} flat row-major.
Tables/matrices: {"n": int, "rank": r, "re": nested, "im": nested}; "im"
may be omitted for real data, and nested lists may be given flat.
"""

from __future__ import annotations

import numpy as np

from .operators import OperatorMatrix
from .signals import FiniteSignal, TFArray

__all__ = [
    "signal_to_dict",
    "signal_from_dict",
    "tfarray_to_dict",
    "array_from_dict",
    "matrix_from_dict",
]


def _complex_from(payload) -> np.ndarray:
    re = np.asarray(payload["re"], dtype=np.float64)
    im = np.asarray(payload.get("im", np.zeros_like(re)), dtype=np.float64)
    if re.shape != im.shape:
        raise ValueError("re and im parts have different shapes")
    return re + 1j * im


def signal_to_dict(f: FiniteSignal) -> dict:
    return {
        "n": f.n,
        "dim": f.dim,
        "re": f.values.real.tolist(),
        "im": f.values.imag.tolist(),
    }


def signal_from_dict(payload: dict) -> FiniteSignal:
    return FiniteSignal(int(payload["n"]), int(payload.get("dim", 1)),
                        _complex_from(payload))


def tfarray_to_dict(v: TFArray) -> dict:
    return {
        "n": v.n,
        "m": v.m,
        "shape": list(v.values.shape),
        "re": v.values.real.ravel().tolist(),
        "im": v.values.imag.ravel().tolist(),
    }


def array_from_dict(payload: dict) -> np.ndarray:
    """Generic multi-axis complex array (accepts TFArray or nested forms)."""
    vals = _complex_from(payload)
    if "shape" in payload:
        vals = vals.reshape(tuple(payload["shape"]))
    elif "n" in payload and "m" in payload:
        vals = vals.reshape((int(payload["n"]),) * (2 * int(payload["m"])))
    return vals


def matrix_from_dict(payload: dict) -> OperatorMatrix:
    vals = _complex_from(payload)
    n = int(payload.get("n", 0)) or int(round(np.sqrt(vals.size)))
    return OperatorMatrix(n, vals.reshape(n, n))
