"""Span tracing around gaborlab's public functions, from outside the package.

`Tracer.install()` replaces each traced function, in every gaborlab module
namespace that holds it (so `gaborlab.lab.mixed_modulation_norm` and
`gaborlab.frames.mixed_modulation_norm` are both caught), with a wrapper
that records a span: name, start, end, parent span, op id, and the
tracemalloc peak reached inside it.  Spans stay in memory; `layer_metrics`
turns them into the per-layer metrics at the end of the run.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
import tracemalloc

from metrics import COMPLEX_BYTES, self_times

MB = 2.0 ** 20

# (defining module, attribute path) of every traced function.
TRACED = (
    ("signals", "stft"),
    ("mixednorm", "mixed_modulation_norm"),
    ("mixednorm", "tensor_window"),
    ("mixednorm", "mixed_norm"),
    ("operators", "PhaseTable.unit_table"),
    ("fio", "build_hard_fio"),
    ("fio", "quadratic_phase_table"),
    ("fio", "fio_slice_family"),
    ("schatten", "schatten_norm"),
    ("frames", "frame_operator"),
    ("frames", "frame_bounds"),
    ("frames", "dual_window"),
    ("frames", "canonical_tight_window"),
    ("frames", "analyze"),
    ("frames", "synthesize"),
    ("frames", "banach_frame_equivalence"),
    ("lab", "gen_ensemble"),
    ("lab", "tensor_mixed_norm"),
    ("lab", "ratio_experiment"),
    ("lab", "sharpness_experiment"),
    ("cli", "run_cli"),
)

# Per-layer metrics reported from a traced run: (name, unit, better).
# `<layer>.<stat>` with stat one of calls (count), s (inclusive seconds),
# self_s (seconds minus children), peak_mb (largest tracemalloc peak above
# the allocation level at entry), out_mb / in_mb (largest computed array
# size), redundant_builds (frame-operator builds beyond one per distinct
# Gabor system).  A layer that a workload never calls reads 0 calls, 0 s
# and 0 MB; the printed report marks it as not called.
PER_LAYER = (
    ("signals.stft.calls", "count", "lower"),
    ("signals.stft.self_s", "s", "lower"),
    ("signals.stft.peak_mb", "MB", "lower"),
    ("signals.stft.out_mb", "MB", "lower"),
    ("mixednorm.mixed_modulation_norm.calls", "count", "lower"),
    ("mixednorm.mixed_modulation_norm.s", "s", "lower"),
    ("mixednorm.mixed_modulation_norm.self_s", "s", "lower"),
    ("mixednorm.mixed_modulation_norm.peak_mb", "MB", "lower"),
    ("mixednorm.tensor_window.s", "s", "lower"),
    ("mixednorm.mixed_norm.calls", "count", "lower"),
    ("mixednorm.mixed_norm.self_s", "s", "lower"),
    ("mixednorm.mixed_norm.in_mb", "MB", "lower"),
    ("operators.PhaseTable.unit_table.calls", "count", "lower"),
    ("operators.PhaseTable.unit_table.s", "s", "lower"),
    ("fio.build_hard_fio.s", "s", "lower"),
    ("fio.quadratic_phase_table.s", "s", "lower"),
    ("fio.fio_slice_family.s", "s", "lower"),
    ("fio.fio_slice_family.self_s", "s", "lower"),
    ("schatten.schatten_norm.calls", "count", "lower"),
    ("schatten.schatten_norm.s", "s", "lower"),
    ("frames.frame_operator.calls", "count", "lower"),
    ("frames.frame_operator.s", "s", "lower"),
    ("frames.frame_operator.redundant_builds", "count", "lower"),
    ("frames.frame_bounds.s", "s", "lower"),
    ("frames.dual_window.s", "s", "lower"),
    ("frames.canonical_tight_window.s", "s", "lower"),
    ("frames.analyze.s", "s", "lower"),
    ("frames.analyze.peak_mb", "MB", "lower"),
    ("frames.synthesize.s", "s", "lower"),
    ("frames.banach_frame_equivalence.self_s", "s", "lower"),
    ("lab.gen_ensemble.s", "s", "lower"),
    ("lab.tensor_mixed_norm.s", "s", "lower"),
    ("lab.ratio_experiment.self_s", "s", "lower"),
    ("lab.sharpness_experiment.self_s", "s", "lower"),
    ("cli.run_cli.calls", "count", "lower"),
    ("cli.run_cli.self_s", "s", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.ops_per_s", "ops/s", "higher"),
)


def _stft_out_bytes(args, kwargs):
    f = args[0]
    return COMPLEX_BYTES * f.n ** (2 * f.dim)


def _array_in_bytes(args, kwargs):
    return getattr(args[0], "nbytes", 0)


def _system_key(args, kwargs):
    sys_ = args[0]
    digest = hashlib.sha1(sys_.window.values.tobytes()).hexdigest()
    return (digest, sys_.a, sys_.b)


# Extra per-call fact recorded for some layers: a byte count (int) or a
# key whose distinct values are counted.
_EXTRA = {
    "signals.stft": _stft_out_bytes,
    "mixednorm.mixed_norm": _array_in_bytes,
    "frames.frame_operator": _system_key,
}


class Tracer:
    """Records spans for calls made while `op_id` is not None."""

    def __init__(self):
        self.spans = []      # dicts: name, start, end, parent, op, peak, extra
        self._stack = []     # open span indices
        self._peaks = []     # running absolute tracemalloc peak per open span
        self.op_id = None
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "gaborlab" or name.startswith("gaborlab.")}
        for module, path in TRACED:
            owner = modules[f"gaborlab.{module}"]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            orig = getattr(owner, attr)
            wrapper = self._wrap(f"{module}.{path}", orig)
            targets = [owner] if cls else [
                m for m in modules.values() if getattr(m, attr, None) is orig]
            for target in targets:
                self._restore.append((target, attr, orig))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._restore):
            setattr(target, attr, orig)
        self._restore.clear()

    def _wrap(self, name, func):
        extra = _EXTRA.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return func(*args, **kwargs)
            idx = self.open(name)
            if extra is not None:
                self.spans[idx]["extra"] = extra(args, kwargs)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        cur, peak = tracemalloc.get_traced_memory()
        if self._peaks:
            self._peaks[-1] = max(self._peaks[-1], peak)
        tracemalloc.reset_peak()
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append({"name": name, "parent": parent, "op": self.op_id,
                           "base": cur, "peak": cur, "extra": None,
                           "start": time.perf_counter(), "end": None})
        self._stack.append(idx)
        self._peaks.append(cur)
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} is open")
        span_peak = max(self._peaks.pop(), peak)
        if self._peaks:
            self._peaks[-1] = max(self._peaks[-1], span_peak)
        span = self.spans[idx]
        span["end"] = end
        span["peak"] = span_peak


def layer_metrics(spans, n_ops: int, wall_s: float) -> dict:
    """Per-layer metrics (PER_LAYER) from the spans of a traced timed phase.

    Spans named `op.*` are the benchmark's own per-op root spans; their
    total is `trace.op_s`.
    """
    selfs = self_times([(s["start"], s["end"], s["parent"]) for s in spans])
    agg = {}
    for span, self_s in zip(spans, selfs):
        a = agg.setdefault(span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                           "peak": 0, "bytes": 0, "keys": set()})
        a["calls"] += 1
        a["s"] += span["end"] - span["start"]
        a["self_s"] += self_s
        a["peak"] = max(a["peak"], span["peak"] - span["base"])
        extra = span["extra"]
        if isinstance(extra, int):
            a["bytes"] = max(a["bytes"], extra)
        elif extra is not None:
            a["keys"].add(extra)

    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "peak": 0, "bytes": 0,
             "keys": set()}
    out = {}
    for name, unit, _ in PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        if layer == "trace":
            continue
        a = agg.get(layer, empty)
        if stat in ("calls", "s", "self_s"):
            value = a[stat]
        elif stat == "peak_mb":
            value = a["peak"] / MB
        elif stat in ("out_mb", "in_mb"):
            value = a["bytes"] / MB
        elif stat == "redundant_builds":
            value = a["calls"] - len(a["keys"])
        else:
            raise ValueError(f"unknown stat in {name}")
        out[name] = {"value": value, "unit": unit}
    op_s = sum(a["s"] for name, a in agg.items() if name.startswith("op."))
    out["trace.op_s"] = {"value": op_s, "unit": "s"}
    out["trace.ops_per_s"] = {"value": n_ops / wall_s, "unit": "ops/s"}
    return out


def module_self_s(spans) -> dict:
    """Self time summed per module; `op` is time inside an op but outside
    every traced function (benchmark glue and untraced gaborlab code)."""
    selfs = self_times([(s["start"], s["end"], s["parent"]) for s in spans])
    out = {}
    for span, self_s in zip(spans, selfs):
        module = span["name"].split(".", 1)[0]
        out[module] = out.get(module, 0.0) + self_s
    return out
