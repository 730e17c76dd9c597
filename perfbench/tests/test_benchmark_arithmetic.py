"""Unit tests for the benchmark's own arithmetic and guards.

    python3 -m pytest perfbench/tests
"""

import pytest

import metrics
import run
import spans
import workloads

GIB = 2 ** 30


def test_self_time_nested_and_sibling_spans():
    tree = [
        (0.0, 10.0, None),  # root
        (1.0, 4.0, 0),      # child A
        (5.0, 7.0, 0),      # child B, sibling of A
        (2.0, 3.0, 1),      # grandchild under A
    ]
    assert metrics.self_times(tree) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    tree = [(0.0, 10.0, None), (1.0, 5.0, 0), (3.0, 8.0, 0), (9.0, 12.0, 0)]
    # children cover [1, 8] and [9, 10] of the root: 8 s
    assert metrics.self_times(tree)[0] == pytest.approx(2.0)


def test_self_time_of_leaf_is_its_duration():
    assert metrics.self_times([(2.5, 4.0, None)]) == [1.5]


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = metrics.tail(range(1, 101))
    assert (value, pct, beyond) == (90, 90.0, 10)
    value, pct, beyond = metrics.tail([float(i) for i in range(72)][::-1])
    assert value == 61.0 and beyond == 10
    assert pct == pytest.approx(100 * 62 / 72)


def test_tail_falls_back_to_max_for_short_runs():
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    # 21 samples: index 10 is both the median and the value with 10 beyond
    assert metrics.tail(range(21)) == (10, pytest.approx(100 * 11 / 21), 10)


def test_failed_frac():
    assert metrics.failed_frac(0, 72) == 0.0
    assert metrics.failed_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        metrics.failed_frac(0, 0)
    with pytest.raises(ValueError):
        metrics.failed_frac(5, 4)


def test_memory_guard_estimate():
    assert metrics.stft_bytes(16, 3) == 16 * 16 ** 6
    assert metrics.estimate_peak_bytes(metrics.stft_bytes(16, 3)) == 4 * 16 * 16 ** 6
    assert metrics.fits(metrics.stft_bytes(16, 3), 7 * GIB)
    assert metrics.fits(metrics.stft_bytes(64, 2), 7 * GIB)
    # n=24 rank 3: 3.06 GB per transform, ~12 GB estimated peak
    assert not metrics.fits(metrics.stft_bytes(24, 3), 7 * GIB)
    assert not metrics.fits(metrics.stft_bytes(32, 3), 7 * GIB)


def test_workload_sizes_feed_the_guard():
    assert workloads.Rank3Ratio.largest_array_bytes() == metrics.stft_bytes(16, 3)
    assert workloads.SharpnessSweep.largest_array_bytes() == metrics.stft_bytes(64, 2)
    assert workloads.GaborFrames.largest_array_bytes() == 16 * 512 ** 3 // 16


def test_min_cycles_hold_the_tail_class(tmp_path):
    """MIN_CYCLES cycles put more than TAIL_BEYOND ops in each workload's
    slowest class, so op_s_tail cannot leave that class on a slow host."""
    slowest = {
        "rank3-ratio": lambda op: op.n == 16,
        "sharpness-sweep": lambda op: op.n == 64,
        "gabor-frames": lambda op: op.kind == "system",
    }
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(1, str(tmp_path))
        ops = [op for c in range(workloads.MIN_CYCLES) for op in wl.cycle(c)]
        assert sum(map(slowest[name], ops)) > metrics.TAIL_BEYOND, name


def test_mem_available_parsing():
    text = "MemTotal:  8000000 kB\nMemFree: 10 kB\nMemAvailable:    7000000 kB\n"
    assert metrics.mem_available_bytes(text) == 7000000 * 1024
    with pytest.raises(ValueError):
        metrics.mem_available_bytes("MemTotal: 1 kB\n")


class _NoSpawnRunner(run.Runner):
    def spawn(self, *args, **kwargs):
        raise AssertionError("a refused workload must not be started")


def test_guard_refuses_workload_that_does_not_fit(monkeypatch, tmp_path):
    class Rank3At24(workloads.Rank3Ratio):
        name = "rank3-at-24"
        sizes = ((8, 3), (24, 3))

    monkeypatch.setitem(workloads.WORKLOADS, Rank3At24.name, Rank3At24)
    monkeypatch.setattr(run, "read_mem_available", lambda: 7 * GIB)
    res = _NoSpawnRunner(str(tmp_path), 1, 1.0).run(Rank3At24.name, False)
    assert "refused" in res and res["failed"] == res["attempted"] == 1


def test_guard_refuses_when_memory_is_short(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "read_mem_available", lambda: 100 * 2 ** 20)
    res = _NoSpawnRunner(str(tmp_path), 1, 1.0).run("gabor-frames", False)
    assert "refused" in res


def test_op_seeds_are_deterministic_and_distinct():
    seeds = [workloads.op_seed(1, i) for i in range(1000)]
    assert seeds == [workloads.op_seed(1, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    assert workloads.op_seed(2, 0) != workloads.op_seed(1, 0)


def _span(name, start, end, parent, peak=0, extra=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "op": 0, "base": 0, "peak": peak, "extra": extra}


def test_layer_metrics_aggregate_spans():
    tree = [
        _span("op.cli", 0.0, 10.0, None),
        _span("mixednorm.mixed_modulation_norm", 1.0, 9.0, 0, peak=3 * 2 ** 20),
        _span("signals.stft", 1.5, 6.0, 1, extra=16 * 4 ** 6),
        _span("mixednorm.mixed_norm", 6.0, 8.5, 1, extra=2 ** 20),
        _span("frames.frame_operator", 9.0, 9.5, 0, extra=("w", 2, 2)),
        _span("frames.frame_operator", 9.5, 10.0, 0, extra=("w", 2, 2)),
    ]
    out = spans.layer_metrics(tree, n_ops=1, wall_s=12.0)
    assert [name for name, _, _ in spans.PER_LAYER] == list(out)
    assert out["mixednorm.mixed_modulation_norm.s"]["value"] == pytest.approx(8.0)
    assert out["mixednorm.mixed_modulation_norm.self_s"]["value"] == pytest.approx(1.0)
    assert out["mixednorm.mixed_modulation_norm.peak_mb"]["value"] == pytest.approx(3.0)
    assert out["signals.stft.out_mb"]["value"] == pytest.approx(16 * 4 ** 6 / 2 ** 20)
    assert out["mixednorm.mixed_norm.in_mb"]["value"] == pytest.approx(1.0)
    assert out["frames.frame_operator.calls"]["value"] == 2
    assert out["frames.frame_operator.redundant_builds"]["value"] == 1
    assert out["frames.analyze.s"]["value"] == 0.0
    assert out["trace.op_s"]["value"] == pytest.approx(10.0)
    assert out["trace.ops_per_s"]["value"] == pytest.approx(1 / 12)
    shares = spans.module_self_s(tree)
    assert shares["op"] == pytest.approx(1.0)
    assert sum(shares.values()) == pytest.approx(10.0)


def test_tracer_wraps_functions_in_caller_namespaces():
    import tracemalloc

    import gaborlab.lab
    import gaborlab.mixednorm
    from gaborlab import periodized_gaussian, random_signal
    import numpy as np

    orig = gaborlab.lab.mixed_modulation_norm
    tracer = spans.Tracer()
    tracer.install()
    tracemalloc.start()
    try:
        assert gaborlab.lab.mixed_modulation_norm is not orig
        assert gaborlab.lab.mixed_modulation_norm is gaborlab.mixednorm.mixed_modulation_norm
        f = random_signal(4, 2, np.random.default_rng(0))
        g = periodized_gaussian(4)
        c = gaborlab.mixednorm.Permutation((1, 2, 3, 4))
        e = gaborlab.mixednorm.ExponentVector((2.0, 2.0, 2.0, 2.0))
        gaborlab.lab.mixed_modulation_norm(f, g, c, e)   # untimed: no op id
        assert tracer.spans == []
        tracer.op_id = 7
        root = tracer.open("op.test")
        value = gaborlab.lab.mixed_modulation_norm(f, g, c, e)
        tracer.close(root)
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    assert gaborlab.lab.mixed_modulation_norm is orig
    assert value == pytest.approx(f.norm() * g.norm() ** 2, rel=1e-12)
    names = [s["name"] for s in tracer.spans]
    assert names[:2] == ["op.test", "mixednorm.mixed_modulation_norm"]
    by_name = {s["name"]: i for i, s in enumerate(tracer.spans)}
    assert tracer.spans[by_name["signals.stft"]]["parent"] == 1
    assert tracer.spans[by_name["mixednorm.mixed_norm"]]["parent"] == 1
    assert all(s["op"] == 7 and s["end"] >= s["start"] for s in tracer.spans)
    assert tracer.spans[1]["peak"] > tracer.spans[1]["base"]  # the STFT allocated
