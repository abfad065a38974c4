"""Self-tests of the benchmark's own pieces.

    python3 -m pytest perfbench -q

Covers the tail-percentile rule, the speed gauge, self time from nested
spans (service worker threads included) and the float32 error-bound
checks.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from harness import (END_TO_END, GAUGE_REF_S, PER_LAYER,  # noqa: E402
                     SpeedGauge, check_elementwise, check_scalar,
                     min_samples_for, reduction_bound, summarize_latencies,
                     tail_percentile)
from spans import Span, Tracer, covered, self_times  # noqa: E402
from workloads import axpy_bound  # noqa: E402


# -- tail percentile -----------------------------------------------------------

def test_tail_needs_ten_samples_beyond():
    # 999 samples leave only 9 beyond p99, so p95 is the highest tail.
    assert tail_percentile(list(range(999)))[0] == 95.0
    assert tail_percentile(list(range(1000)))[0] == 99.0
    assert tail_percentile(list(range(199)))[0] == 90.0
    assert tail_percentile(list(range(20)))[0] == 50.0
    assert tail_percentile(list(range(19))) is None


def test_fixed_tail_is_refused_without_enough_samples():
    assert min_samples_for(99.0) == 1000
    assert min_samples_for(50.0) == 20
    with pytest.raises(ValueError):
        summarize_latencies([0.001] * 999, 99.0)
    out = summarize_latencies([i / 1000 for i in range(1, 1001)], 99.0)
    assert out["latency_tail_ms"] == pytest.approx(990.01)
    assert out["latency_p50_ms"] == pytest.approx(500.5)


# -- speed gauge -----------------------------------------------------------------

def test_gauge_factor_is_reference_over_mean_routine_time():
    g = SpeedGauge(share=0.5)
    with pytest.raises(ValueError):
        g.factor()
    g.tick()
    assert len(g.times) == 1 and g.times[0] > 0
    time.sleep(4 * g.times[0])
    g.tick()                   # catches up to half the elapsed time
    assert sum(g.times) >= 0.5 * 5 * g.times[0]
    # A run whose routine took 1, 3 and 2 ms: mean 2 ms.
    g.times = [1e-3, 3e-3, 2e-3]
    assert g.factor() == pytest.approx(GAUGE_REF_S / 2e-3)


# -- spans and self time ---------------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(0, 2), (1, 3)], 1.5, 2.5) == 1.0
    assert covered([], 0, 1) == 0


def test_self_time_subtracts_nested_children():
    spans = [Span("a", 0.0, 10.0, None, None, "t", 0),
             Span("b", 1.0, 4.0, 0, None, "t", 1),
             Span("c", 2.0, 3.0, 1, None, "t", 2),
             Span("d", 5.0, 6.0, 0, None, "t", 3)]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_tracer_accounts_nested_spans_per_thread():
    req = threading.local()
    tracer = Tracer(request_of=lambda: getattr(req, "rid", None))
    inner = tracer.wrap("inner", lambda: sum(range(2000)))

    def outer_body():
        inner()
        inner()
        sum(range(2000))

    outer = tracer.wrap("outer", outer_body)

    def worker():
        req.rid = "req-7"          # as a service worker's correlation id
        outer()

    lo = time.perf_counter()
    outer()
    th = threading.Thread(target=worker, name="svc-worker-0")
    th.start()
    th.join(timeout=10)
    assert not th.is_alive()
    hi = time.perf_counter()

    by_thread = {}
    for s in tracer.spans:
        by_thread.setdefault(s.thread, []).append(s)
    assert set(by_thread) == {"MainThread", "svc-worker-0"}
    for thread, spans in by_thread.items():
        assert [s.name for s in spans] == ["outer", "inner", "inner"]
        root = spans[0]
        assert root.parent is None
        assert all(s.parent == root.index for s in spans[1:])
        acct = tracer.accounting([(lo, hi)], thread)
        # Layer self times plus the untraced remainder add up.
        assert acct["sum_s"] == pytest.approx(hi - lo)
        assert acct["layers_s"]["outer"] + acct["layers_s"]["inner"] == \
            pytest.approx(root.duration)
    assert all(s.request == "req-7" for s in by_thread["svc-worker-0"])
    assert all(s.request is None for s in by_thread["MainThread"])
    summary = tracer.summary()
    assert summary["inner"]["count"] == 4
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["total_s"] - summary["inner"]["total_s"])


def test_patch_and_uninstall_restore_the_original():
    class K:
        def f(self):
            return 1

    class Sub(K):
        pass

    tracer = Tracer()
    tracer.patch_method(Sub, "f", "k.f")
    assert Sub().f() == 1 and len(tracer.spans) == 1
    tracer.uninstall()
    assert "f" not in vars(Sub) and Sub().f() == 1


# -- error bounds ----------------------------------------------------------------

def _tree_fold_dot(x, y, width):
    """float32 dot with a W-lane binary tree and a sequential fold."""
    acc = np.float32(0)
    for i in range(0, x.size, width):
        terms = list(x[i:i + width] * y[i:i + width])
        while len(terms) > 1:
            terms = [np.float32(terms[j] + terms[j + 1])
                     if j + 1 < len(terms) else terms[j]
                     for j in range(0, len(terms), 2)]
        acc = np.float32(acc + terms[0])
    return acc


def _dot_case(seed=3, n=4096, width=16):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n).astype(np.float32)
    y = rng.standard_normal(n).astype(np.float32)
    x64, y64 = x.astype(np.float64), y.astype(np.float64)
    ref = float(x64 @ y64)
    bound = reduction_bound(n, width, float(np.abs(x64 * y64).sum()))
    return x, y, ref, bound


def test_reduction_bound_accepts_the_f32_tree_and_rejects_perturbed():
    x, y, ref, bound = _dot_case()
    got = _tree_fold_dot(x, y, 16)
    assert check_scalar(got, ref, bound)
    assert not check_scalar(ref + 2 * bound, ref, bound)
    assert not check_scalar(float("nan"), ref, bound)


def test_bound_check_rejects_perturbed_program_result():
    from repro.host import Fblas
    x, y, ref, bound = _dot_case(n=1024, width=4)
    fb = Fblas(width=4, engine_mode="certified")
    got = fb.dot(fb.copy_to_device(x), fb.copy_to_device(y))
    assert check_scalar(got, ref, bound)
    assert not check_scalar(got + 2 * bound, ref, bound)
    alpha = 0.5
    ya = fb.axpy(alpha, fb.copy_to_device(x), fb.copy_to_device(y))
    ref_a = alpha * x.astype(np.float64) + y
    b_a = axpy_bound(alpha, x, y)
    assert check_elementwise(ya, ref_a, b_a)
    bad = ya.copy()
    bad[17] = np.float32(ref_a[17] + 10 * b_a[17])
    assert not check_elementwise(bad, ref_a, b_a)
    assert not check_elementwise(ya[:-1], ref_a, b_a)


def test_benchmark_json_matches_the_metric_tables():
    import json
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        doc = json.load(f)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in doc[key]} \
            == table
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
