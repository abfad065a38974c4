"""Measurement helpers shared by every workload of the benchmark.

Statistics (percentiles and the tail rule), the float32 error bounds
every result is checked against, the speed gauge that turns host
seconds into reference seconds, the machine stamp, and the metric
tables: each end-to-end metric's unit and direction, and which
per-layer metric is expected to move which end-to-end metric on which
workload.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Unit roundoff of IEEE float32 (round to nearest).
U32 = float(np.finfo(np.float32).eps) / 2

#: Percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie strictly beyond a percentile before it is
#: reported: fewer and one outlier decides the value.
MIN_BEYOND = 10

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "elements_per_s": ("1/s", "higher"),
    "calls_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "sim_cycles": ("cycles", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "host.call_self_ms": ("ms", "lower"),
    "engine.build_ms": ("ms", "lower"),
    "engine.run_self_ms": ("ms", "lower"),
    "scheduler.run_s": ("s", "lower"),
    "scheduler.ns_per_kernel_step": ("ns", "lower"),
    "scheduler.kernel_steps": ("count", "lower"),
    "scheduler.ff_fraction": ("ratio", "higher"),
    "scheduler.windows": ("count", "higher"),
    "scheduler.probes": ("count", "lower"),
    "scheduler.probe_yield": ("ratio", "higher"),
    "memory.bytes_moved": ("B", "lower"),
    "memory.denied_cycles": ("cycles", "lower"),
    "memory.grant_utilization": ("ratio", "higher"),
    "channel.stall_cycles": ("cycles", "lower"),
    "plan.as_plan_ms": ("ms", "lower"),
    "plan.key_ms": ("ms", "lower"),
    "plan_cache.hit_ratio": ("ratio", "higher"),
    "analysis.certify_ms": ("ms", "lower"),
    "schedule_cache.hit_ratio": ("ratio", "higher"),
    "analysis.admission_ms": ("ms", "lower"),
    "executor.execute_plan_ms": ("ms", "lower"),
    "service.submit_ms": ("ms", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.fusion_ratio": ("ratio", "higher"),
    "service.batched_runs": ("count", "higher"),
    "ledger.append_us": ("us", "lower"),
    "recovery.retries": ("count", "lower"),
    "recovery.demotions": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

#: Layer -> which end-to-end metric it should move, on which workloads.
LAYER_MAP = {
    "host.call_self_ms": ("calls_per_s/latency_p50_ms", ["warm_host_calls"]),
    "engine.build_ms": ("latency_p50_ms", ["warm_host_calls"]),
    "engine.run_self_ms": ("latency_p50_ms", ["warm_host_calls"]),
    "scheduler.run_s": ("elements_per_s", ["paper_l1_w16", "paper_l2_tiled"]),
    "scheduler.ns_per_kernel_step": (
        "elements_per_s", ["paper_l1_w16", "paper_l2_tiled"]),
    "scheduler.ff_fraction": ("elements_per_s", ["paper_l1_w16"]),
    "scheduler.windows": ("elements_per_s", ["paper_l2_tiled"]),
    "scheduler.probes": ("elements_per_s", ["paper_l2_tiled"]),
    "scheduler.probe_yield": ("elements_per_s", ["paper_l2_tiled"]),
    "memory.bytes_moved": ("sim_cycles", ["paper_l1_w16"]),
    "memory.denied_cycles": ("sim_cycles", ["paper_l1_w16"]),
    "memory.grant_utilization": ("sim_cycles", ["paper_l1_w16"]),
    "channel.stall_cycles": ("sim_cycles", ["paper_l2_tiled"]),
    "plan.as_plan_ms": ("latency_p50_ms", ["warm_host_calls"]),
    "plan.key_ms": ("latency_p50_ms", ["warm_host_calls"]),
    "plan_cache.hit_ratio": ("calls_per_s", ["service_mix"]),
    "analysis.certify_ms": ("latency_p50_ms", ["warm_host_calls"]),
    "schedule_cache.hit_ratio": ("latency_p50_ms", ["warm_host_calls"]),
    "analysis.admission_ms": ("latency_p50_ms", ["service_mix"]),
    "executor.execute_plan_ms": ("latency_p50_ms", ["service_mix"]),
    "service.submit_ms": ("latency_p50_ms", ["service_mix"]),
    "service.queue_wait_ms": ("latency_tail_ms", ["service_mix"]),
    "service.fusion_ratio": ("calls_per_s", ["service_mix"]),
    "service.batched_runs": ("calls_per_s", ["service_mix"]),
    "ledger.append_us": ("latency_tail_ms", ["service_mix"]),
    "recovery.retries": ("failed", ["*"]),
    "recovery.demotions": ("failed", ["*"]),
}


# -- statistics --------------------------------------------------------------

def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not samples:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(samples, dtype=float), pct))


def tail_percentile(samples: Sequence[float],
                    candidates: Sequence[float] = TAIL_CANDIDATES,
                    min_beyond: int = MIN_BEYOND
                    ) -> Optional[Tuple[float, float]]:
    """Highest candidate percentile with ``min_beyond`` samples past it.

    Returns ``(pct, value)``, or None when even the lowest candidate
    has too few samples beyond it.  "Beyond" counts samples strictly
    above the percentile's rank: ``floor(n * (1 - pct/100))``.
    """
    n = len(samples)
    for pct in sorted(candidates, reverse=True):
        if math.floor(n * (100.0 - pct) / 100.0 + 1e-9) >= min_beyond:
            return pct, percentile(samples, pct)
    return None


def min_samples_for(pct: float, min_beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which ``pct`` has ``min_beyond`` beyond it."""
    return math.ceil(min_beyond * 100.0 / (100.0 - pct) - 1e-9)


# -- float32 error bounds ----------------------------------------------------

def gamma(k: int, u: float = U32) -> float:
    """Higham's gamma_k = k u / (1 - k u): k chained roundings."""
    if k * u >= 1:
        raise ValueError(f"gamma_{k} undefined for u={u}")
    return k * u / (1 - k * u)


def reduction_depth(n: int, width: int, products: bool = True) -> int:
    """Rounding depth of a W-lane tree plus a sequential fold over n.

    Each block of ``width`` terms reduces through a binary tree
    (``ceil(log2 W)`` levels) and is folded into one running
    accumulator (``ceil(n / W)`` additions); forming a product first
    adds one more rounding.
    """
    depth = math.ceil(n / width) + math.ceil(math.log2(max(width, 1)))
    return depth + (1 if products else 0)


def reduction_bound(n: int, width: int, abs_terms_sum: float,
                    products: bool = True) -> float:
    """Forward error bound of an f32 tree-plus-fold reduction."""
    return gamma(reduction_depth(n, width, products)) * abs_terms_sum


def check_scalar(got: float, ref: float, bound: float) -> bool:
    """Whether a computed scalar lies within ``bound`` of the reference."""
    return bool(np.isfinite(got)) and abs(float(got) - ref) <= bound


def check_elementwise(got: np.ndarray, ref: np.ndarray,
                      bound: np.ndarray) -> bool:
    """Element-by-element check: ``|got_i - ref_i| <= bound_i``."""
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    bound = np.broadcast_to(np.asarray(bound, dtype=np.float64), ref.shape)
    return (got.shape == ref.shape and bool(np.all(np.isfinite(got)))
            and bool(np.all(np.abs(got - ref) <= bound)))


# -- environment --------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_stamp() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "platform": sys.platform,
    }


#: Nominal time of the speed gauge's reference routine.  Host times are
#: reported in *reference seconds*: scaled as if the routine, measured
#: through the same run, had taken exactly this long on average.
GAUGE_REF_S = 0.0025


class _Token:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v


def _tokens(n: int):
    for i in range(n):
        yield _Token(i)


def reference_routine() -> float:
    """Fixed interpreter work, independent of the program under test:
    an integer loop, a generator feeding a queue and a dict (the shape
    of a simulator's inner loop), and scalar numpy indexing."""
    s = 0
    for i in range(12000):
        s += i * i
    queue: List[_Token] = []
    seen: Dict[int, _Token] = {}
    for tok in _tokens(3000):
        queue.append(tok)
        if len(queue) > 8:
            s += queue.pop(0).v
        seen[tok.v & 63] = tok
    a = np.arange(64, dtype=np.float32)
    f = 0.0
    for i in range(750):
        f += float(a[i & 63]) * 2.0
        a = a * 1.0
    return s + len(seen) + f


class SpeedGauge:
    """How fast this machine ran a fixed reference routine during a run.

    On a shared host the same code runs up to ~2x slower for stretches
    of milliseconds to minutes (CPU time grows with wall time, so the
    time is not stolen but spent slower), and whole runs differ in how
    much of their time falls in the slow stretches.  The gauge times
    :func:`reference_routine` between operations, for ``share`` of the
    run's time.  :meth:`factor` turns the run's host seconds into
    reference seconds: ``GAUGE_REF_S`` over the mean routine time.  The
    mean, not the median, because a stretch slows everything in it in
    proportion to its length.  The routine runs with the garbage
    collector off, so the program's heap cannot slow it.
    """

    def __init__(self, share: float = 0.1):
        self.share = share
        self.times: List[float] = []
        self._first = 0.0
        self._spent = 0.0

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_routine()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        if not self.times:
            self._first = t0
        self.times.append(t1 - t0)
        self._spent += t1 - t0

    def tick(self) -> None:
        """Sample until the gauge has spent ``share`` of the time since
        its first sample: a long operation is followed by many samples,
        so every stretch of the run weighs in by its length."""
        if not self.times:
            self.sample()
        while self._spent < self.share * (time.perf_counter() - self._first):
            self.sample()

    def factor(self) -> float:
        """Reference seconds per host second over the samples so far."""
        if not self.times:
            raise ValueError("the speed gauge has no samples")
        return GAUGE_REF_S * len(self.times) / math.fsum(self.times)

    def summary(self) -> Dict[str, float]:
        return {"samples": len(self.times), "ref_s": GAUGE_REF_S,
                "mean_s": sum(self.times) / max(len(self.times), 1),
                "min_s": min(self.times, default=0.0),
                "max_s": max(self.times, default=0.0)}


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(name: str, value: float, table: Dict[str, Tuple[str, str]]
           ) -> Dict[str, object]:
    return {"value": float(value), "unit": table[name][0]}


def describe_metrics() -> Dict[str, object]:
    """Units, directions and the layer map, for the result stamp."""
    return {
        "end_to_end": {k: {"unit": u, "better": b}
                       for k, (u, b) in END_TO_END.items()},
        "per_layer": {k: {"unit": u, "better": b}
                      for k, (u, b) in PER_LAYER.items()},
        "layer_map": {k: {"moves": m, "workloads": w}
                      for k, (m, w) in LAYER_MAP.items()},
    }


def summarize_latencies(latencies_s: List[float], tail_pct: float
                        ) -> Dict[str, float]:
    """p50 and the workload's fixed tail percentile, in ms.

    The tail percentile is fixed per workload (not chosen from the
    sample count) so that a faster program never changes which
    percentile is compared; :func:`tail_percentile` only confirms that
    enough samples lie beyond it.
    """
    chosen = tail_percentile(latencies_s, candidates=(tail_pct,))
    if chosen is None:
        raise ValueError(
            f"{len(latencies_s)} samples cannot support p{tail_pct:g} "
            f"(needs {min_samples_for(tail_pct)})")
    return {"latency_p50_ms": percentile(latencies_s, 50) * 1e3,
            "latency_tail_ms": chosen[1] * 1e3,
            "tail_pct": tail_pct, "samples": len(latencies_s)}
