"""Which entry point of which layer the traced run wraps, and the
per-layer metrics computed from the spans and counters it records."""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from spans import Span, Tracer

#: Counters pulled from every traced engine run's report.
COUNT_KEYS = ("engine_runs", "sim_cycles", "kernel_steps", "ff_cycles",
              "windows", "probes", "cooldowns", "bank_bytes",
              "denied_cycles", "busy_cycles", "stall_cycles")

#: Modules whose name bindings are patched (the benchmark's own
#: workloads import app entry points by name too).
PREFIXES = ("repro", "workloads")


class Counts:
    """Thread-safe simulated-statistics accumulator."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.values = {k: 0 for k in COUNT_KEYS}
        self.recovery = {"retries": 0, "demotions": 0}

    def engine_run(self, report, args, _span) -> None:
        eng = args[0]
        bulk = eng.bulk_stats() or {}
        banks = report.bank_stats
        stalls = sum(ch.stats.stalled_push_cycles + ch.stats.stalled_pop_cycles
                     for ch in report.channels.values())
        with self._lock:
            v = self.values
            v["engine_runs"] += 1
            v["sim_cycles"] += report.cycles
            v["kernel_steps"] += report.kernel_steps
            v["ff_cycles"] += bulk.get("bulk_cycles", 0)
            v["windows"] += bulk.get("windows", 0)
            v["probes"] += bulk.get("probes", 0)
            v["cooldowns"] += bulk.get("cooldowns", 0)
            v["bank_bytes"] += sum(b.bytes_read + b.bytes_written
                                   for b in banks)
            v["denied_cycles"] += sum(b.denied_cycles for b in banks)
            v["busy_cycles"] += sum(b.busy_cycles for b in banks)
            v["stall_cycles"] += stalls

    def recovered(self, outcome, _args, _span) -> None:
        with self._lock:
            self.recovery["retries"] += outcome.retries
            self.recovery["demotions"] += outcome.demotions

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.values)


def install(tracer: Tracer, counts: Counts) -> None:
    """Wrap each layer's public entry points (uninstall via the tracer)."""
    from repro.analysis import analyze_mdag
    from repro.analysis.schedule import ensure_certified
    from repro.apps import bicg_streaming, gemver_streaming
    from repro.faults.recovery import run_with_recovery
    from repro.fpga.engine import Engine
    from repro.fpga.scheduler import WakeListScheduler
    from repro.host.api import Fblas
    from repro.plan import PlanIR, as_plan
    from repro.service import SimulationService
    from repro.service.batch import run_batch
    from repro.streaming import execute_plan
    from repro.telemetry.ledger import RunLedger

    for routine in ("dot", "axpy", "asum", "nrm2", "scal", "copy", "gemv"):
        tracer.patch_method(Fblas, routine, "host.call")
    for fn in (bicg_streaming, gemver_streaming):
        _patch_fn(tracer, fn, "app.call")
    for method in ("__init__", "channel", "add_kernel"):
        tracer.patch_method(Engine, method, "engine.build")
    tracer.patch_method(Engine, "run", "engine.run", after=counts.engine_run)
    tracer.patch_method(WakeListScheduler, "run", "scheduler.run")
    _patch_fn(tracer, as_plan, "plan.as_plan")
    tracer.patch_property(PlanIR, "plan_key", "plan.key")
    _patch_fn(tracer, ensure_certified, "analysis.certify")
    _patch_fn(tracer, analyze_mdag, "analysis.analyze_mdag")
    _patch_fn(tracer, execute_plan, "executor.execute_plan")
    tracer.patch_method(SimulationService, "submit", "service.submit")
    _patch_fn(tracer, run_with_recovery, "recovery.run",
              after=counts.recovered)
    _patch_fn(tracer, run_batch, "service.batch")
    tracer.patch_method(RunLedger, "append", "ledger.append")


def _patch_fn(tracer: Tracer, fn, name: str, after=None) -> None:
    tracer.patch_function(fn, name, after, prefixes=PREFIXES)


def _mean_ms(summary, name: str, key: str = "self_s",
             per: Optional[int] = None) -> float:
    agg = summary.get(name)
    if not agg:
        return 0.0
    n = per if per is not None else agg["count"]
    return agg[key] / n * 1e3 if n else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hit_ratio(delta: Dict[str, int], cache: str) -> float:
    hits, misses = delta[f"{cache}.hits"], delta[f"{cache}.misses"]
    return _ratio(hits, hits + misses)


def admission_ms(spans: List[Span]) -> float:
    """Mean duration of ``analyze_mdag`` calls made inside ``submit``."""
    durs = [s.duration for s in spans
            if s.name == "analysis.analyze_mdag" and s.parent is not None
            and spans[s.parent].name == "service.submit"]
    return sum(durs) / len(durs) * 1e3 if durs else 0.0


def queue_wait_ms(spans: List[Span],
                  latency_by_run: Dict[str, float],
                  lead_of: Dict[str, str]) -> float:
    """Mean request latency minus its worker-side execution span.

    A fused request's execution is its batch's single run, correlated
    under the batch lead's run id.
    """
    exec_s: Dict[str, float] = {}
    for s in spans:
        if s.name == "recovery.run" and s.parent is None and s.request:
            exec_s[s.request] = exec_s.get(s.request, 0.0) + s.duration
    waits = []
    for rid, lat in latency_by_run.items():
        run = exec_s.get(lead_of.get(rid, rid))
        if run is not None:
            waits.append(max(0.0, lat - run))
    return sum(waits) / len(waits) * 1e3 if waits else 0.0


def layer_metrics(summary: Dict[str, Dict[str, float]],
                  counts: Dict[str, int], passes: int,
                  counters: Dict[str, int],
                  recovery: Dict[str, int],
                  bytes_per_cycle: int,
                  service: Optional[Dict[str, float]] = None
                  ) -> Dict[str, float]:
    """The per-layer metrics of the traced blocks.

    ``*_ms``/``*_us`` are mean self times per call of the layer's entry
    point (``engine.build_ms`` per engine run); counts and
    ``scheduler.run_s`` are per pass; ``counters`` holds the cache
    counter deltas over the traced blocks.
    """
    per_pass = {k: v / passes for k, v in counts.items()}
    sched = summary.get("scheduler.run", {})
    runs = summary.get("engine.run", {}).get("count", 0)
    steps = counts["kernel_steps"]
    out = {
        "host.call_self_ms": _mean_ms(summary, "host.call"),
        "engine.build_ms": _mean_ms(summary, "engine.build", per=runs),
        "engine.run_self_ms": _mean_ms(summary, "engine.run"),
        "scheduler.run_s": sched.get("total_s", 0.0) / passes,
        "scheduler.ns_per_kernel_step": _ratio(
            sched.get("total_s", 0.0) * 1e9, steps),
        "scheduler.kernel_steps": per_pass["kernel_steps"],
        "scheduler.ff_fraction": _ratio(counts["ff_cycles"],
                                        counts["sim_cycles"]),
        "scheduler.windows": per_pass["windows"],
        "scheduler.probes": per_pass["probes"],
        # Windows per probe; a pass without probes divides by one.
        "scheduler.probe_yield": _ratio(per_pass["windows"],
                                        max(1.0, per_pass["probes"])),
        "memory.bytes_moved": per_pass["bank_bytes"],
        "memory.denied_cycles": per_pass["denied_cycles"],
        "memory.grant_utilization": _ratio(
            counts["bank_bytes"], counts["busy_cycles"] * bytes_per_cycle),
        "channel.stall_cycles": per_pass["stall_cycles"],
        "plan.as_plan_ms": _mean_ms(summary, "plan.as_plan"),
        "plan.key_ms": _mean_ms(summary, "plan.key"),
        "plan_cache.hit_ratio": _hit_ratio(counters, "plan_cache"),
        "analysis.certify_ms": _mean_ms(summary, "analysis.certify"),
        "schedule_cache.hit_ratio": _hit_ratio(counters, "schedule_cache"),
        "executor.execute_plan_ms": _mean_ms(summary,
                                             "executor.execute_plan"),
        "service.submit_ms": _mean_ms(summary, "service.submit"),
        "ledger.append_us": _mean_ms(summary, "ledger.append") * 1e3,
        "recovery.retries": float(recovery["retries"]),
        "recovery.demotions": float(recovery["demotions"]),
        "analysis.admission_ms": 0.0,
        "service.queue_wait_ms": 0.0,
        "service.fusion_ratio": 0.0,
        "service.batched_runs": 0.0,
    }
    if service:
        out.update(service)
    return out
