"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no instrumentation.
A single-caller workload reports them in reference seconds: host
seconds scaled by how fast the machine ran a fixed reference routine
through the run (``harness.SpeedGauge``).
``--trace 1`` alternates untraced blocks with blocks in which every
layer's public entry points are wrapped (see ``layers.py``), reporting
per-layer metrics, the deterministic count block and the tracing
overhead; spans are written to ``.perfbench/``.  ``--workload all``
runs each workload in its own process and prints every metric.

Every operation's result is checked.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The line before it is a JSON report with the machine stamp, the metric
table and the workload's details.  Any failed operation makes the exit
code 1.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: an idle OpenBLAS worker spins on the other core after
# every call, and on a 2-vCPU host that slows the measured thread by up
# to 2x for as long as it spins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups (and program imports) per run; the median is reported.
SETUP_REPEATS = 5
#: The imports this script makes before its first set-up, timed again in
#: fresh interpreters.
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy, "
                "harness, workloads, repro.host, repro.service, repro.apps; "
                "print(time.perf_counter() - t0)")
#: No run may measure longer than this, whatever its sample floor.
HARD_CAP_S = 150.0
#: Untraced/traced block pairs in a traced run.
TRACE_BLOCKS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_seconds(repeats: int) -> list:
    """Import time of the program in ``repeats`` fresh interpreters."""
    import subprocess
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((HERE, SRC)))
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              stdout=subprocess.PIPE, text=True, check=True,
                              timeout=60)
        out.append(float(proc.stdout))
    return out


def run_passes(wl, tally, seconds: float, min_samples: int = 0,
               after_pass=None, **kw) -> int:
    """Run whole passes until ``seconds`` elapsed and the sample floor
    is met; return the number of passes."""
    t0 = time.perf_counter()
    passes = 0
    while True:
        wl.run_pass(tally, **kw)
        passes += 1
        if after_pass is not None:
            after_pass(passes)
        now = time.perf_counter()
        if now - t0 >= seconds and len(tally.latencies) >= min_samples:
            return passes
        if now - T_START > HARD_CAP_S:
            return passes


def end_to_end(wl, tally, setup_s: float, gauge) -> dict:
    """End-to-end metrics, in reference seconds (see
    :class:`harness.SpeedGauge`) on a workload that is ``gauge_scaled``;
    the report keeps the host-second figures."""
    from harness import END_TO_END, metric, min_samples_for, peak_rss_mb
    from harness import summarize_latencies
    lat = summarize_latencies(tally.latencies, wl.tail_pct)
    host = {
        "setup_s": setup_s,
        # Medians over passes: every pass does the same work, and the
        # median shrugs off a pass slowed by the rest of the machine.
        "elements_per_s": statistics.median(e / t for t, e, _ in
                                            tally.passes),
        "calls_per_s": statistics.median(c / t for t, _, c in
                                         tally.passes),
        "latency_p50_ms": lat["latency_p50_ms"],
        "latency_tail_ms": lat["latency_tail_ms"],
    }
    scale = gauge.factor() if wl.gauge_scaled else 1.0
    values = {k: v / scale if k.endswith("_per_s") else v * scale
              for k, v in host.items()}
    values.update(sim_cycles=tally.sim_cycles, peak_rss_mb=peak_rss_mb())
    info = {"tail_pct": wl.tail_pct, "latency_samples": lat["samples"],
            "tail_min_samples": min_samples_for(wl.tail_pct),
            "error_rate": tally.failed / tally.attempted,
            "host_seconds": host, "gauge_scaled": wl.gauge_scaled,
            "gauge": gauge.summary()}
    return {k: metric(k, values[k], END_TO_END) for k in END_TO_END}, info


def measure(wl, seconds: float, gauge):
    from harness import min_samples_for
    from workloads import Tally
    tally = Tally()
    kw = {"gauge": gauge} if wl.gauge_scaled else {}
    passes = run_passes(wl, tally, seconds, min_samples_for(wl.tail_pct),
                        **kw)
    gauge.sample()
    tally.sim_cycles = wl.verify(tally)
    return tally, passes


def measure_traced(wl, seconds: float):
    """Per-layer metrics, count block and tracing overhead.

    Untraced and traced blocks alternate, so both halves of the run see
    the same machine state and their pass times compare like for like.
    """
    from layers import Counts, admission_ms, install, layer_metrics
    from layers import queue_wait_ms
    from spans import Tracer
    from workloads import Tally
    from repro.telemetry.ledger import current_run_id

    base, traced = Tally(), Tally()
    tracer = Tracer(request_of=current_run_id)
    counts = Counts()
    latency_by_run = {}
    first_pass = {}
    delta = {}
    windows = []
    passes = 0

    def after_pass(_n):
        if not first_pass:
            first_pass.update(counts.snapshot())

    block = seconds / (2 * TRACE_BLOCKS)
    for _ in range(TRACE_BLOCKS):
        run_passes(wl, base, block)
        before = wl.counters()
        install(tracer, counts)
        try:
            lo = time.perf_counter()
            passes += run_passes(wl, traced, block, after_pass=after_pass,
                                 on_op=tracer.set_request,
                                 latency_by_run=latency_by_run)
            windows.append((lo, time.perf_counter()))
        finally:
            tracer.uninstall()
        for k, v in wl.counters().items():
            delta[k] = delta.get(k, 0) + v - before[k]
    wl.verify(base)
    wl.verify(traced)
    service = None
    if wl.name == "service_mix":
        lead_of = {r.run_id: r.extra["batch_lead"]
                   for r in wl.svc.ledger.records()
                   if "batch_lead" in r.extra}
        fusable = sum(r.kind in ("dot", "axpy") for r in wl.sequence) \
            * passes
        service = {
            "analysis.admission_ms": admission_ms(tracer.spans),
            "service.queue_wait_ms": queue_wait_ms(
                tracer.spans, latency_by_run, lead_of),
            "service.fusion_ratio": delta["fused_jobs"] / fusable,
            "service.batched_runs": delta["batched_runs"] / passes,
        }
    per_layer = layer_metrics(tracer.summary(), counts.snapshot(), passes,
                              delta, counts.recovery, wl.bytes_per_cycle(),
                              service)
    base_pass = statistics.median(base.pass_seconds())
    traced_pass = statistics.median(traced.pass_seconds())
    per_layer["trace.overhead_pct"] = (traced_pass / base_pass - 1) * 100
    os.makedirs(".perfbench", exist_ok=True)
    spans_path = os.path.join(".perfbench",
                              f"spans-{wl.name}-{wl.seed}.json")
    tracer.dump(spans_path)
    report = {
        "count_block": first_pass,
        # Fusion depends on the backlog, so the service's counts vary.
        "count_block_deterministic": wl.name != "service_mix",
        "traced_passes": passes,
        "untraced_pass_s": base_pass,
        "traced_pass_s": traced_pass,
        # Per thread: layer self times plus the untraced remainder add
        # up to the traced windows (service workers run beside the
        # generator, so each thread is accounted on its own).
        "accounting": {t: tracer.accounting(windows, t)
                       for t in tracer.threads()},
        "spans": spans_path,
        "span_count": len(tracer.spans),
        "failures": base.failures + traced.failures,
    }
    return (per_layer, report, base.attempted + traced.attempted,
            base.failed + traced.failed)


def run_all(args, names) -> int:
    """Run every workload in its own process; print each end-to-end
    metric by name and unit; nonzero exit if any workload failed."""
    import subprocess
    results, worst = {}, 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if lines else None
        results[name] = res
        if res is None:
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        print(f"{name}: correct={res['correct']} attempted="
              f"{res['attempted']} failed={res['failed']}")
        for metric_name, m in res["metrics"].items():
            print(f"  {metric_name:30s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy  # noqa: F401  (import cost belongs to set-up)
    import repro.host  # noqa: F401
    import repro.service  # noqa: F401
    import repro.apps  # noqa: F401
    from harness import PER_LAYER, SpeedGauge, describe_metrics
    from harness import machine_stamp, metric
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    imports = [time.perf_counter() - T_START]
    gauge = SpeedGauge()
    gauge.sample()
    imports += import_seconds(SETUP_REPEATS - 1)
    gauge.sample()
    cls = WORKLOADS[args.workload]
    setups = []
    wl = None
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
        wl = cls(args.seed)
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
        gauge.sample()
    setup_s = statistics.median(imports) + statistics.median(setups)
    report = {
        "schema": "perfbench.report/1",
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tier": wl.tier, "width": wl.width,
        "machine": machine_stamp(), "metrics_table": describe_metrics(),
        "setup": {"import_s": imports, "repeats_s": setups},
    }
    try:
        if args.trace:
            per_layer, extra, attempted, failed = measure_traced(
                wl, args.seconds)
            report.update(extra)
            metrics = {k: metric(k, per_layer[k], PER_LAYER)
                       for k in PER_LAYER}
        else:
            tally, passes = measure(wl, args.seconds, gauge)
            metrics, info = end_to_end(wl, tally, setup_s, gauge)
            report.update(info, passes=passes, failures=tally.failures,
                          pass_seconds=tally.pass_seconds())
            attempted, failed = tally.attempted, tally.failed
        report.update(wl.details())
    finally:
        wl.close()
    print(json.dumps(report, default=str))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
