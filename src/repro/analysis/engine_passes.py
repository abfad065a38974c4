"""Pre-flight passes over a compiled plan's kernel annotations.

Kernels opt in to static analysis by declaring their ports
(``Engine.add_kernel(..., reads=..., writes=..., defer=...)``).  The
annotations are compiled into the typed :class:`~repro.plan.PlanIR`
(live engines are coerced through :func:`repro.plan.as_plan` at the
boundary); from the plan these passes build the kernel graph (vertices:
kernels; edges: channels) and prove properties about it before cycle 0:

* wiring sanity — every channel has exactly one producer and one consumer
  (FB006/FB007), the graph is acyclic (FB004);
* **channel-depth sufficiency** for reconvergent paths (the ATAX stall of
  Sec. V-B).  For a pair of vertex-disjoint paths P and P' between a
  fan-out and a re-join kernel, let ``defer(P')`` be the number of
  elements the kernels on P' must consume before their first output
  (their summed reordering windows).  While P' absorbs those elements the
  lockstep fan-out keeps feeding P, which must buffer everything it
  receives.  The prover brackets P's true capacity:

  - lower bound: the summed FIFO depths along P — if that already covers
    ``defer(P')`` the composition provably streams (FB008 certificate);
  - upper bound: depths plus pipeline-staging headroom (``lanes x push
    latency`` per edge, the skid slots the engine grants in-flight
    values) plus the fan-out's one-batch intra-cycle lead — if even that
    cannot cover ``defer(P')`` the composition provably deadlocks
    (FB003, with the minimum safe depth as the suggested fix).

  Between the two bounds the verdict is "unproven" (FB002, warning): the
  dynamic :class:`~repro.fpga.engine.DeadlockError` check remains the
  authority for that narrow band.

The wiring and depth passes only run when *every* kernel is annotated —
an unannotated kernel could secretly drain a channel and void the proof;
partial coverage is surfaced as FB301 instead.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import networkx as nx

from ..plan import PlanIR, PlanPort
from .diagnostics import Diagnostic, Severity
from .graphs import disjoint_paths, reconvergent_pairs
from .passes import register
from .rate_passes import bank_demand


def _fully_annotated(plan: PlanIR) -> bool:
    return all(k.annotated for k in plan.kernels)


def _port_maps(plan: PlanIR):
    """Channel name -> list of (kernel name, PlanPort) / list of names."""
    writers: Dict[str, List[Tuple[str, PlanPort]]] = {}
    readers: Dict[str, List[str]] = {}
    for k in plan.kernels:
        for port in k.annotated_writes:
            writers.setdefault(port.channel, []).append((k.name, port))
        for ch in k.annotated_reads:
            readers.setdefault(ch, []).append(k.name)
    return writers, readers


def _kernel_graph(plan: PlanIR) -> nx.DiGraph:
    """Kernel graph; edge (u, v) aggregates every channel u feeds v with.

    Edge attributes: ``depth_lo`` (min FIFO depth over parallel channels
    — a conservative buffering lower bound for lockstep streams),
    ``cap_hi`` (summed depth + staging headroom — an upper bound),
    ``lanes`` (largest push batch) and ``channels`` (names).
    """
    writers, readers = _port_maps(plan)
    kernel_latency = {k.name: k.latency for k in plan.kernels}
    g = nx.DiGraph()
    g.add_nodes_from(k.name for k in plan.kernels if k.annotated)
    for ch_name, ws in writers.items():
        for kname, port in ws:
            latency = (port.latency if port.latency is not None
                       else kernel_latency[kname])
            headroom = port.lanes * latency
            depth = plan.depth_of(ch_name)
            for reader in readers.get(ch_name, ()):
                if g.has_edge(kname, reader):
                    data = g.edges[kname, reader]
                    data["depth_lo"] = min(data["depth_lo"], depth)
                    data["cap_hi"] += depth + headroom
                    data["lanes"] = max(data["lanes"], port.lanes)
                    data["channels"].append(ch_name)
                else:
                    g.add_edge(kname, reader, depth_lo=depth,
                               cap_hi=depth + headroom, lanes=port.lanes,
                               channels=[ch_name])
    return g


@register("engine", "coverage")
def check_coverage(plan: PlanIR, ctx) -> Iterable[Diagnostic]:
    """FB301: kernels invisible to the static passes."""
    for k in plan.kernels:
        if not k.annotated:
            yield Diagnostic(
                "FB301", Severity.INFO,
                f"kernel {k.name!r} declares no reads/writes; pre-flight "
                "checks cover only the annotated part of the design",
                obj=k.name,
                fix="pass reads=/writes= (and defer=) to add_kernel()")


@register("engine", "wiring")
def check_wiring(plan: PlanIR, ctx) -> Iterable[Diagnostic]:
    """FB006/FB007: every channel needs exactly one writer and reader."""
    if not _fully_annotated(plan):
        return
    writers, readers = _port_maps(plan)
    for ch in plan.channels:
        name = ch.name
        n_w = len(writers.get(name, ()))
        n_r = len(readers.get(name, ()))
        if n_w == 0 and n_r == 0:
            continue                      # never referenced: harmless
        if n_w == 0:
            yield Diagnostic(
                "FB006", Severity.ERROR,
                f"channel {name!r} is read by "
                f"{[r for r in readers[name]]} but has no producer; every "
                "pop on it blocks forever", obj=name)
        elif n_r == 0:
            yield Diagnostic(
                "FB006", Severity.WARNING,
                f"channel {name!r} is written by "
                f"{[k for k, _p in writers[name]]} but has no "
                "consumer; it fills up and back-pressures its producer",
                obj=name)
        if n_w > 1 or n_r > 1:
            yield Diagnostic(
                "FB007", Severity.WARNING,
                f"channel {name!r} has {n_w} writer(s) and {n_r} "
                "reader(s); HLS channels are single-producer/"
                "single-consumer", obj=name)


@register("engine", "cycles")
def check_cycles(plan: PlanIR, ctx) -> Iterable[Diagnostic]:
    """FB004: a cycle of empty FIFOs can never prime itself."""
    g = _kernel_graph(plan)
    if not nx.is_directed_acyclic_graph(g):
        cycle = nx.find_cycle(g)
        path = " -> ".join(u for u, _v in cycle) + f" -> {cycle[-1][1]}"
        yield Diagnostic("FB004", Severity.ERROR,
                         f"kernel graph contains a cycle: {path}")


@register("engine", "bank-bandwidth")
def check_bank_bandwidth(plan: PlanIR, ctx) -> Iterable[Diagnostic]:
    """FB104: per-bank DRAM over-subscription (performance lint).

    Sums the steady-state bytes/cycle each kernel's pattern-declared
    :class:`~repro.fpga.pattern.DramTraffic` places on each bank and
    compares against the bank's share of the Table II budget.  Unlike
    the FB402 certification error this is a warning: the simulation
    still runs, the memory model just rations grants and the pipeline
    stalls below its paper throughput.
    """
    mem = plan.memory
    if mem is None:
        return
    for bank, nbytes in sorted(
            bank_demand(plan).items(),
            key=lambda kv: -1 if kv[0] is None else kv[0]):
        if bank is None or nbytes <= mem.bytes_per_cycle:
            continue
        yield Diagnostic(
            "FB104", Severity.WARNING,
            f"DRAM bank {bank} is over-subscribed: pattern-declared "
            f"demand is {nbytes} B/cycle against a {mem.bytes_per_cycle} "
            "B/cycle bank budget; expect grant rationing and stalls",
            obj=f"bank{bank}",
            fix="spread the buffers over more banks or reduce the "
                "vectorization width")


@register("engine", "placement-conflicts")
def check_placement_conflicts(plan: PlanIR, ctx) -> Iterable[Diagnostic]:
    """FB105: memory placement conflicts.

    Two parts.  An out-of-range placement — a buffer whose channel set
    names a channel the device does not have — is an error (the design
    cannot be built).  A *conflict* is a warning: a channel shared by
    two or more buffers whose combined pattern-declared demand
    over-subscribes it even though each buffer alone would fit — the
    situation an explicit placement exists to avoid, so the fix is to
    move one buffer to a free channel.
    """
    mem = plan.memory
    if mem is None:
        return
    for p in plan.placements:
        members = p.channels if p.channels else (
            (p.bank,) if p.bank is not None else ())
        bad = [c for c in members if not (0 <= c < mem.num_banks)]
        if bad:
            yield Diagnostic(
                "FB105", Severity.ERROR,
                f"buffer {p.buffer!r} is placed on channel(s) "
                f"{sorted(bad)} but the device has only "
                f"{mem.num_banks} channels",
                obj=p.buffer,
                fix=f"use channels in [0, {mem.num_banks})")
    # Per-channel demand split by buffer, from pattern-declared traffic.
    per_channel: Dict[int, Dict[str, int]] = {}
    for k in plan.kernels:
        for t in k.dram:
            nbytes = t.nbytes
            if t.channels:
                share = -(-nbytes // len(t.channels))
                targets = [(c, share) for c in t.channels]
            elif t.bank is not None:
                targets = [(t.bank, nbytes)]
            else:
                continue
            for c, b in targets:
                if not (0 <= c < mem.num_banks):
                    continue                # out-of-range reported above
                by_buf = per_channel.setdefault(c, {})
                by_buf[t.buffer] = by_buf.get(t.buffer, 0) + b
    for c in sorted(per_channel):
        by_buf = per_channel[c]
        total = sum(by_buf.values())
        if len(by_buf) < 2 or total <= mem.bytes_per_cycle:
            continue
        if max(by_buf.values()) > mem.bytes_per_cycle:
            continue                        # one buffer alone: FB104's case
        names = ", ".join(f"{b!r} ({v} B/cycle)"
                          for b, v in sorted(by_buf.items()))
        yield Diagnostic(
            "FB105", Severity.WARNING,
            f"placement conflict on channel {c}: {names} together need "
            f"{total} B/cycle against a {mem.bytes_per_cycle} B/cycle "
            "budget, though each buffer alone fits",
            obj=f"channel{c}",
            fix="place one of the conflicting buffers on a different "
                "channel (Placement.single/striped/channel_range)")


@register("engine", "depths")
def check_depths(plan: PlanIR, ctx) -> Iterable[Diagnostic]:
    """FB002/FB003/FB008: the channel-depth sufficiency prover."""
    if not _fully_annotated(plan):
        return
    g = _kernel_graph(plan)
    if not nx.is_directed_acyclic_graph(g):
        return                              # FB004 already reported
    kernel_defer = {k.name: k.defer for k in plan.kernels}
    for a, b in reconvergent_pairs(g):
        paths = disjoint_paths(g, a, b)
        stats = []
        for p in paths:
            edges = list(zip(p[:-1], p[1:]))
            stats.append({
                "nodes": p,
                "defer": sum(kernel_defer[k] for k in p[1:-1]),
                "lo": sum(g.edges[e]["depth_lo"] for e in edges),
                "hi": sum(g.edges[e]["cap_hi"] for e in edges),
                "first_lanes": g.edges[edges[0]]["lanes"] if edges else 0,
                "channels": [c for e in edges
                             for c in g.edges[e]["channels"]],
            })
        if all(s["defer"] == 0 for s in stats):
            continue                       # plain fan-out/re-join: no window
        verdicts = []
        for i, s in enumerate(stats):
            others = [t for j, t in enumerate(stats) if j != i]
            required = max(t["defer"] for t in others)
            if required == 0:
                verdicts.append("safe")
            elif s["lo"] >= required:
                verdicts.append("safe")
            else:
                # The fan-out may run one batch ahead on the deferring
                # branch before it blocks on this one.
                lead = max(t["first_lanes"] for t in others)
                if s["hi"] + lead < required:
                    shortfall = required - s["lo"]
                    name = s["channels"][0] if s["channels"] else "?"
                    yield Diagnostic(
                        "FB003", Severity.ERROR,
                        f"reconvergent kernels {a!r} -> {b!r}: branch "
                        f"{' -> '.join(s['nodes'])} can buffer at most "
                        f"{s['hi'] + lead} elements but the sibling "
                        f"branch defers {required} before its first "
                        "output; the composition deadlocks",
                        edge=(a, b),
                        fix=f"raise channel {name!r} depth by "
                            f">= {shortfall} (to a total branch depth of "
                            f">= {required})")
                    verdicts.append("deadlock")
                else:
                    yield Diagnostic(
                        "FB002", Severity.WARNING,
                        f"reconvergent kernels {a!r} -> {b!r}: branch "
                        f"{' -> '.join(s['nodes'])} holds {s['lo']} "
                        f"elements against a {required}-element "
                        "reordering window; within pipeline-staging "
                        "margin, sufficiency is unproven",
                        edge=(a, b),
                        fix=f"raise the branch depth to >= {required} to "
                            "obtain a static certificate")
                    verdicts.append("unproven")
        if verdicts and all(v == "safe" for v in verdicts):
            windows = max(s["defer"] for s in stats)
            yield Diagnostic(
                "FB008", Severity.INFO,
                f"reconvergent kernels {a!r} -> {b!r}: every branch "
                f"buffers the {windows}-element reordering window; "
                "deadlock-free for this problem size",
                edge=(a, b))
