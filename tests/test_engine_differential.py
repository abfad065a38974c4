"""Differential tests: ``mode="dense"`` vs ``mode="event"`` vs ``mode="bulk"``.

The wake-list scheduler and the bulk steady-state tier must be
*indistinguishable* from the dense reference loop in everything but
wall-clock time: cycle counts, kernel stats (active/stall/start/finish),
channel stats (pushes, pops, max occupancy, stall counters), delivered
data, trace timelines/occupancy, and deadlocks (same cycle, same blocked
set, same descriptions).  These tests build the same composition once per
mode, run all three, and compare everything.

Two families of random designs:

* the original *dynamic* chains/fan-outs (unpatterned generators) — for
  these the bulk tier must behave exactly like the event scheduler, its
  fast path never engaging;
* *patterned* chains built from the real module generators
  (``repro.fpga.util`` sources/sinks, ``repro.blas.level1``), where the
  fast path does engage and every counter must still match — including
  specs that deadlock (Sec. V parity) and mixed static/dynamic designs
  that force mid-run fallback.

A third property covers ``mode="certified"``: any composition the FB4xx
rate analysis certifies must replay byte-identical to the event core
with zero runtime probes/cooldowns, and any composition it refuses must
be refused *before* a single cycle is simulated.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas import level1
from repro.fpga import Clock, DeadlockError, Engine, Pop, Push
from repro.fpga.util import duplicate_kernel, scalar_sink, sink_kernel, \
    source_kernel

_MODES = ("dense", "event", "bulk")


# ---------------------------------------------------------------------------
# Composition specs: pure data, so the same spec builds identical designs
# on two engines.
# ---------------------------------------------------------------------------

def _producer(ch, n, width, lat):
    i = 0
    while i < n:
        batch = tuple(float(j) for j in range(i, min(i + width, n)))
        yield Push(ch, batch, lat)
        i += len(batch)
        yield Clock()


def _mapper(cin, cout, n, width, lat, sleep):
    done = 0
    while done < n:
        take = min(width, n - done)
        vals = yield Pop(cin, take)
        if take == 1:
            vals = (vals,)
        yield Push(cout, tuple(v + 1.0 for v in vals), lat)
        done += take
        yield Clock(sleep)


def _deferrer(cin, cout, n, window, lat):
    """Consumes ``window`` elements before emitting them (reorder buffer)."""
    done = 0
    while done < n:
        buf = []
        take = min(window, n - done)
        for _ in range(take):
            v = yield Pop(cin)
            buf.append(v)
            done += 1
            yield Clock()
        for v in buf:
            yield Push(cout, (v,), lat)
            yield Clock()


def _duplicator(cin, c1, c2, n):
    for _ in range(n):
        v = yield Pop(cin)
        yield Push(c1, (v,), 1)
        yield Push(c2, (v,), 1)
        yield Clock()


def _zipper(c1, c2, cout, n, lat):
    for _ in range(n):
        a = yield Pop(c1)
        b = yield Pop(c2)
        yield Push(cout, (a + b,), lat)
        yield Clock()


def _collector(cin, n, out):
    for _ in range(n):
        v = yield Pop(cin)
        out.append(v)
        yield Clock()


stage_spec = st.one_of(
    st.tuples(st.just("map"), st.integers(1, 8),     # width
              st.integers(1, 20), st.integers(1, 4)),  # latency, sleep
    st.tuples(st.just("defer"), st.integers(1, 24),  # window
              st.integers(1, 20)),                     # latency
)

chain_spec = st.fixed_dictionaries({
    "n": st.integers(1, 40),
    "src_width": st.integers(1, 6),
    "src_lat": st.integers(1, 30),
    "depth": st.integers(1, 12),
    "stages": st.lists(stage_spec, min_size=0, max_size=3),
})

fanout_spec = st.fixed_dictionaries({
    "n": st.integers(1, 30),
    "src_lat": st.integers(1, 12),
    "depth_a": st.integers(1, 10),
    "depth_b": st.integers(1, 10),
    "defer_b": st.integers(0, 24),
    "lat": st.integers(1, 16),
})


def _build_chain(eng, spec, out):
    n = spec["n"]
    depth = max(spec["depth"], spec["src_width"],
                *[s[1] for s in spec["stages"] if s[0] == "map"] or [1])
    chans = [eng.channel(f"c{i}", depth)
             for i in range(len(spec["stages"]) + 1)]
    eng.add_kernel("src", _producer(chans[0], n, spec["src_width"],
                                    spec["src_lat"]))
    for i, s in enumerate(spec["stages"]):
        if s[0] == "map":
            eng.add_kernel(f"map{i}", _mapper(chans[i], chans[i + 1], n,
                                              s[1], s[2], s[3]))
        else:
            eng.add_kernel(f"defer{i}", _deferrer(chans[i], chans[i + 1], n,
                                                  s[1], s[2]))
    eng.add_kernel("sink", _collector(chans[-1], n, out))


def _build_fanout(eng, spec, out):
    """Duplicate -> (plain branch | deferring branch) -> zip rejoin.

    When ``defer_b`` exceeds what branch A can buffer, this is exactly
    the reconvergent deadlock of Sec. V — it must be detected at the
    same cycle with the same blocked set in both modes.
    """
    n = spec["n"]
    cin = eng.channel("cin", 8)
    ca = eng.channel("ca", spec["depth_a"])
    cb = eng.channel("cb", spec["depth_b"])
    cmid = eng.channel("cmid", spec["depth_b"])
    cout = eng.channel("cout", 8)
    eng.add_kernel("src", _producer(cin, n, 1, spec["src_lat"]))
    eng.add_kernel("dup", _duplicator(cin, ca, cb, n))
    if spec["defer_b"]:
        eng.add_kernel("defer", _deferrer(cb, cmid, n, spec["defer_b"],
                                          spec["lat"]))
    else:
        eng.add_kernel("fwd", _mapper(cb, cmid, n, 1, spec["lat"], 1))
    eng.add_kernel("zip", _zipper(ca, cmid, cout, n, spec["lat"]))
    eng.add_kernel("sink", _collector(cout, n, out))


# ---------------------------------------------------------------------------
# The differential harness
# ---------------------------------------------------------------------------

def _outcome(mode, build, spec, trace):
    eng = Engine(mode=mode, trace=trace)
    out = []
    build(eng, spec, out)
    try:
        report = eng.run(max_cycles=200_000)
    except DeadlockError as exc:
        return ("deadlock", exc.cycle, dict(exc.blocked), _stats(eng), None)
    return ("done", report.cycles, out, _stats(eng),
            (report.occupancy_sums, report.timelines) if trace else None)


def _stats(eng):
    kstats = {
        name: (k.stats.active_cycles, k.stats.stall_cycles,
               k.stats.start_cycle, k.stats.finish_cycle)
        for name, k in eng.kernels.items()
    }
    cstats = {
        name: (c.stats.pushes, c.stats.pops, c.stats.max_occupancy,
               c.stats.stalled_push_cycles, c.stats.stalled_pop_cycles)
        for name, c in eng.channels.items()
    }
    return kstats, cstats


def _assert_identical(build, spec, trace=False):
    dense = _outcome("dense", build, spec, trace)
    for mode in ("event", "bulk"):
        other = _outcome(mode, build, spec, trace)
        assert dense[0] == other[0], (
            f"outcome diverged: dense={dense[0]} {mode}={other[0]} "
            f"for {spec}")
        assert dense[1] == other[1], (
            f"cycle count diverged: dense={dense[1]} {mode}={other[1]} "
            f"for {spec}")
        assert dense[2] == other[2], f"payload diverged ({mode}) for {spec}"
        assert dense[3] == other[3], f"stats diverged ({mode}) for {spec}"
        assert dense[4] == other[4], f"trace diverged ({mode}) for {spec}"


class TestDifferentialRandom:
    @settings(max_examples=120, deadline=None)
    @given(chain_spec)
    def test_chains_identical(self, spec):
        """Random pipelines: identical reports or identical deadlocks."""
        _assert_identical(_build_chain, spec)

    @settings(max_examples=120, deadline=None)
    @given(fanout_spec)
    def test_reconvergent_identical(self, spec):
        """Random fan-out/re-join designs, including Sec. V deadlocks."""
        _assert_identical(_build_fanout, spec)

    @settings(max_examples=25, deadline=None)
    @given(chain_spec)
    def test_chains_identical_traced(self, spec):
        """Timelines and occupancy sums are byte-identical too."""
        _assert_identical(_build_chain, spec, trace=True)

    @settings(max_examples=25, deadline=None)
    @given(fanout_spec)
    def test_reconvergent_identical_traced(self, spec):
        _assert_identical(_build_fanout, spec, trace=True)


# ---------------------------------------------------------------------------
# Patterned designs: real module generators, where the bulk fast path
# actually engages (the dynamic designs above never trigger it).
# ---------------------------------------------------------------------------

patterned_chain_spec = st.fixed_dictionaries({
    "n": st.integers(1, 120),
    "width": st.integers(1, 8),
    "depth": st.integers(1, 24),
    "lat": st.integers(1, 30),
    "stages": st.lists(
        st.sampled_from(("scal", "copy")), min_size=0, max_size=3),
    "reduce": st.sampled_from((None, "asum", "nrm2", "iamax")),
    "dynamic_stage": st.booleans(),
})

patterned_fanout_spec = st.fixed_dictionaries({
    "n": st.integers(1, 60),
    "width": st.integers(1, 4),
    "depth_a": st.integers(1, 12),
    "depth_b": st.integers(1, 12),
    "lat": st.integers(1, 16),
})


def _build_patterned_chain(eng, spec, out):
    """source x2 -> axpy -> map stages [-> dynamic mapper] [-> reduction]."""
    n, w = spec["n"], spec["width"]
    depth = max(spec["depth"], w)       # engine rejects depth < consumer width
    data_x = [np.float32((i % 23) - 11) for i in range(n)]
    data_y = [np.float32((i % 7) - 3) for i in range(n)]
    cx = eng.channel("cx", depth)
    cy = eng.channel("cy", depth)
    eng.add_kernel("src_x", source_kernel(cx, data_x, w))
    eng.add_kernel("src_y", source_kernel(cy, data_y, w))
    cur = eng.channel("c0", depth)
    eng.add_kernel("axpy", level1.axpy_kernel(n, 0.5, cx, cy, cur, w),
                   latency=spec["lat"])
    for i, stg in enumerate(spec["stages"]):
        nxt = eng.channel(f"c{i + 1}", depth)
        if stg == "scal":
            eng.add_kernel(f"scal{i}",
                           level1.scal_kernel(n, 2.0, cur, nxt, w),
                           latency=3)
        else:
            eng.add_kernel(f"copy{i}",
                           level1.copy_kernel(n, cur, nxt, w),
                           latency=2)
        cur = nxt
    if spec["dynamic_stage"]:
        # An unpatterned kernel in the middle of the pipeline: the bulk
        # tier must fall back around it mid-run.
        nxt = eng.channel("cdyn", depth)
        eng.add_kernel("dyn", _mapper(cur, nxt, n, max(1, w - 1), 2, 1))
        cur = nxt
    if spec["reduce"]:
        cres = eng.channel("cres", 4)
        maker = {"asum": level1.asum_kernel, "nrm2": level1.nrm2_kernel,
                 "iamax": level1.iamax_kernel}[spec["reduce"]]
        eng.add_kernel("red", maker(n, cur, cres, w), latency=5)
        eng.add_kernel("sink", sink_kernel(cres, 1, 1, out))
    else:
        eng.add_kernel("sink", sink_kernel(cur, n, w, out))


def _build_patterned_fanout(eng, spec, out):
    """source -> duplicate -> (direct | scal) -> dot rejoin.

    Shallow branch depths against the scal latency reproduce the Sec. V
    reconvergent deadlock with patterned kernels; deeper ones run to
    completion — both must agree across all three cores.
    """
    n, w = spec["n"], spec["width"]
    data = [np.float32((i % 13) - 6) for i in range(n)]
    cin = eng.channel("cin", 8)
    ca = eng.channel("ca", max(spec["depth_a"], w))
    cb = eng.channel("cb", max(spec["depth_b"], w))
    cmid = eng.channel("cmid", 8)
    cres = eng.channel("cres", 4)
    eng.add_kernel("src", source_kernel(cin, data, w))
    eng.add_kernel("dup", duplicate_kernel(cin, (ca, cb), n, w))
    eng.add_kernel("scal", level1.scal_kernel(n, 3.0, cb, cmid, w),
                   latency=spec["lat"])
    eng.add_kernel("dot", level1.dot_kernel(n, ca, cmid, cres, w),
                   latency=spec["lat"])
    eng.add_kernel("sink", scalar_sink(cres, out))


class TestDifferentialPatterned:
    @settings(max_examples=100, deadline=None)
    @given(patterned_chain_spec)
    def test_patterned_chains_identical(self, spec):
        """Patterned pipelines: all three cores agree on everything."""
        _assert_identical(_build_patterned_chain, spec)

    @settings(max_examples=100, deadline=None)
    @given(patterned_fanout_spec)
    def test_patterned_fanout_identical(self, spec):
        """Patterned fan-out/re-join, including Sec. V deadlock parity."""
        _assert_identical(_build_patterned_fanout, spec)

    @settings(max_examples=20, deadline=None)
    @given(patterned_chain_spec)
    def test_patterned_chains_identical_traced(self, spec):
        """With trace observers attached the fast path must disable
        itself; timelines stay byte-identical."""
        _assert_identical(_build_patterned_chain, spec, trace=True)

    def test_fast_path_engages_on_steady_chain(self):
        """Sanity: on a long patterned chain the bulk tier really does
        fast-forward most of the run (it is not silently falling back)."""
        spec = {"n": 2048, "width": 4, "depth": 16, "lat": 8,
                "stages": ["scal", "copy"], "reduce": "asum",
                "dynamic_stage": False}
        eng = Engine(mode="bulk")
        out = []
        _build_patterned_chain(eng, spec, out)
        report = eng.run()
        assert eng._bulk_windows >= 1
        assert eng._bulk_cycles >= report.cycles // 2

    def test_patterned_deadlock_parity(self):
        """An axpy missing its second operand stream deadlocks at the
        same cycle with the same blocked set in all three cores."""
        outcomes = {}
        for mode in _MODES:
            eng = Engine(mode=mode)
            n, w = 40, 4
            cx = eng.channel("cx", 8)
            cy = eng.channel("cy", 8)
            cz = eng.channel("cz", 8)
            data = [np.float32(i) for i in range(n)]
            eng.add_kernel("src_x", source_kernel(cx, data, w))
            eng.add_kernel("axpy",
                           level1.axpy_kernel(n, 1.5, cx, cy, cz, w),
                           latency=4)
            eng.add_kernel("sink", sink_kernel(cz, n, w, []))
            with pytest.raises(DeadlockError) as exc:
                eng.run()
            outcomes[mode] = (exc.value.cycle, dict(exc.value.blocked),
                              _stats(eng))
        assert outcomes["dense"] == outcomes["event"] == outcomes["bulk"]

    def test_mixed_static_dynamic_fallback(self):
        """A sleeping unpatterned monitor kernel bounds every window: the
        bulk tier fast-forwards between its wakes and falls back around
        them, with identical results and counters."""
        def monitor(ticks):
            for _ in range(ticks):
                yield Clock(37)

        results = {}
        for mode in _MODES:
            eng = Engine(mode=mode)
            n, w = 4000, 4
            data_x = [np.float32(i % 17) for i in range(n)]
            data_y = [np.float32(i % 5) for i in range(n)]
            cx = eng.channel("cx", 4 * w)
            cy = eng.channel("cy", 4 * w)
            cz = eng.channel("cz", 4 * w)
            cres = eng.channel("cres", 4)
            out = []
            eng.add_kernel("src_x", source_kernel(cx, data_x, w))
            eng.add_kernel("src_y", source_kernel(cy, data_y, w))
            eng.add_kernel("axpy",
                           level1.axpy_kernel(n, 0.25, cx, cy, cz, w),
                           latency=12)
            eng.add_kernel("asum", level1.asum_kernel(n, cz, cres, w),
                           latency=9)
            eng.add_kernel("sink", scalar_sink(cres, out))
            eng.add_kernel("monitor", monitor(60))
            report = eng.run()
            results[mode] = (report.to_dict(), out, _stats(eng))
            if mode == "bulk":
                assert eng._bulk_windows > 0
                assert eng._bulk_cycles > 0
        assert results["dense"] == results["event"] == results["bulk"]


class TestDifferentialDirected:
    def test_guaranteed_deadlock_parity(self):
        """A reconvergent window no branch can buffer deadlocks in both
        modes at the same cycle with the same blocked descriptions."""
        spec = {"n": 20, "src_lat": 1, "depth_a": 2, "depth_b": 2,
                "defer_b": 18, "lat": 1}
        outcomes = {m: _outcome(m, _build_fanout, spec, False)
                    for m in _MODES}
        assert all(o[0] == "deadlock" for o in outcomes.values())
        assert outcomes["dense"] == outcomes["event"] == outcomes["bulk"]

    def test_orphan_pop_deadlock_parity(self):
        """A consumer with no producer blocks forever, in both modes."""
        outcomes = {}
        for mode in _MODES:
            eng = Engine(mode=mode)
            ch = eng.channel("lonely", 4)
            eng.add_kernel("sink", _collector(ch, 3, []))
            with pytest.raises(DeadlockError) as exc:
                eng.run()
            outcomes[mode] = (exc.value.cycle, dict(exc.value.blocked),
                              _stats(eng))
        assert outcomes["dense"] == outcomes["event"] == outcomes["bulk"]

    def test_sleeping_kernels_wake_before_deadlock(self):
        """A long Clock(n) sleep defers the deadlock verdict identically."""
        def sleeper(ch):
            yield Clock(500)
            yield Pop(ch)      # never satisfied -> deadlock after waking

        outcomes = {}
        for mode in _MODES:
            eng = Engine(mode=mode)
            ch = eng.channel("c", 4)
            eng.add_kernel("sleepy", sleeper(ch))
            with pytest.raises(DeadlockError) as exc:
                eng.run()
            outcomes[mode] = (exc.value.cycle, dict(exc.value.blocked),
                              _stats(eng))
        assert outcomes["dense"] == outcomes["event"] == outcomes["bulk"]

    def test_max_cycles_raised_in_both_modes(self):
        from repro.fpga import SimulationError

        for mode in _MODES:
            eng = Engine(mode=mode)
            ch = eng.channel("c", 4)
            eng.add_kernel("sink", _collector(ch, 3, []))
            eng.add_kernel("drip", _producer(ch, 1, 1, 40))
            with pytest.raises((SimulationError, DeadlockError)):
                eng.run(max_cycles=10)
            assert eng.now <= 10

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Engine(mode="quantum")


# ---------------------------------------------------------------------------
# Certified mode: certification implies byte-identical probe-free replay.
# ---------------------------------------------------------------------------

def _build_certified_fanout(eng, spec, out):
    """The patterned fan-out with a *patterned* scalar sink, so the whole
    design is certifiable (``scalar_sink`` is deliberately dynamic)."""
    n, w = spec["n"], spec["width"]
    data = [np.float32((i % 13) - 6) for i in range(n)]
    cin = eng.channel("cin", 8)
    ca = eng.channel("ca", max(spec["depth_a"], w))
    cb = eng.channel("cb", max(spec["depth_b"], w))
    cmid = eng.channel("cmid", 8)
    cres = eng.channel("cres", 4)
    eng.add_kernel("src", source_kernel(cin, data, w))
    eng.add_kernel("dup", duplicate_kernel(cin, (ca, cb), n, w))
    eng.add_kernel("scal", level1.scal_kernel(n, 3.0, cb, cmid, w),
                   latency=spec["lat"])
    eng.add_kernel("dot", level1.dot_kernel(n, ca, cmid, cres, w),
                   latency=spec["lat"])
    eng.add_kernel("sink", sink_kernel(cres, 1, 1, out))


class TestDifferentialCertified:
    """When certification succeeds, the certified core must be
    indistinguishable from the event core (data, cycles, all stats)
    while never probing; when it fails, the design is rejected before
    cycle 0."""

    def _check(self, build, spec):
        from repro.analysis import AnalysisError

        eng = Engine(mode="certified")
        out = []
        build(eng, spec, out)
        try:
            report = eng.run(max_cycles=200_000)
        except AnalysisError:
            # Not certifiable (dynamic stage, mixed lanes, ...): the
            # refusal is pre-flight — nothing ran.
            assert all(k.stats.active_cycles == 0
                       for k in eng.kernels.values())
            return
        except DeadlockError as exc:
            certified = ("deadlock", exc.cycle, dict(exc.blocked),
                         _stats(eng), None)
        else:
            certified = ("done", report.cycles, out, _stats(eng), None)
        assert eng._bulk_probes == 0, f"certified run probed for {spec}"
        assert eng._bulk_cooldowns == 0
        event = _outcome("event", build, spec, False)
        assert certified == event, (
            f"certified diverged from event for {spec}")

    @settings(max_examples=100, deadline=None)
    @given(patterned_chain_spec)
    def test_certified_chains_match_event(self, spec):
        self._check(_build_patterned_chain, spec)

    @settings(max_examples=60, deadline=None)
    @given(patterned_fanout_spec)
    def test_certified_fanout_matches_event(self, spec):
        self._check(_build_certified_fanout, spec)


# ---------------------------------------------------------------------------
# Plan IR routing: certifying the *compiled* plan of one build must yield
# the exact certificate a separately built identical engine replays.
# ---------------------------------------------------------------------------

class TestDifferentialPlanIR:
    """One side routed through ``compile_plan()``.

    A probe engine is compiled to the typed :class:`repro.plan.PlanIR`
    and *the IR* is certified into a :class:`repro.plan.PlanCache`.  A
    second, separately built engine then runs in certified mode against
    that cache: its ``plan_key`` must hit the IR-derived entry (the IR
    is structurally faithful to the live engine), and the replay must
    stay byte-identical to the event core — data, cycles, every kernel
    and channel counter."""

    def _check(self, build, spec):
        from repro.analysis import AnalysisError, ensure_certified
        from repro.plan import PlanCache, compile_plan

        probe = Engine(mode="certified")
        build(probe, spec, [])
        plan = compile_plan(probe)
        cache = PlanCache()
        try:
            ensure_certified(plan, cache=cache)
        except AnalysisError:
            # Refusals are covered by TestDifferentialCertified; here we
            # only require the IR to be refused iff the engine is.
            with pytest.raises(AnalysisError):
                ensure_certified(probe)
            return
        assert plan.plan_key in cache

        eng = Engine(mode="certified", schedule_cache=cache)
        out = []
        build(eng, spec, out)
        hits_before = cache.hits
        try:
            report = eng.run(max_cycles=200_000)
        except DeadlockError as exc:
            certified = ("deadlock", exc.cycle, dict(exc.blocked),
                         _stats(eng), None)
        else:
            certified = ("done", report.cycles, out, _stats(eng), None)
        # The separately built engine hashed to the same plan_key and
        # replayed the certificate derived from the compiled IR.
        assert cache.hits > hits_before, f"plan_key missed for {spec}"
        assert eng._bulk_probes == 0
        assert eng._bulk_cooldowns == 0
        event = _outcome("event", build, spec, False)
        assert certified == event, (
            f"IR-certified run diverged from event for {spec}")

    @settings(max_examples=60, deadline=None)
    @given(patterned_chain_spec)
    def test_ir_certified_chains_match_event(self, spec):
        self._check(_build_patterned_chain, spec)

    @settings(max_examples=40, deadline=None)
    @given(patterned_fanout_spec)
    def test_ir_certified_fanout_matches_event(self, spec):
        self._check(_build_certified_fanout, spec)


# ---------------------------------------------------------------------------
# Bandwidth-throttled DRAM designs: the period-P fast path.
# ---------------------------------------------------------------------------

throttled_spec = st.fixed_dictionaries({
    "op": st.sampled_from(("axpy", "copy", "dot", "asum",
                           "batched_axpy", "batched_dot")),
    "n": st.integers(1, 1500),
    # Back-to-back problems of a batched op (n elements each).
    "segments": st.integers(1, 4),
    "width": st.integers(1, 16),
    # Bytes per bank per cycle, below and above a port's W x 4 demand.
    "bpc": st.integers(4, 96),
    "shared_bank": st.booleans(),
    "depth": st.integers(0, 48),
    "lat": st.integers(1, 12),
    "order": st.permutations(range(4)),
})


def _build_throttled(spec):
    """DRAM read -> map/reduce -> DRAM write, kernels registered in the
    spec's order.  With ``shared_bank`` a map's writer shares its last
    reader's bank, and a reduction's two readers share one.  An optional
    ``placement`` of ``"striped"`` spreads each buffer over its bank and
    the next one; ``"pooled"`` interleaves every buffer over all banks."""
    from repro.fpga.memory import (DramModel, Placement, read_kernel,
                                   write_kernel)

    n, w, op = spec["n"], spec["width"], spec["op"]
    segs = spec["segments"] if op.startswith("batched") else 1
    total = segs * n
    placement = spec.get("placement", "single")
    mem = DramModel(num_banks=3, bytes_per_cycle=spec["bpc"],
                    interleaving=placement == "pooled")

    def where(bank):
        if placement == "striped":
            return {"placement": Placement.striped((bank, (bank + 1) % 3))}
        return {} if placement == "pooled" else {"bank": bank}

    eng = Engine(memory=mem)
    depth = w + spec["depth"]
    x = np.arange(total, dtype=np.float32) % 29 - 14
    y = np.arange(total, dtype=np.float32) % 11 * 0.5 - 2
    bx = mem.bind("x", x, **where(0))
    cx = eng.channel("cx", depth)
    kernels = [("read_x", read_kernel(mem, bx, cx, w), 1)]
    if op != "copy" and op != "asum":
        by = mem.bind("y", y, **where(0 if op.endswith("dot")
                                      and spec["shared_bank"] else 1))
        cy = eng.channel("cy", depth)
        kernels.append(("read_y", read_kernel(mem, by, cy, w), 1))
    if op.endswith(("dot", "asum")):
        cres = eng.channel("cres", 4)
        bout = mem.allocate("out", segs, **where(2))
        compute = {
            "dot": lambda: level1.dot_kernel(n, cx, cy, cres, w),
            "asum": lambda: level1.asum_kernel(n, cx, cres, w),
            "batched_dot": lambda: level1.batched_dot_kernel(
                segs, n, cx, cy, cres, w),
        }[op]()
        kernels.append((op, compute, spec["lat"]))
        kernels.append(("write", write_kernel(mem, bout, cres, segs), 1))
    else:
        co = eng.channel("co", depth)
        # Shared: the writer draws on its last reader's bank.
        bout = mem.allocate("out", total, **where(
            len(kernels) - 1 if spec["shared_bank"] else 2))
        compute = {
            "axpy": lambda: level1.axpy_kernel(n, 0.5, cx, cy, co, w),
            "copy": lambda: level1.copy_kernel(n, cx, co, w),
            "batched_axpy": lambda: level1.batched_axpy_kernel(
                segs, n, [0.5 + i for i in range(segs)], cx, cy, co, w),
        }[op]()
        kernels.append((op, compute, spec["lat"]))
        kernels.append(("write", write_kernel(mem, bout, co, total, w), 1))
    for i in (i for i in spec["order"] if i < len(kernels)):
        name, body, lat = kernels[i]
        eng.add_kernel(name, body, latency=lat)
    return eng, mem, bout


def _throttled_outcome(mode, spec):
    eng, mem, bout = _build_throttled(spec)
    eng.mode = mode
    report = eng.run(max_cycles=200_000)
    banks = [b.to_dict() for b in mem.bank_stats]
    return report.to_dict(), banks, bout.data.tobytes(), eng.bulk_stats()


class TestDifferentialThrottled:
    """Partial DRAM grants leave burst residue and make the steady state
    periodic with P > 1; the bulk tier must replay those periods
    byte-identically to the event core."""

    @settings(max_examples=80, deadline=None)
    @given(throttled_spec)
    def test_throttled_designs_identical(self, spec):
        event = _throttled_outcome("event", spec)
        bulk = _throttled_outcome("bulk", spec)
        assert bulk[0] == event[0], f"report diverged for {spec}"
        assert bulk[1] == event[1], f"bank stats diverged for {spec}"
        assert bulk[2] == event[2], f"output bytes diverged for {spec}"

    @pytest.mark.parametrize("op", ["batched_dot", "batched_axpy"])
    def test_window_crosses_batch_segments(self, op):
        """A window that starts with the kernel waiting on its first pop
        and ends in a later batch segment: the generator must not hold a
        segment index from before the window."""
        spec = {"op": op, "n": 256, "segments": 3, "width": 16, "bpc": 53,
                "shared_bank": False, "depth": 240, "lat": 4,
                "order": (0, 1, 2, 3)}
        event = _throttled_outcome("event", spec)
        bulk = _throttled_outcome("bulk", spec)
        assert bulk[:3] == event[:3]
        assert bulk[3]["windows"] >= 1

    def test_throttled_fast_path_engages(self):
        """A W=8 AXPY on banks granting 20 B/cycle (5 of 8 lanes) with y
        and the output on one bank is periodic with P > 1 and must be
        fast-forwarded, not event-stepped."""
        spec = {"op": "axpy", "n": 4096, "segments": 1, "width": 8,
                "bpc": 20, "shared_bank": True, "depth": 8, "lat": 4,
                "order": (0, 1, 2, 3)}
        event = _throttled_outcome("event", spec)
        bulk = _throttled_outcome("bulk", spec)
        assert bulk[:3] == event[:3]
        stats = bulk[3]
        assert stats["windows"] >= 1
        assert stats["bulk_cycles"] >= 0.9 * bulk[0]["cycles"]


placed_spec = st.builds(lambda s, p: {**s, "placement": p}, throttled_spec,
                        st.sampled_from(("striped", "pooled")))


class TestDifferentialPlacement:
    """Striped and pooled DRAM buffers.  One grant policy in
    ``repro.fpga.memory`` serves the event cycles and the period-1
    window's bank deltas, so bulk and certified runs must match the
    event core byte for byte, ``bank_stats`` included."""

    @settings(max_examples=60, deadline=None)
    @given(placed_spec)
    def test_placed_designs_identical(self, spec):
        from repro.analysis import AnalysisError

        event = _throttled_outcome("event", spec)
        bulk = _throttled_outcome("bulk", spec)
        assert bulk[:3] == event[:3], f"bulk diverged for {spec}"
        try:
            certified = _throttled_outcome("certified", spec)
        except AnalysisError:
            return                       # over budget: refused pre-flight
        assert certified[:3] == event[:3], f"certified diverged for {spec}"
        assert certified[3]["probes"] == certified[3]["cooldowns"] == 0

    @staticmethod
    def _axpydot(mode, placement):
        """AXPYDOT W=8 n=4096 on a Stratix 10 context; each input on
        its own bank, striped over two banks, or pooled."""
        from repro.apps.axpydot import build_axpydot_engine
        from repro.fpga.memory import Placement
        from repro.host import FblasContext

        ctx = FblasContext(interleaving=placement == "pooled")
        rng = np.random.default_rng(3)
        bufs = []
        for i, name in enumerate("wvu"):
            data = rng.standard_normal(4096).astype(np.float32)
            where = ({"placement": Placement.striped((i, i + 1))}
                     if placement == "striped" else {})
            bufs.append(ctx.mem.bind(name, data, **where))
        eng, out = build_axpydot_engine(ctx, *bufs, np.float32(0.5),
                                        width=8, mode=mode)
        report = eng.run()
        banks = [b.to_dict() for b in ctx.mem.bank_stats]
        return (report.to_dict(), banks, float(out[0])), eng.bulk_stats()

    @pytest.mark.parametrize("placement", ["single", "striped", "pooled"])
    @pytest.mark.parametrize("mode", ["bulk", "certified"])
    def test_axpydot_windows_engage(self, mode, placement):
        event, _ = self._axpydot("event", placement)
        outcome, stats = self._axpydot(mode, placement)
        assert outcome[1] == event[1], "bank stats diverged"
        assert outcome == event
        assert stats["windows"] >= 1
        # Most of the 512-cycle steady phase is fast-forwarded.
        assert stats["bulk_cycles"] >= 0.8 * 4096 // 8, stats
        if mode == "certified":
            assert stats["probes"] == stats["cooldowns"] == 0


class TestPaperThrottledStreams:
    """The paper's Fig. 10 regime: W=16 f32 ports ask a Stratix 10 bank
    for 64 B/cycle, it grants 53."""

    N = 196_608

    def test_w16_dot_and_axpy_fast_forward(self):
        from repro.fpga.device import STRATIX10
        from repro.host import Fblas

        fb = Fblas(device=STRATIX10, interleaving=False, width=16,
                   engine_mode="bulk")
        engines = []
        make = fb._engine

        def recording_engine():
            engines.append(make())
            return engines[-1]

        fb._engine = recording_engine
        rng = np.random.default_rng(5)
        hx = rng.standard_normal(self.N).astype(np.float32)
        hy = rng.standard_normal(self.N).astype(np.float32)
        x, y = fb.copy_to_device(hx), fb.copy_to_device(hy)
        fb.dot(x, y)
        fb.axpy(0.5, x, y)
        assert len(engines) == 2
        for eng in engines:
            stats = eng.bulk_stats()
            assert stats["bulk_cycles"] >= 0.95 * eng.now, stats
