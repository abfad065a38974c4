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
from hypothesis import example, given, settings
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


# ---------------------------------------------------------------------------
# Ordered DRAM streams: tiled matrix schedules and strided ranges walked
# through their run form by the one cursor-driven reader and writer.
# ---------------------------------------------------------------------------

def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def ordered_spec(draw):
    from repro.streaming.tiling import ElementOrder, TileOrder

    spec = {
        "source": draw(st.sampled_from(("matrix", "range"))),
        "op": draw(st.sampled_from(("copy", "axpy"))),
        "width": draw(st.sampled_from((1, 2, 4, 8, 16))),
        "bpc": draw(st.integers(4, 96)),
        "shared_bank": draw(st.booleans()),
        "depth": draw(st.integers(0, 48)),
        "lat": draw(st.integers(1, 12)),
        "order": draw(st.permutations(range(4))),
        "out": draw(st.sampled_from(("same", "linear", "other"))),
    }
    if spec["source"] == "matrix":
        rows = draw(st.sampled_from((4, 8, 12, 16, 24, 32)))
        cols = draw(st.sampled_from((4, 8, 12, 16, 24, 32)))
        spec.update(
            rows=rows, cols=cols,
            tile_rows=draw(st.sampled_from(_divisors(rows))),
            tile_cols=draw(st.sampled_from(_divisors(cols))),
            tile_order=draw(st.sampled_from(tuple(TileOrder))),
            elem_order=draw(st.sampled_from(tuple(ElementOrder))))
    else:
        spec.update(n=draw(st.integers(1, 400)),
                    start=draw(st.integers(0, 3)),
                    step=draw(st.sampled_from((1, 2, 3, 5, -1, -2))))
    return spec


def _build_ordered(spec):
    """DRAM read in an explicit order -> copy/axpy -> DRAM write in an
    explicit order.  A ``matrix`` source streams a tiled
    :class:`MatrixSchedule` (written back in the same order, linearly,
    or in the transposed schedule's order); a ``range`` source a level-1
    strided ``range`` (L = 1 runs).  With ``shared_bank`` the axpy's
    linear y reader and the writer share the ordered reader's bank."""
    from repro.fpga.memory import DramModel, read_kernel, write_kernel
    from repro.streaming.tiling import MatrixSchedule

    w = spec["width"]
    mem = DramModel(num_banks=3, bytes_per_cycle=spec["bpc"])
    eng = Engine(memory=mem)
    depth = w + spec["depth"]
    if spec["source"] == "matrix":
        sched = MatrixSchedule(spec["rows"], spec["cols"], spec["tile_rows"],
                               spec["tile_cols"], spec["tile_order"],
                               spec["elem_order"])
        n = size = sched.num_elements
        order = sched.indices()
        other = sched.transposed().indices()
    else:
        n, step = spec["n"], spec["step"]
        first = spec["start"] + (0 if step > 0 else -step * (n - 1))
        order = range(first, first + step * n, step)
        size = max(order) + 1
        other = range(n - 1, -1, -1)
    out_order = {"same": order, "linear": None, "other": other}[spec["out"]]
    x = np.arange(size, dtype=np.float32) % 29 - 14
    bx = mem.bind("x", x, bank=0)
    cx = eng.channel("cx", depth)
    kernels = [("read_x", read_kernel(mem, bx, cx, w, order=order), 1)]
    co = eng.channel("co", depth)
    shared = 0 if spec["shared_bank"] else None
    if spec["op"] == "axpy":
        by = mem.bind("y", np.arange(n, dtype=np.float32) % 11 * 0.5,
                      bank=shared if shared is not None else 1)
        cy = eng.channel("cy", depth)
        kernels.append(("read_y", read_kernel(mem, by, cy, w), 1))
        compute = level1.axpy_kernel(n, 0.5, cx, cy, co, w)
    else:
        compute = level1.copy_kernel(n, cx, co, w)
    kernels.append((spec["op"], compute, spec["lat"]))
    bout = mem.allocate("out", size if out_order is order else n,
                        bank=shared if shared is not None else 2)
    kernels.append(("write", write_kernel(mem, bout, co, n, w,
                                          order=out_order), 1))
    for i in (i for i in spec["order"] if i < len(kernels)):
        name, body, lat = kernels[i]
        eng.add_kernel(name, body, latency=lat)
    return eng, mem, bout


def _ordered_outcome(mode, spec):
    """Report, bank stats, output bytes and bulk counters of one run.  A
    strided burst can cost more budget than a starved bank ever grants
    (``bpc`` below ``stride_penalty`` x one element), which the
    watchdog reports as a livelock: then the verdict is the report."""
    from repro.fpga.errors import HangError

    eng, mem, bout = _build_ordered(spec)
    eng.mode = mode
    try:
        report = eng.run(max_cycles=200_000).to_dict()
    except HangError as exc:
        report = (type(exc).__name__, str(exc))
    banks = [b.to_dict() for b in mem.bank_stats]
    return report, banks, bout.data.tobytes(), eng.bulk_stats()


class TestDifferentialOrdered:
    """One reader and one writer serve linear, strided and tiled orders;
    bulk and, where the design certifies, certified runs must match the
    event core byte for byte, ``bank_stats`` included, while the stride
    penalty shapes every grant."""

    @settings(max_examples=100, deadline=None)
    @given(ordered_spec())
    def test_ordered_designs_identical(self, spec):
        from repro.analysis import AnalysisError

        event = _ordered_outcome("event", spec)
        bulk = _ordered_outcome("bulk", spec)
        assert bulk[0] == event[0], f"report diverged for {spec}"
        assert bulk[1] == event[1], f"bank stats diverged for {spec}"
        assert bulk[2] == event[2], f"output bytes diverged for {spec}"
        try:
            certified = _ordered_outcome("certified", spec)
        except AnalysisError:
            return                       # refused pre-flight
        assert certified[:3] == event[:3], f"certified diverged for {spec}"
        # FB402 charges strided bursts their penalty: a certified design
        # is granted every burst in full and never needs the probe.
        assert certified[3]["probes"] == certified[3]["cooldowns"] == 0

    @pytest.mark.parametrize("elem", ["row_major", "col_major"])
    @pytest.mark.parametrize("tiles", ["tiles_by_rows", "tiles_by_cols"])
    def test_tiled_copy_fast_forwards(self, tiles, elem):
        """A throttled W=8 tiled copy engages the superstep tier in
        every tile order, strided (col-major, L = 1) included."""
        from repro.streaming.tiling import ElementOrder, TileOrder

        spec = {"source": "matrix", "op": "copy", "width": 8, "bpc": 20,
                "shared_bank": False, "depth": 8, "lat": 4,
                "order": (0, 1, 2, 3), "out": "same", "rows": 64,
                "cols": 64, "tile_rows": 16, "tile_cols": 16,
                "tile_order": TileOrder(tiles),
                "elem_order": ElementOrder(elem)}
        event = _ordered_outcome("event", spec)
        bulk = _ordered_outcome("bulk", spec)
        assert bulk[:3] == event[:3]
        assert bulk[3]["windows"] >= 1
        assert bulk[3]["bulk_cycles"] >= 0.5 * bulk[0]["cycles"], bulk[3]


# ---------------------------------------------------------------------------
# The period-P probe next to kernels that sit outside its window.
# ---------------------------------------------------------------------------

def _sleeper(ch, n, nap):
    """Unpatterned consumer that sleeps ``nap`` cycles, then drains."""
    yield Clock(nap)
    for _ in range(n):
        yield Pop(ch, 1)
        yield Clock()


def _stuffer(ch, n):
    """Unpatterned producer: one ``n``-wide push at latency 1."""
    yield Push(ch, tuple(float(i) for i in range(n)), 1)
    yield Clock()


def _relaxation_design(foreign, bpc=53, nap=3000, n=8192):
    """A W=16 DRAM copy throttled by a 53 B/cycle bank (period P > 1),
    plus one kernel outside its steady state:

    * ``"overdue"`` — a producer leaves 8 values staged behind a full
      4-deep FIFO whose consumer sleeps (they are overdue every cycle);
    * ``"push_blocked"`` — a patterned DRAM reader blocked on a push to
      a full channel whose consumer sleeps;
    * ``"spinner"`` — a DRAM reader on the copy's bank: while the copy's
      reader draws the whole budget it is denied every cycle and moves
      nothing (its consumer sleeps);
    * ``"woken"`` — like ``push_blocked``, but the consumer pops the
      blocked reader's channel every cycle, waking it mid-period.
    """
    from repro.fpga.memory import DramModel, read_kernel, write_kernel

    mem = DramModel(num_banks=3, bytes_per_cycle=bpc)
    eng = Engine(memory=mem)
    bx = mem.bind("x", np.arange(n, dtype=np.float32) % 13, bank=0)
    out = mem.allocate("out", n, bank=1)
    cx = eng.channel("cx", 64)
    co = eng.channel("co", 64)
    eng.add_kernel("read_x", read_kernel(mem, bx, cx, 16))
    eng.add_kernel("copy", level1.copy_kernel(n, cx, co, 16), latency=4)
    eng.add_kernel("write", write_kernel(mem, out, co, n, 16))
    cf = eng.channel("cf", 4)
    if foreign == "overdue":
        eng.add_kernel("stuffer", _stuffer(cf, 8))
        eng.add_kernel("sleeper", _sleeper(cf, 8, nap))
    else:
        bank = 0 if foreign == "spinner" else 2
        bz = mem.bind("z", np.arange(64, dtype=np.float32), bank=bank)
        eng.add_kernel("read_z", read_kernel(mem, bz, cf, 4))
        if foreign == "woken":
            eng.add_kernel("drain", _sleeper(cf, 64, 1))
        else:
            eng.add_kernel("sleeper", _sleeper(cf, 64, nap))
    return eng, mem, out


def _relaxation_outcome(mode, foreign, **kw):
    eng, mem, out = _relaxation_design(foreign, **kw)
    eng.mode = mode
    report = eng.run()
    return (report.to_dict(), [b.to_dict() for b in mem.bank_stats],
            out.data.tobytes()), eng.bulk_stats()


class TestProbeBesideForeignKernels:
    """A period-P probe must confirm beside kernels that cannot affect
    its window — values overdue behind a full FIFO, a kernel blocked on
    a push, a reader spinning on a denied grant — and must still fall
    back when such a kernel is woken inside the measured period."""

    @pytest.mark.parametrize("foreign",
                             ["overdue", "push_blocked", "spinner"])
    def test_probe_confirms_beside_foreign_kernel(self, foreign):
        event, _ = _relaxation_outcome("event", foreign)
        bulk, stats = _relaxation_outcome("bulk", foreign)
        assert bulk == event
        assert stats["windows"] >= 1, stats
        assert stats["bulk_cycles"] >= 0.5 * 8192 / 13, stats

    def test_spinner_denied_cycles_replayed(self):
        """The spinner's bank counts one denied cycle per replayed
        cycle, exactly as the event core charges them."""
        event, _ = _relaxation_outcome("event", "spinner")
        bulk, stats = _relaxation_outcome("bulk", "spinner")
        assert stats["windows"] >= 1, stats
        assert bulk[1][0]["denied_cycles"] == event[1][0]["denied_cycles"]
        assert event[1][0]["denied_cycles"] > stats["bulk_cycles"] // 2

    @pytest.mark.parametrize("foreign,kw", [
        ("woken", {}),
        # 60 B/cycle leaves the shared reader 7 B: it is granted now and
        # then, so its channel moves inside the measured period.
        ("spinner", {"bpc": 60}),
        # The sleepers wake while the copy is still streaming.
        ("overdue", {"nap": 200}),
        ("push_blocked", {"nap": 200}),
    ])
    def test_woken_foreign_kernel_falls_back(self, foreign, kw):
        event, _ = _relaxation_outcome("event", foreign, **kw)
        bulk, _ = _relaxation_outcome("bulk", foreign, **kw)
        assert bulk == event


# ---------------------------------------------------------------------------
# The paper's tiled level-2 workloads (W=16 on Stratix 10, tile 64).
# ---------------------------------------------------------------------------

class TestTiledLevel2FastForward:
    """Tiled reads of A and writes of B go through the patterned reader
    and writer, so the level-2 compositions engage the superstep tier
    tile by tile and stay byte-identical to the event core."""

    TILE = 64

    @staticmethod
    def _runs(monkeypatch, mode, call):
        """Run ``call(mode)``; return its value and, per engine run, the
        report, the bank stats and the bulk counters."""
        runs = []
        real = Engine.run

        def run(self, *args, **kwargs):
            report = real(self, *args, **kwargs)
            runs.append((report.to_dict(),
                         [b.to_dict() for b in self.memory.bank_stats],
                         self.bulk_stats()))
            return report
        monkeypatch.setattr(Engine, "run", run)
        value = call(mode)
        monkeypatch.setattr(Engine, "run", real)
        return value, runs

    def _compare(self, monkeypatch, call):
        ev_value, ev_runs = self._runs(monkeypatch, "event", call)
        value, runs = self._runs(monkeypatch, "bulk", call)
        assert [r[:2] for r in runs] == [r[:2] for r in ev_runs]
        for got, want in zip(value, ev_value):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        return [r[2] for r in runs]

    @staticmethod
    def _ctx():
        from repro.fpga.device import STRATIX10
        from repro.host import FblasContext

        return FblasContext(device=STRATIX10, interleaving=False)

    @staticmethod
    def _data(n, count):
        rng = np.random.default_rng(7)
        return (rng.standard_normal((n, n)).astype(np.float32),
                [rng.standard_normal(n).astype(np.float32)
                 for _ in range(count)])

    def test_host_gemv_512_one_window_per_tile(self, monkeypatch):
        from repro.fpga.device import STRATIX10
        from repro.host import Fblas

        n = 512
        a, (x, y) = self._data(n, 2)

        def call(mode):
            fb = Fblas(device=STRATIX10, interleaving=False, width=16,
                       engine_mode=mode, tile=self.TILE)
            return [fb.gemv(1.5, fb.copy_to_device(a), fb.copy_to_device(x),
                            0.5, fb.copy_to_device(y))]
        (stats,) = self._compare(monkeypatch, call)
        assert stats["windows"] >= (n // self.TILE) ** 2, stats
        assert stats["bulk_cycles"] >= 0.85 * 24_000, stats

    def test_bicg_one_window_per_tile(self, monkeypatch):
        from repro.apps import bicg_streaming

        n = 256
        a, (p, r) = self._data(n, 2)

        def call(mode):
            ctx = self._ctx()
            return bicg_streaming(ctx, ctx.copy_to_device(a),
                                  ctx.copy_to_device(p),
                                  ctx.copy_to_device(r), tile=self.TILE,
                                  width=16, mode=mode).value
        (stats,) = self._compare(monkeypatch, call)
        assert stats["windows"] >= (n // self.TILE) ** 2, stats

    def test_gemver_both_phases_fast_forward(self, monkeypatch):
        from repro.apps import gemver_streaming

        n = 256
        a, vs = self._data(n, 6)

        def call(mode):
            ctx = self._ctx()
            return gemver_streaming(
                ctx, ctx.copy_to_device(a),
                *[ctx.copy_to_device(v) for v in vs], 1.5, 0.5,
                tile=self.TILE, width=16, mode=mode).value
        ger_phase, gemv_phase = self._compare(monkeypatch, call)
        # Phase 1: GER -> GER -> fan-out to the B writer and GEMV^T;
        # phase 2 (w = alpha B x) reads B back in tile order.
        for phase in (ger_phase, gemv_phase):
            assert phase["windows"] >= (n // self.TILE) ** 2, phase

    def test_atax_one_window_per_tile(self, monkeypatch):
        """ATAX buffers a whole row of tiles between its GEMVs: that
        deep FIFO fills during the first row (its consumer waits for
        the first GEMV's output) and drains by a few values per period
        after it, and the windows replay the trend."""
        from repro.apps.atax import atax_streaming

        n = 256
        a, (x,) = self._data(n, 1)

        def call(mode):
            ctx = self._ctx()
            return [atax_streaming(ctx, ctx.copy_to_device(a),
                                   ctx.copy_to_device(x), tile=self.TILE,
                                   width=16, mode=mode).value]
        (stats,) = self._compare(monkeypatch, call)
        assert stats["windows"] >= (n // self.TILE) ** 2, stats


# ---------------------------------------------------------------------------
# Deep FIFOs that fill or drain steadily (the ATAX row-of-tiles buffer).
# ---------------------------------------------------------------------------

deep_spec = st.fixed_dictionaries({
    "n": st.integers(1, 3000),
    "width": st.sampled_from((2, 4, 8, 16)),
    # The slow branch pops 1/1, 1/2 or 1/4 of the fan-out's lanes.
    "slow": st.sampled_from((1, 2, 4)),
    "deep": st.integers(0, 3000),
    "bpc": st.integers(8, 96),
    "shared_bank": st.booleans(),
    # Cycles the slow branch sleeps before it starts (its input fills).
    "nap": st.sampled_from((0, 0, 40, 300, 1500)),
    "lat": st.integers(1, 12),
    "order": st.permutations(range(6)),
})


def _napping(body, nap):
    """``body`` after ``nap`` idle cycles (the pattern is lost: the
    kernel stays event-stepped)."""
    if nap:
        yield Clock(nap)
    return (yield from body)


def _build_deep(spec):
    """DRAM read -> fan-out -> (copy -> DRAM write) and (deep FIFO ->
    narrower or late copy -> DRAM write): the deep branch fills while
    its consumer is slower or asleep, and drains once the read ends."""
    from repro.fpga.memory import DramModel, read_kernel, write_kernel
    from repro.fpga.util import duplicate_kernel

    n, w = spec["n"], spec["width"]
    w2 = max(1, w // spec["slow"])
    mem = DramModel(num_banks=3, bytes_per_cycle=spec["bpc"])
    eng = Engine(memory=mem)
    bx = mem.bind("x", np.arange(n, dtype=np.float32) % 23 - 11, bank=0)
    out_a = mem.allocate("a", n, bank=1)
    out_b = mem.allocate("b", n, bank=0 if spec["shared_bank"] else 2)
    cx = eng.channel("cx", 2 * w)
    ca = eng.channel("ca", 2 * w)
    cb = eng.channel("cb", w + spec["deep"])
    coa = eng.channel("coa", 2 * w)
    cob = eng.channel("cob", 2 * w2)
    kernels = [
        ("read", read_kernel(mem, bx, cx, w), 1),
        ("fanout", duplicate_kernel(cx, (ca, cb), n, w), 1),
        ("copy_a", level1.copy_kernel(n, ca, coa, w), spec["lat"]),
        ("copy_b", _napping(level1.copy_kernel(n, cb, cob, w2),
                            spec["nap"]), spec["lat"]),
        ("write_a", write_kernel(mem, out_a, coa, n, w), 1),
        ("write_b", write_kernel(mem, out_b, cob, n, w2), 1),
    ]
    if not spec["nap"]:
        kernels[3] = ("copy_b", level1.copy_kernel(n, cb, cob, w2),
                      spec["lat"])
    for i in spec["order"]:
        name, body, lat = kernels[i]
        eng.add_kernel(name, body, latency=lat)
    return eng, mem, (out_a, out_b)


def _deep_outcome(mode, spec):
    eng, mem, outs = _build_deep(spec)
    eng.mode = mode
    report = eng.run(max_cycles=400_000)
    return (report.to_dict(), [b.to_dict() for b in mem.bank_stats],
            [o.data.tobytes() for o in outs]), eng.bulk_stats()


class TestDifferentialDeepFifos:
    """A deep FIFO that fills or drains by a steady amount per period is
    replayed with its trend: its exact occupancy is provably irrelevant
    while it stays away from empty and full, and the window must still
    match the event core byte for byte, FIFO peaks included."""

    @settings(max_examples=100, deadline=None)
    @given(deep_spec)
    # A FIFO filling towards full: the window must stop short of it.
    @example({"n": 278, "width": 2, "slow": 1, "deep": 260, "bpc": 8,
              "shared_bank": True, "nap": 0, "lat": 1,
              "order": (0, 1, 2, 3, 4, 5)})
    def test_deep_designs_identical(self, spec):
        event, _ = _deep_outcome("event", spec)
        bulk, _ = _deep_outcome("bulk", spec)
        assert bulk[0] == event[0], f"report diverged for {spec}"
        assert bulk[1:] == event[1:], f"memory diverged for {spec}"

    def test_trend_room_band(self):
        """The replayable periods of a trending channel: every period
        must start ``o + max(o, lanes)`` values above empty and ``u``
        slots below full, and a filling channel whose FIFO peak was set
        earlier must stay below it."""
        from repro.fpga.bulk import _trend_room
        from repro.fpga.channel import Channel

        ch = Channel("deep", 1000)
        ch._fifo.extend(range(500))
        lanes = {ch: (None, 8)}
        # Draining 10 per period (u=20 pushed, o=30 popped): periods
        # start at 500, 490, ... and the last one may start at 60.
        assert _trend_room(ch, -10, (20, 30), lanes, 0) == 45
        # Filling 10 per period below a peak of 900 set earlier: a
        # period starting at s peaks at most s + 30.
        ch.stats.max_occupancy = 900
        assert _trend_room(ch, 10, (30, 20), lanes, 900) == 38
        # The measured period set the peak: it rises with the trend and
        # only the free room bounds the window (s + 30 pushed <= 1000).
        ch.stats.max_occupancy = 950
        assert _trend_room(ch, 10, (30, 20), lanes, 900) == 48
        # The measured period started 10 values above empty, below the
        # 20 its 10 pops need: no window.
        assert _trend_room(ch, 490, (500, 10), lanes, 900) is None
        ch._push_waiters.append(object())
        assert _trend_room(ch, -10, (20, 30), lanes, 0) is None

    @pytest.mark.parametrize("slow,nap", [(2, 0), (1, 1500)])
    def test_trending_fifo_fast_forwards(self, slow, nap):
        """Both a narrower consumer (the deep FIFO fills inside the
        window) and a sleeping one (it fills with its consumer outside)
        engage the superstep tier."""
        spec = {"n": 3000, "width": 8, "slow": slow, "deep": 3000,
                "bpc": 20, "shared_bank": False, "nap": nap, "lat": 4,
                "order": (0, 1, 2, 3, 4, 5)}
        event, _ = _deep_outcome("event", spec)
        bulk, stats = _deep_outcome("bulk", spec)
        assert bulk == event
        assert stats["windows"] >= 1 and stats["bulk_cycles"] >= 100, stats
