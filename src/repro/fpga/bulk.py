"""The superstep scheduler (``Engine(mode="bulk")`` and
``Engine(mode="certified")``).

The event core already skips provably idle cycles, but a pipeline at
full throughput has none: every kernel executes every cycle, so event
mode degenerates to the dense loop (the honest ~1x of
``BENCH_engine.json`` in the ii=1 regime).  This scheduler adds the
missing fast path: when the design is in a *periodic steady state*,
whole periods of P cycles are executed as one arithmetic superstep
instead of P generator resumes per kernel each.  Certified mode runs
this same scheduler once the design is certified.

How a window is proven, not guessed
-----------------------------------
A superstep must be byte-identical to the cycles it replaces, so the
fast path only engages on evidence.  One precondition gates both
deciders: every kernel queued for this cycle carries an executable
:class:`~repro.fpga.pattern.StaticPattern` with ``ii == 1``, has
started, has an iteration ready and sits at an iteration boundary (not
blocked, or blocked on the first ``Pop`` of an iteration), and no
injected throttle is active.  Observers disable the fast path outright
— an instrumented run wants per-cycle callbacks.

1. **Period 1: the fixed-point check.**  When no queued kernel is
   blocked or carries burst residue, :meth:`~BulkScheduler._aligned`
   decides in O(channels), without running a cycle, whether one event
   cycle maps the channel state to itself; the bank deltas of that
   cycle come from the memory model's own grant policy
   (:meth:`~repro.fpga.memory.DramModel.full_burst_deltas`), which
   refuses when a burst would be cut short.  A fixed point replays at
   once; otherwise the cycle is event-stepped and checked again next
   cycle.  No probe cycle is spent, so a tiled kernel's steady state
   engages once per tile.
2. **Period P: the fingerprint probe.**  A partial DRAM grant leaves
   :meth:`~repro.fpga.pattern.StaticPattern.residue` in a burst
   register, and it is what makes these pipelines periodic with P > 1
   (a Stratix 10 bank grants 53 B/cycle, a 16-lane f32 port asks for
   64: the readers deliver 13 elements a cycle and the consumer stalls
   3 cycles in every 16).  So only when step 1 fails, a queued kernel
   carries residue and every queued kernel without residue has
   :data:`~BulkScheduler.PROBE_READY` iterations in hand does a probe
   open.  Kernels blocked elsewhere do not hold it back: a blocked
   kernel stays outside the window unless an event wakes it, and a
   woken one fails the window checks.  Each probe cycle captures the
   relative state: per channel its FIFO occupancy (or "deep", when it
   is at least :data:`~BulkScheduler.SLACK` from empty and from full)
   and staged-readiness offsets, per kernel its queued flag, blocked op
   (kind, channel, count), residue and
   :meth:`~repro.fpga.pattern.StaticPattern.phase` (where a tiled
   reader stands between two breaks of its order).  Staged offsets are
   clamped at 0: a value overdue behind a full FIFO behaves the same
   however long it has waited.  The cycles execute **normally**; a
   fingerprint that repeats one from at most
   :data:`~BulkScheduler.MAX_PERIOD` cycles earlier names a candidate
   period P.  Every counter is then snapshotted and one more period
   executes normally; the state must repeat again, staged offsets
   compared exactly (up to the same clamp).  If no candidate confirms
   within ``2 * MAX_PERIOD`` cycles nothing is lost (every probe cycle
   was real), and probing backs off exponentially.  A confirmed period
   proves the state P-periodic until some kernel leaves its steady
   phase or a foreign event fires.
3. **Window checks** (period P) — the kernels stepped during the
   confirming period form the window.  Each must satisfy the
   precondition, its channels must be single-producer/single-consumer
   inside the window, no other channel may have moved a value, no
   foreign kernel may wait on a window channel, and each kernel must
   have moved a whole number ``i`` of ``lanes``-wide iterations on
   every port (its iterations per period).  A channel that moved
   nothing in the period may keep one endpoint outside the window: a
   DRAM reader spinning on a grant its bank always denies joins with
   ``i = 0`` and its ``denied_cycles`` advance with the other
   counters.  So may a deep channel that fills or drains by ``d``
   values per period (ATAX buffers a whole row of tiles between its
   GEMVs): its trend is replayed, not required to vanish.
4. **Window bound** — the number of periods k is clamped so that each
   deep channel's trend keeps it far enough from empty and from full
   that no pop, push or maturation can depend on its exact occupancy
   (:func:`_trend_room`), that each kernel keeps ``k * i`` steady
   iterations in hand (one more if it
   ends the period blocked, since its pending ``Pop`` already names the
   next iteration's width), that the earliest viable foreign heap event
   (a sleeper's wake, a non-window maturation), injected memory fault
   and ``max_cycles`` all fall after the window.

The replay walks the window kernels in topological producer → consumer
order.  Each pops ``k * i * lanes`` values per read port through
:meth:`Channel.pop_block`, lets its pattern's vectorized ``block(k *
i)`` advance the kernel's shared loop state, and appends its outputs
with :meth:`Channel.push_block` — ndarray slices, not per-element
tuples.  Every other counter grows by k times its per-period delta
(measured over the confirming period; at P = 1 one active cycle per
kernel plus the bank deltas); ``max_occupancy`` cannot exceed the
period's peak (a filling deep channel's peak rises with its trend).
:meth:`Channel.end_window` then rebuilds each window channel from the
period's start occupancy (plus ``k * d`` on a deep channel) and staged
offsets, shifted by ``k * P`` cycles, with a count check that raises
:class:`~repro.fpga.errors.SimulationError` if the window left a
different number of values.

Anything the proof does not cover — fill and drain phases, epilogues,
unpatterned kernels, declare-only patterns, ii > 1, periods longer than
``MAX_PERIOD``, ``trace=True`` — executes on the inherited event
scheduler unchanged, which is what keeps mixed static/dynamic designs
and all verdicts (including :class:`~repro.fpga.errors.DeadlockError`)
byte-identical across the cores.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import SimulationError
from .scheduler import _KIDX, _MATURE, WakeListScheduler

__all__ = ["BulkScheduler"]

#: Counters a window advances arithmetically, per owner.  Channel
#: pushes/pops are not listed: the block transfers count what they move.
_KERNEL_COUNTERS = ("active_cycles", "stall_cycles")
_CHANNEL_COUNTERS = ("stalled_push_cycles", "stalled_pop_cycles")
_BANK_COUNTERS = ("bytes_read", "bytes_written", "busy_cycles",
                  "denied_cycles")
#: Ready cycle of a staged ``(ready, value)`` entry.
_READY = itemgetter(0)


def _steady(k) -> bool:
    """True when ``k`` has an executable ii=1 pattern and sits at an
    iteration boundary: runnable, or blocked on the first ``Pop`` of an
    iteration (nothing of the iteration is held in its frame yet)."""
    p = k.pattern
    if p is None or p._ready is None or p.ii != 1:
        return False
    b = k.blocked
    if b is None:
        return True
    return (b.kind == "pop" and bool(p.reads)
            and b.channel is p.reads[0][0])


class BulkScheduler(WakeListScheduler):
    """Event scheduler plus the steady-state superstep
    (``Engine(mode="bulk")`` and ``Engine(mode="certified")``)."""

    #: Smallest window worth replaying arithmetically, in cycles.
    MIN_WINDOW = 4
    #: Fewest steady iterations each queued kernel without burst residue
    #: (the compute kernels; DRAM kernels count whole streams) must have
    #: ready for a probe to open: two measured periods and a window must
    #: fit before it leaves its steady phase, and a small tile re-forms
    #: its steady state too often to pay for probing.
    PROBE_READY = 4 * MIN_WINDOW
    #: Longest period a probe looks for, in cycles.
    MAX_PERIOD = 64
    #: Cap on the exponential probe backoff, in cycles.
    MAX_COOLDOWN = 64
    #: FIFO occupancy and free room beyond which the probe's fingerprint
    #: ignores a channel's exact occupancy (a deep buffer filling or
    #: draining steadily); :meth:`_replay` bounds the trend exactly.
    SLACK = 2 * MAX_PERIOD

    def __init__(self, engine, max_cycles: int):
        super().__init__(engine, max_cycles)
        self._seen = None         # open probe: {fingerprint: cycle}
        self._probe_start = 0     # cycle the open probe began
        self._confirm = None      # (cycle, fingerprint, anchor) to verify
        self._cool = 0            # cycles left before the next probe
        self._cooldown = 1        # next backoff length
        self._graphs = {}         # window structure per kernel set
        banks = engine.memory.bank_stats if engine.memory is not None else ()
        self._counters = (
            [(k.stats, a) for k in self.kernels for a in _KERNEL_COUNTERS]
            + [(ch.stats, a) for ch in self.channels
               for a in _CHANNEL_COUNTERS]
            + [(bs, a) for bs in banks for a in _BANK_COUNTERS])
        # Introspection for tests/benchmarks/telemetry: number of
        # supersteps and total cycles they fast-forwarded, plus how
        # often the runtime had to speculate (probe) and back off
        # (cooldown).  Exposed as Engine.bulk_stats() and copied into
        # each engine-run ledger record by the telemetry session.
        engine._bulk_windows = 0
        engine._bulk_cycles = 0
        engine._bulk_probes = 0
        engine._bulk_cooldowns = 0

    # -- deciders -----------------------------------------------------------
    def _run_cycle(self) -> None:
        confirm = self._confirm
        if confirm is not None:
            if self.now >= confirm[0]:
                # One period past the anchor the state must repeat again
                # (an idle jump past that cycle fails the candidate).
                self._confirm = None
                if (self.now == confirm[0]
                        and self._fingerprint() == confirm[1]
                        and self._replay(confirm[2])):
                    self._cooldown = 1
                    return
                self._back_off()
        elif self._seen is not None:
            fp = self._fingerprint()
            t0 = self._seen.get(fp)
            if (t0 is not None and self.now - t0 <= self.MAX_PERIOD
                    and self._steady_phase() is not None):
                # A candidate period: measure the next one against it.
                self._seen = None
                self._confirm = (2 * self.now - t0, fp, self._anchor())
            elif self.now - self._probe_start >= 2 * self.MAX_PERIOD:
                self._seen = None
                self._back_off()
            else:
                self._seen[fp] = self.now
        else:
            cool = self._cool
            if cool:
                self._cool = cool - 1
            # Only a partial DRAM grant leaves burst residue, and only a
            # partial grant makes these pipelines periodic with P > 1:
            # without residue decider 1 alone can engage.
            steady = None if self._observers else self._steady_phase()
            if steady is not None:
                residue, ready = steady
                if not residue:
                    if self._period_one(ready):
                        return
                elif not cool and (ready is None
                                   or ready >= self.PROBE_READY):
                    self._probe_start = self.now
                    self._seen = {self._fingerprint(): self.now}
                    self.engine._bulk_probes += 1
        super()._run_cycle()

    def _back_off(self) -> None:
        self.engine._bulk_cooldowns += 1
        self._cool = self._cooldown
        self._cooldown = min(self._cooldown * 2, self.MAX_COOLDOWN)

    def _steady_phase(self):
        """The precondition of both deciders: every queued kernel is
        :func:`_steady`, started and ready, and no throttle window (it
        changes the grants mid-window) is active.  None when it fails,
        else ``(residue, ready)``: whether a queued kernel carries burst
        residue, and the fewest iterations a queued kernel without
        residue has ready (None when every one carries residue)."""
        cur = self._current
        if not cur:
            return None
        residue = False
        least = None
        for k in cur:
            # _steady(k) and p.ready()/p.residue(), inlined: this runs
            # for every queued kernel on every event-stepped cycle.
            p = k.pattern
            if (p is None or p._ready is None or p.ii != 1
                    or k.stats.start_cycle is None):
                return None
            b = k.blocked
            if b is not None and not (b.kind == "pop" and p.reads
                                      and b.channel is p.reads[0][0]):
                return None
            r = p._ready()
            if r < 1:
                return None
            if p._residue is not None and p._residue():
                residue = True
            elif least is None or r < least:
                least = r
        inj = self.engine._injector
        if inj is not None and inj.throttle_active(self.now):
            return None
        return residue, least

    def _period_one(self, ready: int) -> bool:
        """Decider 1: replay a period-1 window now if one event cycle
        provably maps the current state to itself (:meth:`_aligned`),
        executing no probe cycle; False to fall through.  ``ready`` is
        the fewest iterations a queued kernel has ready."""
        if ready < self.MIN_WINDOW:
            return False
        cur = self._current              # sorted by index, all patterned
        for k in cur:
            if k.blocked is not None:
                return False
        graph = self._window_graph(cur)
        if graph is None:
            return False
        order, producers, consumers = graph
        t = self.now
        span = self._horizon(t, ready, producers)
        if span < self.MIN_WINDOW:
            return False
        peaks = self._aligned(producers, consumers)
        if peaks is None:
            return False
        # One iteration per kernel per cycle; the memory model's grant
        # policy gives each bank's deltas, or refuses a cut-short burst.
        deltas = [(k.stats, "active_cycles", 1) for k in order]
        traffic = [d for k in cur for d in k.pattern.dram]
        if traffic:
            mem = self.engine.memory
            banks = mem.full_burst_deltas(traffic) if mem is not None else None
            if banks is None:
                return False
            deltas += banks
        # The event core's phase-0 maturation would have recorded the
        # in-cycle FIFO peak (occupancy + matured batch) on every window
        # channel; no real cycle runs here, so record it explicitly.
        for ch, peak in peaks.items():
            if peak > ch.stats.max_occupancy:
                ch.stats.max_occupancy = peak
        # The fixed-point check proves every simulated cycle returns the
        # channel to its current state, the state the window restores.
        self._execute_window(span, 1, order, dict.fromkeys(order, 1),
                             deltas, producers, t + span - 1)
        for k in order:
            k._last_stepped = t + span - 1
            k._last_progress = True
        return True

    def _aligned(self, producers, consumers):
        """Decide ``F(S) == S``: one event cycle maps this state to
        itself.

        For each window channel (producer pushing ``w`` per cycle at
        effective latency ``eff``, consumer popping ``w``), simulate the
        cycle arithmetically on ``(fifo occupancy, staged offsets)``:
        phase-0 maturation moves due staged values into the FIFO (capped
        at depth), the pop must be feasible, the push must have space
        under its ``eff * w`` staging headroom, and the resulting state
        must equal the starting one.  Foreign channels must be inert: a
        window never touches them, which is only event-faithful while
        they cannot mature on their own (no staged values, or a full
        FIFO blocking maturation — the scheduler does not re-arm those).

        Returns ``{channel: in-cycle FIFO peak}`` when aligned, else
        ``None``.
        """
        t = self.now
        pre = {}
        for ch, (pk, w) in producers.items():
            ck, cw = consumers[ch]
            if cw != w:
                return None
            lat = next(lt for c, _l, lt in pk.pattern.writes if c is ch)
            eff = lat if lat is not None else pk.latency
            occ = len(ch._fifo)
            offs = [r - t for r, _v in ch._staged]
            m = 0
            while m < len(offs) and offs[m] <= 0 and occ + m < ch.depth:
                m += 1
            occ1 = occ + m                   # post-maturation occupancy
            offs1 = offs[m:]
            if occ1 < w:                     # pop must succeed this cycle
                return None
            # Push feasibility: the consumer frees its batch first only
            # when it steps first (lower kernel index).
            fifo_at_push = occ1 - w if ck.index < pk.index else occ1
            if ch.depth + eff * w - fifo_at_push - len(offs1) < w:
                return None
            # Fixed point: occupancy and the staged-offset multiset must
            # come back exactly (w matured out, w pushed at eff).
            if occ1 - w != occ:
                return None
            if [o - 1 for o in offs1] + [eff - 1] * w != offs:
                return None
            pre[ch] = occ1
        for ch in self.channels:
            if ch in producers:
                continue
            if ch._staged and len(ch._fifo) < ch.depth:
                return None                  # foreign channel could mature
        return pre

    def _fingerprint(self):
        """Relative system state, invariant under a time shift when the
        system is periodic: per channel its FIFO occupancy (or "deep",
        at least :data:`SLACK` from empty and from full) and the size and
        first/last offset of its staged values, and per kernel its
        queued flag, blocked op, pattern residue and phase.  The full
        staged offsets are compared only when fingerprints match (they
        are long under deep pipelines; see :meth:`_anchor`)."""
        t = self.now
        slack = self.SLACK
        chans = []
        for ch in self.channels:
            st = ch._staged
            occ = len(ch._fifo)
            if occ >= slack and ch.depth - occ - len(st) >= slack:
                occ = -1                 # deep: the trend is checked later
            chans.append((occ, len(st), max(st[0][0] - t, 0),
                          max(st[-1][0] - t, 0)) if st else occ)
        kernels = []
        for k in self.kernels:
            if k.done:
                kernels.append(None)
                continue
            b = k.blocked
            p = k.pattern
            if b is not None:
                b = (b.kind, b.channel, b.op.count if b.kind == "pop"
                     else len(b.op.values))
            kernels.append((k._queued_for == t, b, p.residue(), p.phase())
                           if p is not None else (k._queued_for == t, b))
        return tuple(chans), tuple(kernels)

    def _anchor(self):
        """What a replay measures its period against: the cycle, every
        counter, each channel's push/pop totals, FIFO peak and staged
        ready cycles, each blocked kernel's uncharged stall lag and the
        next injected memory event."""
        t = self.now
        inj = self.engine._injector
        return (
            t,
            [getattr(o, a) for o, a in self._counters],
            [(ch.stats.pushes, ch.stats.pops, ch.stats.max_occupancy)
             for ch in self.channels],
            [tuple(map(_READY, ch._staged)) for ch in self.channels],
            {k: t - k.blocked.since for k in self.kernels
             if k.blocked is not None and not k.done},
            inj.next_memory_event(t) if inj is not None else None)

    # -- replay -------------------------------------------------------------
    def _replay(self, anchor) -> bool:
        """Replay whole periods from the current state, whose fingerprint
        matched ``anchor``'s; False when the window checks fail or no
        period fits."""
        t0, counts0, flows0, ready0, lag0, mem0 = anchor
        eng = self.engine
        t1 = self.now
        period = t1 - t0
        for ch, rs in zip(self.channels, ready0):
            if any(max(r - t1, 0) != max(r0 - t0, 0)
                   for r0, r in zip(rs, map(_READY, ch._staged))):
                return False             # staged offsets differ
        if eng._last_op_cycle < t0:
            return False                 # nothing moved in the period
        if mem0 is not None and mem0 < t1:
            return False                 # a memory fault fell inside it
        window = [k for k in self.kernels
                  if not k.done and k._last_stepped >= t0]
        for k in window:
            if not _steady(k) or k.stats.start_cycle >= t0:
                return False
            # Stall charges are lazy; the period's deltas are exact only
            # if a kernel blocked at both ends is equally far behind.
            b = k.blocked
            if b is not None and lag0.get(k) != t1 - b.since:
                return False
        flows = {ch: (ch.stats.pushes - pu0, ch.stats.pops - po0)
                 for ch, (pu0, po0, _m) in zip(self.channels, flows0)}
        # A deep channel may fill or drain by d values per period.
        trend = {ch: u - o for ch, (u, o) in flows.items() if u != o}
        graph = self._window_graph(
            window, loose={ch for ch, moved in flows.items()
                           if moved == (0, 0)} | trend.keys())
        if graph is None:
            return False
        order, producers, consumers = graph
        for ch, (u, o) in flows.items():
            if u and ch not in producers or o and ch not in consumers:
                return False             # an unproven channel moved
        iters = {}
        periods = None
        for k in order:
            p = k.pattern
            ports = ([(w, flows[ch][1]) for ch, w in p.reads]
                     + [(w, flows[ch][0]) for ch, w, _lat in p.writes])
            if not ports:
                return False
            it = ports[0][1] // ports[0][0]
            if any(n != it * w for w, n in ports):
                return False
            iters[k] = it
            if it:
                room = (p.ready() - (k.blocked is not None)) // it
                periods = room if periods is None else min(periods, room)
        if periods is None or periods < 1:
            return False
        rising = {}
        if trend:
            peaks0 = {ch: m for ch, (_u, _o, m) in zip(self.channels,
                                                       flows0)}
            for ch, d in trend.items():
                k = _trend_room(ch, d, flows[ch], consumers, peaks0[ch])
                if k is None:
                    return False
                periods = min(periods, k)
                if d > 0 and ch.stats.max_occupancy > peaks0[ch]:
                    rising[ch] = d
        chans = producers.keys() | trend.keys()
        periods = self._horizon(t1, periods * period, chans) // period
        if periods < 1 or periods * period < self.MIN_WINDOW:
            return False
        deltas = []
        for (obj, attr), c0 in zip(self._counters, counts0):
            d = getattr(obj, attr) - c0
            if d:
                deltas.append((obj, attr, d))
        self._execute_window(periods, period, order, iters, deltas,
                             chans, eng._last_op_cycle + periods * period,
                             trend, rising)
        return True

    def _window_graph(self, kernels, loose=frozenset()):
        """Port maps and replay order of a candidate window.

        Returns ``(order, producers, consumers)`` — the kernels in
        topological producer -> consumer order and the per-channel
        ``{channel: (kernel, lanes)}`` port maps — or ``None`` unless
        every pattern channel has exactly one producer and one consumer,
        both inside the window, no foreign kernel waits on it (its wake
        order would change), no channel fault is due on it (the block
        transfers would bypass it), and the channel graph is acyclic.
        A channel of ``loose`` may have one endpoint outside the window:
        one that moved nothing in the measured period (a kernel spinning
        on a denied DRAM grant touches it with zero iterations per
        period) or a deep one filling or draining (:func:`_trend_room`).
        The structure depends on the kernel set alone (patterns are
        fixed), so it is computed once per set.
        """
        key = (tuple(map(_KIDX, kernels)), frozenset(loose))
        graph = self._graphs.get(key, False)
        if graph is False:
            graph = self._graphs[key] = _window_structure(kernels, loose)
        if graph is None:
            return None
        inj = self.engine._injector
        for ch in graph[1]:
            if inj is not None and inj.pending(ch):
                return None
            for x in ch._pop_waiters + ch._push_waiters:
                if x not in kernels:
                    return None
        return graph

    def _horizon(self, t1: int, span: int, window_chans) -> int:
        """Clamp a window of ``span`` cycles from ``t1`` so that nothing
        but the window's own maturations fires inside it: no viable
        foreign heap event, injected memory fault or ``max_cycles``."""
        span = min(span, self.max_cycles - t1)
        for tev, _seq, tag, obj in self._heap:
            if tev >= t1 + span:
                continue
            if tag == _MATURE:
                if obj._mature_at == tev and obj not in window_chans:
                    span = tev - t1
            elif obj._queued_for == tev and not obj.done:
                span = tev - t1
        # The fault cycle itself must be an *executed* cycle
        # (begin_cycle applies due faults), exactly as the other cores
        # see it.
        inj = self.engine._injector
        if inj is not None:
            nxt = inj.next_memory_event(t1)
            if nxt is not None and nxt < t1 + span:
                span = nxt - t1
        return max(span, 0)

    def _execute_window(self, periods, period, order, iters, deltas,
                        window_chans, last_op, trend=None,
                        rising=None) -> None:
        """Execute ``periods`` periods of ``period`` cycles (no bail-outs).

        ``iters`` maps each kernel to its iterations per period,
        ``deltas`` lists ``(object, counter, per-period delta)``, every
        channel of ``window_chans`` returns to its current staged offsets
        and occupancy (plus ``periods`` times its ``trend`` for a deep
        channel filling or draining), the FIFO peak of each ``rising``
        channel grows by ``periods`` times its trend, and ``last_op`` is
        the last cycle the window moves a value.
        """
        t1 = self.now
        span = periods * period
        t_end = t1 + span
        trend = trend or {}
        targets = [(ch, len(ch._fifo) + periods * trend.get(ch, 0),
                    [r - t1 for r, _v in ch._staged])
                   for ch in window_chans]
        for ch, d in (rising or {}).items():
            ch.stats.max_occupancy += periods * d
        for k in order:
            m = periods * iters[k]
            if not m:
                continue
            p = k.pattern
            ins = [ch.pop_block(m * w, p.dtype) for ch, w in p.reads]
            outs = p.block(m, ins)
            for (ch, _w, _lat), arr in zip(p.writes, outs):
                ch.push_block(arr)
        for obj, attr, d in deltas:
            setattr(obj, attr, getattr(obj, attr) + periods * d)
        for ch, occ, offs in targets:
            if not ch.end_window(occ, offs, t_end):
                raise SimulationError(
                    f"bulk window invariant violated on channel "
                    f"{ch.name!r}: a {span}-cycle superstep did not leave "
                    f"the {occ + len(offs)} values its start state holds")
            ch._mature_at = None
            if ch._staged and len(ch._fifo) < ch.depth:
                nm = ch._staged[0][0]
                self._schedule_mature(ch, nm if nm > t_end else t_end)
        for k in order:
            if k._queued_for is not None:
                k._queued_for += span
            k._last_stepped += span
            if k.blocked is not None:
                k.blocked.since += span
        self.now = self.engine.now = t_end
        # The watchdog deadline advances exactly as the replayed cycles
        # would have advanced it.
        self.engine._last_op_cycle = last_op
        self.engine._bulk_windows += 1
        self.engine._bulk_cycles += span


def _window_structure(kernels, loose):
    """The static half of :meth:`BulkScheduler._window_graph`: port maps
    and topological order of ``kernels``, or None."""
    producers = {}
    consumers = {}
    for k in kernels:
        p = k.pattern
        for ch, w in p.reads:
            if ch in consumers:
                return None
            consumers[ch] = (k, w)
        for ch, w, _lat in p.writes:
            if ch in producers:
                return None
            producers[ch] = (k, w)
    if any(ch not in loose for ch in producers.keys() ^ consumers.keys()):
        return None
    # Topological producer -> consumer order (Kahn, index-ordered).
    indeg = {k: 0 for k in kernels}
    adj = {k: [] for k in kernels}
    for ch, (pk, _w) in producers.items():
        if ch not in consumers:
            continue
        ck = consumers[ch][0]
        if pk is ck:
            return None
        adj[pk].append(ck)
        indeg[ck] += 1
    frontier = sorted((k for k in kernels if indeg[k] == 0), key=_KIDX)
    order = []
    while frontier:
        k = frontier.pop(0)
        order.append(k)
        grew = False
        for nk in adj[k]:
            indeg[nk] -= 1
            if indeg[nk] == 0:
                frontier.append(nk)
                grew = True
        if grew:
            frontier.sort(key=_KIDX)
    if len(order) != len(kernels):
        return None                      # cyclic pattern graph
    return order, producers, consumers


def _trend_room(ch, d, flow, consumers, peak0):
    """Periods a deep channel filling or draining by ``d`` values per
    period can keep doing so; None when its exact occupancy could act
    inside one.

    Over a period the FIFO dips at most the ``o`` values popped below
    its start, and its FIFO plus staged values rise at most the ``u``
    pushed.  So while every period starts with at least ``o + max(o,
    lanes)`` visible values (every pop, and a writer's look at the
    occupancy, sees at least ``lanes``) and ``u`` free slots beyond its
    staged values (every push fits, every due value matures), no pop,
    push or maturation depends on the exact occupancy, and each period
    replays the measured one ``d`` values higher.  The measured period
    itself must keep the bound, and a kernel waiting on the channel
    fails it.  A filling channel whose FIFO peak was set inside the
    measured period (``peak0`` is the peak before it) sees that peak
    rise by ``d`` per period; otherwise the window stays short of
    reaching the old peak.
    """
    u, o = flow
    if ch._pop_waiters or ch._push_waiters:
        return None
    lanes = consumers[ch][1] if ch in consumers else 0
    low = o + max(o, lanes)
    high = ch.depth - len(ch._staged) - u
    occ = len(ch._fifo)
    start = occ - d                      # the measured period's start
    if min(start, occ) < low or max(start, occ) > high:
        return None
    # Replayed period j = 0 .. k-1 starts at occ + j * d.
    if d < 0:
        return (occ - low) // -d + 1
    room = (high - occ) // d + 1
    if ch.stats.max_occupancy > peak0:
        return room                      # the peak rises with the trend
    # The peak was set before: stay below it (a period's FIFO peaks at
    # most its start plus its staged and pushed values).
    return min(room, (peak0 - occ - len(ch._staged) - u) // d + 1)
