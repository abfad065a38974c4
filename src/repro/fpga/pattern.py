"""Static per-cycle op patterns — the contract behind ``mode="bulk"``.

A kernel generator describes *behaviour*; a :class:`StaticPattern`
describes the **shape** of that behaviour in steady state: which
channels the kernel pops and pushes every initiation, how many lanes
per port, at what initiation interval and write latency.  The bulk
scheduler (:mod:`repro.fpga.bulk`) uses the pattern to replay many
steady-state cycles arithmetically instead of resuming the generator
once per cycle.

The contract a pattern-carrying generator must honour:

* while ``ready() > 0`` the generator is suspended at an iteration
  boundary (its steady-loop ``Clock``) and its *next* ``ready()``
  iterations each perform exactly one ``Pop`` per read port (``lanes``
  values), one ``Push`` per write port (``lanes`` values, the declared
  latency) — in declaration order — followed by ``Clock(ii)``;
* ``block(k, ins)`` advances the kernel's shared state by ``k`` full
  iterations, consuming ``k * lanes`` input values per read port (the
  ``ins`` arrays) and returning one ndarray of ``k * lanes`` output
  values per write port, **bit-identical** to what ``k`` scalar
  iterations would have produced;
* after ``block(k, ...)``, resuming the generator continues from
  iteration boundary ``+k`` — i.e. the generator reads its loop state
  from the same shared cursor ``block`` mutates.  That holds also for a
  generator suspended on its iteration's first ``Pop``: the pop count
  may be computed before it, anything else derived from the cursor
  (a segment index, a per-segment scalar) is read after the pops.

DRAM interface kernels bend the per-cycle half of that contract: under
a partial bandwidth grant a burst moves fewer than ``lanes`` elements
and the rest waits in the kernel's burst register.  That carried-over
state is the kernel's :meth:`StaticPattern.residue`.  Such a kernel
still keeps the contract *per period*: over a stretch of cycles that
starts and ends with the same residue, it moves a whole number of
``lanes``-wide iterations per port, ``block(k, ...)`` replays ``k`` of
them with the residue held fixed, and ``ready()`` counts the whole
iterations left beyond the residue.

A reader streaming a non-linear order (:mod:`repro.fpga.runs`) also
pays a stride penalty on bursts that straddle a non-contiguous junction
between runs, so more rules hold for it.  ``residue()`` is 0 only when
its next bursts are whole and all of its steady kind (contiguous, or
strided for single-element runs) — otherwise it is non-zero even with
an empty burst register, and the period-1 decider (which replays the
steady burst every cycle) stays off.  Its
:meth:`StaticPattern.phase` — the cursor's offset within a run and the
position of the next junction that breaks the order's periodic
template — joins the probe's fingerprint, so a period is only confirmed
between states that see the same junctions ahead; and ``ready()``
stops before any burst could straddle that break.

Kernels whose steady loop is not statically regular (the reordering
routers, level-2 modules whose tile width the lanes do not divide) use
:meth:`StaticPattern.declare`: the ports are still documented for
analysis/telemetry, but ``ready()`` is constantly 0 so the bulk
scheduler always falls back to exact event stepping for them.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["DramTraffic", "PatternedGenerator", "StaticPattern"]


class DramTraffic:
    """Per-iteration DRAM traffic of a patterned memory kernel.

    ``kind`` is ``"read"`` or ``"write"``; ``elements`` is the number of
    buffer elements moved per iteration (a full burst; a partially
    granted burst leaves the rest as the kernel's ``residue()``).
    ``penalty`` is the budget the memory charges per useful byte of a
    steady burst: its stride penalty when those bursts straddle
    non-contiguous runs of the kernel's stream order, else 1.
    """

    __slots__ = ("mem", "buf", "elements", "kind", "penalty")

    def __init__(self, mem, buf, elements: int, kind: str,
                 penalty: float = 1.0):
        if kind not in ("read", "write"):
            raise ValueError(f"kind must be 'read' or 'write', got {kind!r}")
        self.mem = mem
        self.buf = buf
        self.elements = elements
        self.kind = kind
        self.penalty = penalty

    @property
    def nbytes(self) -> int:
        """Budget bytes one full burst draws."""
        return int(self.elements * self.buf.itemsize * self.penalty)


class StaticPattern:
    """Steady-state port/rate signature of a kernel generator.

    Parameters
    ----------
    reads:
        ``(channel, lanes)`` pairs popped once per iteration, in op order.
    writes:
        ``(channel, lanes, latency)`` triples pushed once per iteration,
        in op order; ``latency=None`` means the kernel's default latency
        (resolved by the engine when the kernel is registered).
    ii:
        Initiation interval of the steady loop (the ``Clock(ii)`` that
        ends each iteration).  The bulk fast path only engages at
        ``ii == 1``.
    dtype:
        Element dtype the kernel casts popped values to (``None`` keeps
        the channel values' native dtype).
    ready:
        Zero-argument callable returning how many full steady iterations
        the kernel can still execute from its current shared state.
        ``None`` (or :meth:`declare`) pins it to 0: ports are declared
        but the fast path never engages.
    block:
        ``block(k, ins) -> [out_arrays]`` — the vectorized interpreter
        for ``k`` iterations (see the module docstring contract).
    residue:
        Zero-argument callable returning the size of the partial-burst
        state the kernel carries between cycles (granted-but-unsent
        elements of a DRAM reader, popped-but-unwritten elements of a
        writer).  ``None`` means the kernel never carries any.  It may
        be non-zero with nothing pending when the kernel's next bursts
        could straddle a junction of its stream order.
    phase:
        Zero-argument callable returning a hashable position of the
        kernel within a stream order that is only periodic between
        junctions (a tiled DRAM reader's run offset and next break);
        the superstep probe compares it across periods.  ``None`` means
        the kernel's behaviour does not depend on where it stands.
    dram:
        Optional sequence of :class:`DramTraffic` descriptors for memory
        kernels, so bank counters can be advanced arithmetically.
    read_totals / write_totals:
        Optional tuples aligned with ``reads`` / ``writes`` giving the
        *total number of elements* the kernel consumes/produces on each
        port over a whole run (``None`` entries mean unknown).  The SDF
        rate analyzer (:mod:`repro.analysis.rate_passes`) uses these for
        the token-conservation check (FB401); they are metadata only and
        never affect execution.
    defer:
        Elements the kernel must consume on its *first* read port before
        its first push — the reordering window the FB403 minimal-depth
        inference sums along reconvergent paths.  Mirrors the ``defer=``
        argument of ``Engine.add_kernel`` but travels with the pattern,
        so fully patterned designs need no per-call annotations.
    """

    __slots__ = ("reads", "writes", "ii", "dtype", "dram",
                 "read_totals", "write_totals", "defer",
                 "_ready", "_block", "_residue", "_phase")

    def __init__(self, reads: Sequence[Tuple] = (),
                 writes: Sequence[Tuple] = (), ii: int = 1,
                 dtype=None, ready: Optional[Callable[[], int]] = None,
                 block: Optional[Callable] = None,
                 dram: Sequence[DramTraffic] = (),
                 read_totals: Optional[Sequence[Optional[int]]] = None,
                 write_totals: Optional[Sequence[Optional[int]]] = None,
                 defer: int = 0,
                 residue: Optional[Callable[[], int]] = None,
                 phase: Optional[Callable[[], object]] = None):
        self.reads = tuple(reads)
        self.writes = tuple(writes)
        self.ii = ii
        self.dtype = dtype
        self.dram = tuple(dram)
        self.read_totals = (tuple(read_totals) if read_totals is not None
                            else (None,) * len(self.reads))
        self.write_totals = (tuple(write_totals) if write_totals is not None
                             else (None,) * len(self.writes))
        if len(self.read_totals) != len(self.reads):
            raise ValueError("read_totals must align with reads")
        if len(self.write_totals) != len(self.writes):
            raise ValueError("write_totals must align with writes")
        self.defer = defer
        self._ready = ready
        self._block = block
        self._residue = residue
        self._phase = phase

    @classmethod
    def declare(cls, reads: Sequence[Tuple] = (),
                writes: Sequence[Tuple] = (),
                ii: int = 1,
                read_totals: Optional[Sequence[Optional[int]]] = None,
                write_totals: Optional[Sequence[Optional[int]]] = None,
                defer: int = 0) -> "StaticPattern":
        """Ports-only pattern: documents the steady rates, never engages
        the fast path (``ready()`` is constantly 0)."""
        return cls(reads=reads, writes=writes, ii=ii,
                   read_totals=read_totals, write_totals=write_totals,
                   defer=defer)

    def ready(self) -> int:
        """Full steady iterations executable from the current state
        (beyond any :meth:`residue` the kernel carries)."""
        if self._ready is None:
            return 0
        return self._ready()

    def residue(self) -> int:
        """Partial-burst elements carried into the next cycle."""
        if self._residue is None:
            return 0
        return self._residue()

    def phase(self):
        """Position within a piecewise-periodic stream order (or None)."""
        if self._phase is None:
            return None
        return self._phase()

    def block(self, k: int, ins: List) -> List:
        """Advance ``k`` iterations; return one output array per write."""
        if self._block is None:       # pragma: no cover - guarded by ready()
            raise RuntimeError("declare-only pattern has no block executor")
        return self._block(k, ins)

    def describe(self) -> str:
        rd = ", ".join(f"{ch.name}x{w}" for ch, w in self.reads)
        wr = ", ".join(f"{ch.name}x{w}" for ch, w, _lat in self.writes)
        kind = "static" if self._ready is not None else "declared"
        return (f"<StaticPattern {kind} ii={self.ii} "
                f"reads=[{rd}] writes=[{wr}]>")


class PatternedGenerator:
    """A generator plus its :class:`StaticPattern`.

    Generators cannot carry attributes, so module builders wrap the
    generator object in this proxy; the engine looks for a ``pattern``
    attribute on the kernel body (``getattr(body, "pattern", None)``).
    The full generator protocol is implemented so ``yield from`` over a
    patterned generator delegates transparently (PEP 380) — e.g.
    ``syr_kernel`` delegating to ``ger_kernel``.
    """

    __slots__ = ("_gen", "pattern")

    def __init__(self, gen, pattern: StaticPattern):
        self._gen = gen
        self.pattern = pattern

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._gen)

    def send(self, value):
        return self._gen.send(value)

    def throw(self, *exc_info):
        return self._gen.throw(*exc_info)

    def close(self):
        return self._gen.close()

    def __repr__(self):              # pragma: no cover - debugging aid
        return f"PatternedGenerator({self._gen!r}, {self.pattern.describe()})"
