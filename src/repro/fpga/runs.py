"""Stream orders as runs of contiguous DRAM elements.

A DRAM interface kernel streams a buffer in some order of flat indices:
linear, strided (a level-1 ``inc``), or tiled (the four streaming modes
of Sec. III-B).  :class:`RunOrder` describes any such order as ``count``
*runs* of ``length`` contiguous flat indices, so the kernels' shared
cursor can map a stream position to a flat index, and a burst to its
contiguity, in O(1) per run touched and without materialising the order:

* a linear order is one run;
* a strided ``range`` is runs of length 1 at ``start + q * step``;
* a tiled matrix schedule is an *affine nest*: the run index is a
  mixed-radix number whose digits (tile row, tile column, row within
  the tile, ...) each add ``digit * stride`` to the run's start;
* any other order is scanned once into an explicit array of run starts
  (the run length is the gcd of its maximal contiguous stretches).

A *junction* is the step from run ``q - 1`` to run ``q``; it is
contiguous when run ``q`` starts right where run ``q - 1`` ends.  In a
nest every junction of one carry level (the outermost digit that
increments) has the same contiguity.  The contiguity of the innermost
level — the most frequent junction — is the order's *template*; a
junction of the other kind is a *break*.  Between two breaks the order
looks the same from every position with the same phase ``p % length``,
which is what lets a reader of a tiled matrix repeat periodically.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["RunOrder"]

#: Runs materialised at a time when a run order is iterated.
_CHUNK = 4096
#: Most runs a burst is copied run by run; wider spans gather at once.
_FEW_RUNS = 4


class RunOrder:
    """An order of flat indices as ``count`` runs of ``length`` elements.

    Build it with :meth:`of` (any order), :meth:`linear` or :meth:`nest`.
    Iterating yields the flat indices in stream order, so a run order
    can stand wherever an iterable of indices is expected.
    """

    __slots__ = ("length", "count", "template", "_offset", "_digits",
                 "_level_contig", "_break_levels", "_starts",
                 "_break_runs")

    def __init__(self, length: int, count: int, *, offset: int = 0,
                 digits: Optional[Sequence[Tuple[int, int]]] = None,
                 starts: Optional[np.ndarray] = None):
        self.length = length
        self.count = count
        self._offset = offset
        self._starts = starts
        self._digits = None
        self._break_levels = ()
        self._break_runs = None
        if not digits and starts is None:   # a single run (or none)
            self._digits = self._level_contig = ()
            self.template = True
            return
        if starts is not None:
            contig = np.diff(starts) == length
            # Majority rule: the template is the more frequent junction.
            self.template = bool(2 * int(contig.sum()) >= contig.size)
            self._break_runs = np.flatnonzero(contig != self.template) + 1
            return
        # Affine nest: digits (radix, stride) outer -> inner over the run
        # index, each with the product of the radices inside it.
        nest = []
        inner = 1
        for radix, stride in reversed(tuple(digits or ())):
            nest.append((radix, stride, inner))
            inner *= radix
        nest.reverse()
        self._digits = tuple(nest)
        # Flat step across a junction whose carry stops at digit d.
        contig = []
        for d, (_radix, stride, _p) in enumerate(nest):
            delta = stride - sum((r - 1) * s for r, s, _q in nest[d + 1:])
            contig.append(delta == length)
        self._level_contig = tuple(contig)
        self.template = contig[-1] if contig else True
        # Break levels as (run-index multiple, enclosing multiple).
        outer = [count] + [p for _r, _s, p in nest[:-1]]
        self._break_levels = tuple(
            (p, outer[d]) for d, (_r, _s, p) in enumerate(nest)
            if contig[d] != self.template)

    # -- constructors -------------------------------------------------------
    @classmethod
    def linear(cls, n: int, start: int = 0) -> "RunOrder":
        """``start, start + 1, ..., start + n - 1``: a single run."""
        if n <= 0:
            return cls(1, 0, offset=start)
        return cls(n, 1, offset=start)

    @classmethod
    def nest(cls, offset: int,
             dims: Sequence[Tuple[int, int]]) -> "RunOrder":
        """Flat index ``offset + sum(i_d * stride_d)`` with each digit
        ``i_d`` running over ``range(radix_d)``, outermost first — the
        shape of ``dims = ((radix, stride), ...)``.  Innermost digits
        that continue a contiguous run are folded into its length."""
        dims = [(int(r), int(s)) for r, s in dims if r != 1]
        if any(r <= 0 for r, _s in dims):
            return cls(1, 0, offset=offset)
        length = 1
        while dims and dims[-1][1] == length:
            length *= dims.pop()[0]
        count = 1
        for r, _s in dims:
            count *= r
        return cls(length, count, offset=int(offset), digits=dims)

    @classmethod
    def of(cls, order) -> "RunOrder":
        """The run form of ``order``: a :class:`RunOrder` (returned as
        is), a ``range``, or any iterable of flat indices (scanned once;
        O(runs) memory is kept)."""
        if isinstance(order, RunOrder):
            return order
        if isinstance(order, range):
            if order.step == 1:
                return cls.linear(len(order), order.start)
            return cls.nest(order.start, ((len(order), order.step),))
        if isinstance(order, np.ndarray):
            idx = order.astype(np.int64, copy=False).reshape(-1)
        else:
            idx = np.fromiter(order, dtype=np.int64)
        if idx.size == 0:
            return cls(1, 0)
        cuts = np.flatnonzero(np.diff(idx) != 1) + 1
        bounds = np.concatenate(([0], cuts, [idx.size]))
        length = int(np.gcd.reduce(np.diff(bounds)))
        starts = idx[::length].copy()
        if starts.size == 1:
            return cls.linear(length, int(starts[0]))
        return cls(length, int(starts.size), starts=starts)

    # -- enumeration --------------------------------------------------------
    def __len__(self) -> int:
        return self.length * self.count

    def __iter__(self) -> Iterator[int]:
        length = self.length
        for q0 in range(0, self.count, _CHUNK):
            for s in self.starts(q0, min(self.count, q0 + _CHUNK)).tolist():
                yield from range(s, s + length)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunOrder(length={self.length}, count={self.count})"

    def start(self, q: int) -> int:
        """Flat index of the first element of run ``q``."""
        if self._starts is not None:
            return int(self._starts[q])
        s = self._offset
        for radix, stride, p in self._digits:
            s += (q // p) % radix * stride
        return s

    def starts(self, q0: int, q1: int) -> np.ndarray:
        """Run starts of runs ``q0 .. q1 - 1`` as an int64 array."""
        if self._starts is not None:
            return self._starts[q0:q1]
        q = np.arange(q0, q1, dtype=np.int64)
        acc = np.full(q.shape, self._offset, dtype=np.int64)
        for radix, stride, p in self._digits:
            acc += (q // p) % radix * stride
        return acc

    def take(self, flat: np.ndarray, p0: int, p1: int) -> np.ndarray:
        """Elements of ``flat`` at stream positions ``p0 .. p1 - 1`` (a
        view when they lie in one run)."""
        q, r = divmod(p0, self.length)
        if r + p1 - p0 <= self.length:          # the common burst
            a = self.start(q) + r
            return flat[a:a + p1 - p0]
        pieces = self._pieces(p0, p1)
        if pieces is None:
            return flat[self._positions(p0, p1)]
        return np.concatenate([flat[a:a + n] for a, n in pieces])

    def put(self, flat: np.ndarray, p0: int, p1: int, values) -> None:
        """Store ``values`` at stream positions ``p0 .. p1 - 1``."""
        q, r = divmod(p0, self.length)
        if r + p1 - p0 <= self.length:          # the common burst
            a = self.start(q) + r
            flat[a:a + p1 - p0] = values
            return
        pieces = self._pieces(p0, p1)
        if pieces is None:
            flat[self._positions(p0, p1)] = values
            return
        i = 0
        for a, n in pieces:
            flat[a:a + n] = values[i:i + n]
            i += n

    def _pieces(self, p0: int, p1: int) -> Optional[list]:
        """``[(flat start, count)]`` per run that positions ``p0 .. p1 -
        1`` touch — a burst's few slices — or None beyond
        :data:`_FEW_RUNS` runs (then one gather is cheaper)."""
        length = self.length
        if (p1 - 1) // length - p0 // length >= _FEW_RUNS:
            return None
        pieces = []
        p = p0
        while p < p1:
            q, r = divmod(p, length)
            n = min(length - r, p1 - p)
            pieces.append((self.start(q) + r, n))
            p += n
        return pieces

    def _positions(self, p0: int, p1: int) -> np.ndarray:
        pos = np.arange(p0, p1, dtype=np.int64)
        q = pos // self.length
        q0 = p0 // self.length
        return self.starts(q0, int(q[-1]) + 1)[q - q0] + (pos - q * self.length)

    # -- junctions ----------------------------------------------------------
    def _junction_contiguous(self, q: int) -> bool:
        if self._starts is not None:
            return int(self._starts[q]) - int(self._starts[q - 1]) == \
                self.length
        for d, (_radix, _stride, p) in enumerate(self._digits):
            if q % p == 0:
                return self._level_contig[d]
        return True                       # pragma: no cover - q >= 1

    def _next_break_run(self, q: int) -> int:
        """Smallest break junction ``>= q`` (``count`` when none)."""
        if self._break_runs is not None:
            i = int(np.searchsorted(self._break_runs, q))
            return (int(self._break_runs[i]) if i < self._break_runs.size
                    else self.count)
        best = self.count
        for p, outer in self._break_levels:
            c = -(-max(q, 1) // p) * p
            if c % outer == 0:
                c += p
            if c < best:
                best = c
        return best

    def next_break(self, p: int) -> int:
        """Stream position of the first break junction after position
        ``p`` (one that a burst holding ``p`` could still straddle), or
        the order's length when none is left."""
        q = self._next_break_run(p // self.length + 1)
        return min(q, self.count) * self.length

    def contiguous(self, p0: int, p1: int) -> bool:
        """True when stream positions ``p0 .. p1 - 1`` are consecutive
        flat indices (the burst costs no stride penalty)."""
        length = self.length
        q0 = p0 // length + 1                 # junctions inside the burst
        q1 = (p1 - 1) // length
        if q0 > q1:
            return True
        if self.template:
            return self._next_break_run(q0) > q1
        if self._next_break_run(q0) != q0:
            return False
        return all(self._junction_contiguous(q) for q in range(q0, q1 + 1))
