"""The benchmark's four workloads, built only on the public API.

Each workload generates its inputs from the seed, sets the system up,
and runs *passes*: a fixed sequence of operations whose simulated work
does not depend on the seed (only the data does).  Every operation's
result is checked against a float64 numpy reference computed here,
within a float32 error bound derived from the operation's summation
order (see :mod:`harness`).

* ``paper_l1_w16`` — host ``dot``/``axpy`` at W=16 over long vectors,
  the Fig. 10 bandwidth-bound regime.
* ``paper_l2_tiled`` — host tiled GEMV plus the BICG and GEMVER
  streaming compositions at W=16, tile 64.
* ``warm_host_calls`` — a closed loop of short certified-tier calls
  that all hit the certificate cache after warm-up.
* ``service_mix`` — a closed loop with 8 requests outstanding from 4
  tenants against a 2-worker :class:`SimulationService`.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from harness import (U32, SpeedGauge, check_elementwise, check_scalar,
                     gamma, reduction_bound, reduction_depth)

from repro.apps import bicg_streaming, gemver_streaming
from repro.fpga.device import STRATIX10
from repro.host import Fblas, FblasContext
from repro.plan import PlanCache

F32 = np.float32


def f32_scalar(rng: np.random.Generator, lo: float, hi: float) -> float:
    """A seeded scalar exactly representable in float32."""
    return float(F32(rng.uniform(lo, hi)))


def f32_vector(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape).astype(F32)


def level2_depth(m: int, width: int) -> int:
    """Worst-case rounding depth of one GEMV output: a fully sequential
    fold over ``m`` products (no reliance on the tile schedule), the
    W-lane tree, and the alpha/beta epilogue."""
    return m + math.ceil(math.log2(width)) + 4


@dataclass
class Op:
    """One timed operation of a pass.

    ``call()`` returns ``(value, sim_cycles)``; ``check(value)`` returns
    None when the value is within its bound, else a message.
    ``elements`` counts the input elements the operation streams.
    """

    label: str
    call: Callable[[], Tuple[Any, int]]
    check: Callable[[Any], Optional[str]]
    elements: int


@dataclass
class Tally:
    """What the timed passes of one run produced."""

    latencies: List[float] = field(default_factory=list)
    elements: int = 0
    calls: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    pass_cycles: List[int] = field(default_factory=list)
    #: Per pass: (host seconds, elements streamed, calls completed).
    passes: List[Tuple[float, int, int]] = field(default_factory=list)
    #: Simulated cycles of one pass (set once the run is verified).
    sim_cycles: int = 0

    def end_pass(self, seconds: float, elements0: int, calls0: int) -> None:
        self.passes.append((seconds, self.elements - elements0,
                            self.calls - calls0))

    def pass_seconds(self) -> List[float]:
        return [p[0] for p in self.passes]

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(msg)


# ---------------------------------------------------------------------------
# Host workloads
# ---------------------------------------------------------------------------

class HostWorkload:
    """A single host caller running fixed passes of host API calls."""

    name = ""
    tail_pct = 50.0
    #: Engine tier and vector width (recorded in the result).
    tier = ""
    width = 0
    #: Report host times in the speed gauge's reference seconds: one
    #: caller thread slows with the machine as the gauge's routine does.
    gauge_scaled = True

    def __init__(self, seed: int):
        self.seed = seed
        self.fb: Optional[Fblas] = None
        self.schedule_cache: Optional[PlanCache] = None

    # Subclasses fill these in.
    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def details(self) -> Dict[str, Any]:
        return {}

    def counters(self) -> Dict[str, int]:
        """Cache counters (deltas over traced blocks feed the ratios)."""
        return _cache_counters(self.fb.plan_cache.stats(),
                               self.schedule_cache.stats())

    def bytes_per_cycle(self) -> int:
        return self.fb.context.mem.bytes_per_cycle

    def verify(self, tally: Tally) -> int:
        """Results are checked as they arrive; here only that every
        pass simulated the same cycles.  Returns one pass's cycles."""
        if len(set(tally.pass_cycles)) != 1:
            tally.fail(f"simulated cycles differ between identical "
                       f"passes: {sorted(set(tally.pass_cycles))}")
        return tally.pass_cycles[0]

    def _fblas(self, **kw) -> Fblas:
        self.schedule_cache = PlanCache(name="bench.schedule")
        self.fb = Fblas(device=STRATIX10, interleaving=False,
                        width=self.width, engine_mode=self.tier,
                        schedule_cache=self.schedule_cache, **kw)
        return self.fb

    def _host_call(self, fn: Callable[[], Any]) -> Callable[[], Tuple[Any, int]]:
        fb = self.fb

        def call():
            value = fn()
            return value, fb.records[-1].cycles
        return call

    def run_pass(self, tally: Tally, on_op=None, latency_by_run=None,
                 gauge: Optional[SpeedGauge] = None) -> None:
        """Run one pass; ``on_op(label)`` names each op before it runs.

        ``gauge.tick()`` runs between operations, outside their timing.
        ``latency_by_run`` belongs to the service workload's interface
        and is unused by a single host caller.
        """
        cycles = 0
        t_pass = 0.0
        elements0, calls0 = tally.elements, tally.calls
        for op in self.ops():
            if gauge is not None:
                gauge.tick()
            if on_op is not None:
                on_op(f"{op.label}#{tally.attempted}")
            t0 = time.perf_counter()
            try:
                value, cyc = op.call()
            except Exception as exc:           # counted, run continues
                tally.attempted += 1
                tally.fail(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            tally.attempted += 1
            tally.latencies.append(dt)
            tally.elements += op.elements
            tally.calls += 1
            t_pass += dt
            cycles += cyc
            msg = op.check(value)
            if msg is not None:
                tally.fail(f"{op.label}: {msg}")
        tally.pass_cycles.append(cycles)
        tally.end_pass(t_pass, elements0, calls0)

    # -- shared checks ------------------------------------------------------
    def dot_op(self, x, y, hx, hy) -> Op:
        n = hx.size
        ref = float(np.dot(hx.astype(np.float64), hy.astype(np.float64)))
        bound = reduction_bound(
            n, self.width, float(np.sum(np.abs(hx.astype(np.float64)
                                               * hy.astype(np.float64)))))
        return Op(f"dot{n}", self._host_call(lambda: self.fb.dot(x, y)),
                  lambda v: _scalar_msg(v, ref, bound), 2 * n)


def _cache_counters(plan: Dict[str, int], schedule: Dict[str, int]
                    ) -> Dict[str, int]:
    return {"plan_cache.hits": plan["hits"],
            "plan_cache.misses": plan["misses"],
            "schedule_cache.hits": schedule["hits"],
            "schedule_cache.misses": schedule["misses"]}


def _scalar_msg(got, ref: float, bound: float) -> Optional[str]:
    if check_scalar(got, ref, bound):
        return None
    return f"got {float(got)!r}, reference {ref!r}, bound {bound:.3g}"


def _array_msg(got, ref, bound) -> Optional[str]:
    if check_elementwise(got, ref, bound):
        return None
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if got.shape != ref.shape:
        return f"shape {got.shape} != {ref.shape}"
    err = np.abs(got - ref) - np.broadcast_to(bound, ref.shape)
    i = np.unravel_index(int(np.argmax(err)), ref.shape)
    return f"element {i}: got {got[i]!r}, reference {ref[i]!r}"


def axpy_bound(alpha: float, hx: np.ndarray, hy: np.ndarray) -> np.ndarray:
    """fl(fl(alpha x) + y) with alpha exact in f32: two roundings."""
    return gamma(2) * (np.abs(alpha * hx.astype(np.float64))
                       + np.abs(hy.astype(np.float64)))


class PaperL1(HostWorkload):
    """W=16 host DOT/AXPY over N = 196608 (Fig. 10 regime)."""

    name = "paper_l1_w16"
    tier = "bulk"
    width = 16
    tail_pct = 50.0
    N = 196_608           # 12288 bursts of 16
    WARM_N = 4_096

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        fb = self._fblas()
        self.alpha = f32_scalar(rng, 0.25, 0.75)
        self.hx = f32_vector(rng, self.N)
        self.hy = f32_vector(rng, self.N)
        self.x = fb.copy_to_device(self.hx)
        self.y = fb.copy_to_device(self.hy)
        # Warm-up at a small size: lazy imports and first-call paths.
        wx = fb.copy_to_device(self.hx[:self.WARM_N])
        wy = fb.copy_to_device(self.hy[:self.WARM_N])
        fb.dot(wx, wy)
        fb.axpy(self.alpha, wx, wy)

    def _axpy_op(self) -> Op:
        hx, alpha = self.hx, self.alpha
        prev = self.hy
        ref = alpha * hx.astype(np.float64) + prev.astype(np.float64)
        bound = axpy_bound(alpha, hx, prev)

        def check(v):
            msg = _array_msg(v, ref, bound)
            self.hy = np.asarray(v, dtype=F32)
            return msg
        return Op(f"axpy{self.N}", self._host_call(
            lambda: self.fb.axpy(alpha, self.x, self.y)), check, 2 * self.N)

    def ops(self):
        # dot, axpy, dot: the median lands among the DOTs, not in the
        # gap between the two kinds.  Each op is built when it runs, from
        # the host mirror of y the previous AXPY left.
        yield self.dot_op(self.x, self.y, self.hx, self.hy)
        yield self._axpy_op()
        yield self.dot_op(self.x, self.y, self.hx, self.hy)


class PaperL2(HostWorkload):
    """Tiled GEMV 512x512 plus BICG and GEMVER at n=256, W=16, tile 64."""

    name = "paper_l2_tiled"
    tier = "bulk"
    width = 16
    tail_pct = 50.0
    GEMV_N = 512
    APP_N = 256
    TILE = 64

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        fb = self._fblas(tile=self.TILE)
        n, a = self.GEMV_N, self.APP_N
        self.alpha = f32_scalar(rng, 0.5, 1.5)
        self.beta = f32_scalar(rng, 0.25, 0.75)
        self.hA = f32_vector(rng, (n, n))
        self.hx = f32_vector(rng, n)
        self.hy = f32_vector(rng, n)
        self.A = fb.copy_to_device(self.hA)
        self.x = fb.copy_to_device(self.hx)
        self.y = fb.copy_to_device(self.hy)
        # The compositions run on their own context: they allocate their
        # outputs by fixed names, released after every call.
        self.ctx = FblasContext(device=STRATIX10, interleaving=False)
        self.app = {k: f32_vector(rng, a) for k in
                    ("p", "r", "u1", "v1", "u2", "v2", "gy", "gz")}
        self.app["A"] = f32_vector(rng, (a, a))
        self.dev = {k: self.ctx.copy_to_device(v, name=f"in_{k}")
                    for k, v in self.app.items()}
        self.ga = f32_scalar(rng, 0.5, 1.5)
        self.gb = f32_scalar(rng, 0.5, 1.5)
        # Warm-up: one small tiled GEMV and one small composition.
        w = self.TILE
        wa = fb.copy_to_device(self.hA[:w, :w])
        wx = fb.copy_to_device(self.hx[:w])
        wy = fb.copy_to_device(self.hy[:w])
        fb.gemv(1.0, wa, wx, 0.0, wy)
        wctx = FblasContext(device=STRATIX10, interleaving=False)
        bicg_streaming(wctx, wctx.copy_to_device(self.hA[:w, :w]),
                       wctx.copy_to_device(self.hx[:w]),
                       wctx.copy_to_device(self.hy[:w]),
                       tile=self.TILE, width=self.width, mode=self.tier)

    def _app_call(self, fn):
        """Run one composition; release the buffers it allocated."""
        mem = self.ctx.mem

        def call():
            before = set(mem.buffers)
            try:
                res = fn()
            finally:
                for name in set(mem.buffers) - before:
                    mem.release(name)
            return res.value, res.cycles
        return call

    def _gemv_op(self) -> Op:
        n = self.GEMV_N
        A64 = self.hA.astype(np.float64)
        x64 = self.hx.astype(np.float64)
        y64 = self.hy.astype(np.float64)
        ref = self.alpha * (A64 @ x64) + self.beta * y64
        bound = gamma(level2_depth(n, self.width)) * (
            abs(self.alpha) * (np.abs(A64) @ np.abs(x64))
            + abs(self.beta) * np.abs(y64))

        def check(v):
            msg = _array_msg(v, ref, bound)
            self.hy = np.asarray(v, dtype=F32)
            return msg
        return Op(f"gemv{n}", self._host_call(
            lambda: self.fb.gemv(self.alpha, self.A, self.x, self.beta,
                                 self.y)), check, n * n + 2 * n)

    def _bicg_op(self) -> Op:
        a, d = self.APP_N, self.dev
        A64 = self.app["A"].astype(np.float64)
        p64 = self.app["p"].astype(np.float64)
        r64 = self.app["r"].astype(np.float64)
        g = gamma(level2_depth(a, self.width))
        ref_q, ref_s = A64 @ p64, A64.T @ r64
        bq = g * (np.abs(A64) @ np.abs(p64))
        bs = g * (np.abs(A64).T @ np.abs(r64))

        def check(v):
            q, s = v
            return _array_msg(q, ref_q, bq) or _array_msg(s, ref_s, bs)
        return Op(f"bicg{a}", self._app_call(
            lambda: bicg_streaming(self.ctx, d["A"], d["p"], d["r"],
                                   tile=self.TILE, width=self.width,
                                   mode=self.tier)), check, a * a + 2 * a)

    def _gemver_op(self) -> Op:
        a, d, h = self.APP_N, self.dev, self.app
        c = {k: v.astype(np.float64) for k, v in h.items()}
        ga, gb = self.ga, self.gb
        ref_B = c["A"] + np.outer(c["u1"], c["v1"]) + np.outer(c["u2"],
                                                                c["v2"])
        bound_B = gamma(4) * (np.abs(c["A"])
                              + np.abs(np.outer(c["u1"], c["v1"]))
                              + np.abs(np.outer(c["u2"], c["v2"])))
        g = gamma(level2_depth(a, self.width))

        def check(v):
            B, x, w = (np.asarray(t, dtype=np.float64) for t in v)
            # Each stage is checked against the reference applied to the
            # previous stage's computed output.
            ref_x = gb * (B.T @ c["gy"]) + c["gz"]
            bx = g * (abs(gb) * (np.abs(B).T @ np.abs(c["gy"]))
                      + np.abs(c["gz"]))
            ref_w = ga * (B @ x)
            bw = g * abs(ga) * (np.abs(B) @ np.abs(x))
            return (_array_msg(B, ref_B, bound_B)
                    or _array_msg(x, ref_x, bx) or _array_msg(w, ref_w, bw))
        return Op(f"gemver{a}", self._app_call(
            lambda: gemver_streaming(
                self.ctx, d["A"], d["u1"], d["v1"], d["u2"], d["v2"],
                d["gy"], d["gz"], ga, gb, tile=self.TILE, width=self.width,
                mode=self.tier)), check, a * a + 6 * a)

    def ops(self):
        # Three call kinds, one each: the median call is the middle kind.
        yield self._gemv_op()
        yield self._bicg_op()
        yield self._gemver_op()


class WarmHostCalls(HostWorkload):
    """Short certified-tier calls over a small fixed set of shapes."""

    name = "warm_host_calls"
    tier = "certified"
    width = 4
    tail_pct = 99.0
    RED_N = 4096
    DOT2_N = 2048
    MAP_N = 3072

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        fb = self._fblas()
        vecs = {}
        for n in (self.RED_N, self.DOT2_N):
            hx, hy = f32_vector(rng, n), f32_vector(rng, n)
            vecs[n] = (hx, hy, fb.copy_to_device(hx), fb.copy_to_device(hy))
        m = self.MAP_N
        self.alpha = f32_scalar(rng, 0.25, 0.75)
        self.hs = f32_vector(rng, m)
        self.hsrc = f32_vector(rng, m)
        self.hax, self.hay = f32_vector(rng, m), f32_vector(rng, m)
        self.s = fb.copy_to_device(self.hs)
        self.src = fb.copy_to_device(self.hsrc)
        self.dst = fb.allocate(m, dtype=F32)
        self.ax = fb.copy_to_device(self.hax)
        self.ay = fb.copy_to_device(self.hay)
        hx, hy, x, y = vecs[self.DOT2_N]
        self.red_ops = (self._reduction_ops(*vecs[self.RED_N])
                        + [self.dot_op(x, y, hx, hy)])
        # SCAL alternates 2 and 1/2: exact in binary, so the scaled
        # vector never drifts however many passes run.
        self.scale_up = True
        # Warm-up: one full pass certifies every shape once; every
        # later call hits the certificate cache.
        for op in self.ops():
            op.check(op.call()[0])

    def _reduction_ops(self, hx, hy, x, y) -> List[Op]:
        n = hx.size
        x64 = hx.astype(np.float64)
        ref_asum = float(np.sum(np.abs(x64)))
        ref_nrm2 = float(np.sqrt(np.sum(x64 * x64)))
        b_asum = reduction_bound(n, self.width, ref_asum, products=False)
        # Relative bound on the sum of squares (its terms are all
        # positive), then the sqrt rounding.
        b_nrm2 = (gamma(reduction_depth(n, self.width)) + 2 * U32) \
            * ref_nrm2
        return [
            self.dot_op(x, y, hx, hy),
            Op(f"asum{n}", self._host_call(lambda: self.fb.asum(x)),
               lambda v: _scalar_msg(v, ref_asum, b_asum), n),
            Op(f"nrm2{n}", self._host_call(lambda: self.fb.nrm2(x)),
               lambda v: _scalar_msg(v, ref_nrm2, b_nrm2), n),
        ]

    def _map_ops(self) -> List[Op]:
        m = self.MAP_N
        factor = 2.0 if self.scale_up else 0.5
        ref_s = factor * self.hs.astype(np.float64)

        def check_scal(v):
            self.scale_up = not self.scale_up
            self.hs = np.asarray(v, dtype=F32)
            return _array_msg(v, ref_s, U32 * np.abs(ref_s))

        prev = self.hay
        ref_ay = self.alpha * self.hax.astype(np.float64) + prev
        b_ay = axpy_bound(self.alpha, self.hax, prev)

        def check_axpy(v):
            self.hay = np.asarray(v, dtype=F32)
            return _array_msg(v, ref_ay, b_ay)

        return [
            Op(f"scal{m}", self._host_call(
                lambda: self.fb.scal(factor, self.s)), check_scal, m),
            Op(f"copy{m}", self._host_call(
                lambda: self.fb.copy(self.src, self.dst)),
               lambda v: _array_msg(v, self.hsrc, 0.0), m),
            Op(f"axpy{m}", self._host_call(
                lambda: self.fb.axpy(self.alpha, self.ax, self.ay)),
               check_axpy, 2 * m),
        ]

    def ops(self):
        # Four reductions and three maps: seven calls, an odd count, so
        # over many passes the median lands inside one call kind's
        # latencies rather than in the gap between two kinds.
        return self.red_ops + self._map_ops()


# ---------------------------------------------------------------------------
# Service workload
# ---------------------------------------------------------------------------

def axpydot_planjob(w: np.ndarray, v: np.ndarray, u: np.ndarray,
                    alpha: float, width: int):
    """AXPYDOT (z = w - alpha v; beta = z.u) as a service PlanJob."""
    from repro.blas import level1
    from repro.fpga.resources import level1_latency
    from repro.service import PlanJob
    from repro.streaming import (BoundMDAG, ComputeBinding, ReadBinding,
                                 WriteBinding, scalar_stream, vector_stream)
    n = w.size

    def build(ctx):
        mem = ctx.mem
        g = BoundMDAG()
        for node in ("read_w", "read_v", "read_u"):
            g.add_interface(node)
        g.add_module("axpy")
        g.add_module("dot")
        g.add_interface("write_beta")
        sig = vector_stream(n)
        g.connect("read_w", "axpy", sig, sig, dst_port="w")
        g.connect("read_v", "axpy", sig, sig, dst_port="v")
        g.connect("axpy", "dot", sig, sig, src_port="z", dst_port="z")
        g.connect("read_u", "dot", sig, sig, dst_port="u")
        g.connect("dot", "write_beta", scalar_stream(), scalar_stream(),
                  src_port="res", dst_port="res")
        beta = mem.allocate("beta_out", 1)
        g.bind("read_w", ReadBinding(mem.bind("w_buf", w), width))
        g.bind("read_v", ReadBinding(mem.bind("v_buf", v), width))
        g.bind("read_u", ReadBinding(mem.bind("u_buf", u), width))
        g.bind("axpy", ComputeBinding(
            lambda ins, outs: level1.axpy_kernel(
                n, -alpha, ins["v"], ins["w"], outs["z"], width),
            latency=level1_latency("map", width)))
        g.bind("dot", ComputeBinding(
            lambda ins, outs: level1.dot_kernel(
                n, ins["z"], ins["u"], outs["res"], width),
            latency=level1_latency("map_reduce", width)))
        g.bind("write_beta", WriteBinding(beta, 1))
        return g, (lambda: float(beta.data[0]))

    return PlanJob(build, name="axpydot")


@dataclass
class Request:
    kind: str              # "dot" | "axpy" | "gemv" | "axpydot"
    payload: int           # index into the kind's pool
    job: Any
    elements: int


class ServiceMix:
    """Closed loop, window 8, 4 tenants, 2 workers, bulk tier, W=8."""

    name = "service_mix"
    tier = "bulk"
    width = 8
    #: Host seconds: the workers spread over both cores, and across runs
    #: their throughput did not follow the gauge's single thread.
    gauge_scaled = False
    tail_pct = 99.0
    WORKERS = 2
    WINDOW = 8
    TENANTS = 4
    PASS = 200            # requests per pass
    VEC_N = 1024
    GEMV_N = 64
    PLAN_N = 1024
    POOL = {"dot": 24, "axpy": 24, "gemv": 6, "axpydot": 4}
    #: Request kinds in submission order, repeated through a pass: 3/4
    #: fusable DOT/AXPY, 1/8 GEMV, 1/8 AXPYDOT.  A fixed pattern (the
    #: seed only picks payloads) keeps the backlog fusion sees, and so
    #: throughput, independent of the seed.
    PATTERN = ("dot", "axpy", "dot", "gemv", "axpy", "dot", "axpydot",
               "axpy")
    RESULT_TIMEOUT_S = 60.0

    def __init__(self, seed: int):
        self.seed = seed
        self.svc = None
        self.results: List[Tuple[Request, Any]] = []
        self._expect = None
        self._solo_cycles = 0

    def _pool(self, rng) -> Dict[str, List[Tuple]]:
        from repro.service import RoutineJob
        n, m, p = self.VEC_N, self.GEMV_N, self.PLAN_N
        pool: Dict[str, List[Tuple]] = {k: [] for k in self.POOL}
        for _ in range(self.POOL["dot"]):
            args = (f32_vector(rng, n), f32_vector(rng, n))
            pool["dot"].append((args, RoutineJob("dot", args), 2 * n))
        for _ in range(self.POOL["axpy"]):
            args = (f32_scalar(rng, 0.25, 0.75), f32_vector(rng, n),
                    f32_vector(rng, n))
            pool["axpy"].append((args, RoutineJob("axpy", args), 2 * n))
        for _ in range(self.POOL["gemv"]):
            args = (f32_scalar(rng, 0.5, 1.5), f32_vector(rng, (m, m)),
                    f32_vector(rng, m), f32_scalar(rng, 0.25, 0.75),
                    f32_vector(rng, m))
            pool["gemv"].append((args, RoutineJob("gemv", args),
                                 m * m + 2 * m))
        for _ in range(self.POOL["axpydot"]):
            args = (f32_vector(rng, p), f32_vector(rng, p),
                    f32_vector(rng, p), f32_scalar(rng, 0.25, 0.75))
            pool["axpydot"].append(
                (args, axpydot_planjob(*args, width=self.width), 3 * p))
        return pool

    def setup(self) -> None:
        from repro.service import SimulationService
        rng = np.random.default_rng(self.seed)
        self.pool = self._pool(rng)
        self.sequence = []
        for i in range(self.PASS):
            kind = self.PATTERN[i % len(self.PATTERN)]
            idx = int(rng.integers(len(self.pool[kind])))
            _, job, elems = self.pool[kind][idx]
            self.sequence.append(Request(kind, idx, job, elems))
        self.close()
        self.svc = SimulationService(workers=self.WORKERS,
                                     engine_mode=self.tier, width=self.width,
                                     device=STRATIX10)
        # Warm-up: one request of each kind, one at a time.
        for kind, entries in self.pool.items():
            self.svc.submit(entries[0][1], tenant="warmup").result(
                self.RESULT_TIMEOUT_S)

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None

    def details(self) -> Dict[str, Any]:
        """Service state worth reporting: a demoted plan shows that the
        recovery ladder answered a fast-tier failure."""
        return {"demoted_plans": self.svc.demotions(),
                "service_stats": self.svc.stats()}

    def counters(self) -> Dict[str, int]:
        st = self.svc.stats()
        out = _cache_counters(st["plan_cache"], st["schedule_cache"])
        out.update(fused_jobs=st["fused_jobs"],
                   batched_runs=st["batched_runs"])
        return out

    def bytes_per_cycle(self) -> int:
        return FblasContext(device=STRATIX10).mem.bytes_per_cycle

    def run_pass(self, tally: Tally, on_op=None,
                 latency_by_run: Optional[Dict[str, float]] = None) -> None:
        """Submit one pass with ``WINDOW`` requests outstanding.

        The generator is a closed loop: it waits for the oldest
        outstanding request before submitting the next one.  Results
        are kept for :meth:`verify`.
        """
        svc = self.svc
        inflight: deque = deque()
        elements0, calls0 = tally.elements, tally.calls
        t_pass = time.perf_counter()

        def drain_one():
            req, ticket, t0 = inflight.popleft()
            try:
                value = ticket.result(self.RESULT_TIMEOUT_S)
            except Exception as exc:
                tally.fail(f"{req.kind}: {type(exc).__name__}: {exc}")
                return
            dt = time.perf_counter() - t0
            tally.latencies.append(dt)
            tally.elements += req.elements
            tally.calls += 1
            if latency_by_run is not None:
                latency_by_run[ticket.run_id] = dt
            self.results.append((req, value))

        for i, req in enumerate(self.sequence):
            while len(inflight) >= self.WINDOW:
                drain_one()
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                ticket = svc.submit(req.job,
                                    tenant=f"tenant-{i % self.TENANTS}")
            except Exception as exc:      # rejection or overload
                tally.fail(f"{req.kind}: {type(exc).__name__}: {exc}")
                continue
            inflight.append((req, ticket, t0))
        while inflight:
            drain_one()
        tally.end_pass(time.perf_counter() - t_pass, elements0, calls0)

    # -- verification ---------------------------------------------------------
    def verify(self, tally: Tally) -> int:
        """Check (and drop) every kept result; return the mix's solo
        sim cycles.

        Fused DOT/AXPY results and GEMV results must be bit-identical to
        the same request run alone through :class:`Fblas` at the
        service's width; every result must also lie within its float32
        bound of the float64 reference.
        """
        if self._expect is None:
            self._expect, self._solo_cycles = self._solo_references()
        for req, value in self.results:
            want, check = self._expect[req.kind, req.payload]
            msg = check(value)
            if msg is None and want is not None and not np.array_equal(
                    np.asarray(value, dtype=F32), np.asarray(want, dtype=F32)):
                msg = "differs from the same request run alone"
            if msg is not None:
                tally.fail(f"{req.kind}[{req.payload}]: {msg}")
        self.results.clear()
        return self._solo_cycles

    def _solo_references(self):
        """Each pool payload run alone, its bound check, and the
        simulated cycles of one pass of the mix with every request run
        alone (the fused runs' cycles depend on the backlog)."""
        solo = Fblas(device=STRATIX10, width=self.width,
                     engine_mode=self.tier)
        expect: Dict[Tuple[str, int], Tuple[Any, Callable]] = {}
        cycles: Dict[str, int] = {}

        def solo_run(kind, args):
            if kind == "dot":
                x, y = (solo.copy_to_device(a) for a in args)
                return solo.dot(x, y)
            if kind == "axpy":
                alpha, x, y = args
                return solo.axpy(alpha, solo.copy_to_device(x),
                                 solo.copy_to_device(y))
            alpha, A, x, beta, y = args
            return solo.gemv(alpha, solo.copy_to_device(A),
                             solo.copy_to_device(x), beta,
                             solo.copy_to_device(y))

        for kind, entries in self.pool.items():
            for idx, (args, _, _) in enumerate(entries):
                if kind == "axpydot":
                    expect[kind, idx] = (None, _axpydot_check(args,
                                                              self.width))
                    continue
                value = solo_run(kind, args)
                cycles.setdefault(kind, solo.records[-1].cycles)
                expect[kind, idx] = (value, _service_check(kind, args,
                                                           self.width))
        cycles["axpydot"] = _axpydot_cycles(self.pool["axpydot"][0][0],
                                            self.width)
        return expect, sum(cycles[r.kind] for r in self.sequence)


def _service_check(kind: str, args, width: int) -> Callable:
    if kind == "dot":
        x, y = (a.astype(np.float64) for a in args)
        ref = float(x @ y)
        bound = reduction_bound(x.size, width, float(np.abs(x * y).sum()))
        return lambda v: _scalar_msg(v, ref, bound)
    if kind == "axpy":
        alpha, x, y = args
        ref = alpha * x.astype(np.float64) + y.astype(np.float64)
        bound = axpy_bound(alpha, x, y)
        return lambda v: _array_msg(v, ref, bound)
    alpha, A, x, beta, y = args
    A64, x64, y64 = (t.astype(np.float64) for t in (A, x, y))
    ref = alpha * (A64 @ x64) + beta * y64
    bound = gamma(level2_depth(A.shape[1], width)) * (
        abs(alpha) * (np.abs(A64) @ np.abs(x64)) + abs(beta) * np.abs(y64))
    return lambda v: _array_msg(v, ref, bound)


def _axpydot_check(args, width: int) -> Callable:
    w, v, u, alpha = args
    w64, v64, u64 = (t.astype(np.float64) for t in (w, v, u))
    z = w64 - alpha * v64
    ref = float(z @ u64)
    # z carries two roundings per element; the dot adds the reduction.
    bound = (gamma(2) * float(((np.abs(w64) + abs(alpha) * np.abs(v64))
                               * np.abs(u64)).sum())
             + reduction_bound(w.size, width, float(np.abs(z * u64).sum())
                               * (1 + gamma(2))))
    return lambda val: _scalar_msg(val, ref, bound)


def _axpydot_cycles(args, width: int) -> int:
    """Simulated cycles of one AXPYDOT plan run alone.

    Run on the event tier: every tier simulates identical cycles, and
    the bulk tier rejects this plan at n >= 512 with a window-invariant
    error that the service's recovery ladder answers by demoting the
    plan (reported as ``demoted_plans``).
    """
    from repro.streaming import execute_plan
    ctx = FblasContext(device=STRATIX10)
    mdag, _ = axpydot_planjob(*args, width=width).build(ctx)
    return execute_plan(mdag, ctx.mem, mode="event").cycles


WORKLOADS = {cls.name: cls for cls in
             (PaperL1, PaperL2, WarmHostCalls, ServiceMix)}
