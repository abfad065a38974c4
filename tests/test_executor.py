"""End-to-end MDAG execution: bind kernels, plan, run, compare."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.blas import level1, level2, reference
from repro.fpga.memory import DramModel
from repro.fpga.resources import level1_latency
from repro.models.iomodel import atax_min_channel_depth
from repro.streaming import (
    BoundMDAG,
    ComputeBinding,
    ExecutionError,
    ReadBinding,
    WriteBinding,
    execute_plan,
    matrix_stream,
    row_tiles,
    scalar_stream,
    vector_stream,
)

RNG = np.random.default_rng(101)


def f32(a):
    return np.asarray(a, dtype=np.float32)


def build_axpydot(mem, w, v, u, alpha, n, width):
    """Fig. 6 as a bound MDAG."""
    g = BoundMDAG()
    g.add_interface("read_w")
    g.add_interface("read_v")
    g.add_interface("read_u")
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
    return g, beta


class TestAxpydotExecution:
    def test_single_component_run(self):
        n, width, alpha = 256, 8, 0.7
        w, v, u = (f32(RNG.normal(size=n)) for _ in range(3))
        mem = DramModel(num_banks=4)
        g, beta = build_axpydot(mem, w, v, u, alpha, n, width)
        result = execute_plan(g, mem)
        assert result.plan.fully_streamed
        assert len(result.reports) == 1
        want = float(reference.dot(reference.axpy(-alpha, v, w), u))
        assert beta.data[0] == pytest.approx(want, rel=1e-3)

    def test_io_matches_streaming_count(self):
        n, width = 128, 4
        w, v, u = (f32(RNG.normal(size=n)) for _ in range(3))
        mem = DramModel(num_banks=4)
        g, _ = build_axpydot(mem, w, v, u, 0.5, n, width)
        result = execute_plan(g, mem)
        assert result.io_elements == 3 * n + 1

    def test_unbound_node_rejected(self):
        n = 16
        mem = DramModel()
        g, _ = build_axpydot(mem, f32(np.ones(n)), f32(np.ones(n)),
                             f32(np.ones(n)), 1.0, n, 2)
        g.bindings.pop("dot")
        with pytest.raises(ExecutionError, match="unbound"):
            execute_plan(g, mem)

    def test_wrong_binding_kind_rejected(self):
        g = BoundMDAG()
        g.add_module("m")
        mem = DramModel()
        with pytest.raises(ExecutionError):
            g.bind("m", ReadBinding(mem.allocate("b", 4), 1))


#: Runs the AXPYDOT plan twice on the bulk tier, the second run on the
#: plan-cache hit path, and prints each run's kernel order and report.
_AXPYDOT_ORDER_SCRIPT = """
import json, sys
import numpy as np
from test_executor import build_axpydot
from repro.fpga.memory import DramModel
from repro.plan import PlanCache
from repro.streaming import execute_plan
rng = np.random.default_rng(0)
w, v, u = (rng.standard_normal(1024).astype(np.float32) for _ in range(3))
plans, schedules, runs = PlanCache(), PlanCache(), []
for _ in range(2):
    mem = DramModel(num_banks=4, bytes_per_cycle=53)
    g, beta = build_axpydot(mem, w, v, u, 0.5, 1024, 8)
    res = execute_plan(g, mem, mode="bulk", plan_cache=plans,
                       schedule_cache=schedules)
    runs.append([[list(r.kernels) for r in res.reports],
                 [r.to_dict() for r in res.reports],
                 beta.data.tobytes().hex()])
print(json.dumps(runs))
"""


class TestDeterministicKernelOrder:
    def _run(self, hashseed):
        here = Path(__file__).resolve().parent
        src = here.parent / "src"
        env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
                   PYTHONPATH=os.pathsep.join((str(src), str(here))))
        proc = subprocess.run([sys.executable, "-c", _AXPYDOT_ORDER_SCRIPT],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_plan_kernel_order_ignores_hash_seed(self):
        """Plan components are sets; kernels must still register in
        topological order (ties by name) on both the compile and the
        plan-cache hit path, whatever PYTHONHASHSEED orders the sets."""
        a, b = self._run(0), self._run(3)
        assert a == b
        orders = {tuple(map(tuple, run[0])) for run in a}
        assert orders == {(("read_read_u", "read_read_v", "read_read_w",
                            "axpy", "dot", "write_write_beta"),)}
        assert a[0][1] == a[1][1]


def build_atax(mem, a, x, tile, width):
    """Fig. 8 as a bound MDAG (A is M x N)."""
    m, n = a.shape
    sched = row_tiles(m, n, tile, tile)
    g = BoundMDAG()
    g.add_interface("read_A")
    g.add_interface("read_x")
    g.add_interface("read_z1")
    g.add_interface("read_z2")
    g.add_module("gemv")
    g.add_module("gemvT")
    g.add_interface("write_y")
    asig = matrix_stream(sched)
    g.connect("read_A", "gemv", asig, asig, dst_port="A")
    g.connect("read_A", "gemvT", asig, asig, dst_port="A")
    xsig = vector_stream(n, replay=m // tile)
    g.connect("read_x", "gemv", xsig, xsig, dst_port="x")
    g.connect("read_z1", "gemv", vector_stream(m), vector_stream(m),
              dst_port="y")
    g.connect("gemv", "gemvT", vector_stream(m), vector_stream(m),
              src_port="out", dst_port="x")
    g.connect("read_z2", "gemvT", vector_stream(n), vector_stream(n),
              dst_port="y")
    g.connect("gemvT", "write_y", vector_stream(n), vector_stream(n),
              src_port="out", dst_port="y")

    y = mem.allocate("atax_y", n)
    g.bind("read_A", ReadBinding(mem.bind("A_buf", a), width,
                                 order=sched.indices))
    g.bind("read_x", ReadBinding(mem.bind("x_buf", x), width,
                                 repeat=m // tile))
    g.bind("read_z1", ReadBinding(
        mem.bind("z1", np.zeros(m, dtype=np.float32)), width))
    g.bind("read_z2", ReadBinding(
        mem.bind("z2", np.zeros(n, dtype=np.float32)), width))
    lat = level1_latency("map_reduce", width)
    g.bind("gemv", ComputeBinding(
        lambda ins, outs: level2.gemv_row_tiles(
            m, n, 1.0, 0.0, ins["A"], ins["x"], ins["y"], outs["out"],
            tile, tile, width), latency=lat))
    g.bind("gemvT", ComputeBinding(
        lambda ins, outs: level2.gemv_transposed_row_tiles(
            m, n, 1.0, 0.0, ins["A"], ins["x"], ins["y"], outs["out"],
            tile, tile, width), latency=lat))
    g.bind("write_y", WriteBinding(y, n, width))
    return g, y


class TestAtaxExecution:
    M = N = 16
    TILE = 4
    WIDTH = 4

    def _arrays(self):
        return (f32(RNG.normal(size=(self.M, self.N))),
                f32(RNG.normal(size=self.N)))

    def test_split_plan_executes_in_two_components(self):
        a, x = self._arrays()
        mem = DramModel(num_banks=4)
        g, y = build_atax(mem, a, x, self.TILE, self.WIDTH)
        result = execute_plan(g, mem)
        assert result.plan.num_components == 2
        assert len(result.reports) == 2
        np.testing.assert_allclose(y.data, a.T @ (a @ x),
                                   rtol=1e-3, atol=1e-3)

    def test_sized_plan_executes_in_one_component(self):
        a, x = self._arrays()
        mem = DramModel(num_banks=4)
        g, y = build_atax(mem, a, x, self.TILE, self.WIDTH)
        window = atax_min_channel_depth(self.N, self.TILE) + 8 * self.WIDTH
        result = execute_plan(g, mem,
                              windows={("read_A", "gemvT"): window},
                              buffer_budget=4 * window)
        assert result.plan.num_components == 1
        np.testing.assert_allclose(y.data, a.T @ (a @ x),
                                   rtol=1e-3, atol=1e-3)

    def test_sized_plan_moves_less_data_than_split(self):
        a, x = self._arrays()
        mem1 = DramModel(num_banks=4)
        g1, _ = build_atax(mem1, a, x, self.TILE, self.WIDTH)
        split = execute_plan(g1, mem1)
        mem2 = DramModel(num_banks=4)
        g2, _ = build_atax(mem2, a, x, self.TILE, self.WIDTH)
        window = atax_min_channel_depth(self.N, self.TILE) + 8 * self.WIDTH
        sized = execute_plan(g2, mem2,
                             windows={("read_A", "gemvT"): window},
                             buffer_budget=4 * window)
        assert sized.io_elements < split.io_elements
        # the split re-reads A: difference ~ one pass over the matrix
        assert split.io_elements - sized.io_elements >= self.M * self.N - 8

    def test_matches_handwritten_app(self):
        """The generic executor reproduces the hand-built atax app."""
        from repro.apps import atax_streaming
        from repro.host import FblasContext
        a, x = self._arrays()
        mem = DramModel(num_banks=4)
        g, y = build_atax(mem, a, x, self.TILE, self.WIDTH)
        window = atax_min_channel_depth(self.N, self.TILE) + 8 * self.WIDTH
        execute_plan(g, mem, windows={("read_A", "gemvT"): window},
                     buffer_budget=4 * window)
        ctx = FblasContext()
        app = atax_streaming(ctx, ctx.copy_to_device(a),
                             ctx.copy_to_device(x), tile=self.TILE,
                             width=self.WIDTH)
        np.testing.assert_allclose(y.data, app.value, rtol=1e-4, atol=1e-4)
