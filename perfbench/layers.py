"""The traced run: per-layer metrics from the benchmark's own spans.

The benchmark records a span around each call it makes into one of the
program's layers (:class:`SpanRecorder`) and derives every per-layer
metric from those spans.  The program's tracer is switched on only for
half of the timed calls, and only to read what the program already
records: the ``comm.wait`` spans and the ``comm.messages``,
``comm.bytes_sent``, ``comm.retry`` and ``comm.pool_bytes`` counters.
The other half of the calls run untraced, which gives the tracing
overhead on the same host at the same time.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import subprocess
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from workloads import msc_source

HERE = Path(__file__).resolve().parent
#: repetitions of each cheap probe (metrics are medians)
REPS = 5
#: grid of the ScheduledExecutor probe (its Python tile loop is slow)
SMALL_N = {2: 64, 3: 32}
#: reference_run probe: about this many point updates per repetition
REFERENCE_POINTS = 4_000_000


class SpanRecorder:
    """In-memory spans (name, start, duration, parent) from any thread."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._epoch = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        stack = self._tls.__dict__.setdefault("stack", [])
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            with self._lock:
                self.spans.append({
                    "id": sid, "parent": parent, "name": name,
                    "start_s": t0 - self._epoch, "duration_s": dur,
                    "thread": threading.current_thread().name,
                })

    def repeat(self, name: str, reps: int, fn: Callable):
        """Call ``fn`` ``reps`` times, each under a span; last result."""
        out = None
        for _ in range(reps):
            with self.span(name):
                out = fn()
        return out

    @contextmanager
    def around(self, cls, method: str, name: str):
        """Record a span around every call of ``cls.method`` meanwhile.

        Times a public method the program calls internally (such as
        ``NativeExecutor.advance`` inside ``StencilProgram.run``).
        """
        original = getattr(cls, method)

        def wrapped(obj, *args, **kwargs):
            with self.span(name):
                return original(obj, *args, **kwargs)

        setattr(cls, method, wrapped)
        try:
            yield
        finally:
            setattr(cls, method, original)

    def median_self_ms(self, name: str) -> float:
        """Median of each ``name`` span's duration minus its children's."""
        children: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] = (
                    children.get(s["parent"], 0.0) + s["duration_s"]
                )
        return statistics.median(
            s["duration_s"] - children.get(s["id"], 0.0)
            for s in self.spans if s["name"] == name
        ) * 1e3

    def median_s(self, name: str) -> float:
        durations = [s["duration_s"] for s in self.spans if s["name"] == name]
        if not durations:
            raise KeyError(f"no spans named {name!r}")
        return statistics.median(durations)

    def median_ms(self, name: str) -> float:
        return self.median_s(name) * 1e3

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=1))


# -- the program's own comm telemetry, read after one traced call ----------

def comm_stats() -> Dict[str, float]:
    """Counters and ``comm.wait`` self time of the last traced call."""
    from repro.obs import registry, tracer

    records = tracer().records
    child_time: Dict[int, float] = {}
    for rec in records:
        if rec.parent_id is not None:
            child_time[rec.parent_id] = (
                child_time.get(rec.parent_id, 0.0) + rec.duration_s
            )
    wait_self = sum(
        rec.duration_s - child_time.get(rec.span_id, 0.0)
        for rec in records if rec.name == "comm.wait"
    )
    reg = registry()
    return {
        "wait_s": wait_self,
        "messages": reg.counter_total("comm.messages"),
        "bytes": reg.counter_total("comm.bytes_sent"),
        "retries": reg.counter_total("comm.retry"),
        "pool_bytes": reg.counter_total("comm.pool_bytes"),
    }


@contextmanager
def program_tracing():
    """The program's tracer and metrics on, from a clean slate."""
    from repro import obs

    obs.reset()
    obs.enable()
    try:
        yield
    finally:
        obs.disable()


# -- the traced run ----------------------------------------------------------

def traced_run(session, seconds: float, run_dir: Path) -> Dict:
    """Alternate untraced and traced calls, then probe every layer."""
    from run import clocks, elapsed, run_ops, timed_call

    rec = SpanRecorder()
    comm: List[Dict[str, float]] = []

    def call(session, op, i):
        if i % 2:
            return timed_call(session, op, i)
        with program_tracing():
            with rec.span("op.traced"):
                start = clocks()
                out = session.call(op)
                dt = elapsed(start)
        comm.append(comm_stats())
        return out, dt, "traced"

    res = run_ops(session, seconds, call)
    times = res["times"]
    metrics: Dict[str, float] = {}
    if times.get("plain") and times.get("traced"):
        # CPU time, as the end-to-end op_cpu_ms_p50: the tracer's cost
        # is CPU work, and wall time follows the host's steal
        plain = statistics.median(cpu for _, cpu in times["plain"])
        traced = statistics.median(cpu for _, cpu in times["traced"])
        metrics["obs.trace_overhead_pct"] = (traced - plain) / plain * 100
    w = session.w
    if w.mode is None:
        # native calls exchange nothing: the comm counters come from a
        # short traced distributed run of the same program instead
        comm, comm_steps = [_probe_distributed(session, rec)], PROBE_STEPS
    else:
        comm_steps = w.steps
    metrics.update(_comm_metrics(comm, comm_steps))
    metrics.update(probe_layers(session, rec, run_dir))
    rec.write(run_dir.parent / "traces" / f"{w.name}.json")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


#: steps of the traced distributed probe on the native workloads
PROBE_STEPS = 2


def _comm_metrics(comm: List[Dict[str, float]], steps: int
                  ) -> Dict[str, float]:
    def med(key):
        return statistics.median(c[key] for c in comm)

    return {
        "comm.wait_ms": med("wait_s") * 1e3,
        "comm.messages_per_step": med("messages") / steps,
        "comm.bytes_per_step": med("bytes") / steps,
        "comm.retries_per_op": med("retries"),
        "comm.pool_bytes_per_op": med("pool_bytes"),
    }


def _probe_distributed(session, rec: SpanRecorder) -> Dict[str, float]:
    from repro.runtime.executor import distributed_run

    w = session.w
    init = _inputs(session, w.shape)
    with program_tracing():
        with rec.span("runtime.distributed_run"):
            distributed_run(session.program.ir, init, PROBE_STEPS, w.grid,
                            boundary=w.boundary, exchange_mode="basic")
    return comm_stats()


def _inputs(session, shape) -> List[np.ndarray]:
    rng = np.random.default_rng([session.seed, 2])
    return [rng.random(shape) for _ in range(2)]


def probe_layers(session, rec: SpanRecorder, run_dir: Path
                 ) -> Dict[str, float]:
    """Time each layer's public calls on the workload's program."""
    from repro.backend.native import (ArtifactCache, NativeExecutor,
                                      SharedLibGenerator, build_artifact)
    from repro.frontend.lang import parse_program

    w = session.w
    init = _inputs(session, w.shape)
    m: Dict[str, float] = {}

    # frontend -> analysis -> schedule -> backend.c_codegen
    prog = rec.repeat("frontend.parse_program", REPS,
                      lambda: parse_program(session.source)).program
    m["frontend.parse_ms"] = rec.median_ms("frontend.parse_program")
    rec.repeat("analysis.check", REPS, lambda: prog.check("cpu"))
    m["analysis.check_ms"] = rec.median_ms("analysis.check")
    scheds = prog.schedules()
    rec.repeat("schedule.lower", REPS, lambda: [
        scheds[k.name].lower(prog.ir.output.shape) for k in prog.ir.kernels
    ])
    m["schedule.lower_ms"] = rec.median_ms("schedule.lower")
    code = rec.repeat("codegen.generate", REPS, lambda: SharedLibGenerator(
        prog.ir, scheds, boundary=w.boundary).generate("msc_native"))
    m["codegen.generate_ms"] = rec.median_ms("codegen.generate")
    m["codegen.c_bytes"] = sum(len(t.encode()) for t in code.files.values())

    # backend.native: build, cache, executor, per-call phases, kernel
    cache = None
    for i in range(3):
        cache = ArtifactCache(str(run_dir / f"probe-cache{i}"))
        with rec.span("native.build_artifact.cold"):
            build_artifact(code.files, "msc_native.so", kind="shared",
                           cache=cache)
    m["native.compile_ms"] = rec.median_ms("native.build_artifact.cold")
    rec.repeat("native.build_artifact.warm", REPS, lambda: build_artifact(
        code.files, "msc_native.so", kind="shared", cache=cache))
    m["native.cache_hit_ms"] = rec.median_ms("native.build_artifact.warm")
    NativeExecutor(prog.ir, scheds, w.boundary)  # warm the run's cache
    ex = rec.repeat("native.NativeExecutor", REPS,
                    lambda: NativeExecutor(prog.ir, scheds, w.boundary))
    m["native.executor_ms"] = rec.median_ms("native.NativeExecutor")
    for _ in range(REPS):
        with rec.span("native.initialize"):
            ex.initialize(init)
        with rec.span("native.advance"):
            ex.advance(w.steps)
        with rec.span("native.result"):
            ex.result()
    prog.set_initial(init)
    with rec.around(NativeExecutor, "advance", "native.run.advance"):
        rec.repeat("native.run", REPS,
                   lambda: prog.run(w.steps, backend="native"))
    m["native.init_ms"] = rec.median_ms("native.initialize")
    m["native.readback_ms"] = rec.median_ms("native.result")
    m["native.fixed_ms"] = rec.median_self_ms("native.run")
    advance_s = rec.median_s("native.advance")
    m["native.kernel_mpts_per_s"] = w.points * w.steps / advance_s / 1e6
    # computed, not measured: the stencil's compulsory traffic, two
    # history planes read and one plane written per step
    m["native.kernel_gbs"] = 3 * 8 * w.points * w.steps / advance_s / 1e9
    m["host.triad_gbs"] = triad_gbs(run_dir)
    m["native.bw_frac"] = m["native.kernel_gbs"] / m["host.triad_gbs"]

    m.update(_probe_numpy(session, prog, init, rec))
    m.update(_probe_ranks(session, prog, init, rec))
    return m


def _probe_numpy(session, prog, init, rec: SpanRecorder) -> Dict[str, float]:
    from repro.backend.numpy_backend import (ScheduledExecutor,
                                             evaluate_kernel, reference_run)
    from repro.frontend.lang import parse_program

    w = session.w
    m: Dict[str, float] = {}
    steps = max(1, min(w.steps, REFERENCE_POINTS // w.points))
    rec.repeat("numpy.reference_run", 3,
               lambda: reference_run(prog.ir, init, steps, w.boundary))
    m["numpy.reference_mpts_per_s"] = (
        w.points * steps / rec.median_s("numpy.reference_run") / 1e6
    )
    n = SMALL_N[w.stencil.ndim]
    small = parse_program(msc_source(w.stencil, n)).program
    small_init = _inputs(session, (n,) * w.stencil.ndim)
    rec.repeat("numpy.ScheduledExecutor.run", 3, lambda: ScheduledExecutor(
        small.ir, small.schedules(), w.boundary).run(small_init, 4))
    m["numpy.scheduled_mpts_per_s"] = (
        n ** w.stencil.ndim * 4
        / rec.median_s("numpy.ScheduledExecutor.run") / 1e6
    )
    # one rank's block of the 2-rank grid, halo included
    halo = prog.ir.output.halo
    block = (w.n // 2,) + w.shape[1:]
    padded = np.pad(init[0][tuple(slice(0, b) for b in block)], halo[0])
    kernel = prog.ir.kernels[0]
    rec.repeat("numpy.evaluate_kernel", REPS, lambda: evaluate_kernel(
        kernel, {(prog.ir.output.name, 0): padded},
        {prog.ir.output.name: halo}, [(0, b) for b in block]))
    m["numpy.kernel_eval_ms"] = rec.median_ms("numpy.evaluate_kernel")
    return m


def _probe_ranks(session, prog, init, rec: SpanRecorder) -> Dict[str, float]:
    """simmpi spawn, one distributed step, one exchange (per rank).

    The faulty workload's probes attach a drop-free injector: the
    resilient exchange (ACKs, staged buffers) runs, nothing is lost.
    """
    from repro.comm.decomposition import decompose
    from repro.comm.halo import HaloSpec
    from repro.comm.library import create_exchanger
    from repro.runtime.executor import DistributedStencil
    from repro.runtime.faults import FaultInjector
    from repro.runtime.simmpi import run_ranks

    w = session.w
    mode = w.mode or "basic"
    periods = tuple(w.boundary == "periodic" for _ in w.grid)
    nprocs = int(np.prod(w.grid))
    subs = decompose(w.shape, w.grid)
    halo = prog.ir.output.halo

    def faults():
        return FaultInjector("drop:p=0") if w.faulty else None

    def spawn():
        return run_ranks(nprocs, lambda comm: None, cart_dims=w.grid,
                         periods=periods)

    rec.repeat("simmpi.run_ranks", 2 * REPS, spawn)

    def stepper(comm):
        dist = DistributedStencil(prog.ir, comm, subs, w.boundary,
                                  exchange_mode=mode)
        for t, plane in enumerate(init):
            dist.seed(t, plane)
        for _ in range(REPS):
            with rec.span("runtime.DistributedStencil.step"):
                dist.step()
        dist.finalize()

    run_ranks(nprocs, stepper, cart_dims=w.grid, periods=periods,
              faults=faults())

    def exchanger(comm):
        spec = HaloSpec(subs[comm.rank].shape, halo)
        ex = create_exchanger("async", comm, spec, mode=mode)
        plane = np.zeros(spec.padded_shape)
        for _ in range(2 * REPS):
            with rec.span("comm.exchange"):
                ex.exchange(plane)

    run_ranks(nprocs, exchanger, cart_dims=w.grid, periods=periods,
              faults=faults())
    return {
        "simmpi.spawn_ms": rec.median_ms("simmpi.run_ranks"),
        "runtime.step_ms": rec.median_ms("runtime.DistributedStencil.step"),
        "comm.exchange_ms": rec.median_ms("comm.exchange"),
    }


# -- host bandwidth probe ---------------------------------------------------

def last_level_cache_bytes() -> int:
    """Size of the highest-level cache cpu0 reports (0 if unknown)."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, 0)
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        nbytes = int(size.rstrip("KM")) * scale
        best = max(best, (level, nbytes))
    return best[1]


def triad_gbs(run_dir: Path) -> float:
    """Best triad bandwidth with ``nproc`` threads, in GB/s.

    Each array is four times the last-level cache (at least 64 MiB),
    so the triad streams from memory.
    """
    from repro.backend.native import which_cc

    cc = which_cc()
    if cc is None:
        raise RuntimeError("no C compiler for the triad probe")
    exe = run_dir / "triad"
    subprocess.run(
        [cc, "-O3", "-march=native", "-fopenmp", str(HERE / "triad.c"),
         "-o", str(exe)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    n = max(4 * last_level_cache_bytes(), 64 << 20) // 8
    threads = len(os.sched_getaffinity(0))
    proc = subprocess.run(
        [str(exe), str(n), "10", str(threads)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    fields = proc.stdout.split()
    if fields[0] != "triad_gbs":
        raise RuntimeError(f"unexpected triad output {proc.stdout!r}")
    return float(fields[1])

