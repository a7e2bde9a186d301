"""The benchmark's workloads: MSC programs, inputs, the timed call, checks.

Every workload runs one program at one size with one kind of call, so
the per-call median never mixes unlike operations.  The programs are
MSC-language source written here from :mod:`oracle`'s coefficient
table, so every output can be checked against that independent oracle.

Nothing in this module imports ``repro`` at import time: the caller
times :meth:`Session.setup` from the first ``import repro`` on.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from oracle import STAR_2D9, STAR_3D7, TIME_WEIGHTS, StarStencil, \
    check_output, oracle_run

#: Table-5 ``cpu`` schedule, as ``build_with_schedule(name, "cpu")``
#: applies it: the Matrix tile clipped to the grid, the Table-5 reorder,
#: and ``parallel(xo, 28)`` (the modelled E5-2680v4's 28 cores)
TABLE5_CPU_TILE = {"S_3d7pt_star": (2, 8, 256), "S_2d9pt_star": (2, 2048)}
TABLE5_CPU_THREADS = 28
_OUTER_INNER = (("xo", "xi"), ("yo", "yi"), ("zo", "zi"))


def msc_source(stencil: StarStencil, n: int) -> str:
    """Listing-1-style MSC program for ``stencil`` on an ``n``^ndim grid."""
    nd = stencil.ndim
    dims = ",".join(stencil.dims)
    terms = []
    for offset, coef in stencil.table():
        idx = ",".join(
            v if o == 0 else f"{v}{o:+d}"
            for v, o in zip(stencil.dims, offset)
        )
        terms.append(f"{coef!r}*B[{idx}]")
    k = stencil.kernel
    tile = [min(t, n) for t in TABLE5_CPU_TILE[k]]
    axes = _OUTER_INNER[:nd]
    order = [o for o, _ in axes] + [i for _, i in axes]
    window = max(lag for lag, _ in TIME_WEIGHTS) + 1
    combo = " + ".join(f"{w!r}*{k}[t-{lag}]" for lag, w in TIME_WEIGHTS)
    lines = [
        f"const N = {n};",
        " ".join(f"DefVar({v}, i32);" for v in stencil.dims),
        f"DefTensor{nd}D_TimeWin(B, {window}, {stencil.radius}, f64, "
        + ", ".join(["N"] * nd) + ");",
        f"Kernel {k}(({dims}), " + "\n    + ".join(terms) + ");",
        f"{k}.tile({', '.join(map(str, tile))}, "
        + ", ".join(a for pair in axes for a in pair) + ");",
        f"{k}.reorder({', '.join(order)});",
        f"{k}.parallel(xo, {TABLE5_CPU_THREADS});",
        f"Stencil st(({dims}), B[t] << {combo});",
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    """One program, one size, one kind of call."""

    name: str
    stencil: StarStencil
    #: grid extent in every dimension
    n: int
    #: time steps per call
    steps: int
    boundary: str
    #: exchange mode of a ``distributed_run`` call; None = a native
    #: ``StencilProgram.run`` call
    mode: Optional[str] = None
    #: seeded drop faults on every call (see :meth:`Session.faults`)
    faulty: bool = False
    #: new initial planes for every call (else one set per run)
    fresh_inputs: bool = True

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.n,) * self.stencil.ndim

    @property
    def points(self) -> int:
        return self.n ** self.stencil.ndim

    @property
    def grid(self) -> Tuple[int, ...]:
        """Simulated-MPI process grid: 2 ranks along the slowest axis."""
        return (2,) + (1,) * (self.stencil.ndim - 1)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # 128^3 fp64 = 16 MiB a plane, 64 MiB with the 3-plane window and
    # the call's inputs: far beyond the 4 MiB L2, so the generated
    # kernel streams memory; one input set per run (the reference
    # check of a 128^3 run costs seconds, so it is done once)
    Workload("native-kernel", STAR_3D7, n=128, steps=20, boundary="zero",
             fresh_inputs=False),
    # small and short: about half of each call is spent outside msc_run
    Workload("native-calls", STAR_2D9, n=64, steps=8, boundary="zero"),
    Workload("mpi-overlap", STAR_2D9, n=256, steps=16, boundary="periodic",
             mode="overlap"),
    # one lost message per call; a new fault seed every call, one input
    # set per run (each call's output must equal the first bitwise,
    # and the first is checked in full, recovery included, at the end).
    # Longer calls draw spurious retransmissions under host load
    # (3 retries for 1 drop at 256 steps), which makes them unsteady
    Workload("mpi-faults", STAR_2D9, n=256, steps=128, boundary="periodic",
             mode="basic", faulty=True, fresh_inputs=False),
)}


@dataclass
class Op:
    """Inputs of one timed call."""

    init: List[np.ndarray]
    #: the call's fault injector (``mpi-faults`` only)
    faults: object = None


class Session:
    """One workload in one process: set-up, inputs, the call, checks."""

    def __init__(self, workload: Workload, seed: int):
        self.w = workload
        self.seed = seed
        self.source = msc_source(workload.stencil, workload.n)
        self._rng = np.random.default_rng([seed, 0])
        self._fault_rng = np.random.default_rng([seed, 1])
        self._fixed = self._draw() if not workload.fresh_inputs else None
        self._streams: List[Tuple[int, int, int]] = []
        self.program = None

    def _draw(self) -> List[np.ndarray]:
        lags = max(lag for lag, _ in TIME_WEIGHTS)
        return [self._rng.random(self.w.shape) for _ in range(lags)]

    # -- set-up (timed by the caller, from ``import repro`` on) ----------
    def setup(self) -> None:
        """Parse the program and make the warm-up call.

        Native workloads pay the legality check, codegen, one cold gcc
        build and the load here.  The faulty workload's warm-up call
        runs the resilient exchange with a drop-free injector and
        records the call's message identities for :meth:`faults`.
        """
        import repro  # noqa: F401  (the set-up clock starts here)
        from repro.frontend.lang import parse_program

        self.program = parse_program(self.source).program
        warm = Op(self._fixed or self._draw())
        if self.w.faulty:
            warm.faults = _recorder(self._streams)
        self.call(warm)
        self._streams[:] = dict.fromkeys(self._streams)

    # -- one operation -----------------------------------------------------
    def prepare(self) -> Op:
        """The next call's inputs (untimed)."""
        op = Op(self._fixed or self._draw())
        if self.w.faulty:
            op.faults = self.faults()
        return op

    def call(self, op: Op) -> np.ndarray:
        """The timed call: one ``run`` or one ``distributed_run``."""
        w = self.w
        if w.mode is None:
            self.program.set_initial(op.init)
            return self.program.run(w.steps, backend="native")
        from repro.runtime.executor import distributed_run

        return distributed_run(
            self.program.ir, op.init, w.steps, w.grid,
            boundary=w.boundary, exchange_mode=w.mode, faults=op.faults,
        )

    def check(self, op: Op, out: np.ndarray) -> List[str]:
        """Names of the checks ``out`` fails (empty when correct).

        Every output is compared with the oracle within its tolerance
        and bitwise with the program's own single-node reference:
        backend agreement for native calls, decomposition invariance
        for distributed ones.  A faulty call must also equal the clean
        call on the same inputs (recovery).
        """
        from repro.backend.numpy_backend import reference_run

        w = self.w
        expected = oracle_run(w.stencil, op.init, w.steps, w.boundary)
        ref = reference_run(self.program.ir, op.init, w.steps, w.boundary)
        if w.mode is None:
            bitwise = {"backend_agreement": ref}
        else:
            bitwise = {"decomposition_invariance": ref}
        if w.faulty:
            bitwise["recovery"] = self.call(Op(op.init))
            self._note_drops(op)
        return check_output(out, expected, bitwise)

    def check_repeat(self, op: Op, out: np.ndarray,
                     first: np.ndarray) -> List[str]:
        """A fixed-input call must reproduce the first call bitwise."""
        if self.w.faulty:
            self._note_drops(op)
        return [] if np.array_equal(out, first) else ["repeatable"]

    @staticmethod
    def _note_drops(op: Op) -> None:
        if op.faults.counts["drop"] != 1:
            # not wrong, but no longer the workload it claims to be
            print(f"# call lost {op.faults.counts['drop']} messages, "
                  "not 1", file=sys.stderr)

    # -- faults -----------------------------------------------------------
    def faults(self):
        """A fault injector that drops exactly one of the call's messages.

        Fault seeds are drawn from the workload seed; the first whose
        injector drops exactly one data message of this call (replayed
        over the message identities the warm-up call recorded, each
        retransmission included) is used.  Every faulty call therefore
        pays exactly one retransmission deadline, and the seed picks
        which message is lost.
        """
        from repro.runtime.faults import FaultInjector

        spec = f"drop:p={1.0 / len(self._streams):.6f}"
        while True:
            fault_seed = int(self._fault_rng.integers(2 ** 31))
            probe = FaultInjector(spec, seed=fault_seed)
            drops = 0
            for stream in self._streams:
                while drops < 2 and probe.on_message(*stream).drop:
                    drops += 1
            if drops == 1:
                return FaultInjector(spec, seed=fault_seed)


def _recorder(log: List[Tuple[int, int, int]]):
    """A drop-free fault injector that records each message identity."""
    from repro.runtime.faults import FaultInjector

    class Recorder(FaultInjector):
        def on_message(self, source, dest, tag):
            log.append((source, dest, tag))
            return super().on_message(source, dest, tag)

    return Recorder("drop:p=0")
