"""Self-tests of the benchmark's oracle, programs and fault selection.

    python3 -m pytest perfbench -q

Kept apart from the program's suite: they test the benchmark, not the
program.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oracle import (STAR_2D9, STAR_3D7, TIME_WEIGHTS, TOLERANCE,  # noqa: E402
                    check_output, oracle_run)
from workloads import WORKLOADS, Session, Workload, msc_source  # noqa: E402


def loop_run(stencil, init, steps, boundary):
    """The same stencil as point-by-point Python loops."""
    hist = [np.array(p, dtype=np.float64) for p in init]
    shape = hist[0].shape
    for _ in range(steps):
        new = np.zeros(shape)
        for p in np.ndindex(*shape):
            for lag, weight in TIME_WEIGHTS:
                s = 0.0
                for off, coef in stencil.table():
                    q = [a + o for a, o in zip(p, off)]
                    if boundary == "periodic":
                        q = [a % n for a, n in zip(q, shape)]
                    elif any(a < 0 or a >= n for a, n in zip(q, shape)):
                        continue
                    s += coef * hist[-lag][tuple(q)]
                new[p] += weight * s
        hist = hist[1:] + [new]
    return hist[-1]


@pytest.mark.parametrize("stencil,shape", [(STAR_2D9, (7, 9)),
                                           (STAR_3D7, (4, 5, 6))])
@pytest.mark.parametrize("boundary", ["zero", "periodic"])
def test_oracle_matches_point_loops(stencil, shape, boundary):
    rng = np.random.default_rng(0)
    init = [rng.random(shape) for _ in range(2)]
    got = oracle_run(stencil, init, 3, boundary)
    np.testing.assert_allclose(got, loop_run(stencil, init, 3, boundary),
                               rtol=0, atol=1e-14)


def test_coefficient_tables_are_convex():
    for stencil in (STAR_2D9, STAR_3D7):
        assert sum(c for _, c in stencil.table()) == pytest.approx(1.0)
        assert len(stencil.table()) == stencil.points
    assert sum(w for _, w in TIME_WEIGHTS) == pytest.approx(1.0)


@pytest.mark.parametrize("name,stencil", [("3d7pt_star", STAR_3D7),
                                          ("2d9pt_star", STAR_2D9)])
def test_source_carries_the_table5_cpu_schedule(name, stencil):
    from repro.backend.native import schedule_fingerprint
    from repro.evalsuite.harness import build_with_schedule
    from repro.frontend.lang import parse_program

    n = 16
    ours = parse_program(msc_source(stencil, n)).program
    theirs, _ = build_with_schedule(name, "cpu", grid=(n,) * stencil.ndim)
    assert (schedule_fingerprint(ours.schedules())
            == schedule_fingerprint(theirs.schedules()))


@pytest.mark.parametrize("stencil", [STAR_2D9, STAR_3D7])
@pytest.mark.parametrize("boundary", ["zero", "periodic"])
def test_program_source_agrees_with_oracle(stencil, boundary):
    from repro.backend.numpy_backend import reference_run
    from repro.frontend.lang import parse_program

    n = 12
    prog = parse_program(msc_source(stencil, n)).program
    rng = np.random.default_rng(1)
    init = [rng.random((n,) * stencil.ndim) for _ in range(2)]
    ref = reference_run(prog.ir, init, 5, boundary)
    assert not check_output(ref, oracle_run(stencil, init, 5, boundary), {})


def test_check_output_names_each_failed_property():
    rng = np.random.default_rng(2)
    out = rng.random((8, 8))
    assert check_output(out, out.copy(), {"same": out.copy()}) == []
    ulp = np.nextafter(out, 2.0)
    assert check_output(ulp, out, {"same": out}) == ["same"]
    assert check_output(out + 10 * TOLERANCE, out, {}) == ["oracle"]
    assert check_output(out * np.nan, out, {}) == ["oracle"]
    assert check_output(out[:4], out, {"same": out}) == ["oracle", "same"]


def small_faulty(seed):
    w = Workload("mpi-faults-small", STAR_2D9, n=16, steps=3,
                 boundary="periodic", mode="basic", faulty=True)
    session = Session(w, seed)
    session.setup()
    return session


def test_fault_seeds_drop_exactly_one_message_and_repeat():
    a, b = small_faulty(5), small_faulty(5)
    op = a.prepare()
    assert b.prepare().faults.seed == op.faults.seed
    out = a.call(op)
    assert op.faults.counts["drop"] == 1
    assert a.check(op, out) == []


def test_every_workload_is_checked_against_oracle_and_reference():
    w = WORKLOADS["mpi-overlap"]
    small = Workload("small", w.stencil, n=16, steps=2, boundary=w.boundary,
                     mode=w.mode)
    session = Session(small, 3)
    session.setup()
    op = session.prepare()
    out = session.call(op)
    assert session.check(op, out) == []
    assert session.check(op, out + 1.0) == ["oracle",
                                            "decomposition_invariance"]
