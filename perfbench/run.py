"""Host benchmark of the MSC reproduction: one workload, one run.

    python3 perfbench/run.py --workload native-kernel --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  ``--trace 0`` prints the end-to-end metrics declared in
``BENCHMARK.json``, ``--trace 1`` the per-layer ones (see
``perfbench/README.md``).  ``--seconds`` defaults to ``run_seconds``
of ``BENCHMARK.json``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Every run works in a private directory under ``.bench_build/perfbench``
(artifact cache, compiler temporaries) that it removes on exit, and
turns the run ledger off, so no run reads or writes anything outside
the checkout or sees another run's compiled artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

#: set-up samples per run (this process plus fresh child processes);
#: ``setup_s`` is their median
SETUP_SAMPLES = 5
#: a set-up child may take this long (one cold gcc build dominates)
SETUP_TIMEOUT_S = 120


def main(argv: List[str] = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    default=declared["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, Session

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        _isolate(run_dir)
        session = Session(workload, args.seed)
        start = setup_clocks()
        session.setup()
        setup = [end - begin for begin, end in zip(start, setup_clocks())]
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        if args.trace:
            from layers import traced_run

            result = traced_run(session, args.seconds, run_dir)
            metrics = result.pop("metrics")
            _emit(result, metrics, declared["per_layer"])
            return 0
        result = measure(session, args.seconds)
        samples = [setup] + [
            _setup_child(args.workload, args.seed)
            for _ in range(1, SETUP_SAMPLES)
        ]
        cpu, wall = zip(*samples)
        metrics = result.pop("metrics")
        metrics["setup_s"] = statistics.median(cpu)
        print("# setup_s samples (CPU s): "
              + " ".join(f"{s:.4f}" for s in cpu))
        print("# set-up wall s: " + " ".join(f"{s:.4f}" for s in wall))
        _emit(result, metrics, declared["end_to_end"])
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _isolate(run_dir: Path) -> None:
    """Private artifact cache, temporaries and no run ledger."""
    tmp = run_dir / "tmp"
    tmp.mkdir()
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    os.environ["REPRO_LEDGER"] = "0"


def setup_clocks() -> Tuple[float, float]:
    """CPU time of this process and its waited-for children, wall time.

    Set-up runs the compiler as a child process, so its CPU time
    counts the children (``RUSAGE_CHILDREN``) with the process.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (time.process_time() + children.ru_utime + children.ru_stime,
            time.perf_counter())


def _setup_child(workload: str, seed: int) -> List[float]:
    """One more cold set-up, in a fresh process: ``[cpu_s, wall_s]``.

    The child isolates itself like this process, in its own private
    directory with an empty artifact cache.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def clocks() -> Tuple[float, float]:
    """Wall time and CPU time of the process (every thread), in s."""
    return time.perf_counter(), time.process_time()


def elapsed(start: Tuple[float, float]) -> Tuple[float, float]:
    """``(wall_s, cpu_s)`` since ``start = clocks()``."""
    wall, cpu = clocks()
    return wall - start[0], cpu - start[1]


def timed_call(session, op, i):
    """One timed call: ``(output, (wall_s, cpu_s), label)``."""
    start = clocks()
    out = session.call(op)
    return out, elapsed(start), "plain"


def run_ops(session, seconds: float, call=timed_call) -> Dict:
    """Make whole calls until ``seconds`` have passed (at least one).

    ``call(session, op, i)`` makes call ``i`` and returns ``(output,
    (wall_s, cpu_s), label)``; the traced run labels some calls
    "traced".  Returns the ``(wall_s, cpu_s)`` times of the calls that
    passed their checks, by label, with the attempted and failed counts.
    """
    times: Dict[str, List[Tuple[float, float]]] = {}
    attempted = failed = 0
    first = first_op = None
    deadline = time.perf_counter() + seconds
    while True:
        op = session.prepare()
        attempted += 1
        try:
            out, dt, label = call(session, op, attempted)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            failed += 1
            print(f"# call {attempted} raised {exc!r}", file=sys.stderr)
        else:
            if session.w.fresh_inputs:
                bad = session.check(op, out)
            elif first is None:
                first, first_op, bad = out, op, []
            else:
                bad = session.check_repeat(op, out, first)
            if bad:
                failed += 1
                print(f"# call {attempted} failed {bad}", file=sys.stderr)
            else:
                times.setdefault(label, []).append(dt)
        if time.perf_counter() >= deadline:
            break
    rss = peak_rss_mb()
    if first is not None:
        # a fixed-input workload checks its one input set once, after
        # the timed calls, so the check's memory stays out of peak RSS;
        # every passing call equals the first bitwise and shares its
        # verdict
        bad = session.check(first_op, first)
        if bad:
            print(f"# fixed-input calls failed {bad}", file=sys.stderr)
            failed += sum(len(v) for v in times.values())
            times = {}
    return {"times": times, "attempted": attempted, "failed": failed,
            "peak_rss_mb": rss}


def _cpu_ticks() -> List[int]:
    """The machine's CPU time counters (``/proc/stat``), empty if absent.

    Field 8 is the time the hypervisor gave this guest's CPUs to
    others; it explains run-to-run spread that no code change made.
    """
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def measure(session, seconds: float) -> Dict:
    """The untraced run: end-to-end metrics.

    Calls are timed in CPU time of the process, summed over all its
    threads (OpenMP workers and simulated-MPI ranks included).  On a
    guest whose virtual CPUs the hypervisor hands to other guests,
    wall time follows that steal: ``native-calls`` took 9 ms a call at
    3% steal and 15-18 ms at 23-30%, while its CPU time stayed within
    10.5-12.1 ms.  Wall-time figures are printed for reference.
    """
    import numpy as np

    cpu0 = _cpu_ticks()
    res = run_ops(session, seconds)
    cpu1 = _cpu_ticks()
    if cpu0 and cpu1:
        total = sum(cpu1) - sum(cpu0)
        print(f"# host steal {100 * (cpu1[7] - cpu0[7]) / total:.1f}% "
              "of CPU time during the timed calls")
    times = res["times"].get("plain", [])
    w = session.w
    metrics = {"peak_rss_mb": res["peak_rss_mb"]}
    if times:
        wall, cpu = (np.array(t) * 1e3 for t in zip(*times))
        metrics["op_cpu_ms_p50"] = float(np.median(cpu))
        metrics["mpts_per_cpu_s"] = (
            w.points * w.steps * len(cpu) / float(cpu.sum()) / 1e3
        )
        for name, ms in (("op_cpu_ms", cpu), ("op_wall_ms", wall)):
            print(f"# {name}: p50 {np.median(ms):.3f} "
                  f"p90 {np.percentile(ms, 90):.3f} over {len(ms)} calls")
    print(f"# attempted {res['attempted']} failed {res['failed']}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def _emit(result: Dict, metrics: Dict[str, float],
          declared: List[Dict]) -> None:
    """Print the result line with exactly the declared metrics.

    A metric left unmeasured (every call failed) makes the run
    incorrect rather than silently absent.
    """
    undeclared = set(metrics) - {m["name"] for m in declared}
    if undeclared:
        raise RuntimeError(f"undeclared metrics {sorted(undeclared)}")
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"# unmeasured metrics {missing}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(result["correct"]) and not missing,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]),
                        "unit": m["unit"]}
            for m in declared if m["name"] in metrics
        },
    }))


if __name__ == "__main__":
    sys.exit(main())
