"""Steadiness check: two sets of runs of each declared workload.

    python3 perfbench/steady.py                  # every declared workload
    python3 perfbench/steady.py --workload mpi-faults

Two sets of ten runs of each workload, the first with seeds 1000-1009,
the second with seeds 1100-1109.  Each run is ``perfbench/run.py
--trace 0`` for ``run_seconds`` of ``BENCHMARK.json``.  For every
end-to-end metric the command prints, per set, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread (the
distance between the quartiles as a share of the median), then the
drift of the second set's median against the first in the metric's
worse direction, next to the bound declared in ``BENCHMARK.json``.
Every metric, ``setup_s`` too, is held to its bound on both.  The
share of failed operations must be the same in both sets.  Raw results
are written to ``.bench_build/perfbench/steady-<time>.json``.  Exit
status 1 when a spread or a drift is outside its bound.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: runs per set, and the first seed of each set
RUNS = 10
SEED_BASES = (1000, 1100)
_OP_MS = re.compile(
    r"^# op_(cpu|wall)_ms: p50 (\S+) p90 (\S+) over (\d+) calls", re.M)
_STEAL = re.compile(r"^# host steal (\S+)%", re.M)


def one_run(workload: str, seed: int, seconds: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for clock, p50, p90, n in _OP_MS.findall(proc.stdout):
        result[f"{clock}_p50_ms"] = float(p50)
        result[f"{clock}_p90_ms"] = float(p90)
        result["calls"] = int(n)
    steal = _STEAL.search(proc.stdout)
    if steal:
        result["steal_pct"] = float(steal[1])
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv: List[str] = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every declared workload")
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    raw: Dict[str, List[List[Dict]]] = {w: [] for w in workloads}
    for s, base in enumerate(SEED_BASES):
        for w in workloads:
            runs = []
            for seed in range(base, base + RUNS):
                t0 = time.monotonic()
                runs.append(one_run(w, seed, bench["run_seconds"]))
                print(f"set {s + 1} {w} seed {seed}: "
                      f"{time.monotonic() - t0:.1f} s, host steal "
                      f"{runs[-1].get('steal_pct', 'n/a')}%", file=sys.stderr)
            raw[w].append(runs)

    ok = True
    print(f"{'workload':14} {'metric':12} {'set':>3} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7} {'drift':>7} {'bound':>6}")
    for w in workloads:
        sets = raw[w]
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            for i, st in enumerate(stats):
                drift = ""
                if i > 0:
                    m1, m2 = stats[0]["median"], st["median"]
                    worse = (m2 - m1 if m["better"] == "lower"
                             else m1 - m2) / m1
                    drift = f"{worse:+.1%}"
                    ok &= worse <= bound
                ok &= st["spread"] <= bound
                print(f"{w:14} {name:12} {i + 1:>3} {st['median']:11.4f} "
                      f"{st['q1']:11.4f} {st['q3']:11.4f} "
                      f"{st['spread']:7.1%} {drift:>7} {bound:6.0%}")
        shares = {sum(r["failed"] for r in runs)
                  / sum(r["attempted"] for r in runs) for runs in sets}
        ok &= len(shares) == 1
        done = [r for runs in sets for r in runs if "calls" in r]
        if done:
            def med(key):
                return statistics.median(r[key] for r in done)

            calls = [r["calls"] for r in done]
            print(f"{w:14} medians of runs: cpu p90 {med('cpu_p90_ms'):.3f} "
                  f"ms; wall p50 {med('wall_p50_ms'):.3f} ms, p90 "
                  f"{med('wall_p90_ms'):.3f} ms (calls per run: "
                  f"{min(calls)}-{max(calls)}); failed share "
                  f"{sorted(shares)}")
    out = ROOT / ".bench_build" / "perfbench"
    out = out / f"steady-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print(f"raw results: {out.relative_to(ROOT)}")
    print("STEADY" if ok else "NOT STEADY: a spread or drift is outside "
          "its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
