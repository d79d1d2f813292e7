"""Steadiness check for the benchmark's end-to-end metrics.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workload orbits --runs 5

Runs run.py (untraced) once per seed, one run at a time, for each workload
and set of seeds.  For every end-to-end metric it prints the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.  The
spread must stay within the bound and should stay below a third of it,
for every metric.  With --sets 2 the second set (fresh seeds) must also
have a median no worse than the first set's by more than the bound.  Exits 1
if a run fails, an output is wrong, or a check is missed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(metric: dict, base: float, new: float) -> float:
    """How much worse `new` is than `base`, as a share of `base`."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default every workload")
    parser.add_argument("--runs", type=int, default=10, help="runs (seeds) per set")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")

    ok = True
    report = {"seconds": args.seconds, "runs": args.runs, "workloads": {}}
    for workload in args.workload or names:
        medians = []
        sets = []
        for k in range(args.sets):
            seeds = range(1 + k * args.runs, 1 + (k + 1) * args.runs)
            t0 = time.perf_counter()
            results = [run_once(workload, seed, args.seconds) for seed in seeds]
            bad = [r for r in results if not r["correct"] or r["failed"]]
            ok &= not bad
            print(f"\n{workload} set {k + 1}: seeds {seeds.start}..{seeds.stop - 1}, "
                  f"{time.perf_counter() - t0:.0f} s, {len(bad)} runs with wrong output")
            print(f"  {'metric':<13}{'median':>13}{'q1':>13}{'q3':>13}{'spread':>9}{'bound':>7}")
            summary = {}
            for metric in declared["end_to_end"]:
                name = metric["name"]
                values = [r["metrics"][name]["value"] for r in results]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                status = "ok"
                if spread > metric["bound"]:
                    status, ok = "OVER BOUND", False
                elif spread > metric["bound"] / 3:
                    status = "over bound/3"
                print(f"  {name:<13}{median:>13.6g}{q1:>13.6g}{q3:>13.6g}"
                      f"{spread:>9.4f}{metric['bound']:>7}  {status}")
                summary[name] = {"values": values, "median": median, "q1": q1, "q3": q3,
                                 "spread": spread}
            medians.append({name: s["median"] for name, s in summary.items()})
            sets.append({"seeds": [seeds.start, seeds.stop - 1], "metrics": summary})
        if args.sets == 2:
            print("  second set against first:")
            for metric in declared["end_to_end"]:
                name = metric["name"]
                worse = worse_by(metric, medians[0][name], medians[1][name])
                status = "ok" if worse <= metric["bound"] else "WORSE THAN BOUND"
                ok &= worse <= metric["bound"]
                print(f"  {name:<13} worse by {worse:+.4f} (bound {metric['bound']})  {status}")
        report["workloads"][workload] = sets

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"\n{'all checks met' if ok else 'CHECKS MISSED'}; values in {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
