"""The padic-cf benchmark: one workload per run.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 30 --trace 0

Run it from the repository root; the package is imported from ./src.  With
--trace 0 it times whole passes of the workload, untraced, as many as fit in
--seconds (at least one), and reports the end-to-end metrics.  With --trace 1
it times untraced passes for half the budget, runs the primitive sweep, then
one pass with spans around every layer, and reports the per-layer metrics.
Every call's output is judged by an oracle in either mode.

Standard output ends with two JSON lines: the run's context (versions, seed,
input sizes, output digest), then the result object.  Both are also written
to .bench_out/, next to the spans file of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import spans
import workloads
from workloads import Verdict

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUPS_PER_PASS = 3  # set-up is repeated before every pass, so its median spans the run
SWEEP_PRIMES = (2, 3, 5)
SWEEP_DIGITS = (200, 800, 3000)
SWEEP_POINTS = 15
SWEEP_REPEATS = 10
RECORD_KEPT = 200  # characters of each output kept after hashing, for failure messages


class Pass:
    """One pass's call times, in seconds at the nominal host speed (see
    hostspeed.py), and its judged outputs."""

    def __init__(self, raw_latencies, speeds, verdicts, failed, digest):
        self.latencies = [t / f for t, f in zip(raw_latencies, speeds)]
        self.verdicts = verdicts
        self.failed = failed
        self.raw_wall = sum(raw_latencies)
        self.wall = sum(self.latencies)
        self.speed = self.raw_wall / self.wall
        self.units = sum(v.units for v in verdicts)
        self.digest = digest


def import_package(with_cli: bool):
    """Import padic_cf afresh, dropping any copy already imported."""
    for name in [n for n in sys.modules if n == "padic_cf" or n.startswith("padic_cf.")]:
        del sys.modules[name]
    pkg = importlib.import_module("padic_cf")
    if with_cli:
        importlib.import_module("padic_cf.cli")
    return pkg


def setup(name: str, seed: int, times: list):
    """Import the package and build the seeded inputs SETUPS_PER_PASS times,
    appending each duration, at the nominal host speed, to `times`; returns
    the last package and inputs.  Each set-up is followed by as much probing
    as it took, for a factor as steady as the much longer passes get.

    The caller must drop its references to the previous package first: each
    round collects the copies no longer used, so repeated imports do not
    pile up in `peak_rss_mb`.
    """
    for _ in range(SETUPS_PER_PASS):
        pkg = workload = None
        gc.collect()
        t0 = time.perf_counter()
        pkg = import_package(name == "convergents")
        workload = workloads.BUILDERS[name](pkg, seed)
        took = time.perf_counter() - t0
        times.append(took / hostspeed.factor(*hostspeed.sample(took, share=1.0)))
    return pkg, workload


def run_pass(workload, wrap=None) -> Pass:
    """Run and judge every call once.  Each output is hashed into the pass
    digest as soon as it is judged and then cut to RECORD_KEPT characters,
    so the harness holds no more memory after many passes than after one.
    Host-speed probes run after each call, untimed, for a fixed share of its
    time."""
    state: dict = {}
    latencies, verdicts, probes = [], [], []
    digest = hashlib.sha256()
    for call in workload.calls:
        run = call.run if wrap is None else wrap(call.run)
        t0 = time.perf_counter()
        try:
            raw = run(state)
        except Exception as exc:
            latencies.append(time.perf_counter() - t0)
            probes.append(hostspeed.sample(latencies[-1]))
            traceback.print_exc(file=sys.stderr)
            verdict = Verdict(False, f"{call.kind} raised {type(exc).__name__}: {exc}", 0)
        else:
            latencies.append(time.perf_counter() - t0)
            probes.append(hostspeed.sample(latencies[-1]))
            try:
                verdict = call.judge(raw, state)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                verdict = Verdict(False, f"{call.kind} output unreadable: {exc}", 0)
            del raw
        digest.update(verdict.record.encode())
        digest.update(b"\0")
        verdict.record = verdict.record[:RECORD_KEPT]
        verdicts.append(verdict)
    failed = {i for i, v in enumerate(verdicts) if not v.ok}
    if workload.pass_check is not None:
        failed |= workload.pass_check(workload.calls, verdicts)
    speeds = hostspeed.local_factors(probes)
    return Pass(latencies, speeds, verdicts, failed, digest.hexdigest())


def end_to_end(passes, setup_times) -> dict:
    walls = [p.wall for p in passes]
    latencies = [t for p in passes for t in p.latencies]
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "call_p50_ms": deciles[4] * 1e3,
        "call_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_s": statistics.median(p.units / p.wall for p in passes),
    }


def primitive_sweep(pkg, seed: int) -> dict:
    """Median per-call cost of PadicApprox.inverse and a Schneider step on
    Haar-random points, by prime and digit count."""

    def per_call(fn):
        t0 = time.perf_counter()
        for _ in range(SWEEP_REPEATS):
            fn()
        return (time.perf_counter() - t0) / SWEEP_REPEATS

    out = {}
    for p in SWEEP_PRIMES:
        ctx = pkg.PrimeCtx(p)
        spec = pkg.SystemSpec.schneider(ctx)
        for n in SWEEP_DIGITS:
            rng = random.Random(f"{seed}:{p}:{n}")
            inverse, step = [], []
            for _ in range(SWEEP_POINTS):
                x = pkg.haar_sample(ctx, n, rng)
                inverse.append(per_call(x.inverse))
                step.append(per_call(lambda: pkg.cfsystems.step(spec, x)))
            out[f"padic_core.inverse_us.p{p}.n{n}"] = statistics.median(inverse) * 1e6
            out[f"cfsystems.step_us.p{p}.n{n}"] = statistics.median(step) * 1e6
    return out


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of one traced pass, from its spans and counters."""
    stats = tracer.layer_stats()
    counts = tracer.counts()
    calls: dict = {}
    self_ns: dict = {}
    for (layer, parent), (n, own) in stats.items():
        self_ns[layer] = self_ns.get(layer, 0) + own
        if parent != layer:  # a call of a layer from inside itself is not a new call
            calls[layer] = calls.get(layer, 0) + n

    def pair(layer, parent):
        return stats.get((layer, parent), (0, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in ("padic_core.inverse", "padic_core.split", "padic_core.sample",
                  "cfsystems.step", "cfsystems.enumerate", "cfsystems.branch_lft",
                  "cfsystems.convergent", "lft.certify", "lft.apply_inverse",
                  "lft.preimage", "ergodics.iota_sum"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
    for layer in ("padic_core.inverse", "padic_core.split", "padic_core.arith",
                  "padic_core.sample", "padic_core.contains", "cfsystems.step",
                  "cfsystems.enumerate", "cfsystems.branch_lft", "cfsystems.convergent",
                  "lft.certify", "lft.iota", "lft.apply_inverse", "lft.preimage",
                  "ergodics.iota_sum", "cli.parse", "cli.format"):
        out[f"{layer}.self_s"] = self_ns.get(layer, 0) / 1e9

    steps = calls.get("cfsystems.step", 0)
    exhausted = counts.get("cfsystems.step.raised.PrecisionExhausted", 0)
    terminated = counts.get("cfsystems.step.raised.ExpansionTerminated", 0)
    raised = sum(n for k, n in counts.items() if k.startswith("cfsystems.step.raised."))
    out["cfsystems.step.exhausted"] = exhausted
    out["cfsystems.step.terminated"] = terminated
    out["cfsystems.step.useful_ratio"] = ratio(steps - raised, steps)
    out["cfsystems.enumerate.branches"] = counts.get("cfsystems.enumerate.branches", 0)
    out["cfsystems.convergent.branch_apps"] = ratio(
        pair("lft.apply_inverse", "cfsystems.convergent")[0], calls.get("cfsystems.convergent", 0)
    )
    out["lft.preimage.pieces"] = counts.get("lft.preimage.pieces", 0)
    # the shard worker's own time is the accumulation loop of the call that sharded it
    out["ergodics.digit_means.self_s"] = (
        self_ns.get("ergodics.digit_means", 0) + pair(spans.SHARD, "ergodics.digit_means")[1]
    ) / 1e9
    out["ergodics.invariance.useful_ratio"] = ratio(
        counts.get("ergodics.invariance.done", 0), counts.get("ergodics.invariance.requested", 0)
    )
    busy = counts.get("ergodics.pool.busy_cpu_ns", 0)
    out["ergodics.pool.busy_s"] = busy / 1e9
    out["ergodics.pool.parallelism"] = ratio(busy, counts.get("ergodics.pool.wall_ns", 0))
    out["cli.out_bytes"] = counts.get("cli.out_bytes", 0)
    return out


def git_sha() -> str:
    """HEAD of the checkout; 'unknown' when the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "padic_cf" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src / 'padic_cf'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))

    setup_times: list = []
    pkg, workload = setup(args.workload, args.seed, setup_times)
    if Path(pkg.__file__).resolve().parent != (src / "padic_cf").resolve():
        print(f"perfbench: imported {pkg.__file__}, not the checkout's source", file=sys.stderr)
        return 2

    budget = args.seconds / 2 if args.trace else args.seconds
    start = last = time.perf_counter()
    passes = [run_pass(workload)]
    # start another round of set-up and pass only while one more still fits
    while (now := time.perf_counter()) - start + (now - last) <= budget:
        last = now
        pkg = workload = None
        pkg, workload = setup(args.workload, args.seed, setup_times)
        passes.append(run_pass(workload))

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "sizes": workload.sizes,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        untraced_wall = statistics.median(p.wall for p in passes)
        values = primitive_sweep(pkg, args.seed)
        tracer = spans.Tracer()
        tracer.install(pkg)
        try:
            traced = run_pass(workload, wrap=lambda fn: tracer.wrap(fn, "bench.call"))
        finally:
            tracer.uninstall()
        passes.append(traced)
        values.update(layer_metrics(tracer))
        values["trace.overhead_frac"] = traced.wall / untraced_wall - 1
        context["untraced_passes"] = len(passes) - 1
        context["spans"] = tracer.write(OUT / f"{stem}.spans.jsonl.gz")
        section = declared["per_layer"]
    else:
        values = end_to_end(passes, setup_times)
        context[workload.unit] = values["work_per_s"]
        section = declared["end_to_end"]

    attempted = sum(len(p.verdicts) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    digests = {p.digest for p in passes}
    context.update(
        passes=len(passes),
        calls=attempted,
        units_per_pass=passes[0].units,
        pass_walls_s=[p.wall for p in passes],
        raw_pass_walls_s=[p.raw_wall for p in passes],
        host_speed_factors=[p.speed for p in passes],
        digest=passes[0].digest,
        digests_agree=len(digests) == 1,
        fail_frac=failed / attempted,
        setups=len(setup_times),
    )
    for p in passes:
        for i in sorted(p.failed)[:3]:
            print(f"perfbench: failed {workload.calls[i].kind}: {p.verdicts[i].record}",
                  file=sys.stderr)
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({"context": context, "result": result}, indent=1))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
