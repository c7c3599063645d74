"""The circorder benchmark.

    python3 perfbench/run.py --workload integral|modn|promislow --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of a workload runs in its own
fresh interpreter (perfbench/worker.py), so circorder's caches start cold.
A run does round(S / nominal pass length) passes, at least one, so the work
done depends on --seconds only; a pass is never cut short.  Set-up time is
measured on separate set-up-only interpreters.

Timings are the worker's CPU time in reference seconds: the host's speed is
sampled throughout and factored out, as clock.py describes.  On the shared
host the benchmark was written on, CPU time alone varied by up to 40%
between runs of the same code, with the host's speed; the raw CPU times and
speeds are kept in the run's context.  `setup_s` is the set-up's CPU time as
measured: it follows the probe too loosely for the correction to help.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
repeats its passes with the tracer installed and reports per-layer metrics,
plus the tracing overhead against untraced passes of the same run.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it list the metrics
and the run's context, which is also written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import inputs
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"

# nominal pass length in seconds
PASS_S = {"integral": 2.5, "modn": 45.0, "promislow": 26.0}
SETUP_PROBES = 7
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
    "cold_latency_p50_ms": "ms", "peak_rss_mb": "MB",
}
# Printed, but not in the result's metrics, which carry the figures every
# workload has: a 90th percentile needs at least ten samples beyond it, so it
# exists only where a pass has 100 operations (integral), and the failed
# share is the result's `failed` over `attempted`, which is 0 on most runs.
EXTRA_UNITS = {"latency_p90_ms": "ms", "failed_share": "share"}
P90_MIN_OPERATIONS = 100
PER_LAYER_UNITS = {
    "cohomology.snf_s": "s", "cohomology.snf_calls": "count",
    "cohomology.snf_max_bits": "bits", "cohomology.coboundary_s": "s",
    "cohomology.h2_cold_s": "s", "cohomology.h2_warm_s": "s",
    "cohomology.class_of_s": "s", "cohomology.is_n_divisible_s": "s",
    "cohomology.is_n_divisible_calls": "count", "cohomology.is_trivial_mod_n_s": "s",
    "cohomology.repeat_share": "share",
    "orders.arrangement_to_inhom_s": "s", "orders.validate_s": "s", "orders.enumerate_s": "s",
    "groups.load_group_s": "s", "groups.direct_product_s": "s",
    "extensions.minimal_generator_s": "s", "obstruction.spectrum_finite_s": "s",
    "promislow.oracle_evals": "count", "promislow.oracle_evals_per_s": "1/s",
    "promislow.ball_s": "s", "promislow.abelianization_s": "s",
    "cli.main_self_s": "s", "trace.overhead_share": "share",
}


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S

    def worker(self, *extra: str) -> dict:
        """Run worker.py to completion; returns its record."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time budget exhausted")
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker timed out: {' '.join(cmd)}") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])

    def setup(self) -> float:
        """One set-up's CPU time, from interpreter start."""
        return self.worker("--setup-only")["setup_s"]

    def run_pass(self, index: int, trace: int, skip=()) -> dict:
        return self.worker("--pass", str(index), "--trace", str(trace),
                           "--skip", ",".join(map(str, skip)))


def pass_metrics(p: dict) -> dict:
    latencies = [o["seconds"] * 1000 for o in p["ops"]]
    out = {
        "wall_s": p["wall_s"],
        "ops_per_s": (p["attempted"] - p["failed"]) / p["wall_s"],
        "latency_p50_ms": statistics.median(latencies),
        "cold_latency_p50_ms": statistics.median(
            o["seconds"] * 1000 for o in p["ops"] if o["cold"]),
    }
    if len(latencies) >= P90_MIN_OPERATIONS:
        out["latency_p90_ms"] = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return out


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    """Each timing is the median over passes of the pass's own figure, so a
    slow spell on the host that covers a few passes moves it little."""
    per_pass = [pass_metrics(p) for p in passes]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["setup_s"] = statistics.median(setup)
    out["peak_rss_mb"] = max(p["peak_rss_mb"] for p in passes)
    out["failed_share"] = sum(p["failed"] for p in passes) / sum(p["attempted"] for p in passes)
    return out


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    layers = [p["layers"] for p in traced]
    total = Counter()
    for layer in layers:
        total.update(layer)
    out = {name: total[name] for name in PER_LAYER_UNITS}
    out["cohomology.snf_max_bits"] = max(layer["cohomology.snf_max_bits"] for layer in layers)
    out["cohomology.repeat_share"] = (total["cohomology.repeats"] / total["cohomology.calls"]
                                      if total["cohomology.calls"] else 0.0)
    out["promislow.oracle_evals_per_s"] = (total["promislow.oracle_evals"] / total["promislow.oracle_s"]
                                           if total["promislow.oracle_s"] else 0.0)
    out["trace.overhead_share"] = statistics.median(
        sum(o["seconds"] for o in t["ops"] if not o["timeout"])
        / sum(o["seconds"] for o in u["ops"]) - 1 for t, u in zip(traced, untraced))
    return out


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def context(args, passes: list[dict]) -> dict:
    """What a run's metrics depend on: code, host, seed, and input properties."""
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    if args.workload == "integral":
        groups = workloads.INTEGRAL_GROUPS
    elif args.workload == "modn":
        groups = [base for base, _, _ in workloads.MODN_OPS]
    else:
        groups = []
    ops = [o for p in passes for o in p["ops"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    ctx = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sensitivity": workloads.SENSITIVITY[args.workload],
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu_model": cpu, "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_cpu_s": [p["raw_wall_s"] for p in passes],
        "pass_host_speed": [p["host_speed"] for p in passes],
        "operations_per_pass": len(passes[0]["ops"]), "attempted": attempted,
        "failed": failed, "failed_share": failed / attempted,
        "wrong_answers": sum(p["wrong"] for p in passes),
        "timed_out": sorted({o["name"] for o in ops if o["timeout"]}),
        "slowest_ops_s": {o["name"]: o["seconds"] for o in
                          sorted(ops, key=lambda o: o["seconds"], reverse=True)[:5]},
        "failures": sorted({f"{o['name']}: {o['error']}" for o in ops if o["error"]}),
        "question_repeat_share": sum(not o["cold"] for o in ops) / len(ops),
        "group_order_histogram": dict(sorted(Counter(
            inputs.order(b) for b in groups).items())),
    }
    return ctx


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MAKE_OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not (ROOT / "src" / "circorder" / "__init__.py").is_file():
        print(f"error: no circorder package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    count = max(1, round(args.seconds / PASS_S[args.workload]))
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            # each traced pass is followed by an untraced one for the overhead
            # share, which leaves out the operations that timed out traced
            untraced, passes = [], []
            for i in range(count):
                passes.append(runner.run_pass(i, 1))
                timeouts = [j for j, o in enumerate(passes[-1]["ops"]) if o["timeout"]]
                untraced.append(runner.run_pass(i, 0, skip=timeouts))
            wrong = sum(p["wrong"] for p in untraced)
            metrics = per_layer(passes, untraced)
            units = PER_LAYER_UNITS
        else:
            # set-up probes are spread evenly among the passes, so both
            # sample the same spells of host speed
            steps = sorted([((i + 0.5) / count, "pass", i) for i in range(count)]
                           + [((j + 0.5) / SETUP_PROBES, "setup", j)
                              for j in range(SETUP_PROBES)])
            setup, passes = [], []
            for _, kind, i in steps:
                if kind == "setup":
                    setup.append(runner.setup())
                else:
                    passes.append(runner.run_pass(i, 0))
            wrong = 0
            metrics = end_to_end(passes, setup)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ctx = context(args, passes)
    if args.trace:
        ctx["cohomology.repeat_share"] = metrics["cohomology.repeat_share"]
    result = {
        "correct": ctx["wrong_answers"] + wrong == 0,
        "attempted": ctx["attempted"],
        "failed": ctx["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"context": ctx, "result": result}, fh, indent=1)
    for name, unit in {**units, **EXTRA_UNITS}.items():
        if name in metrics:
            print(f"{name:34s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
