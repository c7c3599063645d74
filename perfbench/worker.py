"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload modn --seed 1 --pass 0 --trace 0

Imports circorder from the checkout's `src/`, so its module caches start
cold as they do for a CLI user.  Prints the pass record as one JSON line.
The host-speed clock (clock.py) runs from the start, so the set-up is timed
by it too.  With --setup-only the worker stops after building the inputs and
prints the set-up's CPU time from interpreter start.
With --trace 1 it installs the tracer, adds the per-layer metrics to the
record and writes the spans to `.perfbench_out/`.  --skip leaves out the
operations at the given indices.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

from clock import Clock

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def import_circorder() -> None:
    """Import circorder from ROOT/src and nowhere else."""
    src = ROOT / "src"
    if not (src / "circorder" / "__init__.py").is_file():
        raise SystemExit(f"error: no circorder package under {src}")
    sys.path.insert(0, str(src))
    import circorder
    if Path(circorder.__file__).resolve().parent != src / "circorder":
        raise SystemExit(f"error: imported circorder from {circorder.__file__}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--skip", default="", help="comma-separated operation indices")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    clock = Clock()
    clock.start()
    try:
        return run(args, clock)
    finally:
        clock.stop()


def run(args, clock: Clock) -> int:
    import_circorder()
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.MAKE_OPS[args.workload](args.seed, args.pass_index, workdir)
        if args.setup_only:
            # CPU time counts from interpreter start
            print(json.dumps({"setup_s": clock.now()}))
            return 0
        skip = {int(i) for i in args.skip.split(",") if i}
        ops = [op for i, op in enumerate(ops) if i not in skip]
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer(clock.now)
            tracer.install()
        record = workloads.run_pass(args.workload, ops, clock, tracer)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            record["layers"] = tracer.metrics()
            tracer.write_spans(
                OUT / f"spans-{args.workload}-seed{args.seed}-pass{args.pass_index}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
