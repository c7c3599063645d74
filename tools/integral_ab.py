"""Paired CPU-time comparison of two checkouts on the `integral` questions.

    python3 tools/integral_ab.py BASE CHANGE [--pairs N] [--seed S]

BASE and CHANGE are checkouts of this repository (say, a `git archive` of
the parent commit and the working tree).  One long-lived worker process per
checkout imports circorder from that checkout's `src/` and builds each
pass's questions with `integral_ops` of `perfbench/workloads.py` in the
checkout this tool sits in, read as it is: the same 148 CLI questions on
freshly relabeled group files for both sides.  Every pass starts from cold
caches (each `cache_clear` in circorder's modules) and new files, and times
only the questions, by `time.process_time`.

The two workers run the same pass in turn, alternating which goes first,
and the tool stops with exit 1 unless both printed byte-identical standard
output with the same exit codes and every answer passed the benchmark's own
check.  It prints the median of CHANGE's pass time over BASE's, and in how
many pairs CHANGE took less.  Two warm-up passes per side are not counted.
Standard library only; not part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WARMUP = 2


def serve(checkout: str) -> None:
    """The worker: answer each `seed pass` line on stdin with one JSON line
    holding the pass's question time, a digest of what it printed and the
    checks that failed."""
    src = Path(checkout).resolve() / "src"
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import circorder
    import circorder.cli  # noqa: F401  (the questions import it; import it before timing)
    import workloads
    if Path(circorder.__file__).resolve().parent != src / "circorder":
        raise SystemExit(f"error: imported circorder from {circorder.__file__}")
    modules = [m for name, m in sys.modules.items() if name.startswith("circorder.")]
    for line in sys.stdin:
        seed, pass_index = map(int, line.split())
        for module in modules:
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
        with tempfile.TemporaryDirectory() as workdir:
            ops = workloads.integral_ops(seed, pass_index, Path(workdir))
            start = time.process_time()
            results = [op.run() for op in ops]
            cpu_s = time.process_time() - start
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        errors = [f"{op.name}: {error}" for op, result in zip(ops, results)
                  if (error := op.check(result)) is not None]
        print(json.dumps({"cpu_s": cpu_s, "digest": digest, "errors": errors}), flush=True)


class Worker:
    def __init__(self, checkout: str):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve", checkout],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, seed: int, pass_index: int) -> dict:
        self.proc.stdin.write(f"{seed} {pass_index}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"error: worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--serve"]:
        serve(argv[1])
        return 0
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workers = {"base": Worker(args.base), "change": Worker(args.change)}
    ratios = []
    try:
        for index in range(-WARMUP, args.pairs):
            sides = ["base", "change"] if index % 2 == 0 else ["change", "base"]
            got = {side: workers[side].run(args.seed, index) for side in sides}
            for side, record in got.items():
                if record["errors"]:
                    print(f"error: {side} pass {index}: {record['errors'][:3]}")
                    return 1
            if got["base"]["digest"] != got["change"]["digest"]:
                print(f"error: pass {index}: the two checkouts printed different output")
                return 1
            if index >= 0:
                ratios.append(got["change"]["cpu_s"] / got["base"]["cpu_s"])
    finally:
        for worker in workers.values():
            worker.close()
    quartiles = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"host: {platform.machine()}, {platform.python_implementation()} "
          f"{platform.python_version()}; seed {args.seed}, {len(ratios)} pairs, "
          f"byte-identical output")
    print(f"change/base pass time: median {statistics.median(ratios):.3f} "
          f"[{quartiles[0]:.3f}, {quartiles[2]:.3f}], "
          f"change lower in {sum(r < 1 for r in ratios)} of {len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
