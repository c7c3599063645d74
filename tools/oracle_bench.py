"""Per-call cost of the two Promislow circular-ordering oracles.

    python3 tools/oracle_bench.py [--triples N] [--repeats R]

Draws N triples of ball(5) with random.Random(SEED), then times one `map` of
`promislow_circular_order` (the closed form) and of
`promislow_lexicographic_order` (the paper's construction) over them, each
R times in alternation, by `time.process_time`.  Prints the best time of
each as microseconds per call, with the host's CPU model and Python.
Imports circorder from the `src` directory of the checkout it sits in.
Standard library only; not part of the test suite.
"""

from __future__ import annotations

import argparse
import platform
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from circorder.promislow import (ball, promislow_circular_order,  # noqa: E402
                                 promislow_lexicographic_order)

SEED = 5
ORACLES = {"promislow_circular_order": promislow_circular_order,
           "promislow_lexicographic_order": promislow_lexicographic_order}


def cpu_model() -> str:
    """The first `model name` of /proc/cpuinfo, where there is one."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def best_times(triples: list, repeats: int) -> dict[str, float]:
    """Best process time in seconds of one map of each oracle over triples."""
    g1s, g2s, g3s = zip(*triples)
    best = dict.fromkeys(ORACLES, float("inf"))
    for _ in range(repeats):
        for name, oracle in ORACLES.items():
            start = time.process_time()
            list(map(oracle, g1s, g2s, g3s))
            best[name] = min(best[name], time.process_time() - start)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--triples", type=int, default=100_000)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.triples < 1 or args.repeats < 1:
        parser.error("--triples and --repeats must be at least 1")
    big = ball(5)
    rng = random.Random(SEED)
    triples = [(rng.choice(big), rng.choice(big), rng.choice(big))
               for _ in range(args.triples)]
    print(f"host: {cpu_model()}, {platform.python_implementation()} "
          f"{platform.python_version()}")
    print(f"{args.triples} random ball(5) triples (seed {SEED}), "
          f"best of {args.repeats}, process time")
    for name, seconds in best_times(triples, args.repeats).items():
        print(f"{name}: {seconds / args.triples * 1e6:.3f} us per call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
