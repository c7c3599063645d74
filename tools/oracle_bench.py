"""Per-call cost of the two Promislow circular-ordering oracles, and the
time of the demo's default sampled pass.

    python3 tools/oracle_bench.py [--triples N] [--repeats R]

Draws N triples of ball(5) with random.Random(SEED), then times one `map` of
`promislow_circular_order` (the closed form) and of
`promislow_lexicographic_order` (the paper's construction) over them, each
R times in alternation, by `time.process_time`.  Prints the best time of
each as microseconds per call, with the host's CPU model and Python.
Then times the default demo's sampled pass R times, `_sampled_axiom_counts`
on ball(5) with 100,000 samples from random.Random(DEFAULT_SEED), and
prints its best time, its oracle calls, and the share of that time the
closed form's best per-call cost does not account for: the drawing and
the loop around the calls.
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

from circorder.promislow import (DEFAULT_SEED, _sampled_axiom_counts,  # noqa: E402
                                 ball, prom_mul, promislow_circular_order,
                                 promislow_lexicographic_order)

SEED = 5
SAMPLES = 100_000
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


def sampled_pass(repeats: int) -> tuple[float, int]:
    """Best process time in seconds of the default sampled pass, and the
    oracle calls it makes."""
    big = ball(5)
    calls = 0

    def counted(g1, g2, g3):
        nonlocal calls
        calls += 1
        return promislow_circular_order(g1, g2, g3)
    _sampled_axiom_counts(counted, prom_mul, big, random.Random(DEFAULT_SEED), SAMPLES)
    best = float("inf")
    for _ in range(repeats):
        rng = random.Random(DEFAULT_SEED)
        start = time.process_time()
        _sampled_axiom_counts(promislow_circular_order, prom_mul, big, rng, SAMPLES)
        best = min(best, time.process_time() - start)
    return best, calls


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
    best = best_times(triples, args.repeats)
    for name, seconds in best.items():
        print(f"{name}: {seconds / args.triples * 1e6:.3f} us per call")
    seconds, calls = sampled_pass(args.repeats)
    per_call = best["promislow_circular_order"] / args.triples
    print(f"sampled pass, ball(5), {SAMPLES} samples (seed {DEFAULT_SEED}): "
          f"{seconds * 1e3:.1f} ms for {calls} oracle calls, "
          f"{1 - calls * per_call / seconds:.0%} of it outside the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
