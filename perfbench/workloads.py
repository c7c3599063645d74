"""The benchmark's workloads: one pass of each, run in a fresh interpreter.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns.  A pass first builds its inputs from the seed
(the set-up), then times its operations, then checks every answer against the
closed forms in `inputs`.  Calls go through module attributes at call time,
so the traced run sees them.

* integral -- the CLI questions a user asks, through `circorder.cli.main` on
  group JSON files.  The first question on a group pays for the d2 Smith
  normal form; the later ones hit circorder's module caches.  Each group is
  freshly relabeled, so every group is a cache miss.
* modn -- `h2_structure(G, n)` and `is_trivial_mod_n(G, f, n)` for every
  ordering f: nearly all of the time is the stacked [d2 | -nI] Smith normal
  form, whose cost depends strongly on labels (relabeled Z/2 x Z/4 mod 3
  took 7.5 s on one seed and over 40 s on another).  So modn's inputs are
  fixed, the same for every seed: the constructors' labels, on which the
  ROADMAP baselines (Z/8 mod 4, Z/2 x Z/4 mod 3, D4 mod 4) match the ROADMAP
  figures, and one fixed relabeling of S3 on which mod 5 blows up.
* promislow -- `promislow.demo` at the CLI defaults.  All of its time is the
  lexicographic oracle; it touches no cohomology or table code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import inputs as ip
from clock import Clock, OpTimeout

# circorder's documented H2_ORDER_LIMIT: product-co is only asked within it
H2_ORDER_LIMIT = 10

S3 = ip.dihedral(3, "S3")
INTEGRAL_GROUPS = ([ip.abelian(k) for k in range(2, 13)]
                   + [ip.abelian(2, 2), ip.abelian(2, 4), ip.abelian(3, 3),
                      ip.abelian(2, 2, 2), S3, ip.dihedral(4),
                      ip.dihedral(5)])
PRODUCT_CO_NS = range(2, 9)

# (base, n, labels): five fast operations, twenty of about 0.4 s, the three
# ROADMAP baselines and one blow-up found by relabeling, so the median falls
# inside the middle group.  The groups are interleaved so that the middle one
# spreads over the whole pass, and a spell of host speed that the probe reads
# wrongly moves few of them.  Labels are the constructors' (None) or a fixed
# relabeling: the stacked SNF's cost depends on labels, and on seeded random
# labels S3 mod 5 took 0.4 s on six seeds of ten, 10 s on two and timed out
# on two, which made pass and fail depend on the seed.  The labels below are
# one of the slow ones, so every run measures that blow-up.
S3_SLOW_MOD5_LABELS = [0, 3, 2, 4, 1, 5]
_MODN_FAST = [(ip.abelian(2), 2), (ip.abelian(3), 3), (ip.abelian(4), 4),
              (ip.abelian(2, 2), 2), (ip.abelian(5), 5)]
_MODN_MIDDLE = [(base, n) for n in range(2, 12) for base in (ip.abelian(6), S3)]
_MODN_BASELINES = [(ip.abelian(8), 4), (ip.abelian(2, 4), 3), (ip.dihedral(4), 4)]
_MODN_SLOW = [(base, n, None) for base, n in _MODN_BASELINES] + [(S3, 5, S3_SLOW_MOD5_LABELS)]
MODN_OPS = [op for i in range(5) for op in
            [(base, n, None) for base, n in _MODN_MIDDLE[4 * i:4 * i + 4] + _MODN_FAST[i:i + 1]]
            + _MODN_SLOW[i:i + 1]]

PROMISLOW_RADIUS = 5
PROMISLOW_SAMPLES = 100_000
BALL2_SIZE = 17  # 1 + 4 + 12 reduced words; the shortest relator has length 6

# Per-operation deadline in reference seconds (see clock.py).  modn's slowest
# completing operation, Z/2 x Z/4 mod 3, took 13.8-15.4 reference seconds in
# every run, traced runs included, so pass and fail repeat; D4 mod 4 runs for
# minutes and always times out.
DEADLINE_S = {"integral": 30.0, "modn": 22.0, "promislow": 150.0}
# How closely each workload's CPU time follows the probe's speed (clock.py),
# fitted over runs on a 2-vCPU Xeon VM whose speed swung by up to 1.7x: the
# spread of integral's pass time between runs was least at 0.6-0.7 (0.04,
# against 0.12 at 1 and 0.15 for raw CPU time), promislow's at 1 (0.02,
# against 0.39 raw), and modn's at 1-1.2.
SENSITIVITY = {"integral": 0.65, "modn": 1.0, "promislow": 1.0}


class Op(NamedTuple):
    """One operation: `run` is timed, `check` maps its result to an error
    string (None when the answer matches the closed form)."""
    name: str
    run: Callable
    check: Callable
    cold: bool


# -- integral --------------------------------------------------------------

def _ask(argv):
    """Run one CLI question in process; returns (exit code, standard output)."""
    import circorder.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = circorder.cli.main(argv)
    return rc, out.getvalue()


def _cli_check(check_payload):
    def check(result):
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        return check_payload(json.loads(text))
    return check


def _check_enumerate(base, perm):
    def check(p):
        want = ip.ordering_count(base)
        if p["count"] != want:
            return f"count {p['count']} != {want}"
        gens = {o["minimal_generator"] for o in p["orderings"] if "minimal_generator" in o}
        if ip.is_cyclic(base) and ip.order(base) > 1 and gens != ip.cyclic_generators(base, perm):
            return f"minimal generators {sorted(gens)} are not the generators"
        k = ip.order(base)
        for o in p["orderings"]:
            if "class" in o and (len(o["class"]) != 1 or math.gcd(o["class"][0], k) != 1):
                return f"class {o['class']} does not generate Z/{k}"
        if "h2_invariant_factors" in p or k <= H2_ORDER_LIMIT:
            got = tuple(p.get("h2_invariant_factors", ()))
            if got != ip.h2_integral(base):
                return f"H^2(G;Z) factors {got} != {ip.h2_integral(base)}"
        return None
    return check


def _check_product_co(base, n):
    def check(p):
        want = ip.product_co(base, n)
        if p["circularly_orderable"] != want:
            return f"verdict {p['circularly_orderable']} != {want}"
        return None
    return check


def _check_obstruction(base):
    def check(p):
        minimal, is_all = ip.obstruction(base)
        if p["minimal_elements"] != minimal or p["is_all"] != is_all:
            return f"spectrum ({p['minimal_elements']}, {p['is_all']}) != ({minimal}, {is_all})"
        return None
    return check


def integral_ops(seed: int, pass_index: int, workdir: Path) -> list[Op]:
    from circorder.groups import group_from_json
    rng = random.Random(f"integral/{seed}/{pass_index}")
    ops = []
    for i, base in enumerate(INTEGRAL_GROUPS):
        table, perm = ip.relabel(ip.base_table(base), rng)
        data = ip.group_json(base, table)
        group_from_json(data)  # the generated file must load as a group
        path = str(workdir / f"group{i}.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        questions = [(f"enumerate {base.name}", ["enumerate", "--group", path],
                      _check_enumerate(base, perm))]
        if ip.order(base) <= H2_ORDER_LIMIT:
            questions += [(f"product-co {base.name} n={n}",
                           ["product-co", "--group", path, "--n", str(n)],
                           _check_product_co(base, n)) for n in PRODUCT_CO_NS]
        questions.append((f"obstruction {base.name}", ["obstruction", "--group", path],
                          _check_obstruction(base)))
        for j, (name, argv, check) in enumerate(questions):
            ops.append(Op(name, lambda argv=argv: _ask(argv + ["--json"]),
                          _cli_check(check), cold=j == 0))
    return ops


# -- modn ------------------------------------------------------------------

def _modn_run(G, fs, n):
    from circorder import cohomology
    h2 = cohomology.h2_structure(G, n)
    return h2.invariant_factors, [cohomology.is_trivial_mod_n(G, f, n) for f in fs]


def _modn_check(base, n):
    def check(result):
        factors, trivial = result
        if tuple(factors) != ip.h2_mod(base, n):
            return f"H^2(G;Z/{n}) factors {tuple(factors)} != {ip.h2_mod(base, n)}"
        want = math.gcd(n, ip.order(base)) == 1
        if any(t != want for t in trivial):
            return f"is_trivial_mod_n {trivial} != {want}"
        return None
    return check


def modn_ops(seed: int, pass_index: int, workdir: Path) -> list[Op]:
    """The same operations for every seed: see MODN_OPS."""
    from circorder.groups import group_from_json
    ops = []
    for base, n, labels in MODN_OPS:
        perm = labels or list(range(ip.order(base)))
        G = group_from_json(ip.group_json(base, ip.permute(ip.base_table(base), perm)))
        fs = ip.cyclic_orderings(base, perm) if ip.is_cyclic(base) else []
        name = f"{base.name} mod {n}" + (" relabeled" if labels else "")
        ops.append(Op(name, lambda G=G, fs=fs, n=n: _modn_run(G, fs, n),
                      _modn_check(base, n), cold=True))
    return ops


# -- promislow -------------------------------------------------------------

def _promislow_check(report):
    problems = [] if report["ok"] is True else ["ok flag is false"]
    for key, want in (("axioms_exhaustive_ball2", BALL2_SIZE ** 4),
                      ("axioms_sampled", PROMISLOW_SAMPLES)):
        part = report[key]
        if part["checked"] != want or any(part["failures"].values()) or not part["ok"]:
            problems.append(f"{key}: {part['checked']} checked, failures {part['failures']}")
    if not all(report["relators"].values()):
        problems.append("relators")
    if report["abelianization"]["image_size"] != 16:  # Z/4 x Z/4
        problems.append("abelianization image")
    return "; ".join(problems) or None


def promislow_ops(seed: int, pass_index: int, workdir: Path) -> list[Op]:
    def run():
        from circorder import promislow
        return promislow.demo(seed=seed, radius=PROMISLOW_RADIUS, samples=PROMISLOW_SAMPLES)
    return [Op("promislow demo", run, _promislow_check, cold=True)]


def promislow_checks(report) -> tuple[int, int]:
    """(axiom checks attempted, axiom failures) of a demo report."""
    parts = [report[k] for k in ("axioms_exhaustive_ball2", "axioms_sampled")]
    return (sum(p["checked"] for p in parts),
            sum(sum(p["failures"].values()) for p in parts))


MAKE_OPS = {"integral": integral_ops, "modn": modn_ops, "promislow": promislow_ops}


def run_pass(workload: str, ops: list[Op], clock: Clock, tracer=None) -> dict:
    """Time every operation, then check the answers.  Returns the pass
    record; its times are in reference seconds, `raw_wall_s` is the pass's
    CPU time and `host_speed` the mean host speed over the pass."""
    sensitivity = SENSITIVITY[workload]
    results = []
    start = clock.now()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        outcome: Optional[str] = None
        value = None
        t = clock.now()
        clock.arm(DEADLINE_S[workload], SENSITIVITY[workload])
        try:
            value = op.run()
        except OpTimeout:
            outcome = "timeout"
        except Exception as exc:  # a failed operation is recorded, not fatal
            outcome = f"exception {type(exc).__name__}: {exc}"
        finally:
            clock.disarm()
        results.append((op, t, clock.now(), outcome, value))
    end = clock.now()

    records = []
    attempted = failed = wrong = 0
    for op, t0, t1, outcome, value in results:
        error = outcome
        if error is None:
            try:
                error = op.check(value)
            except (KeyError, TypeError, ValueError) as exc:
                error = f"unreadable answer: {type(exc).__name__}: {exc}"
            wrong += error is not None
        records.append({"name": op.name, "seconds": clock.reference(t0, t1, sensitivity),
                        "raw_seconds": t1 - t0, "cold": op.cold,
                        "timeout": outcome == "timeout", "error": error})
        if workload == "promislow" and value is not None:
            checks, failures = promislow_checks(value)
            attempted += checks
            failed += failures or (error is not None)
        else:
            attempted += 1
            failed += error is not None
    return {"wall_s": clock.reference(start, end, sensitivity), "raw_wall_s": end - start,
            "host_speed": clock.speed(start, end), "ops": records,
            "attempted": attempted, "failed": failed, "wrong": wrong}
