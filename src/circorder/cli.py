"""Command-line surface: enumerate, product-co, obstruction, promislow.

Exit codes: 0 success, 1 mathematical check failed, 2 invalid input,
3 resource bound exceeded.  All numeric output is exact.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import AxiomError, BoundExceeded, CheckFailed, InvalidGroupError
from .groups import cyclic_group, direct_product, load_group
from .orders import arrangement_to_inhom, enumerate_circular_orders
from .cohomology import class_of, h2_structure, is_n_divisible
from .extensions import minimal_generator
from .obstruction import (VERDICT_ALL_MULTIPLES, exponent_facts,
                          spectrum_finite, spectrum_torsion_part)
from . import cohomology, orders, promislow as prom


def _spectrum_payload(spectrum, max_n: int) -> dict:
    return {
        "minimal_elements": list(spectrum.minimal),
        "is_all": spectrum.is_all,
        "is_empty": spectrum.is_empty,
        "description": spectrum.describe(),
        "membership": {str(n): spectrum.membership(n) for n in range(2, max_n + 1)},
    }


def integer_ge_0(text: str) -> int:
    """argparse type: an integer >= 0."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"{text} is not an integer >= 0")
    return int(text)


def integer_ge_2(text: str) -> int:
    """argparse type: an integer >= 2 (argparse reports int()'s ValueError)."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"{value} is not an integer >= 2")
    return value


def torsion_orders(text: str) -> list[int]:
    """argparse type: one or more comma or space separated integers >= 2."""
    orders = [integer_ge_2(tok) for tok in text.replace(",", " ").split()]
    if not orders:
        raise argparse.ArgumentTypeError("no torsion orders given")
    return orders


def cmd_enumerate(args) -> tuple[dict, str]:
    G = load_group(args.group)
    arrangements = enumerate_circular_orders(G, max_order=args.max_order)
    with_classes = G.order <= cohomology.H2_ORDER_LIMIT  # exactly when class_of answers
    orderings = []
    for arr in arrangements:
        f = arrangement_to_inhom(arr)
        entry = {"arrangement": list(arr.sequence)}
        if G.order > 1:
            entry["minimal_generator"] = minimal_generator(G, f)
        if with_classes:
            entry["class"] = list(class_of(G, f).coords)
        orderings.append(entry)
    payload = {"group": G.name, "order": G.order,
               "count": len(arrangements), "orderings": orderings}
    if with_classes:
        payload["h2_invariant_factors"] = list(h2_structure(G).invariant_factors)
    summary = f"{G.name}: {len(arrangements)} circular ordering(s)"
    return payload, summary


def cmd_product_co(args) -> tuple[dict, str]:
    G = load_group(args.group)
    n = args.n
    arrangements = enumerate_circular_orders(G, max_order=args.max_order)
    witness = None
    for arr in arrangements:
        f = arrangement_to_inhom(arr)
        result = is_n_divisible(G, f, n)
        if result.divisible:
            witness = {"ordering": [list(r) for r in f.values], "mu": result.mu}
            break
    verdict = witness is not None
    cross = "skipped"
    if n * G.order <= orders.ENUMERATION_ORDER_LIMIT:
        product = direct_product(G, cyclic_group(n))
        direct = bool(enumerate_circular_orders(product))
        if direct != verdict:
            raise CheckFailed(
                f"divisibility verdict {verdict} but direct search found "
                f"{'an ordering' if direct else 'none'} on the product")
        cross = "agrees"
    payload = {"group": G.name, "n": n, "circularly_orderable": verdict,
               "witness": witness, "cross_check": cross}
    summary = (f"{G.name} x Z/{n}: "
               f"{'circularly orderable' if verdict else 'NOT circularly orderable'}"
               f" (direct search {cross})")
    return payload, summary


def cmd_obstruction(args) -> tuple[dict, str]:
    max_n = args.max_n
    if args.not_lo and args.exponent is None:
        raise InvalidGroupError("obstruction: --not-lo applies only with --exponent")
    if args.group is not None:
        G = load_group(args.group)
        spectrum = spectrum_finite(G)
        payload = {"mode": "group", "group": G.name,
                   **_spectrum_payload(spectrum, max_n)}
        return payload, f"Ob({G.name}) = {spectrum.describe()}"
    if args.torsion_orders is not None:
        torsion = args.torsion_orders
        spectrum = spectrum_torsion_part(torsion)
        payload = {"mode": "torsion", "orders": torsion,
                   **_spectrum_payload(spectrum, max_n)}
        return payload, f"Ob_T = {spectrum.describe()}"
    e = args.exponent   # the parser requires exactly one of the three modes
    lo = not args.not_lo
    verdicts = {str(n): exponent_facts(e, n, lo) for n in range(2, max_n + 1)}
    summary = (f"Ob = {e}N" if exponent_facts(e, e, lo) == VERDICT_ALL_MULTIPLES
               else "verdicts per n (exponent facts only)")
    payload = {"mode": "exponent", "exponent": e, "left_orderable": lo,
               "verdicts": verdicts, "summary": summary}
    return payload, summary


def cmd_promislow(args) -> tuple[dict, str]:
    report = prom.demo(seed=args.seed, radius=args.radius, samples=args.samples)
    if not report["ok"]:
        raise CheckFailed("promislow self-checks failed; see the JSON report")
    summary = (f"promislow: relators ok, cone ok, "
               f"{report['axioms_exhaustive_ball2']['checked']} exhaustive + "
               f"{report['axioms_sampled']['checked']} sampled axiom checks ok, "
               f"{report['fast_vs_generic']['agree']} triples agree with the "
               f"lexicographic construction (seed {report['seed']})")
    return report, summary


def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The root parser, and each subcommand's parser by its name."""
    parser = argparse.ArgumentParser(
        prog="circorder",
        description="circular orderings, central extensions, exact H^2, obstruction spectra")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = commands["enumerate"] = sub.add_parser(
        "enumerate", help="list all circular orderings of a finite group")
    p.add_argument("--group", required=True, help="group JSON file")
    p.add_argument("--max-order", type=integer_ge_0)  # None: the enumeration limit
    p.add_argument("--json", action="store_true")

    p = commands["product-co"] = sub.add_parser(
        "product-co", help="decide circular orderability of G x Z/n with witness")
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=integer_ge_2, required=True)
    p.add_argument("--max-order", type=integer_ge_0)  # None: the enumeration limit
    p.add_argument("--json", action="store_true")

    p = commands["obstruction"] = sub.add_parser("obstruction", help="obstruction spectrum report")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--group")
    mode.add_argument("--torsion-orders", type=torsion_orders,
                      help="comma or space separated torsion orders")
    mode.add_argument("--exponent", type=integer_ge_2, help="exponent of H^2(G;Z)")
    p.add_argument("--not-lo", action="store_true",
                   help="assert the group is not left-orderable")
    p.add_argument("--max-n", type=integer_ge_2, default=12)
    p.add_argument("--json", action="store_true")

    p = commands["promislow"] = sub.add_parser(
        "promislow", help="run the Promislow group self-check demo")
    p.add_argument("--seed", type=int, default=prom.DEFAULT_SEED)
    p.add_argument("--radius", type=integer_ge_0, default=5)
    p.add_argument("--samples", type=integer_ge_0, default=100_000)
    p.add_argument("--json", action="store_true")
    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


_PARSER, _COMMAND_PARSERS = _build_parsers()


def _parse(argv) -> argparse.Namespace:
    """argv parsed as the root parser parses it.  That parser hands all
    that follows a known command to the command's parser, so this one does
    so directly; no arguments, help, an unknown command and unrecognized
    arguments go through the root parser, for its help and usage errors."""
    if argv is None:
        argv = sys.argv[1:]
    command = _COMMAND_PARSERS.get(argv[0]) if argv else None
    if command is not None:
        args, unrecognized = command.parse_known_args(argv[1:])
        if not unrecognized:
            args.command = argv[0]
            return args
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]  # looked up per call
    try:
        payload, summary = command(args)
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidGroupError, AxiomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload))
    else:
        print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
