"""Command-line surface: enumerate, product-co, obstruction, promislow.

Exit codes: 0 success, 1 mathematical check failed, 2 invalid input,
3 resource bound exceeded.  All numeric output is exact.

The subcommands' options are declared once, in `COMMANDS`.  An argv made
of a command name and that command's exact option strings, each given at
most once with a value that does not start with '-' and converts, and with
every required option present, is read off the table without argparse
(`_parse`).  Every other argv (no arguments, help, an unknown command, an
abbreviation, `--opt=value`, a repeat, `--`, a negative or bad value, a
missing option) goes to the argparse parser built from the same table
(`_build_parsers`), so help text, usage errors and exit codes are
argparse's, and argparse is imported only then.
"""

from __future__ import annotations

import json
import sys
from functools import cache
from types import SimpleNamespace

from .errors import AxiomError, BoundExceeded, CheckFailed, InvalidGroupError
from .groups import cyclic_group, direct_product, load_group
from .orders import arrangement_to_inhom, enumerate_circular_orders
from .cohomology import class_of, h2_structure, is_n_divisible
from .extensions import minimal_generator
from .obstruction import (MAX_N_LIMIT, VERDICT_ALL_MULTIPLES, exponent_facts,
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
    value = int(text)
    if value < 0:
        import argparse
        raise argparse.ArgumentTypeError(f"{text} is not an integer >= 0")
    return value


def integer_ge_2(text: str) -> int:
    """argparse type: an integer >= 2 (argparse reports int()'s ValueError)."""
    value = int(text)
    if value < 2:
        import argparse
        raise argparse.ArgumentTypeError(f"{value} is not an integer >= 2")
    return value


def torsion_orders(text: str) -> list[int]:
    """argparse type: one or more comma or space separated integers >= 2."""
    orders = [integer_ge_2(tok) for tok in text.replace(",", " ").split()]
    if not orders:
        import argparse
        raise argparse.ArgumentTypeError("no torsion orders given")
    return orders


# Each subcommand, in the order the root help lists them: name -> (help,
# modes, options).  An option is (option string, type, default, required,
# help), listed in the order the command's help lists them; its dest is the
# option string less its dashes, '-' read as '_', as argparse names it.  A
# type of None marks a flag (store_true: False, or True when given), and
# str keeps the text.  Exactly one of the modes must be given (argparse's
# required mutually exclusive group, listed before the options).
COMMANDS = {
    "enumerate": ("list all circular orderings of a finite group", (), (
        ("--group", str, None, True, "group JSON file"),
        ("--max-order", integer_ge_0, None, False, None),   # None: the enumeration limit
        ("--json", None, False, False, None))),
    "product-co": ("decide circular orderability of G x Z/n with witness", (), (
        ("--group", str, None, True, None),
        ("--n", integer_ge_2, None, True, None),
        ("--max-order", integer_ge_0, None, False, None),   # None: the enumeration limit
        ("--json", None, False, False, None))),
    "obstruction": ("obstruction spectrum report", (
        ("--group", str, None, False, None),
        ("--torsion-orders", torsion_orders, None, False,
         "comma or space separated torsion orders"),
        ("--exponent", integer_ge_2, None, False, "exponent of H^2(G;Z)")), (
        ("--not-lo", None, False, False, "assert the group is not left-orderable"),
        ("--max-n", integer_ge_2, 12, False, None),
        ("--json", None, False, False, None))),
    "promislow": ("run the Promislow group self-check demo", (), (
        ("--seed", int, prom.DEFAULT_SEED, False, None),
        ("--radius", integer_ge_0, 5, False, None),
        ("--samples", integer_ge_0, 100_000, False, None),
        ("--json", None, False, False, None))),
}


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
    if max_n > MAX_N_LIMIT:   # every mode builds an entry per n
        raise BoundExceeded(f"obstruction: --max-n {max_n} exceeds the limit {MAX_N_LIMIT}")
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


def build_parser():
    """A new root argparse parser, built from `COMMANDS`: a subparser per
    command, with its modes as a required mutually exclusive group."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="circorder",
        description="circular orderings, central extensions, exact H^2, obstruction spectra")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, modes, options) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        exclusive = command.add_mutually_exclusive_group(required=True) if modes else None
        for owner, entries in ((exclusive, modes), (command, options)):
            for option, kind, default, required, text in entries:
                if kind is None:
                    owner.add_argument(option, action="store_true", help=text)
                else:
                    owner.add_argument(option, type=kind, default=default,
                                       required=required, help=text)
    return parser


@cache
def _build_parsers():
    """The root parser for every argv `_read` does not read, built on the
    first such argv and kept: its five `ArgumentParser`s (the root and one
    per command) are built once per process, and none for a process whose
    every argv the table reads."""
    return build_parser()


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def _reader(modes, options) -> tuple:
    """What `_read` needs of one command: option string -> (dest, type),
    the defaults by dest, and the dests of the required options and of
    the modes."""
    entries = modes + options
    return ({option: (_dest(option), kind) for option, kind, *_ in entries},
            {_dest(option): default for option, _, default, *_ in entries},
            {_dest(option) for option, _, _, required, _ in options if required},
            {_dest(option) for option, *_ in modes})


_READERS = {name: _reader(modes, options) for name, (_, modes, options) in COMMANDS.items()}


def _read(argv):
    """The namespace of an argv the table reads, or None for any other.
    It reads `argv[0]`, an exact command name, then that command's exact
    option strings, each at most once, each value option followed by a
    value that does not start with '-' and that its type converts; every
    required option must be present, and exactly one mode when the command
    has modes.  On such an argv the root parser gives the same attributes
    with the same values, which `test_cli` checks against it."""
    reader = _READERS.get(argv[0]) if argv else None
    if reader is None:
        return None
    lookup, defaults, required, modes = reader
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        entry = lookup.get(token)
        if entry is None or entry[0] in values:
            return None
        dest, kind = entry
        if kind is None:
            values[dest] = True
            continue
        text = next(tokens, "-")   # a missing value reads as '-'
        if text.startswith("-"):
            return None
        try:
            values[dest] = kind(text)
        except Exception:   # argparse converts it again and reports it
            return None
    if not required <= values.keys() or (modes and len(modes & values.keys()) != 1):
        return None
    return SimpleNamespace(command=argv[0], **{**defaults, **values})


def _parse(argv):
    """argv parsed as the root parser parses it: read off `COMMANDS` by
    `_read` when it is a well-formed question, and otherwise by the root
    parser (`_build_parsers`), which prints help and usage errors and
    exits as argparse does."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    return args if args is not None else _build_parsers().parse_args(argv)


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
