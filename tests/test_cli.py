import argparse
import ast
import contextlib
import hashlib
import importlib.util
import io
import inspect
import json
import os
import pkgutil
import random
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import circorder
from circorder import (cli, cohomology, extensions, groups, obstruction, orders,
                       promislow)
from circorder.cli import main
from circorder.cohomology import _Complex, class_of, h2_structure, is_n_divisible
from circorder.errors import BoundExceeded
from circorder.groups import cyclic_group, direct_product, dump_group, symmetric_group
from circorder.orders import (arrangement_from_sequence, arrangement_to_inhom,
                              enumerate_circular_orders, ordering_from_json,
                              ordering_to_json, standard_order_zn)

import helpers


@pytest.fixture()
def group_file(tmp_path):
    def write(G, name="g.json"):
        path = tmp_path / name
        dump_group(G, path)
        return str(path)
    return write


def run_json(capsys, argv):
    rc = main(argv + ["--json"])
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_enumerate_z4(capsys, group_file):
    rc, payload = run_json(capsys, ["enumerate", "--group", group_file(cyclic_group(4))])
    assert rc == 0
    assert payload["count"] == 2
    assert [o["arrangement"] for o in payload["orderings"]] == \
        [[0, 1, 2, 3], [0, 3, 2, 1]]
    assert {o["minimal_generator"] for o in payload["orderings"]} == {1, 3}
    assert {o["class"][0] for o in payload["orderings"]} == {1, 3}
    assert payload["h2_invariant_factors"] == [4]


def test_enumerate_klein_and_trivial(capsys, group_file):
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    rc, payload = run_json(capsys, ["enumerate", "--group", group_file(klein)])
    assert rc == 0 and payload["count"] == 0

    rc, payload = run_json(capsys, ["enumerate", "--group", group_file(cyclic_group(1))])
    assert rc == 0 and payload["count"] == 1
    assert payload["orderings"][0] == {"arrangement": [0], "class": []}


def test_enumerate_exit_codes(tmp_path, group_file):
    assert main(["enumerate", "--group", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"table": [[0,1],[1,1]]}')
    assert main(["enumerate", "--group", str(bad)]) == 2
    bad.write_text('{"table": [[0,true],[true,false]]}')
    assert main(["enumerate", "--group", str(bad)]) == 2
    assert main(["enumerate", "--group", group_file(cyclic_group(13))]) == 3


@pytest.mark.parametrize("content", [b'\xff\xfe{"table": [[0]]}',   # not UTF-8
                                     b"[" * 50_000 + b"]" * 50_000,  # past the recursion limit
                                     '{"table": [[0]]}'.encode("utf-16")])   # UTF-16, with BOM
def test_group_files_that_json_cannot_read_exit_2(tmp_path, capsys, content):
    # both raised out of json.load as a traceback with exit 1, the code of a
    # failed cross-check
    path = tmp_path / "g.json"
    path.write_bytes(content)
    assert main(["enumerate", "--group", str(path)]) == 2
    assert "error: group JSON:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["obstruction"], ["enumerate"],
                                  ["product-co", "--n", "2"]])
def test_a_table_that_is_not_a_group_exits_2(tmp_path, capsys, argv):
    # Z/130 with one intercalate swapped: latin, with identity and inverses,
    # and past the order (128) up to which associativity used to be checked
    path = tmp_path / "loop130.json"
    path.write_text(json.dumps({"name": "loop130", "table": helpers.loop130_table()}))
    assert main([argv[0], "--group", str(path), *argv[1:]]) == 2
    assert "associativity fails at (1,1,1)" in capsys.readouterr().err


def test_the_parser_is_built_once(monkeypatch, capsys, group_file):
    # well-formed questions are read off the table and build no parser;
    # those that fall back build the root parser and the four command
    # parsers once between them
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    cli._build_parsers.cache_clear()
    z3 = group_file(cyclic_group(3))
    assert main(["enumerate", "--group", z3]) == 0
    assert main(["product-co", "--group", z3, "--n", "2"]) == 0
    assert built == []
    assert main(["enumerate", "--gr", z3]) == 0
    assert main(["product-co", "--gr", z3, "--n", "2"]) == 0
    assert len(built) == 5
    assert capsys.readouterr().out.splitlines() == [
        "Z/3: 2 circular ordering(s)",
        "Z/3 x Z/2: circularly orderable (direct search agrees)"] * 2


def test_a_well_formed_question_imports_no_argparse(tmp_path):
    dump_group(cyclic_group(3), tmp_path / "z3.json")
    proc = _run_python([], "import sys\n"
                           "from circorder import cli\n"
                           "code = cli.main(['enumerate', '--group', sys.argv[1]])\n"
                           "print(code, 'argparse' in sys.modules)",
                       str(tmp_path / "z3.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["Z/3: 2 circular ordering(s)", "0 False"]


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["frobnicate"], ["enum", "--group", "g.json"],
    *([command, "-h"] for command in ("enumerate", "product-co", "obstruction", "promislow")),
    ["enumerate"], ["enumerate", "--group", "g.json", "--max-order", "-1"],
    ["enumerate", "--group", "g.json", "--bogus"], ["enumerate", "--group", "g.json", "x"],
    ["enumerate", "--group", "g.json", "--"],
    ["product-co", "--group", "g.json", "--n", "1"],
    ["product-co", "--group", "g.json", "--n", "x"],
    ["obstruction", "--group", "g.json", "--exponent", "5"],
    ["obstruction", "--torsion-orders", "4", "--exponent", "5"],
    ["enumerate", "--gr", "g.json"], ["product-co", "--gr", "g.json", "--n", "3"],
    ["product-co", "--gr", "g.json"], ["obstruction", "--gr", "g.json", "--max-n", "5"],
    ["enumerate", "--group=g.json"], ["enumerate", "--group", "g.json", "--group", "h.json"],
    ["promislow", "--seed", "-5"], ["enumerate", "--group", "--json"],
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_each_command_parses_as_through_the_root_parser(capsys, argv):
    # main reads a well-formed question off the option table and hands any
    # other argv to the root parser; the root parser alone, the oracle, must
    # agree on every namespace, help text, usage error and exit code
    def outcome(parse):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
        return result, *capsys.readouterr()

    want = outcome(cli.build_parser().parse_args)
    assert outcome(cli._parse) == want
    if not isinstance(want[0], dict):   # the parse exits before any command runs
        assert outcome(main) == want


_VALUES = ["g.json", "0", "1", "-1", "-5", "", "x", "1.5", "4,6"]
_WELL_FORMED = {str: "g.json", int: "7", cli.integer_ge_0: "0", cli.integer_ge_2: "2",
                cli.torsion_orders: "4,6"}   # a value each type converts
_OPTIONS = sorted({option for _, modes, options in cli.COMMANDS.values()
                   for option, *_ in modes + options})
_WORDS = sorted({*_OPTIONS, *(option[:k] for option in _OPTIONS for k in (2, 3, 4)),
                 *(f"{option}={value}" for option in _OPTIONS for value in _VALUES),
                 "-h", "--help", "--", *_VALUES, *cli.COMMANDS})
_NEAR_MISSES = ["enum", "enumerates", "Enumerate", "product", "product_co", "obstruct",
                "promislo", "frobnicate", "-h", "--help", "--", ""]


@st.composite
def _argvs(draw):
    """A command, or a near-miss in its place, then mostly each of the
    command's required options, mostly one of its modes, and some others,
    in any order, each with a value its type mostly converts.  Then up to
    three edits, each splicing in a word of the table's vocabulary, putting
    one in place of a token, or dropping a token: other options, prefixes,
    --opt=value, -h, --, bare values."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    _, modes, options = cli.COMMANDS[command]
    mostly = st.sampled_from([True, True, False])
    chosen = [entry for entry in options if entry[3] and draw(mostly)]
    chosen += draw(st.permutations(modes))[:draw(st.sampled_from([1, 1, 1, 0, 2]))]
    optional = [entry for entry in options if not entry[3]]
    chosen += draw(st.permutations(optional))[:draw(st.integers(0, len(optional)))]
    argv = [draw(st.just(command) | st.sampled_from(_NEAR_MISSES))]
    for option, kind, *_ in draw(st.permutations(chosen)):
        argv.append(option)
        if kind is not None:
            argv.append(_WELL_FORMED[kind] if draw(mostly) else draw(st.sampled_from(_VALUES)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        i = draw(st.integers(1, len(argv)))
        word = draw(st.sampled_from(_WORDS))
        edit = "insert" if i == len(argv) else draw(st.sampled_from(["insert", "put", "drop"]))
        if edit == "insert":
            argv.insert(i, word)
        elif edit == "put":
            argv[i] = word
        else:
            del argv[i]
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=_argvs())
def test_the_option_table_parses_as_the_root_parser(argv):
    # the root parser alone must agree on every namespace, SystemExit code,
    # stdout and stderr, on well-formed questions and on the argv that
    # differ from one in a few tokens
    def outcome(parse):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = repr(sorted(vars(parse(argv)).items()))   # True is not 1
            except SystemExit as exc:
                result = exc.code
        return result, out.getvalue(), err.getvalue()

    assert outcome(cli._parse) == outcome(cli.build_parser().parse_args), argv


# `circorder -h`, each command's `-h` and three usage errors, recorded at
# COLUMNS=80 with Python 3.11 from the hand-written argparse parsers that
# `cli.COMMANDS` replaced: argv -> (exit code, stdout, stderr)
_HELP_AND_USAGE_ERRORS = {
    '-h': (0, """\
usage: circorder [-h] {enumerate,product-co,obstruction,promislow} ...

circular orderings, central extensions, exact H^2, obstruction spectra

positional arguments:
  {enumerate,product-co,obstruction,promislow}
    enumerate           list all circular orderings of a finite group
    product-co          decide circular orderability of G x Z/n with witness
    obstruction         obstruction spectrum report
    promislow           run the Promislow group self-check demo

options:
  -h, --help            show this help message and exit
""",
        ""),
    'enumerate -h': (0, """\
usage: circorder enumerate [-h] --group GROUP [--max-order MAX_ORDER] [--json]

options:
  -h, --help            show this help message and exit
  --group GROUP         group JSON file
  --max-order MAX_ORDER
  --json
""",
        ""),
    'product-co -h': (0, """\
usage: circorder product-co [-h] --group GROUP --n N [--max-order MAX_ORDER]
                            [--json]

options:
  -h, --help            show this help message and exit
  --group GROUP
  --n N
  --max-order MAX_ORDER
  --json
""",
        ""),
    'obstruction -h': (0, """\
usage: circorder obstruction [-h]
                             (--group GROUP | --torsion-orders TORSION_ORDERS | --exponent EXPONENT)
                             [--not-lo] [--max-n MAX_N] [--json]

options:
  -h, --help            show this help message and exit
  --group GROUP
  --torsion-orders TORSION_ORDERS
                        comma or space separated torsion orders
  --exponent EXPONENT   exponent of H^2(G;Z)
  --not-lo              assert the group is not left-orderable
  --max-n MAX_N
  --json
""",
        ""),
    'promislow -h': (0, """\
usage: circorder promislow [-h] [--seed SEED] [--radius RADIUS]
                           [--samples SAMPLES] [--json]

options:
  -h, --help         show this help message and exit
  --seed SEED
  --radius RADIUS
  --samples SAMPLES
  --json
""",
        ""),
    'product-co --group g.json --n 1': (2, "",
        """\
usage: circorder product-co [-h] --group GROUP --n N [--max-order MAX_ORDER]
                            [--json]
circorder product-co: error: argument --n: 1 is not an integer >= 2
"""),
    'obstruction': (2, "",
        """\
usage: circorder obstruction [-h]
                             (--group GROUP | --torsion-orders TORSION_ORDERS | --exponent EXPONENT)
                             [--not-lo] [--max-n MAX_N] [--json]
circorder obstruction: error: one of the arguments --group --torsion-orders --exponent is required
"""),
    'enumerate --group g.json --bogus': (2, "",
        """\
usage: circorder [-h] {enumerate,product-co,obstruction,promislow} ...
circorder: error: unrecognized arguments: --bogus
"""),
}


@pytest.mark.parametrize("argv", list(_HELP_AND_USAGE_ERRORS))
def test_help_and_usage_errors_are_those_of_the_hand_written_parsers(monkeypatch, capsys,
                                                                     argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _HELP_AND_USAGE_ERRORS[argv]
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)


def test_ordering_file_values_must_be_ints(tmp_path, monkeypatch, capsys):
    # No subcommand reads an ordering file, so a stand-in command loads one
    # as load_group loads a group file.  A float or boolean value must exit
    # like an out-of-range integer: 2, bad input.
    monkeypatch.setattr(cli, "cmd_enumerate", lambda args: (
        ordering_to_json(ordering_from_json(json.loads(Path(args.group).read_text()))), ""))
    data = ordering_to_json(arrangement_to_inhom(
        arrangement_from_sequence(cyclic_group(3), (0, 1, 2))))
    path = tmp_path / "ordering.json"
    path.write_text(json.dumps(data))
    assert main(["enumerate", "--group", str(path)]) == 0
    for text in ("2", "1.0", "true"):
        path.write_text(json.dumps(data).replace("[0, 1, 1]]", f"[0, 1, {text}]]"))
        assert main(["enumerate", "--group", str(path)]) == 2, text
        assert "value-range" in capsys.readouterr().err


def test_cohomology_bound_is_the_module_constant(monkeypatch, capsys, group_file):
    # one assignment to cohomology.H2_ORDER_LIMIT moves H^2 over Z and Z/n,
    # class_of, is_n_divisible and the classes `enumerate` prints, before
    # the group's complex is cached and after
    G, f = cyclic_group(12), standard_order_zn(12)
    path = group_file(G)
    asks = (lambda: h2_structure(G), lambda: h2_structure(G, 2),
            lambda: class_of(G, f), lambda: is_n_divisible(G, f, 5))
    _Complex.cache_clear()
    for _cold_then_warm in range(2):
        monkeypatch.setattr(cohomology, "H2_ORDER_LIMIT", 4)
        for ask in asks:
            with pytest.raises(BoundExceeded):
                ask()
        rc, payload = run_json(capsys, ["enumerate", "--group", path])
        assert rc == 0 and payload["count"] == 4
        assert "h2_invariant_factors" not in payload
        assert not any("class" in o for o in payload["orderings"])
        monkeypatch.setattr(cohomology, "H2_ORDER_LIMIT", 12)
        assert h2_structure(G).invariant_factors == (12,)
        assert h2_structure(G, 2).invariant_factors == (2,)
        assert gcd(class_of(G, f).coords[0], 12) == 1
        assert is_n_divisible(G, f, 5).divisible and not is_n_divisible(G, f, 2).divisible
        rc, payload = run_json(capsys, ["enumerate", "--group", path])
        assert rc == 0 and payload["h2_invariant_factors"] == [12]
        assert sorted(o["class"][0] for o in payload["orderings"]) == [1, 5, 7, 11]
    _Complex.cache_clear()


def test_enumeration_bound_is_the_module_constant(monkeypatch, capsys, group_file):
    z5 = group_file(cyclic_group(5))
    z2 = group_file(cyclic_group(2), "z2.json")
    rc, payload = run_json(capsys, ["product-co", "--group", z2, "--n", "3"])
    assert rc == 0 and payload["cross_check"] == "agrees"
    monkeypatch.setattr(orders, "ENUMERATION_ORDER_LIMIT", 4)
    with pytest.raises(BoundExceeded):
        enumerate_circular_orders(cyclic_group(5))
    assert main(["enumerate", "--group", z5]) == 3
    assert "limit 4" in capsys.readouterr().err
    rc, payload = run_json(capsys, ["enumerate", "--group", z5, "--max-order", "5"])
    assert rc == 0 and payload["count"] == 4
    rc, payload = run_json(capsys, ["product-co", "--group", z2, "--n", "3"])
    assert rc == 0 and payload["cross_check"] == "skipped"


def _benchmark_tracer(monkeypatch):
    """perfbench/tracer.py as a module, read without writing its bytecode
    next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_names_exist(monkeypatch):
    # `perfbench/run.py --trace` wraps each of these names by getattr on its
    # layer module, so moving or renaming one breaks the traced run
    tracer = _benchmark_tracer(monkeypatch)
    path = Path(tracer.__file__)
    assert tracer.SPANNED and tracer.COUNTED
    for layer, name in tracer.SPANNED + tracer.COUNTED:
        assert callable(getattr(importlib.import_module(f"circorder.{layer}"), name, None)), \
            (layer, name)
    # every circorder name the workloads call, read off their source: one
    # the tracer does not span, such as groups.group_from_json, would fail
    # every untraced operation if it went
    workloads = ast.parse((path.parent / "workloads.py").read_text())
    bound = {}   # local name -> the dotted circorder name it is bound to
    for node in ast.walk(workloads):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("circorder"):
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("circorder"):
                    head = alias.name.split(".")[0]
                    bound[alias.asname or head] = alias.name if alias.asname else head
    called = set()
    for node in ast.walk(workloads):
        if isinstance(node, ast.Call):
            attrs, func = [], node.func
            while isinstance(func, ast.Attribute):
                attrs.insert(0, func.attr)
                func = func.value
            if isinstance(func, ast.Name) and func.id in bound:
                called.add(".".join([bound[func.id], *attrs]))
    assert {"circorder.groups.group_from_json", "circorder.cli.main",
            "circorder.cohomology.h2_structure"} <= called, sorted(called)
    for dotted in called:
        assert callable(pkgutil.resolve_name(dotted)), dotted


def test_benchmark_tracer_scans_every_transform(monkeypatch):
    # the traced run reads U, V and V^-1 of each SNF it wraps, which builds
    # them from the step log; its snf_max_bits is their largest entry.  The
    # second matrix's U has 9-bit entries, its V and V^-1 4-bit ones
    tracer = _benchmark_tracer(monkeypatch)
    for M in ([[2, 0], [0, 3]], [[-7, 6, 6], [-7, 2, -7], [4, -5, -9], [0, 4, 4]],
              [[3, 1, 4], [1, 5, 9], [2, 6, 5]], cohomology.coboundary_matrix(cyclic_group(6), 1),
              cohomology.IntMatrix([], cols=3)):
        traced = tracer.Tracer(time.process_time)
        snf = cohomology.smith_normal_form(M)
        traced._scan_bits(snf, (M,), {})
        assert {"U", "V", "Vinv"} <= set(vars(snf))
        full = cohomology.smith_normal_form(M)
        want = max((abs(v).bit_length() for T in (full.U, full.V, full.Vinv)
                    for row in T.data for v in row), default=0)
        assert traced.snf_max_bits == want, M


def test_bounds_have_no_per_call_overrides():
    # each bound lives in its module constant alone
    for fn, option in ((cohomology.coboundary_matrix, "max_order"),
                       (cohomology.coboundary_matrices, "max_order"),
                       (cohomology._complex_for, "max_order"),
                       (cohomology.h2_structure, "max_order"),
                       (extensions.CentralExtensionGroup.materialize, "max_order"),
                       (helpers.find_isomorphism, "max_order"),
                       (promislow.ball, "max_radius"),
                       (obstruction.spectrum_finite, "verify_limit"),
                       (groups.GroupHom, "validate"),
                       (orders.arrangement_from_sequence, "validate")):
        assert option not in inspect.signature(fn).parameters, fn


def test_readme_bounds_table_matches_the_constants():
    # each row of the README's bounds table names a module constant and its
    # default; a renamed, moved or changed constant must fail here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Bounds and performance notes")[1]
    rows = [line.split("|")[1:4] for line in section.splitlines() if line.startswith("| `")]
    assert len(rows) == 8
    for constant, module, default in rows:
        value = getattr(importlib.import_module(module.strip(" `")), constant.strip(" `"))
        assert value == int(default), constant


@pytest.mark.parametrize("text", ["1.0", "1.5", "true"])
def test_product_co_cochain_values_must_be_ints(tmp_path, monkeypatch, capsys,
                                                group_file, text):
    # product-co takes its cochains from enumeration; a stand-in reads the
    # cochain from a file, as load_group reads a group file
    path = tmp_path / "cochain.json"
    monkeypatch.setattr(cli, "arrangement_to_inhom", lambda arr: json.loads(path.read_text()))
    argv = ["product-co", "--group", group_file(cyclic_group(2)), "--n", "2"]
    path.write_text("[[0, 0], [0, 1]]")
    assert main(argv) == 0
    path.write_text(f"[[0, 0], [0, {text}]]")
    assert main(argv) == 2
    assert "value-type" in capsys.readouterr().err


def test_product_co(capsys, group_file):
    z4 = group_file(cyclic_group(4))
    rc, payload = run_json(capsys, ["product-co", "--group", z4, "--n", "3"])
    assert rc == 0 and payload["circularly_orderable"] is True
    assert payload["cross_check"] == "agrees"
    assert payload["witness"]["mu"] is not None

    rc, payload = run_json(capsys, ["product-co", "--group", z4, "--n", "2"])
    assert rc == 0 and payload["circularly_orderable"] is False
    assert payload["witness"] is None

    z2 = group_file(cyclic_group(2), "z2.json")
    rc, payload = run_json(capsys, ["product-co", "--group", z2, "--n", "2"])
    assert rc == 0 and payload["circularly_orderable"] is False


def test_product_co_witness_is_checkable(capsys, group_file):
    from circorder.orders import validate_inhom
    from circorder.cohomology import class_of
    G = cyclic_group(4)
    rc, payload = run_json(capsys, ["product-co", "--group", group_file(G), "--n", "3"])
    f = validate_inhom(G, payload["witness"]["ordering"])
    mu = payload["witness"]["mu"]
    assert class_of(G, mu).scale(3).coords == class_of(G, f).coords


def test_product_co_max_order_answers_non_cyclic_groups_past_the_limit(capsys, group_file):
    # a finite group with a circular ordering is cyclic, so a non-cyclic group
    # past the enumeration limit is answered "no" under --max-order without a
    # divisibility question, whose lower bound would refuse it
    s4 = group_file(symmetric_group(4))
    assert main(["product-co", "--group", s4, "--n", "2"]) == 3
    assert "limit 12" in capsys.readouterr().err
    rc, payload = run_json(capsys, ["product-co", "--group", s4, "--n", "2",
                                    "--max-order", "24"])
    assert rc == 0 and payload["circularly_orderable"] is False
    assert payload["witness"] is None and payload["cross_check"] == "skipped"

def test_obstruction_group_mode(capsys, group_file):
    rc, payload = run_json(capsys, ["obstruction", "--group", group_file(cyclic_group(6))])
    assert rc == 0
    assert payload["minimal_elements"] == [2, 3]
    assert payload["membership"]["4"] is True
    assert payload["membership"]["5"] is False


def test_obstruction_torsion_mode(capsys):
    rc, payload = run_json(capsys, ["obstruction", "--torsion-orders", "4"])
    assert rc == 0 and payload["minimal_elements"] == [2]
    rc, payload = run_json(capsys, ["obstruction", "--torsion-orders", "6, 35"])
    assert rc == 0 and payload["minimal_elements"] == [2, 3, 5, 7]


def test_obstruction_exponent_mode(capsys):
    rc, payload = run_json(capsys, ["obstruction", "--exponent", "5", "--not-lo"])
    assert rc == 0
    assert payload["summary"] == "Ob = 5N"
    rc, payload = run_json(capsys, ["obstruction", "--exponent", "6", "--not-lo",
                                    "--max-n", "8"])
    assert rc == 0
    assert payload["verdicts"]["5"] == "not-in-spectrum"
    assert payload["verdicts"]["6"] == "in-spectrum"
    assert payload["verdicts"]["4"] == "undetermined"


def test_obstruction_requires_a_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["obstruction"])
    assert exc.value.code == 2
    assert "one of the arguments --group --torsion-orders --exponent is required" \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--group", "g.json", "--exponent", "5"], "not allowed with argument --group"),
    (["--torsion-orders", "4", "--exponent", "5"], "not allowed with argument --torsion-orders"),
    (["--torsion-orders", ""], "argument --torsion-orders: no torsion orders given"),
])
def test_obstruction_takes_one_mode(capsys, argv, message):
    # a second mode was ignored (exit 0 on the first), and an empty torsion
    # list fell through to the missing-mode error
    with pytest.raises(SystemExit) as exc:
        main(["obstruction", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("mode, key", [(["--group", None], "membership"),
                                       (["--torsion-orders", "4,9"], "membership"),
                                       (["--exponent", "5"], "verdicts")])
def test_max_n_is_bounded_in_every_obstruction_mode(capsys, group_file, mode, key):
    # a payload entry per n: --max-n 1000000 took seconds and some 200 MB,
    # so past MAX_N_LIMIT every mode exits 3 before building any, whether
    # the option table or argparse reads the argv (--max-n=...)
    if mode[1] is None:
        mode = [mode[0], group_file(cyclic_group(6))]
    limit = obstruction.MAX_N_LIMIT
    assert limit == 10_000
    rc, payload = run_json(capsys, ["obstruction", *mode, "--max-n", str(limit)])
    assert rc == 0 and len(payload[key]) == limit - 1
    assert list(payload[key])[::limit - 2] == ["2", str(limit)]
    for max_n in (limit + 1, 10 ** 8):
        for option in (["--max-n", str(max_n)], [f"--max-n={max_n}"]):
            with helpers.time_budget(5):
                assert main(["obstruction", *mode, *option, "--json"]) == 3
            out, err = capsys.readouterr()
            assert out == "" and err == (f"error: obstruction: --max-n {max_n} "
                                         f"exceeds the limit {limit}\n")


def test_samples_are_bounded(capsys, monkeypatch):
    # --samples 1000000000 would run for some 40 minutes, so past
    # SAMPLES_LIMIT the demo exits 3 before it draws, whether the option
    # table or argparse reads the argv (--samples=...)
    limit = promislow.SAMPLES_LIMIT
    assert limit == 10_000_000

    def no_draws(*args):
        raise AssertionError("drew past SAMPLES_LIMIT")
    monkeypatch.setattr(promislow, "_draw_indices", no_draws)
    for samples in (limit + 1, 10 ** 9):
        for option in (["--samples", str(samples)], [f"--samples={samples}"]):
            with helpers.time_budget(5):
                assert main(["promislow", *option, "--json"]) == 3
            out, err = capsys.readouterr()
            assert out == "" and err == (f"error: demo: samples {samples} "
                                         f"> limit {limit}\n")
    # the demo reads the constant on every call
    monkeypatch.undo()
    monkeypatch.setattr(promislow, "SAMPLES_LIMIT", 50)
    assert main(["promislow", "--samples", "50"]) == 0
    assert main(["promislow", "--samples", "51"]) == 3
    assert "error: demo: samples 51 > limit 50" in capsys.readouterr().err


def test_not_lo_needs_the_exponent_mode(capsys, group_file):
    for mode in (["--torsion-orders", "4"], ["--group", group_file(cyclic_group(5))]):
        assert main(["obstruction", *mode, "--not-lo"]) == 2
        assert "--not-lo applies only with --exponent" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--torsion-orders", "x"], ["--torsion-orders", "1"],
                                  ["--torsion-orders", "4, 1"], ["--exponent", "1"],
                                  ["--exponent", "4", "--max-n", "0"],
                                  ["--exponent", "4", "--max-n", "-3"]])
def test_obstruction_rejects_bad_numbers_as_usage_errors(capsys, argv):
    # exit 2 (invalid input) with a usage message, not exit 1 with a traceback,
    # nor exit 0 with an empty verdict table
    with pytest.raises(SystemExit) as exc:
        main(["obstruction", *argv])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["promislow", "--radius", "-1"],
                                  ["promislow", "--samples", "-3"],
                                  ["product-co", "--group", "g.json", "--n", "1"],
                                  ["product-co", "--group", "g.json", "--n", "x"],
                                  ["enumerate", "--group", "g.json", "--max-order", "-1"],
                                  ["product-co", "--group", "g.json", "--n", "3",
                                   "--max-order", "-1"]])
def test_bad_counts_are_usage_errors(capsys, argv):
    # a negative radius or order limit is bad input (exit 2), not an exceeded
    # bound (exit 3), and a negative sample count must not pass as a run with
    # no checks
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_obstruction_reports_a_failed_cross_check(capsys, group_file, monkeypatch):
    # spectrum_finite re-derives the gcd rule from the divisibility pipeline;
    # a pipeline that calls every class divisible must make it exit 1
    from circorder import obstruction
    from circorder.cohomology import DivisibilityWitness
    monkeypatch.setattr(obstruction, "is_n_divisible",
                        lambda G, f, n: DivisibilityWitness(True, None, None))
    assert main(["obstruction", "--group", group_file(cyclic_group(6))]) == 1
    assert "check failed" in capsys.readouterr().err


def test_promislow_demo(capsys):
    rc, payload = run_json(capsys, ["promislow", "--samples", "2000", "--seed", "7"])
    assert rc == 0
    assert payload["ok"] is True and payload["seed"] == 7
    assert payload["relators"] == {"abbAbb": True, "baaBaa": True}
    assert main(["promislow", "--radius", "9"]) == 3


def test_promislow_seed_determinism(capsys):
    rc1, p1 = run_json(capsys, ["promislow", "--samples", "1000", "--seed", "7"])
    rc2, p2 = run_json(capsys, ["promislow", "--samples", "1000", "--seed", "7"])
    assert (rc1, p1) == (rc2, p2)
    rc3, p3 = run_json(capsys, ["promislow", "--samples", "1000", "--seed", "8"])
    assert rc3 == 0 and p3["ok"] and p3 != p1


def test_human_readable_output(capsys, group_file):
    rc = main(["enumerate", "--group", group_file(cyclic_group(4))])
    out = capsys.readouterr().out
    assert rc == 0 and "2 circular ordering" in out


# Runs under `python -O`, where bare asserts vanish: a corrupted SNF (caught
# by the tests' verify_snf), a corrupted cached V of the relation matrix of
# G^ab that lifts a wrong P, corrupted word vectors, a corrupted cached
# V^-1 that breaks the exact division of the row-sum class coordinates, a
# corrupted cached V^-1 of Q's rows that moves a Z/n projection off its
# steps, and a corrupted row of Q that the lifted cocycle does not kill,
# must still raise CheckFailed, and the CLI must still exit 1 on it; a hand-built
# arrangement that is not left-invariant must still raise AxiomError, and a
# table that is not associative must still raise InvalidGroupError, also
# when its file rewrites one whose group load_group already keeps.
_CORRUPTED_CHECKS = r"""
import json, sys
from circorder import (AxiomError, CheckFailed, FiniteGroup, IntMatrix,
                       InvalidGroupError, arrangement_from_sequence, cli, cohomology,
                       cyclic_group, direct_product, dump_group, load_group,
                       orders, standard_order_zn, symmetric_group)
from helpers import inhom_to_hom_formula, loop130_table, verify_snf

def raises_check_failed(call, match=""):
    try:
        call()
    except CheckFailed as exc:
        return match in str(exc)
    return False

def axiom_failure(call):
    try:
        call()
    except AxiomError as exc:
        return exc.kind
    return None

snf = cohomology.smith_normal_form([[2, 0], [0, 3]])
snf.diagonal = (1, 5)
results = {"optimized": not __debug__,
           "verify": raises_check_failed(lambda: verify_snf(snf))}
G, f = cyclic_group(4), standard_order_zn(4)
comp = cohomology._Complex(G)
comp.V = IntMatrix([[-v for v in row] for row in comp.V.data])
results["is_trivial_mod_n"] = raises_check_failed(lambda: cohomology.is_trivial_mod_n(G, f, 3))
results["is_n_divisible"] = raises_check_failed(lambda: cohomology.is_n_divisible(G, f, 3),
                                                "S - n P is not divisible by |G|")
dump_group(G, sys.argv[1])
results["cli_exit"] = cli.main(["product-co", "--group", sys.argv[1], "--n", "3"])
cohomology._Complex.cache_clear()
cohomology._Complex(G).words[1] = (3,)
results["words"] = raises_check_failed(lambda: cohomology.is_n_divisible(G, f, 3),
                                       "S - n P is not divisible by |G|")
# on Z/4 the relation matrix is (4), so a_0 (V^-1 t)_0 / |G| is always
# exact; on S3 it is not, for the pullback of the Z/2 ordering along the
# sign map (the reflections are the elements of order 2)
cohomology._Complex.cache_clear()
S3 = symmetric_group(3)
sign = [S3.element_order(g) == 2 for g in range(S3.order)]
pulled = [[int(a and b) for b in sign] for a in sign]
comp = cohomology._Complex(S3)
results["e_0"] = comp.factors[0]
comp.Vinv.data[0][0] += 1
exact = "not divisible by |G|"
results["class_of_vinv"] = raises_check_failed(lambda: cohomology.class_of(S3, pulled), exact)
results["is_n_divisible_vinv"] = raises_check_failed(
    lambda: cohomology.is_n_divisible(S3, pulled, 3), exact)
# 3 is prime to |G| = 4, so H^2(G; Z/3) = 0 needs no matrix, but its projection
# still checks the cocycle identity mod 3
bad = [list(row) for row in f.values]
bad[1][1] += 1
results["coprime_non_cocycle"] = axiom_failure(
    lambda: cohomology.h2_structure(G, 3).project(bad))
# Light's test rejects this matrix at the generator 1, and the scan of all
# triples then reports the first failing one, whose last entry is 3; a scan
# that finds no failing triple or quadruple must raise without asserts
moved = [list(row) for row in f.values]
moved[3][3] += 1
failure = orders.cocycle_failure(G, moved)
results["light_fallback"] = [failure.kind, list(failure.witness)]
results["no_failing_triple"] = raises_check_failed(
    lambda: orders._first_identity_failure(G.table, f.values, None), "Light's test")
results["no_failing_quadruple"] = raises_check_failed(
    lambda: orders._hom_scans(G, inhom_to_hom_formula(G, f.values)), "not the chart")
# gcd(2, |G|) = 2, so Z/2 projects through Q's rows on the free generators
# of R.  On Z/2 x Z/2 the rank block of Q starts with a unit, so V^-1 c must
# be even there, and the pullback of the Z/2 ordering along the first
# factor lifts to a c that is odd somewhere: one more unit of V^-1 there
# moves the projection off its steps, and one more unit of a row of Q
# there leaves that row not killed by c
K = direct_product(cyclic_group(2), cyclic_group(2))
pulled = [[int(a // 2 and b // 2) for b in range(4)] for a in range(4)]
cohomology._Complex.cache_clear()
H = cohomology.h2_structure(K, 2)
data = cohomology._Complex(K).schreier
odd = [j for j, v in enumerate(cohomology._Complex(K).lift(pulled)) if v % 2][0]
results["schreier_torsion_0"] = data.torsion[0]
data.vinv.data[0][odd] += 1
results["schreier_vinv"] = raises_check_failed(lambda: H.project(pulled), "off its steps")
cohomology._Complex.cache_clear()
H = cohomology.h2_structure(K, 2)
cohomology._Complex(K).schreier.rows.data[0][odd] += 1
results["schreier_rows"] = raises_check_failed(lambda: H.project(pulled), "does not kill")
# B presents G^ab as A does, so B's Smith diagonal must be A's factors
# (2, 2): a corrupted factor, set after the presentation is built, fails
# the Schreier data
cohomology._Complex.cache_clear()
comp = cohomology._Complex(K)
comp.factors = comp.factors[:-1] + (4,)
results["schreier_factors"] = raises_check_failed(lambda: comp.schreier, "B's Smith diagonal")
# arrangement_from_sequence is the one check of a sequence, and the views
# it builds are trusted, so it must hold without asserts: (0, 1, 3, 2) is a
# permutation from the identity whose positions are not a homomorphism
# onto Z/4
results["arrangement_from_sequence"] = axiom_failure(
    lambda: arrangement_from_sequence(G, (0, 1, 3, 2)))
# Light's associativity test must reject a table that is not a group, at
# every order, without asserts
try:
    FiniteGroup(loop130_table())
    results["loop130"] = None
except InvalidGroupError as exc:
    results["loop130"] = str(exc).split(":")[0]
# load_group keeps a group per file text, so a file rewritten in place as
# loop130 after its group was kept must still fail Light's test
load_group(sys.argv[1])
with open(sys.argv[1], "w") as fh:
    json.dump({"name": "loop130", "table": loop130_table()}, fh)
try:
    load_group(sys.argv[1])
    results["rewritten_loop130"] = None
except InvalidGroupError as exc:
    results["rewritten_loop130"] = str(exc).split(":")[0]
results["rewritten_loop130_exit"] = cli.main(["enumerate", "--group", sys.argv[1]])
print(json.dumps(results))
"""


def test_each_ordering_is_checked_once(monkeypatch, group_file):
    # the cocycle identity check runs once per object it proves: an ordering
    # from an arrangement is proved by the enumeration's walk, and
    # the witness mu by its entry check, so product-co never runs it, and
    # class_of trusts an ordering; a raw matrix is checked on every call
    calls = []
    inner = orders._identity_failure
    monkeypatch.setattr(orders, "_identity_failure",
                        lambda *args: calls.append(args) or inner(*args))

    def count(call):
        calls.clear()
        call()
        return len(calls)

    path = group_file(cyclic_group(10))
    assert count(lambda: main(["product-co", "--group", path, "--n", "3"])) == 0
    G, f = cyclic_group(4), standard_order_zn(4)
    raw = [list(row) for row in f.values]
    assert count(lambda: class_of(G, f)) == 0
    assert count(lambda: class_of(G, raw)) == 1
    # [f] generates H^2(Z/4; Z) = Z/4, so it is not 2-divisible: no mu to check
    assert count(lambda: is_n_divisible(G, raw, 2)) == 1
    assert count(lambda: is_n_divisible(G, raw, 3)) == 1   # raw only, not mu
    assert count(lambda: is_n_divisible(G, f, 3)) == 0


def test_each_arrangement_is_checked_once(monkeypatch, group_file):
    # a generator's powers that cover G always form an ordering of an
    # associative table, so the enumeration's walk proves each arrangement,
    # and the CLI runs no sequence check: the only walks are the first
    # enumeration's on each group, one from each element, which the group
    # keeps, so a later question on the same file walks none
    checks, walks = [], []
    inner = orders.arrangement_from_sequence
    for module in (orders, extensions):
        monkeypatch.setattr(module, "arrangement_from_sequence",
                            lambda G, seq: checks.append(tuple(seq)) or inner(G, seq))
    walk = orders._powers
    monkeypatch.setattr(orders, "_powers", lambda G, z: walks.append(z) or walk(G, z))
    G = cyclic_group(8)   # within obstruction.SPECTRUM_VERIFY_LIMIT
    assert len(enumerate_circular_orders(G)) == 4
    assert checks == [] and walks == list(range(8))
    walks.clear()
    assert len(enumerate_circular_orders(G)) == 4
    assert checks == [] and walks == []
    path = group_file(G)
    groups._group_from_bytes.cache_clear()
    for argv, walked in ((["enumerate", "--group", path], list(range(8))),
                         (["obstruction", "--group", path], []),
                         (["product-co", "--group", path, "--n", "3"], [])):
        walks.clear()
        assert main(argv) == 0
        assert checks == [] and walks == walked


def _run_python(flags, script, *args):
    """Run `script` in a fresh interpreter with `flags`, circorder and the
    test helpers importable."""
    return subprocess.run([sys.executable, *flags, "-c", script, *args],
                          env=_python_env(), capture_output=True, text=True, timeout=120)


def _python_env() -> dict:
    """The environment with circorder and the test helpers importable."""
    src = str(Path(circorder.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, tests, os.environ.get("PYTHONPATH")) if p))


def test_in_process_answers_match_a_fresh_process(tmp_path, capsys):
    # the integral benchmark's questions on one relabeled group, asked in one
    # process where the group and its complex are cached after the first,
    # print what each prints in a fresh interpreter
    G = helpers.relabeled(cyclic_group(6), [0, 5, 3, 1, 4, 2])
    path = str(tmp_path / "z6.json")
    dump_group(G, path)
    questions = [["enumerate", "--group", path],
                 *(["product-co", "--group", path, "--n", str(n)] for n in range(2, 9)),
                 ["obstruction", "--group", path]]
    groups._group_from_bytes.cache_clear()
    _Complex.cache_clear()
    for argv in questions:
        assert main(argv + ["--json"]) == 0
        fresh = subprocess.run([sys.executable, "-m", "circorder.cli", *argv, "--json"],
                               env=_python_env(), capture_output=True, text=True,
                               timeout=120)
        assert fresh.returncode == 0, fresh.stderr
        assert capsys.readouterr().out == fresh.stdout, argv


def test_kept_orderings_answer_as_before_in_either_order(tmp_path, capsys):
    # every question of the integral benchmark (enumerate, product-co for
    # n = 2..8, obstruction) on the library groups and one relabeling of
    # each, asked in one process in the benchmark's order and then, from
    # cold caches, in reverse, so that each kind of question is both the
    # first and a later one on its group.  One sha256 pins every exit code
    # and standard output, recorded while each question still enumerated
    # its group's orderings and built their views afresh
    rng = random.Random(42)
    questions = []
    for i, G in enumerate(helpers.library_groups()):
        perm = [0] + rng.sample(range(1, G.order), G.order - 1)
        for j, H in enumerate((G, helpers.relabeled(G, perm))):
            path = str(tmp_path / f"g{i}-{j}.json")
            dump_group(H, path)
            questions += [["enumerate", "--group", path],
                          *(["product-co", "--group", path, "--n", str(n)] for n in range(2, 9)),
                          ["obstruction", "--group", path]]
    record = []
    for order in (questions, questions[::-1]):
        groups._group_from_bytes.cache_clear()
        _Complex.cache_clear()
        for argv in order:
            record.append((main(argv + ["--json"]), capsys.readouterr().out))
    assert len(record) == 648 and sum(rc == 3 for rc, _ in record) == 56
    digest = hashlib.sha256(repr(record).encode()).hexdigest()
    assert digest == "b08ac3bf7590c46fffcb7c30a5768cf725e9ef3baff46b96571b983790d5be15"


def test_checks_survive_python_O(tmp_path):
    proc = _run_python(["-O"], _CORRUPTED_CHECKS, str(tmp_path / "z4.json"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"optimized": True, "verify": True,
                                       "is_trivial_mod_n": True,
                                       "is_n_divisible": True, "cli_exit": 1,
                                       "words": True, "e_0": 1, "class_of_vinv": True,
                                       "is_n_divisible_vinv": True,
                                       "coprime_non_cocycle": "cocycle",
                                       "light_fallback": ["cocycle", [1, 2, 3]],
                                       "no_failing_triple": True, "no_failing_quadruple": True,
                                       "schreier_torsion_0": 1, "schreier_vinv": True,
                                       "schreier_rows": True, "schreier_factors": True,
                                       "arrangement_from_sequence": "invariance",
                                       "loop130": "associativity fails at (1,1,1)",
                                       "rewritten_loop130": "associativity fails at (1,1,1)",
                                       "rewritten_loop130_exit": 2}
    assert "check failed" in proc.stderr


_CORRUPTED_VIEWS = r"""
import json
from functools import cached_property
from circorder import CheckFailed, orders, standard_order_zn
from helpers import inhom_to_hom_formula

f = standard_order_zn(4)
raw = {"validate_inhom": f.values, "validate_hom": inhom_to_hom_formula(f.group, f.values)}

def swapped(build):   # the builder with its last two rows or planes swapped
    def values(*args):
        v = build(*args)
        return v[:-2] + (v[-1], v[-2])
    return values

cls = orders.InhomCircularOrder
cls.values = cached_property(swapped(cls.values.func))
cls.values.__set_name__(cls, "values")
orders._chart = swapped(orders._chart)
results = {"optimized": not __debug__}
for name, values in raw.items():
    try:
        getattr(orders, name)(f.group, values)
        results[name] = None
    except CheckFailed as exc:
        results[name] = str(exc)
print(json.dumps(results))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_corrupted_views_fail_the_validators(flags):
    # each validator reads pos off the matrix it has checked and requires the
    # view or chart built from pos to give the matrix back, without asserts
    proc = _run_python(flags, _CORRUPTED_VIEWS)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "optimized": flags == ["-O"],
        "validate_inhom": "validate_inhom: the ordering is not the carry bit of its row sums",
        "validate_hom": "validate_hom: the ordering is not the chart of its positions"}


_CORRUPTED_U = r"""
from circorder import CheckFailed, cohomology, cyclic_group
# on Z/4, the carry bit of 2 pos: chi_f = 2 chi, 2-divisible by P = pos;
# moving the word vector of 1 to (3,) makes P(1) = 3, so u(1) = (S - 2 P)
# / 4 is still exact but one less, and f - d1 u goes odd
G = cyclic_group(4)
f = [[int(2 * g % 4 + 2 * h % 4 >= 4) for h in range(4)] for g in range(4)]
assert cohomology.is_n_divisible(G, f, 2).coboundary_of == [0, -1, -1]
cohomology._Complex(G).words[1] = (3,)
try:
    cohomology.is_n_divisible(G, f, 2)
except CheckFailed as exc:
    print(exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_corrupted_u_fails_the_witness_check(flags):
    # no cocycle check runs on mu: the entry check n | f - d1 u, with f a
    # cocycle, proves it one, and it must catch a wrong u without asserts
    proc = _run_python(flags, _CORRUPTED_U)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "f - d1 u is not divisible by n"
