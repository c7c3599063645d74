import gc
import itertools
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from circorder import cli, groups
from circorder.errors import BoundExceeded, InvalidGroupError
from circorder.groups import (FiniteGroup, GroupHom, closure, cyclic_group,
                              dihedral_group, direct_product, dump_group,
                              group_from_json, is_normal, is_subgroup, load_group,
                              quotient, subgroup_generated, symmetric_group)
from circorder.orders import standard_order_zn

import helpers
from helpers import all_subgroups, find_isomorphism, library_groups, relabeled


def test_cyclic_group_tables():
    assert cyclic_group(1).order == 1
    c4 = cyclic_group(4)
    assert c4.table[2][3] == 1
    assert cyclic_group(6).inverse[2] == 4
    with pytest.raises(InvalidGroupError):
        cyclic_group(0)


@pytest.mark.parametrize("build", [cyclic_group, standard_order_zn, dihedral_group,
                                   symmetric_group])
@pytest.mark.parametrize("k", [True, 2.0, None, "3", 0])
def test_cyclic_order_must_be_an_int(build, k):
    # True and 2.0 compare equal to ints, but an order is an exact int;
    # 0 is bad input, not a size past a table bound
    with pytest.raises(InvalidGroupError, match="is not an int >= 1"):
        build(k)


def test_symmetric_group_bound():
    assert symmetric_group(4).order == 24
    with pytest.raises(BoundExceeded):
        symmetric_group(5)


def test_every_library_group_passes_exhaustive_axioms():
    for G in library_groups():
        G.validate()
        assert helpers.associativity_failure(G.table) is None
        for g in range(G.order):
            assert G.table[0][g] == g and G.table[g][0] == g
            assert G.table[g][G.inverse[g]] == 0


def test_direct_product_layout():
    # (g, h) sits at index g*|H| + h, checked entry by entry with a
    # non-abelian left factor so that a swapped layout cannot pass
    G, H = symmetric_group(3), cyclic_group(4)
    m = H.order
    P = direct_product(G, H)
    assert P.order == G.order * m
    for g1 in range(G.order):
        for h1 in range(m):
            assert P.names[g1 * m + h1] == f"({G.names[g1]},{H.names[h1]})"
            for g2 in range(G.order):
                for h2 in range(m):
                    assert P.table[g1 * m + h1][g2 * m + h2] == \
                        G.table[g1][g2] * m + H.table[h1][h2]

    c2, c3 = cyclic_group(2), cyclic_group(3)
    assert find_isomorphism(direct_product(c2, c3), cyclic_group(6)) is not None
    klein = direct_product(c2, c2)
    assert klein.exponent() == 2
    triv = direct_product(cyclic_group(1), c3)
    assert triv.table == c3.table


def test_direct_product_size_guard():
    big = cyclic_group(70)
    with pytest.raises(BoundExceeded):
        direct_product(big, big)


def test_quotient_examples():
    c6 = cyclic_group(6)
    res = quotient(c6, {0, 3})
    assert res.group.order == 3
    assert res.projection.is_surjective()
    res_triv = quotient(c6, {0})
    assert find_isomorphism(res_triv.group, c6) is not None

    c4xc2 = direct_product(cyclic_group(4), cyclic_group(2))
    # <(2,0)> has index 0-based element 2*2+0 = 4
    res2 = quotient(c4xc2, closure(c4xc2, {4}))
    assert res2.group.order == 4
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert find_isomorphism(res2.group, klein) is not None


def test_quotient_error_kinds_are_distinct():
    c6 = cyclic_group(6)
    with pytest.raises(InvalidGroupError, match="not a subgroup"):
        quotient(c6, {0, 2})  # not closed: 2+2=4 missing
    s3 = symmetric_group(3)
    transposition = next(g for g in range(6) if s3.element_order(g) == 2)
    sub = closure(s3, {transposition})
    assert is_subgroup(s3, sub) and not is_normal(s3, sub)
    with pytest.raises(InvalidGroupError, match="not normal"):
        quotient(s3, sub)


def test_subset_elements_are_range_checked():
    # -1 used to pass as the last row, and 9 escaped as an IndexError
    c2, c4 = cyclic_group(2), cyclic_group(4)
    for G, subset in ((c2, [0, 1, -1]), (c4, [0, 9]), (c4, [9]), (c4, [0, 2, -2])):
        for check in (is_subgroup, is_normal, closure, subgroup_generated, quotient):
            with pytest.raises(InvalidGroupError, match="out of range"):
                check(G, subset)
    with pytest.raises(InvalidGroupError, match="^quotient: element 9 out of range"):
        quotient(c4, [0, 9])
    assert closure(c4, iter([1])) == frozenset(range(4))   # gens read once


def test_is_normal_needs_a_subgroup():
    # {0, 1} is closed under conjugation in Z/4 but is not a subgroup
    c4 = cyclic_group(4)
    assert not is_subgroup(c4, {0, 1}) and not is_normal(c4, {0, 1})
    assert not is_normal(c4, {1}) and is_normal(c4, {0, 2})


def test_subgroup_generated():
    c6 = cyclic_group(6)
    res = subgroup_generated(c6, {2})
    assert res.group.order == 3
    assert res.embedding.is_injective()
    assert subgroup_generated(c6, set()).group.order == 1
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert subgroup_generated(klein, {1, 2}).group.order == 4
    # quotient/embedding composition contracts
    for G in library_groups():
        if G.order > 8:
            continue
        sub = subgroup_generated(G, {g for g in range(G.order) if G.is_central(g)})
        assert sub.embedding.is_injective()


def test_quotient_and_embedding_hom_properties_across_library():
    for G in library_groups():
        if G.order > 8:
            continue
        for sub in all_subgroups(G):
            res = subgroup_generated(G, sub)
            assert res.embedding.is_injective()
            assert res.group.order == len(sub)
            if is_normal(G, sub):
                q = quotient(G, sub)
                assert q.projection.is_surjective()
                assert q.group.order * len(sub) == G.order


def test_element_order_and_exponent():
    assert cyclic_group(6).element_order(4) == 3
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert klein.exponent() == 2
    assert cyclic_group(12).exponent() == 12


def test_element_order_and_power_match_brute_right_multiplication():
    # e, g, g*g, ... by right multiplication, with no early stop: the order
    # is the first return to the identity, and power(g, k) the k-th entry
    for G in library_groups():
        for g in range(G.order):
            chain = [0]
            for _ in range(2 * G.order):
                chain.append(G.table[chain[-1]][g])
            t = chain.index(0, 1)
            assert G.element_order(g) == t, (G.name, g)
            assert [G.power(g, k) for k in range(2 * G.order + 1)] == chain
            assert all(G.table[G.power(g, -k)][chain[k]] == 0 for k in range(2 * G.order + 1))


def test_find_isomorphism():
    c2, c3 = cyclic_group(2), cyclic_group(3)
    iso = find_isomorphism(direct_product(c2, c3), cyclic_group(6))
    assert iso is not None and iso.is_bijective()
    assert find_isomorphism(cyclic_group(4),
                            direct_product(c2, c2)) is None
    s3 = symmetric_group(3)
    ident = find_isomorphism(s3, s3)
    assert ident is not None
    # deterministic: same call, same map
    assert find_isomorphism(s3, s3).map == ident.map
    with pytest.raises(BoundExceeded):
        find_isomorphism(cyclic_group(30), cyclic_group(30))
    # S3 and Z/6 have equal order but are not isomorphic
    assert find_isomorphism(s3, cyclic_group(6)) is None


def test_isomorphism_bound_is_the_module_constant(monkeypatch):
    assert find_isomorphism(cyclic_group(24), cyclic_group(24)) is not None
    for G, H in ((cyclic_group(25), cyclic_group(25)), (cyclic_group(2), cyclic_group(25))):
        with pytest.raises(BoundExceeded):
            find_isomorphism(G, H)
    monkeypatch.setattr(helpers, "ISOMORPHISM_ORDER_LIMIT", 5)
    assert find_isomorphism(cyclic_group(5), cyclic_group(5)) is not None
    with pytest.raises(BoundExceeded):
        find_isomorphism(cyclic_group(6), cyclic_group(6))


def test_find_isomorphism_respects_structure():
    d4 = dihedral_group(4)
    q_ish = direct_product(cyclic_group(4), cyclic_group(2))
    assert find_isomorphism(d4, q_ish) is None


def test_find_isomorphism_against_brute_force():
    from itertools import permutations

    def brute_isomorphic(G, H):
        if G.order != H.order:
            return False
        for tail in permutations(range(1, G.order)):
            p = (0,) + tail
            if all(p[G.table[a][b]] == H.table[p[a]][p[b]]
                   for a in range(G.order) for b in range(G.order)):
                return True
        return False

    small = [G for G in library_groups() if G.order <= 6]
    for G in small:
        for H in small:
            assert (find_isomorphism(G, H) is not None) == brute_isomorphic(G, H), \
                (G.name, H.name)


def semidirect_z4_z4() -> FiniteGroup:
    """Z/4 x| Z/4, b acting on a by inversion: (i, j)(k, l) = (i + (-1)^j k, j + l)."""
    elems = [(i, j) for i in range(4) for j in range(4)]
    index = {e: x for x, e in enumerate(elems)}
    return FiniteGroup([[index[((i + (k if j % 2 == 0 else -k)) % 4, (j + l) % 4)]
                         for (k, l) in elems] for (i, j) in elems], name="Z/4x|Z/4")


def test_find_isomorphism_exhausts_the_generator_images():
    # equal element-order profiles (1, 3 of order 2, 12 of order 4), yet one
    # group is abelian and the other is not: every image tuple must fail
    S, Z = semidirect_z4_z4(), direct_product(cyclic_group(4), cyclic_group(4))
    profile = lambda G: sorted(G.element_order(g) for g in range(G.order))
    assert profile(S) == profile(Z) and not S.is_abelian()
    assert find_isomorphism(S, Z) is None
    assert find_isomorphism(Z, S) is None


def test_find_isomorphism_returns_the_first_generator_images():
    d4 = dihedral_group(4)
    G = relabeled(d4, (0, 5, 3, 7, 1, 6, 2, 4))
    assert find_isomorphism(G, d4).map == (0, 4, 6, 2, 5, 3, 7, 1)
    assert find_isomorphism(d4, G).map == (0, 5, 3, 7, 1, 6, 2, 4)


def test_all_subgroups_counts():
    assert len(all_subgroups(cyclic_group(12))) == 6  # one per divisor
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert len(all_subgroups(klein)) == 5
    z4z4 = direct_product(cyclic_group(4), cyclic_group(4))
    assert len(all_subgroups(z4z4)) == 15


def test_subset_elements_must_be_ints():
    c4 = cyclic_group(4)
    for check, subset in ((is_subgroup, [0, 2.0]), (closure, [1.0]), (quotient, [0, 2.0]),
                          (is_subgroup, [0, True]), (is_normal, [0, True]),
                          (subgroup_generated, [True])):
        bad = next(g for g in subset if type(g) is not int)
        with pytest.raises(InvalidGroupError, match=f"{bad!r} out of range"):
            check(c4, subset)


def test_subset_elements_are_checked_before_the_set_merges_them():
    # True == 1 and hash(True) == hash(1): a set built first keeps whichever
    # comes first, so the verdict used to depend on the position of True
    c2 = cyclic_group(2)
    for check in (is_subgroup, is_normal, quotient):
        for subset in ([0, 1, True], [0, True, 1], (g for g in [0, 1, True])):
            with pytest.raises(InvalidGroupError, match="True out of range"):
                check(c2, subset)
    assert is_subgroup(c2, iter([0, 1])) and is_normal(c2, (g for g in [0, 1]))
    assert quotient(cyclic_group(4), iter([0, 2])).group.order == 2


def test_group_json_round_trip(tmp_path):
    for G in (cyclic_group(5), symmetric_group(3)):
        path = tmp_path / "g.json"
        dump_group(G, path)
        again = load_group(path)
        assert again == G and again.names == G.names


@pytest.mark.parametrize("bad", [True, 1.0, -1, 3, "1"])
def test_index_check_names_the_first_bad_cell(bad):
    # each row is checked whole (types, min and max) and scanned only when it
    # fails, so the message names the first bad cell, as a scan of every
    # entry did; a bad cell in a later row is not reached
    table = [list(row) for row in cyclic_group(3).table]
    table[1][0], table[1][2], table[2][0] = 1, bad, 7
    with pytest.raises(InvalidGroupError,
                       match=re.escape(f"table[1][2] = {bad!r} is not an index in 0..2")):
        FiniteGroup(table)


def test_group_json_diagnostics(tmp_path):
    with pytest.raises(InvalidGroupError, match="table"):
        group_from_json({"order": 2})
    with pytest.raises(InvalidGroupError, match="order"):
        group_from_json({"order": 3, "table": [[0, 1], [1, 0]]})
    with pytest.raises(InvalidGroupError, match=r"table\[1\]\[1\]"):
        group_from_json({"table": [[0, 1], [1, 7]]})
    # JSON true equals 1 in Python, but a boolean is not an element index
    with pytest.raises(InvalidGroupError, match=r"table\[0\]\[1\] = True"):
        group_from_json({"table": [[0, True], [True, False]]})
    with pytest.raises(InvalidGroupError, match="identity"):
        group_from_json({"table": [[1, 0], [0, 1]]})
    with pytest.raises(InvalidGroupError, match="names"):
        group_from_json({"table": [[0, 1], [1, 0]], "names": ["only-one"]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidGroupError):
        load_group(bad)


@pytest.mark.parametrize("order", [True, 2.0, "2"])
def test_group_json_order_must_be_an_int(tmp_path, order):
    # true == 1 and 2.0 == 2 in Python, but neither is a count; the message
    # shows the value as written, so "2" is not printed as 2
    data = {"order": order, "table": [[0]] if order is True else [[0, 1], [1, 0]]}
    with pytest.raises(InvalidGroupError, match=re.escape(f"'order' = {order!r} but")):
        group_from_json(data)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    assert cli.main(["enumerate", "--group", str(path)]) == 2


def test_load_group_checks_each_file_text_once(tmp_path):
    # the cache is keyed by the file's bytes, never its path or mtime: the
    # same bytes give the same group, a rewritten file is read and checked
    # again, and a file that fails raises on every load, naming its path
    cache = groups._group_from_bytes
    cache.cache_clear()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_group(cyclic_group(4), a)
    dump_group(cyclic_group(4), b)
    G = load_group(a)
    assert load_group(a) is G and load_group(b) is G
    dump_group(symmetric_group(3), a)
    assert load_group(a) == symmetric_group(3) and load_group(b) is G
    assert cache.cache_info().currsize == 2
    for bad, message in ((json.dumps({"table": helpers.loop130_table()}),
                          r"associativity fails at \(1,1,1\)"),
                         ('{"table": [[0, 1], [1, 7]]}', r"table\[1\]\[1\]")):
        dump_group(cyclic_group(4), a)
        assert load_group(a) is G
        a.write_text(bad)
        for _ in range(2):
            with pytest.raises(InvalidGroupError, match=message):
                load_group(a)
    a.write_text("{not json")
    for _ in range(2):
        with pytest.raises(InvalidGroupError, match=re.escape(f"group JSON: {a}: ")):
            load_group(a)
    assert cache.cache_info().currsize == 2
    cache.cache_clear()
    assert cache.cache_info().currsize == 0
    again = load_group(b)
    assert again == G and again is not G


def test_load_group_keeps_a_bounded_number_of_groups(tmp_path):
    # the cache keeps the 32 most recently read file contents: after 100
    # distinct relabeled Z/64 files, 6.9 MB stayed allocated when it kept
    # every group and 2.2 MB with 32 kept (tracemalloc, Python 3.11)
    cache = groups._group_from_bytes
    cache.cache_clear()
    rng = random.Random(64)
    paths = [tmp_path / f"z64_{i}.json" for i in range(100)]
    for path in paths:
        dump_group(relabeled(cyclic_group(64), [0, *rng.sample(range(1, 64), 63)]), path)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for path in paths:
            load_group(path)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cache.cache_info().currsize == 32
    assert kept < 3_500_000, f"{kept} bytes kept"
    cache.cache_clear()


def test_load_group_reads_newlines_as_text_mode_does(tmp_path):
    # a file is read as bytes and decoded as UTF-8 with CRLF and a lone CR
    # read as LF, as text mode reads them: the same group, and the same
    # diagnostics, whose lines and columns count LFs.  The messages are
    # those the text-mode reader gave, recorded with Python 3.11
    lf = tmp_path / "lf.json"
    dump_group(dihedral_group(3), lf)
    text = lf.read_bytes()
    assert text.count(b"\n") > 1 and b"\r" not in text
    G = load_group(lf)
    path = tmp_path / "g.json"
    for newline in (b"\r\n", b"\r"):
        path.write_bytes(text.replace(b"\n", newline))
        H = load_group(path)
        assert H is not G and (H.table, H.names, H.name) == (G.table, G.names, G.name)
        path.write_bytes(b'{\n "table":\n  [[0]],\n {not json\n}'.replace(b"\n", newline))
        with pytest.raises(InvalidGroupError) as err:
            load_group(path)
        assert str(err.value) == (f"group JSON: {path}: Expecting property name enclosed "
                                  "in double quotes: line 4 column 2 (char 22)")
    for content, message in (
            ('{"table": [[0]]}'.encode("utf-16"),
             "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            ('{"table": [[0]]}'.encode("utf-8-sig"),
             "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
            (b'{"table": [[0]], "name": "a\r\nb"}',
             "Invalid control character at: line 1 column 28 (char 27)")):
        path.write_bytes(content)
        with pytest.raises(InvalidGroupError) as err:
            load_group(path)
        assert str(err.value) == f"group JSON: {path}: {message}"


def test_associativity_diagnostic():
    # a latin square with identity and inverses that is not associative:
    # (1*1)*2 = 0*2 = 2 but 1*(1*2) = 1*3 = 4
    table = [[0, 1, 2, 3, 4],
             [1, 0, 3, 4, 2],
             [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1],
             [4, 3, 1, 2, 0]]
    with pytest.raises(InvalidGroupError, match="associativity"):
        FiniteGroup(table)


def _named_triple(message: str) -> tuple:
    g, h, k = re.search(r"associativity fails at \((\d+),(\d+),(\d+)\)", message).groups()
    return int(g), int(h), int(k)


def _fails_at(table, g, h, k) -> bool:
    return table[table[g][h]][k] != table[g][table[h][k]]


def test_loop130_is_rejected_at_every_order(tmp_path):
    # latin, with identity and inverses, but not associative, and past the
    # order (128) up to which associativity used to be checked
    table = helpers.loop130_table()
    assert helpers.associativity_failure(table) is not None
    path = tmp_path / "loop130.json"
    path.write_text(json.dumps({"name": "loop130", "table": table}))
    with pytest.raises(InvalidGroupError, match="associativity") as err:
        load_group(path)
    assert _named_triple(str(err.value)) == (1, 1, 1)
    assert _fails_at(table, 1, 1, 1)


def _loop_cases():
    # library tables and products that have intercalates (Z/odd has none)
    tables = [G.table for G in library_groups()]
    tables += [direct_product(symmetric_group(3), cyclic_group(2)).table,
               direct_product(dihedral_group(4), cyclic_group(2)).table,
               direct_product(cyclic_group(4), cyclic_group(4)).table]
    return [(t, cells) for t in tables for cells in [helpers.intercalates(t)] if cells]


_LOOP_CASES = _loop_cases()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_light_test_agrees_with_the_cubic_check(data):
    # up to two intercalate swaps keep every group axiom but associativity,
    # which they may or may not break: Light's test and the O(|G|^3) oracle
    # must accept together, and reject together at a triple that fails
    table, cells = data.draw(st.sampled_from(_LOOP_CASES))
    for cell in data.draw(st.lists(st.sampled_from(cells), max_size=2)):
        if helpers.is_intercalate(table, *cell):   # the first swap may break it
            table = helpers.swap_intercalate(table, *cell)
    oracle = helpers.associativity_failure(table)
    try:
        FiniteGroup(table)
    except InvalidGroupError as exc:
        assert oracle is not None
        assert _fails_at(table, *_named_triple(str(exc)))
    else:
        assert oracle is None


def _accepts(table) -> bool:
    try:
        FiniteGroup(table)
    except InvalidGroupError:
        return False
    return True


def test_group_check_agrees_with_every_axiom_on_small_tables():
    # the identity, right inverses and Light's test accept exactly the
    # tables that the literal scans of every group axiom accept: all
    # tables of order <= 3 whose row 0 and column 0 are the identity
    checked = 0
    for n in range(1, 4):
        cells = [(g, h) for g in range(1, n) for h in range(1, n)]
        for entries in itertools.product(range(n), repeat=len(cells)):
            table = [list(range(n))] + [[g] + [0] * (n - 1) for g in range(1, n)]
            for (g, h), v in zip(cells, entries):
                table[g][h] = v
            assert _accepts(table) == (helpers.group_axiom_failure(table) is None), table
            checked += 1
    assert checked == 1 + 2 + 3 ** 4


_LIBRARY_TABLES = [G.table for G in library_groups()]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_group_check_agrees_with_every_axiom_on_perturbed_tables(data):
    # one cell changed, two rows swapped or an intercalate swapped in a
    # library table: FiniteGroup accepts exactly when no axiom fails
    table = [list(row) for row in data.draw(st.sampled_from(_LIBRARY_TABLES))]
    n = len(table)
    change = data.draw(st.sampled_from(["cell", "rows", "intercalate"]))
    if change == "cell":
        g, h, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        table[g][h] = v
    elif change == "rows":
        g, h = (data.draw(st.integers(0, n - 1)) for _ in range(2))
        table[g], table[h] = table[h], table[g]
    elif cells := helpers.intercalates(table):
        table = helpers.swap_intercalate(table, *data.draw(st.sampled_from(cells)))
    assert _accepts(table) == (helpers.group_axiom_failure(table) is None)


def test_hom_validation():
    c2, c4 = cyclic_group(2), cyclic_group(4)
    with pytest.raises(InvalidGroupError):
        GroupHom(c4, c2, [0, 1, 1, 0])  # 1+1 -> 0 but images give 1+1=0: check
    ok = GroupHom(c4, c2, [0, 1, 0, 1])
    assert ok.is_surjective() and not ok.is_injective()


def test_hom_images_must_be_ints():
    # unchecked, 1.0 fails as a tuple index and True passes as the image 1
    c2 = cyclic_group(2)
    for bad in (1.0, True):
        with pytest.raises(InvalidGroupError, match=rf"map\[1\] = {bad!r}"):
            GroupHom(c2, c2, [0, bad])
