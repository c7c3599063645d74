import json
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from circorder import extensions, groups, orders
from circorder.errors import AxiomError, BoundExceeded, InvalidGroupError
from circorder.extensions import hat_ordering
from circorder.groups import (cyclic_group, dihedral_group, direct_product, GroupHom,
                              group_to_json, symmetric_group)
from circorder.orders import (Arrangement, InhomCircularOrder,
                              arrangement_from_sequence, arrangement_to_inhom,
                              enumerate_circular_orders,
                              ordering_from_json, ordering_to_json,
                              standard_order_zn, validate_hom, validate_inhom)

from helpers import (_cyclic_value, brute_force_arrangements, euler_phi,
                     hom_to_inhom_formula, inhom_to_hom_formula,
                     left_order_from_cone, lexicographic_order_finite, library_groups,
                     quartic_hom_failure, relabeled, rotation_positions, time_budget)


def all_orderings(G):
    return [arrangement_to_inhom(a) for a in enumerate_circular_orders(G)]


def hom_of(view):
    """The homogeneous form of an ordering view, by the conversion formula."""
    f = arrangement_to_inhom(view) if isinstance(view, Arrangement) else view
    return inhom_to_hom_formula(f.group, f.values)


def hom_json(view) -> dict:
    """The ordering file of kind "hom" for a view, as read from disk."""
    return {"group": group_to_json(view.group), "kind": "hom",
            "data": [[list(p) for p in r] for r in hom_of(view)]}


# -- validation ---------------------------------------------------------------

def test_validate_inhom_accepts_z2_order():
    f = validate_inhom(cyclic_group(2), [[0, 0], [0, 1]])
    assert f(1, 1) == 1


def test_validate_inhom_error_kinds():
    c2, c3 = cyclic_group(2), cyclic_group(3)
    with pytest.raises(AxiomError) as err:
        validate_inhom(c2, [[0, 0], [0, 0]])
    assert err.value.kind == "inverse-pair" and err.value.witness == (1,)
    with pytest.raises(AxiomError) as err:
        validate_inhom(c2, [[0, 1], [0, 1]])
    assert err.value.kind == "normalization"
    with pytest.raises(AxiomError) as err:
        validate_inhom(c2, [[0, 0], [0, 2]])
    assert err.value.kind == "value-range"
    with pytest.raises(AxiomError) as err:
        validate_inhom(c3, [[0, 0, 0], [0, 1, 1], [0, 1, 1]])
    assert err.value.kind == "cocycle" and len(err.value.witness) == 3
    with pytest.raises(AxiomError) as err:
        validate_inhom(c3, [[0, 0], [0, 1]])
    assert err.value.kind == "shape"


def test_validate_inhom_standard_orders():
    for n in range(1, 9):
        f = standard_order_zn(n)   # built from its arrangement, unvalidated
        assert validate_inhom(f.group, f.values).values == f.values


def test_validate_hom_accepts_arrangement_order():
    c3 = cyclic_group(3)
    arr = arrangement_from_sequence(c3, (0, 1, 2))
    assert validate_hom(c3, hom_of(arr)) == arrangement_to_inhom(arr)


def test_validate_hom_error_kinds():
    c3 = cyclic_group(3)
    good = hom_of(arrangement_from_sequence(c3, (0, 1, 2)))
    broken = [[list(p) for p in r] for r in good]
    broken[0][1][2] = 0
    with pytest.raises(AxiomError) as err:
        validate_hom(c3, broken)
    assert err.value.kind == "vanishing"

    # a total non-invariant function on the Klein group: no circular ordering
    # exists there, so any arrangement-induced triple function must fail
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    pos = {g: g for g in range(4)}
    values = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for g1 in range(4):
        for g2 in range(4):
            for g3 in range(4):
                if g1 != g2 and g2 != g3 and g1 != g3:
                    d2 = (pos[g2] - pos[g1]) % 4
                    d3 = (pos[g3] - pos[g1]) % 4
                    values[g1][g2][g3] = 1 if d2 < d3 else -1
    with pytest.raises(AxiomError) as err:
        validate_hom(klein, values)
    assert err.value.kind == "invariance"


# -- conversions ---------------------------------------------------------------

def test_hom_to_inhom_formula_cases():
    c3 = cyclic_group(3)
    c = hom_of(arrangement_from_sequence(c3, (0, 1, 2)))
    f = validate_hom(c3, c)
    assert f(1, 0) == 0 and f(2, 0) == 0          # normalization case
    assert f(1, 1) == (1 - c[0][1][2]) // 2 == 0  # generic case
    assert f(2, 1) == 1                           # gh = id case


def test_inhom_to_hom_formula_cases():
    fs = standard_order_zn(3)
    c = hom_of(fs)
    assert c[0][0][1] == 0
    assert c[0][1][2] == 1 - 2 * fs(1, 1) == 1
    assert c[0][2][1] == 1 - 2 * fs(2, 2) == -1
    assert validate_hom(fs.group, c) == fs


def test_round_trips_all_orderings_up_to_order_8():
    for G in library_groups():
        if G.order > 8:
            continue
        for arr in enumerate_circular_orders(G):
            c = hom_of(arr)
            f = validate_hom(G, c)
            assert hom_of(f) == c
            assert hom_to_inhom_formula(G, c) == f.values
            assert Arrangement(G, f.pos).sequence == arr.sequence
            assert arrangement_to_inhom(arr).values == f.values


def test_antisymmetry_property():
    c5 = cyclic_group(5)
    for arr in enumerate_circular_orders(c5):
        chart = hom_of(arr)
        c = lambda g1, g2, g3: chart[g1][g2][g3]
        for g1, g2, g3 in permutations(range(5), 3):
            base = c(g1, g2, g3)
            assert c(g2, g3, g1) == base and c(g3, g1, g2) == base
            assert c(g2, g1, g3) == -base and c(g1, g3, g2) == -base


# -- arrangements ---------------------------------------------------------------

def test_arrangement_examples():
    c3 = cyclic_group(3)
    assert hom_of(arrangement_from_sequence(c3, (0, 1, 2)))[0][1][2] == 1
    assert hom_of(arrangement_from_sequence(c3, (0, 2, 1)))[0][1][2] == -1
    with pytest.raises(AxiomError):
        arrangement_from_sequence(c3, (1, 0, 2))
    with pytest.raises(AxiomError):
        arrangement_from_sequence(c3, (0, 0, 2))


_LIBRARY = library_groups()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_arrangement_cocycles_pass_the_validate_inhom_oracle(data):
    # arrangement_to_inhom builds the carry bit of the enumeration's checked
    # positions without validate_inhom; the full axiom check must accept
    # every such cocycle and return its values unchanged
    G = data.draw(st.sampled_from(_LIBRARY))   # orders 1 to 12
    H = relabeled(G, [0] + data.draw(st.permutations(range(1, G.order))))
    for arr in enumerate_circular_orders(H):
        f = arrangement_to_inhom(arr)
        assert validate_inhom(H, f.values).values == f.values
        assert all(type(v) is int for row in f.values for v in row)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_validate_hom_matches_the_quartic_scans(data):
    # the chart of a circle order on the elements -- a generator's walk,
    # which is an ordering, or any permutation from the identity, a cocycle
    # on the set that need not be invariant -- with signs flipped at up to
    # three distinct triples, or at every left translate of one, which
    # keeps invariance: validate_hom's O(N^3) checks must accept exactly
    # what the literal N^4 definitions accept, and reject with the same
    # kind and witness
    G = data.draw(st.sampled_from([G for G in _LIBRARY if G.order <= 10]))
    H = relabeled(G, [0] + data.draw(st.permutations(range(1, G.order))))
    n = H.order
    walks = [a.sequence for a in enumerate_circular_orders(H)]
    if walks and data.draw(st.booleans()):
        seq = data.draw(st.sampled_from(walks))
    else:
        seq = (0, *data.draw(st.permutations(range(1, n))))
    pos = [seq.index(g) for g in range(n)]
    values = [[[_cyclic_value(pos, a, b, c, n) for c in range(n)] for b in range(n)]
              for a in range(n)]
    if n >= 3:
        for _ in range(data.draw(st.integers(0, 3))):
            a, b, c = data.draw(st.permutations(range(n)))[:3]
            for t in H.table if data.draw(st.booleans()) else [range(n)]:
                values[t[a]][t[b]][t[c]] *= -1
    expected = quartic_hom_failure(H, values)
    try:
        got = validate_hom(H, values)
    except AxiomError as exc:
        assert (exc.kind, exc.witness) == expected
    else:
        assert expected is None and hom_of(got) == tuple(
            tuple(tuple(plane) for plane in row) for row in values)


_CYCLIC = [G for G in _LIBRARY if G.is_cyclic()]

# Z/1..Z/12 and one seeded relabeling of each
_SEEDED_CYCLIC = [H for k in range(1, 13) for H in (
    cyclic_group(k), relabeled(cyclic_group(k), [0, *random.Random(k).sample(range(1, k), k - 1)]))]


def test_validate_hom_reads_back_every_ordering():
    # validate_hom reads an ordering off its homogeneous form by positions;
    # on the form the conversion formula builds, it must give back the
    # ordering itself, for every ordering of each group
    for H in _SEEDED_CYCLIC:
        for f in all_orderings(H):
            assert validate_hom(H, inhom_to_hom_formula(H, f.values)) == f


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_validate_hom_names_corruptions_as_the_definitions_do(data):
    # one entry of an ordering's homogeneous form replaced (by its negative,
    # 0, +-1, 2, or a float or bool equal to it), or the signs flipped on all
    # six orders of one distinct triple, at one left translate or at every
    # one, which keeps the form alternating: validate_hom must raise the
    # kind and witness of the literal definitions ("vanishing" at the one
    # entry off {0, +-1} or of the wrong type), or read back the ordering
    # the corrupted form still is
    H = data.draw(st.sampled_from(_SEEDED_CYCLIC))
    n = H.order
    f = data.draw(st.sampled_from(all_orderings(H)))
    values = [[list(plane) for plane in row] for row in inhom_to_hom_formula(H, f.values)]
    expected = None
    if n < 3 or data.draw(st.booleans()):
        a, b, c = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        old = values[a][b][c]
        new = values[a][b][c] = data.draw(st.sampled_from([-old, 0, 1, -1, 2, float(old),
                                                           old == 1]))
        if type(new) is not int or new not in ((1, -1) if len({a, b, c}) == 3 else (0,)):
            expected = ("vanishing", (a, b, c))
    else:
        a, b, c = data.draw(st.permutations(range(n)))[:3]
        for t in H.table if data.draw(st.booleans()) else [range(n)]:
            for x, y, z in permutations((t[a], t[b], t[c])):
                values[x][y][z] *= -1
    if expected is None:
        expected = quartic_hom_failure(H, values)
    try:
        got = validate_hom(H, values)
    except AxiomError as exc:
        assert (exc.kind, exc.witness) == expected
    else:
        assert expected is None and inhom_to_hom_formula(H, got.values) == tuple(
            tuple(tuple(plane) for plane in row) for row in values)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_derived_orderings_pass_the_validator_oracles(data):
    # arrangement_to_inhom passes the checked positions across, and
    # hat_ordering builds the carry bit of its arrangement, without the
    # axiom checks; the full checks must accept each and return it unchanged
    G = data.draw(st.sampled_from(_CYCLIC))   # orders 1 to 12
    H = relabeled(G, [0] + data.draw(st.permutations(range(1, G.order))))
    for arr in enumerate_circular_orders(H):
        f = arrangement_to_inhom(arr)
        back = validate_hom(H, hom_of(f))
        assert back == f
        assert validate_inhom(H, back.values).values == back.values
        for n in range(2, 48 // H.order + 1):
            fhat = hat_ordering(H, f, n)
            assert validate_inhom(fhat.group, fhat.values).values == fhat.values


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_views_are_the_conversion_formulas(data):
    # both views store only pos and arrangement_to_inhom passes it across,
    # building no table; validate_hom must read the ordering back off the
    # formula's homogeneous form, which the formula back gives f, and the
    # validators must give back an equal object
    G = data.draw(st.sampled_from(_CYCLIC))   # orders 1 to 12
    H = relabeled(G, [0] + data.draw(st.permutations(range(1, G.order))))
    for arr in enumerate_circular_orders(H):
        f = arrangement_to_inhom(arr)
        assert "values" not in vars(f) and f.pos == arr.pos
        c = inhom_to_hom_formula(H, f.values)
        back = validate_hom(H, c)
        assert back == f and "values" not in vars(back)
        assert f.values == hom_to_inhom_formula(H, c)
        assert validate_inhom(H, f.values) == f


def test_derived_orderings_run_no_validator(monkeypatch):
    # standard_order_zn is the view of the identity positions, hat_ordering
    # builds through arrangement_from_sequence's O(N) walk, and
    # arrangement_to_inhom passes the checked positions across: the
    # validators are for matrices given as input
    calls = []
    for name in ("validate_inhom", "validate_hom", "_identity_failure"):
        inner = getattr(orders, name)
        for module in (orders, extensions):
            if getattr(module, name, None) is inner:
                monkeypatch.setattr(module, name, lambda *args, name=name, inner=inner:
                                    calls.append(name) or inner(*args))
    f = standard_order_zn(6)
    c = hom_of(f)
    arr = enumerate_circular_orders(cyclic_group(6))[1]
    standard_order_zn(12)
    hat_ordering(f.group, f, 4)
    arrangement_to_inhom(arr)
    assert calls == []
    orders.validate_inhom(f.group, f.values)   # the counters see the validators
    orders.validate_hom(f.group, c)
    assert calls == ["validate_inhom", "_identity_failure", "validate_hom"]


def _position_failure(G: groups.FiniteGroup, pos) -> str | None:
    """The kind of AxiomError the view constructors must raise on pos, or
    None when pos is an isomorphism G -> Z/n, by the O(n^2) definition
    pos(gh) = pos(g) + pos(h) mod n."""
    n = G.order
    if any(type(p) is not int for p in pos) or sorted(pos) != list(range(n)):
        return "shape"
    if pos[0] != 0:
        return "normalization"
    if any((pos[g] + pos[h]) % n != pos[G.table[g][h]] for g in range(n) for h in range(n)):
        return "invariance"
    return None


_CONSTRUCTOR_GROUPS = [cyclic_group(n) for n in range(1, 17)] + \
    [G for G in _LIBRARY if not G.is_cyclic()]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_view_constructors_accept_exactly_the_isomorphisms(data):
    # each public constructor checks pos: an ordering's positions (a walk's),
    # a permutation fixing 0 or any permutation, or one with an entry
    # replaced by something out of range, repeated or not an exact int, or
    # with one entry too many or too few
    G = data.draw(st.sampled_from(_CONSTRUCTOR_GROUPS))
    n = G.order
    walks = [a.pos for a in enumerate_circular_orders(G, max_order=16)]
    source = data.draw(st.sampled_from(["walk", "fixes 0", "any", "corrupt"]))
    if source == "walk" and walks:
        pos = list(data.draw(st.sampled_from(walks)))
    elif source == "any":
        pos = data.draw(st.permutations(range(n)))
    else:
        pos = [0, *data.draw(st.permutations(range(1, n)))]
    if source == "corrupt":
        i = data.draw(st.integers(0, n - 1))
        pos[i] = data.draw(st.sampled_from([-1, n, float(pos[i]), pos[i] == 1, pos[i - 1]]))
        pos = data.draw(st.sampled_from([pos, pos[:-1], pos + [n]]))
    expected = _position_failure(G, pos)
    for view in (Arrangement, InhomCircularOrder):
        if expected is None:
            got = view(G, pos)
            assert got.pos == tuple(pos) and got == view._trusted(G, tuple(pos))
            assert ordering_from_json(json.loads(json.dumps(ordering_to_json(got)))) == got
            assert ordering_from_json(json.loads(json.dumps(hom_json(got)))) == \
                InhomCircularOrder(G, pos)
        else:
            with pytest.raises(AxiomError) as err:
                view(G, pos)
            assert err.value.kind == expected and err.value.witness == tuple(pos)


def test_a_hand_built_view_is_checked():
    # pos(1) = 2 and pos(2) = 1 on Z/5: a permutation fixing 0 that is not an
    # isomorphism, so no view holds it (unchecked, an Arrangement of it had
    # class (2,), and the JSON reader rejected what the writer wrote)
    for view in (Arrangement, InhomCircularOrder):
        with pytest.raises(AxiomError, match="invariance"):
            view(cyclic_group(5), (0, 2, 1, 3, 4))


@pytest.mark.parametrize("seq, kind", [
    ((0, 1, 1, 3), "shape"),             # duplicate entry
    ((0, True, 2, 3), "shape"),          # sorts like (0, 1, 2, 3)
    ((1, 2, 3, 0), "normalization"),     # does not start at the identity
    ((0, 1, 3, 2), "invariance"),        # pos(1 + 1) != pos(1) + pos(1)
])
def test_arrangement_to_inhom_checks_hand_built_arrangements(seq, kind):
    # arrangement_to_inhom takes a checked Arrangement, so a hand-built
    # sequence reaches it only through arrangement_from_sequence, directly
    # or by the JSON reader, and both must raise the same kind
    c4 = cyclic_group(4)
    with pytest.raises(AxiomError) as direct:
        arrangement_to_inhom(arrangement_from_sequence(c4, seq))
    data = {"group": group_to_json(c4), "kind": "arrangement", "data": list(seq)}
    with pytest.raises(AxiomError) as read:
        arrangement_to_inhom(ordering_from_json(json.loads(json.dumps(data))))
    assert direct.value.kind == read.value.kind == kind
    assert direct.value.witness == read.value.witness == seq


@pytest.mark.parametrize("max_order", [2.5, True, -1, "12"])
def test_enumeration_limit_must_be_none_or_an_int(max_order):
    with pytest.raises(InvalidGroupError, match="max_order"):
        enumerate_circular_orders(cyclic_group(2), max_order=max_order)


def test_homogeneous_form_of_an_arrangement_is_the_position_chart():
    # the homogeneous form of an arrangement is the chart of its positions,
    # and validate_hom reads the arrangement's ordering back off that chart,
    # on every arrangement of the library groups and of one relabeling each.
    # The relabeling must change the table, or its half repeats the other
    # (g -> -g, say, is an automorphism of every cyclic group); only on Z/1,
    # Z/2, Z/3 and Z/2 x Z/2 is every permutation fixing 0 an automorphism
    rng = random.Random(19)
    for G in library_groups():
        for _ in range(20):   # draw again while the relabeling is an automorphism
            H = relabeled(G, (0, *rng.sample(range(1, G.order), G.order - 1)))
            if H.table != G.table:
                break
        assert (H.table != G.table) == (G.order > 4 or (G.order == 4 and G.is_cyclic()))
        for H in (G, H):
            n = H.order
            for arr in enumerate_circular_orders(H):
                pos = {g: p for p, g in enumerate(arr.sequence)}
                chart = [[[_cyclic_value(pos, g1, g2, g3, n) for g3 in range(n)]
                          for g2 in range(n)] for g1 in range(n)]
                assert [[list(p) for p in r] for r in hom_of(arr)] == chart
                assert validate_hom(H, chart) == arrangement_to_inhom(arr)


def test_round_trip_all_arrangements_z5():
    c5 = cyclic_group(5)
    for tail in permutations(range(1, 5)):
        seq = (0,) + tail
        try:
            arr = arrangement_from_sequence(c5, seq)
        except AxiomError:
            continue
        assert Arrangement(c5, validate_hom(c5, hom_of(arr)).pos).sequence == seq


def test_validate_hom_rejects_a_non_invariant_chart():
    # build a hom-shaped value table from a *non*-invariant position chart on
    # Z/4 by transposing two entries of a valid arrangement's chart
    c4 = cyclic_group(4)
    values = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    pos = {0: 0, 1: 1, 3: 2, 2: 3}
    for g1 in range(4):
        for g2 in range(4):
            for g3 in range(4):
                if g1 != g2 and g2 != g3 and g1 != g3:
                    d2 = (pos[g2] - pos[g1]) % 4
                    d3 = (pos[g3] - pos[g1]) % 4
                    values[g1][g2][g3] = 1 if d2 < d3 else -1
    # the chart is a homogeneous cocycle on the set, so validate_hom gets as
    # far as invariance
    with pytest.raises(AxiomError) as err:
        validate_hom(c4, values)
    assert err.value.kind == "invariance"


def test_a_non_invariant_chart_skips_the_cocycle_scan():
    # the chart of a permutation fixing 0 is a cocycle on the set, so the
    # N^4 cocycle scan (2.3 s on Z/64 on a 2-vCPU VM) finds nothing: the
    # invariance scan names the chart at the witness the full scans give
    G = cyclic_group(64)
    rng = random.Random(64)
    pos = (0, *rng.sample(range(1, 64), 63))
    values = [[[0 if len({a, b, c}) < 3 else 1 if (pos[b] - pos[a]) % 64 < (pos[c] - pos[a]) % 64
                else -1 for c in range(64)] for b in range(64)] for a in range(64)]
    with time_budget(1), pytest.raises(AxiomError) as err:
        validate_hom(G, values)
    assert (err.value.kind, err.value.witness) == ("invariance", (1, 0, 1, 3))
    assert str(err.value) == "invariance failure at (1, 0, 1, 3)"


# -- enumeration -----------------------------------------------------------------

def test_enumeration_matches_brute_force():
    for G in library_groups():
        if G.order > 7:
            continue
        fast = [a.sequence for a in enumerate_circular_orders(G)]
        slow = brute_force_arrangements(G)
        assert fast == sorted(slow), G.name


def test_enumeration_counts_are_totients():
    for n in range(2, 13):
        assert len(enumerate_circular_orders(cyclic_group(n))) == euler_phi(n)


def test_enumeration_of_non_cyclic_groups_is_empty():
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert enumerate_circular_orders(klein) == []
    assert enumerate_circular_orders(symmetric_group(3)) == []
    z3z3 = direct_product(cyclic_group(3), cyclic_group(3))
    assert enumerate_circular_orders(z3z3) == []


def test_enumeration_trivial_and_bounds():
    assert [a.sequence for a in enumerate_circular_orders(cyclic_group(1))] == [(0,)]
    with pytest.raises(BoundExceeded):
        enumerate_circular_orders(cyclic_group(13))


def test_enumerated_arrangements_are_generator_power_sequences():
    for n in (4, 5, 6, 8, 12):
        G = cyclic_group(n)
        for arr in enumerate_circular_orders(G):
            z = arr.sequence[1]
            assert arr.sequence == tuple(G.power(z, k) for k in range(n))


_NON_CYCLIC = [symmetric_group(3), direct_product(cyclic_group(2), cyclic_group(2)),
               dihedral_group(4), direct_product(cyclic_group(2), cyclic_group(4))]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_powers_walk_matches_the_rotation_oracle(data):
    # arrangement_from_sequence reads an arrangement as the powers of its
    # second entry, in O(N); on every permutation starting at the identity
    # it must accept, with the same positions, exactly what the O(N^2)
    # rotation check accepts, and reject the rest as "invariance"
    def checked_positions(G, seq):
        try:
            return list(arrangement_from_sequence(G, seq).pos)
        except AxiomError as exc:
            assert (exc.kind, exc.witness) == ("invariance", seq)
            return None

    k = data.draw(st.integers(1, 16))
    G = relabeled(cyclic_group(k), [0] + data.draw(st.permutations(range(1, k))))
    arrangements = [a.sequence for a in enumerate_circular_orders(G, max_order=16)]
    assert len(arrangements) == euler_phi(k)
    candidates = list(arrangements)
    if k > 2:   # two non-identity entries swapped
        for seq in arrangements:
            i, j = data.draw(st.lists(st.integers(1, k - 1), min_size=2, max_size=2,
                                      unique=True))
            swapped = list(seq)
            swapped[i], swapped[j] = seq[j], seq[i]
            candidates.append(tuple(swapped))
    candidates.append((0, *data.draw(st.permutations(range(1, k)))))
    z = data.draw(st.integers(0, k - 1))   # a walk that stops short, then the rest
    walk = groups._powers(G, z)
    candidates.append((*walk, *data.draw(st.permutations(sorted(set(range(k)) - set(walk))))))
    for seq in candidates:
        assert checked_positions(G, seq) == rotation_positions(G, seq), seq
    assert all(checked_positions(G, seq) is not None for seq in arrangements)
    H = data.draw(st.sampled_from(_NON_CYCLIC))   # no ordering at all
    walk = groups._powers(H, data.draw(st.integers(0, H.order - 1)))
    for seq in ((0, *data.draw(st.permutations(range(1, H.order)))),
                (*walk, *(g for g in range(H.order) if g not in walk))):
        assert checked_positions(H, seq) is None
        assert rotation_positions(H, seq) is None


def _fresh_walks(G) -> list[tuple]:
    """(sequence, pos) of every ordering of G, from a new walk of each
    element's powers: the walks that cover G, in order of their second
    entry."""
    walks = (tuple(groups._powers(G, z)) for z in range(G.order))
    return [(seq, tuple(seq.index(g) for g in range(G.order)))
            for seq in walks if len(seq) == G.order]


_LIBRARY_NON_CYCLIC = [G for G in library_groups() if not G.is_cyclic()]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_group_keeps_its_orderings(data):
    # the first enumeration keeps its views on the group; each call returns
    # a new list of the same views, equal to fresh walks, and what a caller
    # does to one list does not reach the next; the bound is checked on
    # every call, and each view keeps one inhomogeneous view
    cyclic = st.integers(1, 16).map(cyclic_group)
    base = data.draw(st.one_of(cyclic, st.sampled_from(_LIBRARY_NON_CYCLIC)))
    G = relabeled(base, [0] + data.draw(st.permutations(range(1, base.order))))
    want = _fresh_walks(G)
    first = enumerate_circular_orders(G, max_order=16)
    second = enumerate_circular_orders(G, max_order=16)
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))
    assert [(a.sequence, a.pos) for a in first] == want
    first.clear()
    second.append(second[0] if second else None)
    if G.order > 1:
        with pytest.raises(BoundExceeded):
            enumerate_circular_orders(G, max_order=G.order - 1)
    third = enumerate_circular_orders(G, max_order=16)
    assert third is not second and [(a.sequence, a.pos) for a in third] == want
    for a in third:
        f = arrangement_to_inhom(a)
        assert f is arrangement_to_inhom(a) and type(f) is InhomCircularOrder
        assert f.pos == a.pos and f.group is G


def test_orderings_at_table_scale_within_the_time_budget():
    # one O(N) walk checks each ordering; the O(N^2) rotation check took
    # over a minute for these 512 on a 2-vCPU VM
    G = cyclic_group(1024)
    with time_budget(10):
        built = [arrangement_to_inhom(a) for a in enumerate_circular_orders(G, max_order=1024)]
    assert [f.pos.index(1) for f in built] == list(range(1, 1024, 2))


def test_raw_matrix_at_order_256_within_the_time_budget():
    # Light's test checks the cocycle identity in O(|G|^2 k); the scan of
    # all |G|^3 triples alone took 1.9-2.1 s on a 2-vCPU VM
    G = cyclic_group(256)
    carry = [[int(a + b >= 256) for b in range(256)] for a in range(256)]
    with time_budget(1.0):
        f = validate_inhom(G, carry)
    assert f.pos == tuple(range(256))


# -- standard order -----------------------------------------------------------

def test_standard_order_values():
    fs = standard_order_zn(5)
    assert fs(3, 4) == 1
    assert fs(1, 2) == 0
    assert all(fs(0, b) == 0 for b in range(5))
    for n in (2, 3, 4, 6):
        want = arrangement_to_inhom(
            arrangement_from_sequence(cyclic_group(n), tuple(range(n))))
        assert standard_order_zn(n).values == want.values


# -- left orders and the lexicographic construction ----------------------------

def test_left_order_from_cone_only_trivial_finite():
    triv = cyclic_group(1)
    oracle = left_order_from_cone(triv, set())
    assert oracle.circular_value(0, 0, 0) == 0
    with pytest.raises(AxiomError):
        left_order_from_cone(cyclic_group(2), set())
    with pytest.raises(AxiomError):
        left_order_from_cone(cyclic_group(3), {1})  # 1+1=2 escapes


def test_lexicographic_on_integers_reduces_to_linear_order():
    from circorder.orders import LeftOrderOracle, lexicographic_circular_order
    ints = LeftOrderOracle(lambda k: k > 0, lambda x, y: x + y, lambda x: -x, 0)
    c = lexicographic_circular_order(lambda g: 0, ints, lambda *_: 0,
                                     lambda x, y: x + y, lambda x: -x)
    assert c(-1, 0, 1) == 1
    assert c(1, 0, -1) == -1
    assert c(5, 5, 1) == 0
    # cyclic rotations agree, transpositions flip
    assert c(0, 1, -1) == 1 and c(1, -1, 0) == 1
    rng = random.Random(5)
    for _ in range(200):
        x, y, z, h = (rng.randrange(-30, 30) for _ in range(4))
        assert c(x + h, y + h, z + h) == c(x, y, z)


def test_lexicographic_finite_with_trivial_kernel():
    # 0 -> 1 -> Z/4 -> Z/4 -> 0 with the identity map: the construction must
    # reproduce the quotient ordering itself
    c4 = cyclic_group(4)
    ident = GroupHom(c4, c4, range(4))
    quotient_f = arrangement_to_inhom(arrangement_from_sequence(c4, (0, 1, 2, 3)))
    # the kernel is trivial, so its cone (acting on the total group) is empty
    from circorder.orders import LeftOrderOracle
    cone = LeftOrderOracle(lambda g: False, c4.mul, c4.inv, 0)
    built = lexicographic_order_finite(ident, cone, quotient_f)
    assert built == quotient_f and built.values == quotient_f.values


# -- JSON -----------------------------------------------------------------------

def test_ordering_json_round_trip():
    # every view of every enumerated ordering, on the library groups and a
    # relabeling of each, hashes, reads back equal from its JSON through the
    # checks of raw input, and its arrangement is the power walk of the
    # ordering's generator; its homogeneous form reads back as the
    # inhomogeneous view
    for G in library_groups():
        perm = list(range(1, G.order))
        random.Random(G.order).shuffle(perm)
        for H in (G, relabeled(G, [0] + perm)):
            for arr in enumerate_circular_orders(H):
                views = (arr, arrangement_to_inhom(arr))
                assert len(set(views)) == 2 and len(set(map(hash, views))) == 1
                again = ordering_from_json(json.loads(json.dumps(hom_json(arr))))
                assert type(again) is InhomCircularOrder and again == views[1]
                for view in views:
                    again = ordering_from_json(json.loads(json.dumps(ordering_to_json(view))))
                    assert type(again) is type(view) and again == view
                    assert hash(again) == hash(view) and again.group == view.group
                    z = extensions.minimal_generator(H, view)
                    assert arr.sequence == tuple(groups._powers(H, z))


def test_ordering_json_rejects_boolean_elements():
    # [0, true, 2] sorts equal to [0, 1, 2], but true is not an element index
    data = {"group": group_to_json(cyclic_group(3)), "kind": "arrangement",
            "data": [0, True, 2]}
    with pytest.raises(AxiomError) as exc:
        ordering_from_json(data)
    assert exc.value.kind == "shape"



@pytest.mark.parametrize("kind, data", [
    ("arrangement", 5), ("arrangement", None), ("arrangement", "012"),
    ("arrangement", {"0": 0}),
    ("inhom", 5), ("inhom", None), ("inhom", [5, 6, 7]),
    ("inhom", [[0, 0, 0], 5, [0, 1, 1]]),
    ("hom", 5), ("hom", None), ("hom", [[0, 0, 0]] * 3),
    ("hom", [[[0] * 3] * 3, [[0] * 3, 5, [0] * 3], [[0] * 3] * 3]),
])
def test_ordering_json_rejects_malformed_data(kind, data):
    # before its checker reads it, 'data' must be a list, nested once per
    # index of the kind, so a malformed file is an input error
    payload = {"group": group_to_json(cyclic_group(3)), "kind": kind, "data": data}
    with pytest.raises(InvalidGroupError, match=f"field 'data' of kind '{kind}'"):
        ordering_from_json(payload)


@pytest.mark.parametrize("kind", [["hom"], None, 3, "Hom"])
def test_ordering_json_rejects_unknown_kinds(kind):
    payload = {"group": group_to_json(cyclic_group(3)), "kind": kind, "data": [0, 1, 2]}
    with pytest.raises(InvalidGroupError, match="unknown kind"):
        ordering_from_json(payload)


def test_ordering_values_must_be_ints():
    # 1.0 and true compare equal to 1 (0.0 and false to 0), so a scan for
    # values in (0, 1) let them through and stored them in the ordering;
    # they get the kind an out-of-range integer gets
    with pytest.raises(AxiomError) as err:
        validate_inhom(cyclic_group(3), [[0.0, 0, 0], [0, 0, 1.0], [0, True, 1]])
    assert err.value.kind == "value-range" and err.value.witness == (0, 0)
    arr = arrangement_from_sequence(cyclic_group(3), (0, 1, 2))
    f = arrangement_to_inhom(arr)
    for data, witness, kind, out_of_range in (
            (ordering_to_json(f), (1, 2), "value-range", 2),
            (ordering_to_json(f), (0, 1), "value-range", -1),
            (hom_json(arr), (0, 1, 2), "vanishing", 2),
            (hom_json(arr), (0, 0, 1), "vanishing", -1)):
        data = json.loads(json.dumps(data))   # lists, as read from a file
        *head, last = witness
        row = data["data"]
        for i in head:
            row = row[i]
        for value in (out_of_range, float(row[last]), bool(row[last])):
            row[last] = value
            with pytest.raises(AxiomError) as err:
                ordering_from_json(data)
            assert (err.value.kind, err.value.witness) == (kind, witness), value
