import pytest
from hypothesis import given, settings, strategies as st

from circorder import extensions
from circorder.errors import AxiomError, BoundExceeded, CheckFailed, InvalidGroupError
from circorder.groups import cyclic_group, symmetric_group, subgroup_generated
from circorder.orders import (Arrangement, InhomCircularOrder, arrangement_from_sequence,
                              arrangement_to_inhom, enumerate_circular_orders,
                              standard_order_zn, validate_hom, validate_inhom)
from circorder.extensions import (CentralExtElement, CentralExtensionGroup, hat_ordering,
                                  minimal_generator)

from helpers import (all_subgroups, cone_compare, cone_positive, find_isomorphism,
                     inhom_to_hom_formula, is_cofinal_central, library_groups,
                     quartic_hom_failure, quotient_by_cyclic_central, quotient_by_power,
                     time_budget)


def orderings_of(G):
    return [arrangement_to_inhom(a) for a in enumerate_circular_orders(G)]


# -- group law ----------------------------------------------------------------

def test_extension_law_on_z3():
    E = CentralExtensionGroup(cyclic_group(3), standard_order_zn(3))
    x = CentralExtElement(0, 2)
    assert E.multiply(x, x) == CentralExtElement(1, 1)
    assert E.multiply(E.inverse(x), x) == E.identity
    assert E.multiply(E.iota(5), E.iota(-5)) == E.identity


def test_zero_cocycle_gives_componentwise_law():
    G = cyclic_group(4)
    E = CentralExtensionGroup(G, [[0] * 4 for _ in range(4)])
    assert E.multiply(CentralExtElement(2, 3), CentralExtElement(5, 2)) == \
        CentralExtElement(7, 1)


def test_powers_in_z2_extension():
    E = CentralExtensionGroup(cyclic_group(2), standard_order_zn(2))
    g = CentralExtElement(0, 1)
    assert E.power(g, 2) == CentralExtElement(1, 0)
    assert E.power(g, 4) == CentralExtElement(2, 0)
    assert E.power(g, -2) == CentralExtElement(-1, 0)


def test_the_constructor_checks_its_arguments():
    # it trusted them: an unnormalized matrix gave identity * identity =
    # (1, 0), a 1.5 entry the coefficient 1.5, and modulus 0 a
    # ZeroDivisionError at the first multiply
    G = cyclic_group(2)
    for bad, kind in (([[1, 0], [0, 0]], "normalization"), ([[0, 0], [0, 1.5]], "value-type")):
        for modulus in (None, 2):
            with pytest.raises(AxiomError) as err:
                CentralExtensionGroup(G, bad, modulus)
            assert err.value.kind == kind
    for modulus in (0, 1, 2.0, True):
        with pytest.raises(InvalidGroupError, match="is not an int >= 2"):
            CentralExtensionGroup(G, standard_order_zn(2), modulus)
    E = CentralExtensionGroup(G, standard_order_zn(2), None)
    assert E.cocycle == ((0, 0), (0, 1)) and E.multiply(E.identity, E.identity) == E.identity


def test_power_takes_logarithmically_many_steps():
    E = CentralExtensionGroup(cyclic_group(3), standard_order_zn(3))
    k = 10 ** 18
    with time_budget(1):
        assert E.power(CentralExtElement(0, 1), k) == (k // 3, k % 3)
        assert E.power(CentralExtElement(0, 1), -k) == (-(k // 3) - 1, 3 - k % 3)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_power_matches_repeated_multiplication(data):
    G = data.draw(st.sampled_from([G for G in library_groups() if G.is_cyclic()]))
    f = data.draw(st.sampled_from(orderings_of(G)))
    modulus = data.draw(st.sampled_from([None, 2, 3, 4, 7]))
    E = CentralExtensionGroup(G, f, modulus)
    a = data.draw(st.integers(-5, 5) if modulus is None else st.integers(0, modulus - 1))
    x = CentralExtElement(a, data.draw(st.integers(0, G.order - 1)))
    k = data.draw(st.integers(-20, 20))
    step, want = x if k >= 0 else E.inverse(x), E.identity
    for _ in range(abs(k)):
        want = E.multiply(want, step)
    assert E.power(x, k) == want


def test_extension_rejects_non_cocycle():
    G = cyclic_group(3)
    bad = [[0, 0, 0], [0, 1, 1], [0, 1, 1]]
    with pytest.raises(AxiomError) as err:
        CentralExtensionGroup(G, bad)
    assert err.value.kind == "cocycle"


@pytest.mark.parametrize("value", [1.0, 1.5, True])
def test_extension_cocycle_entries_must_be_ints(value):
    # a non-int entry is not a tolerated non-ordering value ("value-range")
    bad = [[0, 0], [0, value]]
    for modulus in (None, 2):
        with pytest.raises(AxiomError) as err:
            CentralExtensionGroup(cyclic_group(2), bad, modulus)
        assert err.value.kind == "value-type" and err.value.witness == (1, 1)
    assert CentralExtensionGroup(cyclic_group(2), [[0, 0], [0, 2]]).cocycle == ((0, 0), (0, 2))


def test_extension_center_and_iota():
    G = symmetric_group(3)
    f = [[0] * 6 for _ in range(6)]
    E = CentralExtensionGroup(G, f)
    z = E.iota(3)
    for h in range(6):
        other = CentralExtElement(0, h)
        assert E.multiply(z, other) == E.multiply(other, z)


def test_materialization():
    E = CentralExtensionGroup(cyclic_group(3), standard_order_zn(3), modulus=2)
    mat = E.materialize()
    assert mat.order == 6
    assert mat.names[0] == "(0, 0)"       # elements print as "(a, name)"
    assert mat.names[4] == "(1, 1)"
    assert find_isomorphism(mat, cyclic_group(6)) is not None
    with pytest.raises(InvalidGroupError):
        CentralExtensionGroup(cyclic_group(3), standard_order_zn(3)).materialize()
    big = CentralExtensionGroup(cyclic_group(2), standard_order_zn(2), modulus=1000)
    with pytest.raises(BoundExceeded):
        big.materialize()


@pytest.mark.parametrize("modulus", [2.0, True, 1])
def test_extension_moduli_must_be_ints_of_at_least_two(modulus):
    with pytest.raises(InvalidGroupError, match="is not an int >= 2"):
        CentralExtensionGroup(cyclic_group(3), standard_order_zn(3), modulus).materialize()
    with pytest.raises(InvalidGroupError, match="is not an int >= 2"):
        hat_ordering(cyclic_group(3), standard_order_zn(3), modulus)


def test_materialization_layout():
    # (a,g)(b,h) = (a + b + f(g,h) mod n, gh) with (a, g) at index a*|G| + g,
    # for an ordering and for a cocycle that is not one: the coboundary of
    # g -> g on the non-abelian S3, with negative values
    G = symmetric_group(3)
    ordering = standard_order_zn(3).values
    coboundary = [[g + h - G.table[g][h] for h in range(G.order)] for g in range(G.order)]
    for base, f, n in ((cyclic_group(3), ordering, 4), (G, coboundary, 3)):
        E = CentralExtensionGroup(base, f, modulus=n)
        k = base.order
        group = E.materialize()
        assert group.order == n * k
        for a in range(n):
            for g in range(k):
                assert group.names[a * k + g] == f"({a}, {base.names[g]})"
                for b in range(n):
                    for h in range(k):
                        want = (a + b + f[g][h]) % n * k + base.table[g][h]
                        assert group.table[a * k + g][b * k + h] == want


def test_materialization_bound_is_the_module_constant(monkeypatch):
    assert CentralExtensionGroup(cyclic_group(2), standard_order_zn(2),
                                 modulus=512).materialize().order == 1024
    with pytest.raises(BoundExceeded):
        CentralExtensionGroup(cyclic_group(5), standard_order_zn(5), modulus=205).materialize()
    monkeypatch.setattr(extensions, "MATERIALIZATION_LIMIT", 6)
    assert CentralExtensionGroup(cyclic_group(3), standard_order_zn(3),
                                 modulus=2).materialize().order == 6
    with pytest.raises(BoundExceeded):
        CentralExtensionGroup(cyclic_group(3), standard_order_zn(3), modulus=3).materialize()
    with pytest.raises(BoundExceeded):   # hat_ordering materializes its extension
        hat_ordering(cyclic_group(3), standard_order_zn(3), 3)


# -- cone ----------------------------------------------------------------------

def test_cone_compare_examples():
    f = standard_order_zn(3)
    E = CentralExtensionGroup(cyclic_group(3), f)
    assert cone_compare(f, CentralExtElement(0, 1), E.identity) == 1
    assert cone_compare(f, CentralExtElement(-1, 2), E.identity) == -1
    x = CentralExtElement(4, 2)
    assert cone_compare(f, x, x) == 0


def test_cone_is_strict_total_left_invariant_order():
    f = standard_order_zn(4)
    E = CentralExtensionGroup(cyclic_group(4), f)
    ball = [CentralExtElement(a, g) for a in range(-3, 4) for g in range(4)]
    for x in ball:
        for y in ball:
            c = cone_compare(f, x, y)
            assert c == -cone_compare(f, y, x)
            assert (c == 0) == (x == y)
            for z in ball:
                if cone_compare(f, x, y) == -1 and cone_compare(f, y, z) == -1:
                    assert cone_compare(f, x, z) == -1
                hx, hy = E.multiply(z, x), E.multiply(z, y)
                assert cone_compare(f, hx, hy) == cone_compare(f, x, y)


def test_cone_requires_genuine_ordering():
    zeros = [[0] * 3 for _ in range(3)]
    CentralExtensionGroup(cyclic_group(3), zeros)   # a cocycle, but not an ordering
    with pytest.raises(InvalidGroupError):
        cone_positive(zeros, CentralExtElement(1, 0))


# -- cofinality ------------------------------------------------------------------

def test_canonical_element_is_cofinal_central():
    for k in (2, 3, 5):
        E = CentralExtensionGroup(cyclic_group(k), standard_order_zn(k))
        assert is_cofinal_central(standard_order_zn(k), E.iota(1), probe_bound=5) is True


def test_cofinality_requires_positive_z():
    f = standard_order_zn(4)
    E = CentralExtensionGroup(cyclic_group(4), f)
    with pytest.raises(InvalidGroupError):
        is_cofinal_central(f, CentralExtElement(-1, 1), probe_bound=3)
    with pytest.raises(InvalidGroupError):
        is_cofinal_central(f, E.identity, probe_bound=3)


def test_cofinality_rejects_negative_probe_bound():
    f = standard_order_zn(3)
    E = CentralExtensionGroup(cyclic_group(3), f)
    with pytest.raises(InvalidGroupError):
        is_cofinal_central(f, E.iota(1), -5)
    assert is_cofinal_central(f, E.iota(1), 0) is True


def test_minimal_generator_lift_is_cofinal():
    G = cyclic_group(4)
    f = standard_order_zn(4)
    z = CentralExtElement(0, minimal_generator(G, f))
    assert is_cofinal_central(f, z, probe_bound=3) is True


# -- minimal generator -------------------------------------------------------------

def test_minimal_generator_examples():
    for n in range(2, 9):
        assert minimal_generator(cyclic_group(n), standard_order_zn(n)) == 1
    rev = arrangement_to_inhom(
        arrangement_from_sequence(cyclic_group(4), (0, 3, 2, 1)))
    assert minimal_generator(cyclic_group(4), rev) == 3
    assert minimal_generator(cyclic_group(2), standard_order_zn(2)) == 1
    assert minimal_generator(cyclic_group(1), [[0]]) == 0


def test_minimal_generator_is_arrangement_successor():
    for k in (3, 4, 5, 6, 7, 8):
        G = cyclic_group(k)
        for arr in enumerate_circular_orders(G):
            f = arrangement_to_inhom(arr)
            assert minimal_generator(G, f) == arr.sequence[1]


def test_minimal_generator_lift_check_catches_a_corrupted_ordering():
    # a checked ordering whose positions were altered after their check
    # (the constructor rejects them): z = 1 keeps pos 1, but with 2, 3 and 4
    # all at pos 4 the lift (0, 1) picks up three carries on its way round,
    # not one
    G = cyclic_group(5)
    bad = InhomCircularOrder(G, (0, 1, 2, 3, 4))
    bad.pos = (0, 1, 4, 4, 4)
    with pytest.raises(CheckFailed, match="does not generate the Z-extension"):
        minimal_generator(G, bad)


def test_minimal_generator_rejects_non_cyclic():
    from circorder.groups import direct_product
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    with pytest.raises(InvalidGroupError):
        minimal_generator(klein, [[0] * 4 for _ in range(4)])


# -- extension is infinite cyclic over a finite cyclic ordered base ---------------

def test_z_extension_generated_by_minimal_generator_lift():
    for k in range(2, 9):
        G = cyclic_group(k)
        for arr in enumerate_circular_orders(G):
            f = arrangement_to_inhom(arr)
            E = CentralExtensionGroup(G, f)
            w = CentralExtElement(0, minimal_generator(G, f))
            assert E.power(w, k) == E.iota(1)
            powers = {}
            for j in range(-2 * k, 2 * k + 1):
                x = E.power(w, j)
                assert x not in powers, "powers repeat: not infinite cyclic"
                powers[x] = j
            # the powers sweep out exactly the coefficient-bounded balls
            for a in (-1, 0):
                for g in range(k):
                    assert CentralExtElement(a, g) in powers


# -- quotient constructions ---------------------------------------------------------

def test_quotient_by_power_examples():
    qp = quotient_by_power(cyclic_group(2), standard_order_zn(2), 2)
    assert qp.group.order == 4
    assert find_isomorphism(qp.group, cyclic_group(4)) is not None

    qp3 = quotient_by_power(cyclic_group(1), [[0]], 3)
    assert qp3.group.order == 3

    qp6 = quotient_by_power(cyclic_group(3), standard_order_zn(3), 2)
    assert qp6.group.order == 6
    assert find_isomorphism(qp6.group, cyclic_group(6)) is not None

    with pytest.raises(InvalidGroupError):
        quotient_by_power(cyclic_group(2), standard_order_zn(2), 1)


def test_hat_ordering_two_case_formula():
    G = cyclic_group(2)
    f = standard_order_zn(2)
    h = hat_ordering(G, f, 2)
    m = G.order
    assert h.values[1 * m + 0][1 * m + 1] == 1          # f_s(1,1), since 1+1 != 1
    assert h.values[0 * m + 1][1 * m + 1] == f.values[1][1]  # second case
    assert h.values[0 * m + 0][1 * m + 0] == f.values[0][0]  # second case, = 0
    big = hat_ordering(cyclic_group(3), standard_order_zn(3), 4)
    assert big.group.order == 12
    assert validate_inhom(big.group, big.values).values == big.values


def test_hat_and_quotient_by_power_agree():
    for k in range(2, 9):
        G = cyclic_group(k)
        for arr in enumerate_circular_orders(G):
            f = arrangement_to_inhom(arr)
            for n in range(2, 9):
                if n * k > 24:
                    continue
                hat = hat_ordering(G, f, n)
                qp = quotient_by_power(G, f, n)
                # the canonical identification (a mod n, g) is the identity
                # on indices for both constructions
                assert qp.group.table == hat.group.table
                assert qp.ordering.values == hat.values
                assert find_isomorphism(qp.group, hat.group) is not None


def test_hat_ordering_passes_full_homogeneous_validation():
    # order-12 extension of (Z/3, standard ordering) by Z/4: the hat
    # ordering's homogeneous form passes the literal cocycle and invariance
    # scans on 12^4 quadruples, validate_hom reads the hat ordering back off
    # it, and the induced arrangement is the standard circle on Z/12
    h = hat_ordering(cyclic_group(3), standard_order_zn(3), 4)
    c = inhom_to_hom_formula(h.group, h.values)
    assert quartic_hom_failure(h.group, c) is None
    assert validate_hom(h.group, c) == h
    arr = Arrangement(h.group, h.pos)
    assert arr.sequence == tuple(range(12))


def test_hat_ordering_cross_checks_the_two_case_formula(monkeypatch):
    # the carry bit of a wrong arrangement (here the mirrored circle, which
    # is also an ordering and passes the sequence check) must fail the
    # entry-by-entry comparison
    inner = extensions.arrangement_from_sequence
    monkeypatch.setattr(extensions, "arrangement_from_sequence", lambda G, seq: inner(
        G, (0, *reversed(seq[1:]))))
    with pytest.raises(CheckFailed, match="two-case formula"):
        hat_ordering(cyclic_group(3), standard_order_zn(3), 2)


def test_hat_ordering_at_the_materialization_bound():
    # order 1024 = MATERIALIZATION_LIMIT in O(N^2): about 0.67 s on a 2-vCPU VM,
    # where the O(N^3) axiom check took 18 s at order 512.  The extension of
    # (Z/8, standard) by Z/128 is Z/1024 with its standard ordering.
    with time_budget(15):
        fhat = hat_ordering(cyclic_group(8), standard_order_zn(8), 128)
    assert fhat.group.order == extensions.MATERIALIZATION_LIMIT
    assert fhat.values == standard_order_zn(1024).values


def test_quotient_by_cyclic_central():
    res = quotient_by_cyclic_central(cyclic_group(4), standard_order_zn(4), {0, 2})
    assert res.group.order == 2
    assert res.generator == 2
    assert res.section[0] == 0
    # p_n fbar = f_nu is asserted inside; re-check here independently
    G, nu, proj = cyclic_group(4), res.section, res.projection
    z, n = res.generator, 2
    dlog = {G.power(z, j): j for j in range(n)}
    for q1 in range(2):
        for q2 in range(2):
            defect = G.mul(G.mul(nu[q1], nu[q2]), G.inv(nu[res.group.table[q1][q2]]))
            assert dlog[defect] == res.ordering.values[q1][q2] % n

    res6 = quotient_by_cyclic_central(cyclic_group(6), standard_order_zn(6), {0, 3})
    assert res6.group.order == 3

    with pytest.raises(InvalidGroupError):
        quotient_by_cyclic_central(cyclic_group(4), standard_order_zn(4), {0})
    with pytest.raises(InvalidGroupError):
        quotient_by_cyclic_central(cyclic_group(4), standard_order_zn(4), {0, 1})


def test_quotient_by_cyclic_central_all_subgroups_of_cyclics():
    for k in (4, 6, 8):
        G = cyclic_group(k)
        for arr in enumerate_circular_orders(G):
            f = arrangement_to_inhom(arr)
            for d in range(2, k):
                if k % d:
                    continue
                K = {G.power(k // d, j) for j in range(d)}
                res = quotient_by_cyclic_central(G, f, K)
                assert res.group.order == k // d


def test_the_two_quotients_invert_each_other():
    # cutting the Z-extension of (G, f) at z^n gives a Z/n-extension whose
    # central Z/n = {(a, id)} = {a |G|}; cutting that at its minimal generator
    # must give back G and f exactly, on the same indices
    cases = 0
    for k in range(2, 7):
        G = cyclic_group(k)
        for f in orderings_of(G):
            for n in range(2, 24 // k + 1):
                qp = quotient_by_power(G, f, n)
                res = quotient_by_cyclic_central(qp.group, qp.ordering,
                                                 {a * k for a in range(n)})
                assert res.group.table == G.table
                assert res.ordering.values == f.values
                cases += 1
    assert cases == 53


def test_normal_cyclic_subgroups_of_ordered_groups_are_central():
    # every normal cyclic subgroup of a circularly-orderable library group
    # must land in the center (finite circularly orderable means cyclic)
    from circorder.groups import is_normal
    for G in library_groups():
        if G.order > 8 or not enumerate_circular_orders(G, max_order=12):
            continue
        for sub in all_subgroups(G):
            S = subgroup_generated(G, sub)
            if is_normal(G, sub) and S.group.is_cyclic():
                assert all(G.is_central(x) for x in sub)

