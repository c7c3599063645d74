import pytest
from hypothesis import given, settings, strategies as st

from circorder import obstruction
from circorder.cohomology import DivisibilityWitness
from circorder.errors import CheckFailed, InvalidGroupError
from circorder.groups import cyclic_group, direct_product, symmetric_group
from circorder.obstruction import (MAPPING_CLASS_GROUP_SPECTRUM,
                                   ObstructionSpectrum,
                                   bico_product_decision, cyclic_quotient_stats,
                                   exponent_facts, is_prime,
                                   iterated_nonco_bound, prime_factors,
                                   spectrum_finite, spectrum_torsion_part)

from helpers import lattice_cyclic_quotient_stats, primes_dividing, relabeled, time_budget


def test_spectrum_normalization_and_membership():
    s = ObstructionSpectrum.from_elements([4, 8, 6, 12])
    assert s.minimal == (4, 6)
    assert s.membership(8) and s.membership(12) and s.membership(18)
    assert not s.membership(2) and not s.membership(9)
    assert 24 in s
    with pytest.raises(ValueError):
        s.membership(1)
    with pytest.raises(ValueError):
        ObstructionSpectrum.from_elements([1])
    with pytest.raises(ValueError):
        ObstructionSpectrum(minimal=(2, 4))  # not an antichain


def test_spectrum_rejects_repeated_minimal_elements():
    with pytest.raises(ValueError):
        ObstructionSpectrum((3, 3))
    assert ObstructionSpectrum.from_elements([3, 3]) == ObstructionSpectrum((3,))


def test_spectrum_flags():
    assert ObstructionSpectrum(is_all=True).membership(17)
    assert ObstructionSpectrum().is_empty
    assert not ObstructionSpectrum().membership(5)
    assert ObstructionSpectrum.from_elements([2]).describe() == "2N"
    assert ObstructionSpectrum(is_all=True).describe() == "N>=2"


def test_upward_closure_property():
    s = ObstructionSpectrum.from_elements([4, 9])
    for n in range(2, 60):
        if s.membership(n):
            for t in range(2, 5):
                assert s.membership(t * n)


def test_spectrum_finite_cyclic_groups():
    for k in range(2, 13):
        s = spectrum_finite(cyclic_group(k))
        assert s.minimal == tuple(primes_dividing(k)), k
    assert spectrum_finite(cyclic_group(6)).minimal == (2, 3)


def test_spectrum_verification_bound_is_the_module_constant(monkeypatch):
    # a pipeline that calls every class divisible fails the cross-check
    # exactly for the cyclic groups the verification bound covers
    calls = []

    def everything_divisible(G, f, n):
        calls.append(G.order)
        return DivisibilityWitness(True, None, None)

    monkeypatch.setattr(obstruction, "is_n_divisible", everything_divisible)
    with pytest.raises(CheckFailed):
        spectrum_finite(cyclic_group(8))
    assert spectrum_finite(cyclic_group(9)).minimal == (3,)
    assert calls == [8]
    monkeypatch.setattr(obstruction, "SPECTRUM_VERIFY_LIMIT", 5)
    assert spectrum_finite(cyclic_group(6)).minimal == (2, 3)
    with pytest.raises(CheckFailed):
        spectrum_finite(cyclic_group(5))
    assert set(calls) == {8, 5}


def test_spectrum_finite_special_cases():
    assert spectrum_finite(cyclic_group(1)).is_empty
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert spectrum_finite(klein).is_all
    assert spectrum_finite(symmetric_group(3)).is_all


def test_spectrum_finite_agrees_with_direct_product_search():
    # Ob(Z/6) membership vs direct cyclicity of Z/6 x Z/n for n <= 10
    s = spectrum_finite(cyclic_group(6))
    for n in range(2, 11):
        product = direct_product(cyclic_group(6), cyclic_group(n))
        assert s.membership(n) == (not product.is_cyclic())


def test_torsion_part():
    assert spectrum_torsion_part([4]).minimal == (2,)
    assert spectrum_torsion_part([6, 35]).minimal == (2, 3, 5, 7)
    assert spectrum_torsion_part([]).is_empty
    G = cyclic_group(12)
    assert spectrum_torsion_part(G.element_order(g) for g in range(1, G.order)).minimal == (2, 3)
    with pytest.raises(ValueError, match="torsion order 1 is not an int >= 2"):
        spectrum_torsion_part((1,))


def test_torsion_part_matches_full_spectrum_for_cyclic():
    # for finite cyclic groups every obstruction comes from torsion
    for k in range(2, 13):
        G = cyclic_group(k)
        orders = (G.element_order(g) for g in range(1, G.order))
        assert spectrum_torsion_part(orders).minimal == spectrum_finite(G).minimal


def test_exponent_facts_examples():
    assert exponent_facts(4, 3, False) == "not-in-spectrum"
    assert exponent_facts(4, 4, False) == "in-spectrum"
    assert exponent_facts(5, 2, False) == "spectrum-equals-eN"
    assert exponent_facts(6, 4, False) == "undetermined"
    assert exponent_facts(6, 6, True) == "undetermined"
    with pytest.raises(ValueError):
        exponent_facts(1, 3, False)


def test_exponent_facts_needs_a_bool():
    # "no" is truthy, so it read as left-orderable: "undetermined" where
    # False gives "in-spectrum"
    for lo in ("no", 0, 1, None):
        with pytest.raises(ValueError, match="is not a bool"):
            exponent_facts(4, 4, lo)
    assert exponent_facts(4, 4, False) == "in-spectrum"


def test_frozen_values_store_tuples():
    # a caller's list was kept: unhashable, and unequal to the tuple's value
    assert ObstructionSpectrum(minimal=[2, 3]) == ObstructionSpectrum((2, 3))
    assert hash(ObstructionSpectrum(minimal=[2, 3])) == hash(ObstructionSpectrum((2, 3)))


def test_exponent_facts_table():
    from math import gcd
    for e in range(2, 9):
        for n in range(2, 9):
            for lo in (False, True):
                got = exponent_facts(e, n, lo)
                if not lo and is_prime(e):
                    want = "spectrum-equals-eN"
                elif gcd(n, e) == 1:
                    want = "not-in-spectrum"
                elif not lo and n == e:
                    want = "in-spectrum"
                else:
                    want = "undetermined"
                assert got == want, (e, n, lo)


def test_bico_product_decision():
    assert bico_product_decision({2, 3}, {5}) == "circularly_orderable"
    assert bico_product_decision({2, 3}, {3}) == "not_circularly_orderable"
    assert bico_product_decision({2}, set()) == "circularly_orderable"
    with pytest.raises(InvalidGroupError):
        bico_product_decision({4}, {3})


@pytest.mark.parametrize("call", [
    lambda: bico_product_decision([2.0], [3]),
    lambda: bico_product_decision([True], [3]),
    lambda: bico_product_decision([2], [3.0]),
    lambda: bico_product_decision([2], [True]),
    lambda: bico_product_decision([1], [3]),
    lambda: exponent_facts(2.0, 4, False),
    lambda: exponent_facts(3, 6.0, True),
    lambda: exponent_facts(True, 3, False),
    lambda: exponent_facts(3, True, False),
    lambda: exponent_facts(3, None, False),
])
def test_obstruction_numbers_are_exact_ints(call):
    # 2.0 and True compare equal to ints, and a set merges them into 2 and 1
    # a ValueError, not the InvalidGroupError of a composite G-side element
    with pytest.raises(ValueError, match="is not an int >= 2") as err:
        call()
    assert type(err.value) is ValueError


@pytest.mark.parametrize("n", [2.0, 2.5, True, 1, "4"])
def test_spectrum_elements_and_membership_are_exact_ints(n):
    # 2.0 and True compare equal to ints, so without the type check 2.0 was
    # in 2N and 2.5 in the full spectrum, while exponent_facts refused both
    for call in (lambda: n in ObstructionSpectrum.from_elements([2]),
                 lambda: ObstructionSpectrum(is_all=True).membership(n),
                 lambda: ObstructionSpectrum().membership(n),
                 lambda: ObstructionSpectrum.from_elements([3, n]),
                 lambda: ObstructionSpectrum((n,)),
                 lambda: spectrum_torsion_part((4, n)),
                 lambda: exponent_facts(n, 3, True)):
        with pytest.raises(ValueError, match="is not an int >= 2") as err:
            call()
        assert type(err.value) is ValueError


def test_bico_decision_consistent_with_cyclic_products():
    # Z/6 x Z/5 is cyclic of order 30: the decision must say orderable
    s6 = spectrum_finite(cyclic_group(6))
    s5 = spectrum_finite(cyclic_group(5))
    assert bico_product_decision(set(s6.minimal), set(s5.minimal)) == \
        "circularly_orderable"
    assert direct_product(cyclic_group(6), cyclic_group(5)).is_cyclic()
    s4 = spectrum_finite(cyclic_group(4))
    assert bico_product_decision(set(s6.minimal), set(s4.minimal)) == \
        "not_circularly_orderable"
    assert not direct_product(cyclic_group(6), cyclic_group(4)).is_cyclic()


def test_iterated_bound_examples():
    assert iterated_nonco_bound(cyclic_group(2)) == 4
    assert iterated_nonco_bound(cyclic_group(1)) == 1
    z44 = direct_product(cyclic_group(4), cyclic_group(4))
    m, e = cyclic_quotient_stats(z44)
    assert e == 4
    assert m == 10
    assert iterated_nonco_bound(z44) == 40
    with pytest.raises(InvalidGroupError):
        iterated_nonco_bound(symmetric_group(3))


def test_cyclic_quotient_stats_brute_force_cross_check():
    # independent count: subgroups of Z/4 x Z/4 as closures of element pairs
    from circorder.groups import closure, quotient
    z44 = direct_product(cyclic_group(4), cyclic_group(4))
    subgroups = set()
    for g in range(z44.order):
        for h in range(z44.order):
            subgroups.add(closure(z44, {g, h}))
    cyclic_quotients = [S for S in subgroups if quotient(z44, S).group.is_cyclic()]
    assert len(subgroups) == 15
    assert len(cyclic_quotients) == 10


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cyclic_quotient_stats_matches_the_subgroup_lattice(data):
    # products of up to three cyclic groups, |A| <= 32, in the product layout
    # and relabeled
    A = cyclic_group(data.draw(st.integers(1, 32)))
    for _ in range(data.draw(st.integers(0, 2))):
        A = direct_product(A, cyclic_group(data.draw(st.integers(1, 32 // A.order))))
    perm = data.draw(st.permutations(range(1, A.order)))
    expected = lattice_cyclic_quotient_stats(A)
    assert cyclic_quotient_stats(A) == expected
    assert cyclic_quotient_stats(relabeled(A, (0, *perm))) == expected


def test_cyclic_quotient_stats_on_a_large_elementary_abelian_group():
    # (Z/2)^7 has about 29,000 subgroups; its 128 cyclic ones are counted
    # directly, so the lattice is never walked
    A = cyclic_group(2)
    for _ in range(6):
        A = direct_product(A, cyclic_group(2))
    with time_budget(5):
        assert cyclic_quotient_stats(A) == (128, 2)


def test_an_expired_budget_raises_from_the_helper():
    # the alarm can interrupt a frame that has no line number, and pytest
    # fails to format such a traceback; the helper raises afresh, so the
    # traceback ends in its own frame and the message names the interrupted one
    def spin():
        while True:
            pass
    with pytest.raises(TimeoutError, match=r"over the 0.05 s budget, at spin \(") as info:
        with time_budget(0.05):
            spin()
    tb, names = info.value.__traceback__, []
    while tb is not None:
        assert tb.tb_lineno is not None
        names.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    assert names[-1] == "time_budget" and "spin" not in names
    assert info.value.__suppress_context__


def test_membership_helper_and_promislow_spectrum_shape():
    s = ObstructionSpectrum.from_elements([4])
    assert s.membership(4) and 12 in s
    assert not s.membership(2) and 6 not in s
    assert 9 in ObstructionSpectrum.from_elements([2, 3])
    assert MAPPING_CLASS_GROUP_SPECTRUM.is_all


def test_prime_helpers():
    assert prime_factors(360) == [2, 3, 5]
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(9)
