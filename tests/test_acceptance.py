"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime (run with `pytest -s tests/test_acceptance.py` to see them all).

Every tolerance is exact (integer equality); the runtime budgets are the
stated ones.
"""

import time
from math import gcd

from circorder.groups import cyclic_group, direct_product, symmetric_group
from circorder.orders import (arrangement_to_inhom, enumerate_circular_orders,
                              validate_hom, validate_inhom)
from circorder.extensions import (CentralExtElement, CentralExtensionGroup,
                                  hat_ordering, minimal_generator)
from circorder.cohomology import (coboundary_matrices, h2_structure,
                                  is_n_divisible, is_trivial_mod_n,
                                  smith_normal_form)
from circorder.obstruction import spectrum_finite
from circorder.promislow import PROMISLOW_SPECTRUM, demo

from helpers import (cocycle_vector, euler_phi, find_isomorphism, hom_to_inhom_formula,
                     inhom_to_hom_formula, invariant_factors_from_diagonal,
                     is_coboundary_mod, library_groups,
                     naive_diagonalize, primes_dividing, quotient_by_cyclic_central,
                     quotient_by_power, seeded_random_matrices, verify_snf)


def _report(number, budget, started, label):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.1f}s): {label}")


def orderings_of(G):
    return [arrangement_to_inhom(a) for a in enumerate_circular_orders(G)]


def test_criterion_1_conversion_round_trips():
    started = time.time()
    checked = 0
    for G in library_groups():
        if G.order > 8:
            continue
        for arr in enumerate_circular_orders(G):
            f = arrangement_to_inhom(arr)                # inhomogeneous form, validated below
            c = inhom_to_hom_formula(G, f.values)        # homogeneous form, validated below
            assert hom_to_inhom_formula(G, c) == f.values
            assert inhom_to_hom_formula(G, hom_to_inhom_formula(G, c)) == c
            assert validate_hom(G, c) == f
            validate_inhom(G, f.values)
            checked += 1
    assert checked > 0
    _report(1, 5, started, f"both round trips exact on {checked} orderings, all validated")


def test_criterion_2_enumeration_counts():
    started = time.time()
    for n in range(2, 13):
        got = len(enumerate_circular_orders(cyclic_group(n)))
        assert got == euler_phi(n), (n, got)
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    z3z3 = direct_product(cyclic_group(3), cyclic_group(3))
    for G in (klein, z3z3, symmetric_group(3)):
        assert enumerate_circular_orders(G) == []
    _report(2, 10, started,
            "counts on Z/n equal Euler phi for n in 2..12; zero for Z/2^2, Z/3^2, S3")


def test_criterion_3_three_way_agreement():
    started = time.time()
    disagreements = 0
    for k in range(2, 9):
        G = cyclic_group(k)
        fs = orderings_of(G)
        for n in range(2, 9):
            by_divisibility = any(is_n_divisible(G, f, n).divisible for f in fs)
            by_gcd = gcd(n, k) == 1
            product = direct_product(G, cyclic_group(n))
            if k * n <= 12:
                by_search = bool(enumerate_circular_orders(product))
            else:
                by_search = product.is_cyclic()
            if not (by_divisibility == by_gcd == by_search):
                disagreements += 1
    assert disagreements == 0
    _report(3, 30, started,
            "divisibility, gcd arithmetic, and direct search agree on all 49 products")


def test_criterion_4_triviality_equals_divisibility_with_witnesses():
    started = time.time()
    for k in range(2, 9):
        G = cyclic_group(k)
        d1, _ = coboundary_matrices(G)
        for f in orderings_of(G):
            fvec = cocycle_vector(G, f)
            for n in range(2, 9):
                result = is_n_divisible(G, f, n)
                # the [d1 | nI] solve is a route the library does not take
                assert (is_trivial_mod_n(G, f, n) == result.divisible
                        == is_coboundary_mod(G, f, n)
                        == h2_structure(G, n).project(f).is_zero())
                if result.divisible:
                    # re-verify the witness by direct substitution
                    mu_vec = cocycle_vector(G, result.mu)
                    d1u = d1.mul_vector(result.coboundary_of)
                    assert all(fv == n * mv + cv
                               for fv, mv, cv in zip(fvec, mu_vec, d1u))
    _report(4, 30, started,
            "mod-n triviality, n-divisibility, the [d1 | nI] solve and the H^2(G; Z/n) "
            "projection agree; all witnesses substituted back")


def test_criterion_5_cohomology_engine():
    started = time.time()
    for k in range(2, 9):
        assert h2_structure(cyclic_group(k)).invariant_factors == (k,)
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert h2_structure(klein).invariant_factors == (2, 2)
    # independent oracle: a from-scratch elimination (different strategy, no
    # transforms) must give the same invariant factors on the coboundary
    # matrices that feed the pipeline
    for G in (cyclic_group(2), cyclic_group(3), cyclic_group(4), klein):
        for M in coboundary_matrices(G):
            got = list(smith_normal_form(M).diagonal)
            want = invariant_factors_from_diagonal(naive_diagonalize(M.data))
            assert got == want
    count = 0
    for M in seeded_random_matrices(20230815, count=100, max_dim=50):
        r = smith_normal_form(M)
        verify_snf(r, check_determinants=True)  # U M V diagonal, dets +-1, chain
        count += 1
    assert count == 100
    _report(5, 10, started,
            "invariant factors [k] and [2,2]; postconditions on 100 seeded matrices")


def test_criterion_6_extension_constructions():
    started = time.time()
    cases = 0
    for k in range(2, 9):
        G = cyclic_group(k)
        for f in orderings_of(G):
            # the Z-extension is infinite cyclic on the minimal generator lift
            E = CentralExtensionGroup(G, f)
            w = CentralExtElement(0, minimal_generator(G, f))
            assert E.power(w, k) == E.iota(1)
            powers = set()
            for j in range(-2 * k, 2 * k + 1):
                x = E.power(w, j)
                assert x not in powers
                powers.add(x)
            for a in (-1, 0):
                for g in range(k):
                    assert CentralExtElement(a, g) in powers

            for n in range(2, 13):
                if n * k > 24:
                    continue
                hat = hat_ordering(G, f, n)
                validate_inhom(hat.group, hat.values)  # exhaustive, again
                qp = quotient_by_power(G, f, n)
                assert qp.group.table == hat.group.table
                assert qp.ordering.values == hat.values
                assert find_isomorphism(qp.group, hat.group) is not None
                cases += 1

            for d in range(2, k + 1):
                if k % d:
                    continue
                K = {G.power(k // d, j) for j in range(d)}
                res = quotient_by_cyclic_central(G, f, K)
                # p_n fbar = f_nu elementwise, via the returned section
                nu, Q, z = res.section, res.group, res.generator
                dlog = {G.power(z, j): j for j in range(d)}
                for q1 in range(Q.order):
                    for q2 in range(Q.order):
                        defect = G.mul(G.mul(nu[q1], nu[q2]),
                                       G.inv(nu[Q.table[q1][q2]]))
                        assert dlog[defect] == res.ordering.values[q1][q2] % d
    assert cases >= 50
    _report(6, 60, started,
            f"extension, hat/quotient agreement, and section identities over {cases} cases")


def test_criterion_7_promislow_demo():
    started = time.time()
    report = demo(seed=1729, radius=5, samples=100_000)
    assert all(report["relators"].values())
    assert report["kernel_cone"]["trichotomy_failures"] == 0
    assert report["kernel_cone"]["closure_failures"] == 0
    ex = report["axioms_exhaustive_ball2"]
    assert ex["checked"] == 17 ** 4 and not any(ex["failures"].values())
    sm = report["axioms_sampled"]
    assert sm["checked"] == 100_000 and not any(sm["failures"].values())
    assert report["abelianization"]["image_size"] == 16
    assert report["abelianization"]["relators_die"]
    assert report["fast_vs_generic"] == {"agree": 17 ** 3, "triples": 17 ** 3}
    assert report["ok"]
    _report(7, 60, started,
            "relators, cone, 83521 exhaustive + 100000 sampled axiom checks, abelianization")


def test_criterion_8_obstruction_facts():
    started = time.time()
    from circorder.obstruction import exponent_facts, is_prime
    for k in range(2, 13):
        assert spectrum_finite(cyclic_group(k)).minimal == tuple(primes_dividing(k))
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
    assert PROMISLOW_SPECTRUM.membership(2) is False
    assert PROMISLOW_SPECTRUM.membership(4) is True
    assert PROMISLOW_SPECTRUM.membership(8) is True
    assert PROMISLOW_SPECTRUM.membership(12) is True
    _report(8, 5, started,
            "cyclic spectra, exponent verdict table, and the 4N constant all check out")
