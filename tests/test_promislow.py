import ast
import hashlib
import inspect
import random
import sys
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from circorder import promislow
from circorder.cli import main
from circorder.errors import BoundExceeded, InvalidGroupError
import helpers
from helpers import axiom_counts, key_circular_order, make_element
from circorder.promislow import (BALL_RADIUS_LIMIT, GEN_A, GEN_B, IDENTITY,
                                 PROMISLOW_SPECTRUM, RELATORS, SIGNS,
                                 abelianization_image, ball, demo,
                                 evaluate_word, kernel_is_positive,
                                 phi, prom_inv, prom_mul,
                                 promislow_circular_order,
                                 promislow_lexicographic_order)

BALL5, BALL6, BALL8 = ball(5), ball(6), ball(8)


def test_generator_data():
    assert GEN_A == (1, 1, 1, 0)
    assert GEN_B == (2, 0, 1, 1)
    assert prom_mul(GEN_A, GEN_A) == (0, 2, 0, 0)
    assert prom_mul(prom_inv(GEN_B), GEN_B) == IDENTITY


def test_elements_are_plain_four_tuples():
    # the oracle's unpacking is fast only on exact tuples: no subclass
    for p in (IDENTITY, GEN_A, GEN_B, prom_mul(GEN_A, GEN_B), prom_inv(GEN_A),
              prom_inv(IDENTITY), evaluate_word("aBab"), evaluate_word(""), *BALL5):
        assert type(p) is tuple and len(p) == 4, p


def test_ball5_order_is_pinned():
    # the sampled draws index into ball(5), so its order fixes the reports
    assert len(BALL5) == 147
    assert BALL5[0] == (0, -4, 0, 0) and BALL5[1] == (0, -2, -2, -2)
    assert BALL5[-1] == (3, 3, 2, 1)
    assert hashlib.sha256(repr(BALL5).encode()).hexdigest() == \
        "891457cc533eb0ed2e5c3fdb8d7789b99e73ef1c1f52e67f2a586deb50fe03e8"


def test_relators_die():
    for word in RELATORS:
        assert evaluate_word(word) == IDENTITY
    with pytest.raises(InvalidGroupError):
        evaluate_word("axb")


def test_parity_is_preserved_under_multiplication():
    rng = random.Random(3)
    sphere = ball(3)
    from circorder.promislow import PARITY
    for _ in range(500):
        p = sphere[rng.randrange(len(sphere))]
        q = sphere[rng.randrange(len(sphere))]
        r = prom_mul(p, q)
        assert tuple(v % 2 for v in r[1:]) == PARITY[r[0]]
    with pytest.raises(InvalidGroupError):
        make_element(1, (0, 0, 0))  # wrong parity for A
    with pytest.raises(InvalidGroupError):
        make_element(7, (0, 0, 0))
    with pytest.raises(InvalidGroupError, match="bad element data"):
        make_element(0, (False, False, False))


def test_phi_is_surjective_hom():
    assert phi(GEN_A) == 1 and phi(GEN_B) == 0
    assert phi(prom_mul(GEN_A, GEN_B)) == 1
    sphere = ball(2)
    for p in sphere:
        for q in sphere:
            assert phi(prom_mul(p, q)) == (phi(p) + phi(q)) % 2
    # kernel = point-group parts I and B
    for p in sphere:
        assert (phi(p) == 0) == (p[0] in (0, 2))


def test_kernel_cone_examples():
    assert kernel_is_positive(GEN_B) is True
    assert kernel_is_positive((0, -2, 0, 0)) is False
    assert kernel_is_positive(IDENTITY) is False
    with pytest.raises(InvalidGroupError):
        kernel_is_positive(GEN_A)


def test_kernel_cone_trichotomy_and_closure():
    kernel5 = [p for p in ball(5) if phi(p) == 0]
    for p in kernel5:
        flags = (p == IDENTITY, kernel_is_positive(p),
                 kernel_is_positive(prom_inv(p)))
        assert sum(flags) == 1, p
    positive4 = [p for p in ball(4) if phi(p) == 0 and p != IDENTITY
                 and kernel_is_positive(p)]
    for p in positive4:
        for q in positive4:
            assert kernel_is_positive(prom_mul(p, q))


def test_kernel_cone_checks_do_not_follow_the_sampling_radius():
    # the trichotomy check runs on ball(5) and the closure check on ball(4)
    # whatever ball the sampled pass draws from
    want = demo(samples=0)["kernel_cone"]
    assert want["kernel_ball5_size"] == 77 and want["ok"]
    for radius in range(BALL_RADIUS_LIMIT + 1):
        assert demo(radius=radius, samples=0)["kernel_cone"] == want, radius


def test_circular_order_examples():
    c = promislow_circular_order
    assert c(IDENTITY, GEN_B, GEN_A) == 1
    assert c(GEN_A, GEN_A, GEN_B) == 0
    assert c(IDENTITY, prom_inv(GEN_B), GEN_B) == -1


def test_oracle_is_zero_exactly_on_repeated_elements():
    # the oracle detects equal elements from its coordinate differences, not
    # by comparing tuples, so pin both directions of the vanishing axiom
    c = promislow_circular_order
    sphere = ball(4)
    for g in sphere:
        for h in sphere:
            assert c(g, g, h) == c(g, h, g) == c(h, g, g) == 0, (g, h)
    small = ball(3)
    for g1 in small:
        for g2 in small:
            if g2 != g1:
                for g3 in small:
                    if g3 != g1 and g3 != g2:
                        assert c(g1, g2, g3) != 0, (g1, g2, g3)


def test_circular_order_axioms_on_ball2():
    c = promislow_circular_order
    sphere = ball(2)
    for g1 in sphere:
        for g2 in sphere:
            for g3 in sphere:
                v = c(g1, g2, g3)
                degenerate = g1 == g2 or g2 == g3 or g1 == g3
                assert (v == 0) == degenerate
                if not degenerate:
                    assert c(g2, g1, g3) == -v
                    assert c(g2, g3, g1) == v


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(BALL8),
       st.lists(st.sampled_from(BALL5), min_size=3, max_size=3, unique=True))
def test_closed_form_matches_the_construction_off_ball5(h, gs):
    # translating by h takes the triple outside ball(5), where the key's
    # coordinates are larger than any the demo's ball(2) agreement sees;
    # distinct triples, since repeats give 0 on both sides
    g1, g2, g3 = (prom_mul(h, g) for g in gs)
    assert promislow_circular_order(g1, g2, g3) == \
        promislow_lexicographic_order(g1, g2, g3)


# repeat patterns for three draws: all distinct, and every way to repeat
_REPEATS = ((0, 1, 2), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 0, 0))
# pure x- or z-translations by up to 6 lattice steps (doubled coordinates)
_TRANSLATIONS = st.builds(
    lambda axis, k: make_element(0, (2 * k, 0, 0) if axis == "x" else (0, 0, 2 * k)),
    st.sampled_from("xz"), st.integers(-6, 6))


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(BALL8), min_size=3, max_size=3),
       st.sampled_from(_REPEATS), st.sampled_from(BALL8))
def test_field_by_field_oracle_matches_the_key_tuples(draws, repeat, h):
    triple = tuple(draws[i] for i in repeat)
    for g1, g2, g3 in (triple, tuple(prom_mul(h, g) for g in triple)):
        assert promislow_circular_order(g1, g2, g3) == key_circular_order(g1, g2, g3)


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(BALL8), st.sampled_from(BALL8) | _TRANSLATIONS,
       _TRANSLATIONS, st.booleans(), st.sampled_from(BALL8))
def test_field_by_field_oracle_matches_the_key_tuples_on_y_ties(g1, g2, t, swap, h):
    # g3 = g2 t ties g1^-1 g2 and g1^-1 g3 in class and y, so the x and z
    # fields decide; a translation g2 puts g1^-1 g2 in the kernel with
    # y = 0, where x and z also decide the cone class
    if g2[0] == 0 and g2[2] == 0:
        g2 = prom_mul(g1, g2)
    g3 = prom_mul(g2, t)
    if swap:
        g2, g3 = g3, g2
    for a, b, c in ((g1, g2, g3), (prom_mul(h, g1), prom_mul(h, g2), prom_mul(h, g3))):
        assert promislow_circular_order(a, b, c) == key_circular_order(a, b, c)


_ODD6 = [g for g in BALL6 if g[0] & 1]


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(_ODD6), st.sampled_from(BALL6) | _TRANSLATIONS,
       _TRANSLATIONS | st.sampled_from(BALL6), st.booleans())
def test_the_odd_half_is_the_even_half_translated(g1, g2, t, swap):
    # g1^-1 takes an odd g1 to IDENTITY, which is in the even half, so by
    # left invariance every value of the mirrored half is one of the other;
    # a translation t gives the y ties of the key-tuple test above, and a
    # translation g2 a tie with g1 (g2 = g1 at t = 0)
    if g2[0] == 0 and g2[2] == 0:
        g2 = prom_mul(g1, g2)
    g3 = prom_mul(g2, t)
    if swap:
        g2, g3 = g3, g2
    inv = prom_inv(g1)
    assert promislow_circular_order(g1, g2, g3) == promislow_circular_order(
        IDENTITY, prom_mul(inv, g2), prom_mul(inv, g3))


def test_every_return_of_the_oracle_is_reached_on_ball3():
    # the values are checked on every triple of ball(3), but a branch that
    # no triple enters is checked on none, so every return line is reached
    code = promislow_circular_order.__code__
    tree = ast.parse(inspect.getsource(promislow_circular_order))
    returns = {code.co_firstlineno + node.lineno - 1
               for node in ast.walk(tree) if isinstance(node, ast.Return)}
    reached = set()

    def lines(frame, event, arg):
        if event == "line":
            reached.add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code is code else None
    triples = list(product(ball(3), repeat=3))
    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        values = [promislow_circular_order(*t) for t in triples]
    finally:
        sys.settrace(previous)
    assert returns and returns <= reached, sorted(returns - reached)
    assert values == [key_circular_order(*t) for t in triples]


def test_oracle_matches_the_key_tuples_on_every_ball3_triple():
    # every triple of ball(3), and of its translate by an h outside ball(5):
    # every pair of bands, y tie, pure translation and repeat that ball(3)
    # holds, at small and at larger coordinates
    h = evaluate_word("aaabbb")
    assert h not in BALL5
    small = ball(3)
    for elems in (small, [prom_mul(h, g) for g in small]):
        bad = next((t for t in product(elems, repeat=3)
                    if promislow_circular_order(*t) != key_circular_order(*t)), None)
        assert bad is None, bad


def test_a_wrong_key_fails_the_demo(monkeypatch, capsys):
    # the key-tuple route with sigma_x dropped from the key stands in for
    # the oracle: a wrong ordering that is still left-invariant (every key
    # gives one), so the invariance count stays 0 and the agreement count
    # with the construction must catch it
    key = helpers._cut_key
    monkeypatch.setattr(helpers, "_cut_key",
                        lambda m, x, y, z: key(m, SIGNS[m][0] * x, y, z))
    monkeypatch.setattr(promislow, "promislow_circular_order", key_circular_order)
    report = demo(samples=200)
    assert report["fast_vs_generic"]["triples"] == 17 ** 3
    assert report["fast_vs_generic"]["agree"] < 17 ** 3
    assert report["axioms_exhaustive_ball2"]["failures"]["invariance"] == 0
    assert report["ok"] is False
    assert main(["promislow", "--samples", "200"]) == 1
    assert "check failed" in capsys.readouterr().err


def _negated_at_a(g1, g2, g3):
    v = promislow_circular_order(g1, g2, g3)
    return -v if GEN_A in (g1, g2, g3) else v


def _zero_on_one_triple(g1, g2, g3):
    if (g1, g2, g3) == (IDENTITY, GEN_A, GEN_B):
        return 0
    return promislow_circular_order(g1, g2, g3)


def _abs_when_increasing(g1, g2, g3):
    v = promislow_circular_order(g1, g2, g3)
    return abs(v) if g1 < g2 else v


def test_corrupted_oracles_are_counted_per_quadruple(monkeypatch):
    # the demo reads one table of oracle values on ball(2); under a wrong
    # oracle its exhaustive counts must still be those of the check that
    # calls the oracle on every quadruple
    small = ball(2)
    quadruples = [(g1, g2, g3, h) for g1 in small for g2 in small
                  for g3 in small for h in small]
    seen = set()
    for oracle in (_negated_at_a, _zero_on_one_triple, _abs_when_increasing):
        monkeypatch.setattr(promislow, "promislow_circular_order", oracle)
        want = axiom_counts(quadruples)
        assert want["checked"] == 17 ** 4 and not want["ok"]
        assert demo(samples=0)["axioms_exhaustive_ball2"] == want
        seen |= {kind for kind, count in want["failures"].items() if count}
    assert seen == {"vanishing", "antisymmetry", "invariance", "cocycle"}


def test_exhaustive_pass_calls_in_order():
    # the counts alone would not see a reordered pass: the invariance calls
    # must run over the triples (i, j, k) of ball(2) in order, and for each
    # over the rows r of the product table in order
    small = ball(2)
    n = len(small)
    table = [[[promislow_circular_order(g1, g2, g3) for g3 in small] for g2 in small]
             for g1 in small]
    calls = []

    def recording(g1, g2, g3):
        calls.append((g1, g2, g3))
        return promislow_circular_order(g1, g2, g3)
    report = promislow._exhaustive_axiom_counts(recording, prom_mul, small, table)
    hg = [[prom_mul(h, g) for g in small] for h in small]
    assert calls == [(r[i], r[j], r[k]) for i in range(n) for j in range(n)
                     for k in range(n) for r in hg]
    assert report["ok"] and report["checked"] == n ** 4


def _choice_quadruples(seed, radius, samples):
    """The quadruples rng.choice draws, and the rng after drawing them."""
    rng = random.Random(seed)
    big = ball(radius)
    return [tuple(rng.choice(big) for _ in range(4)) for _ in range(samples)], rng


@pytest.mark.parametrize("radius", [0, 2, 5, 8])
@pytest.mark.parametrize("seed", [1729, 7, 8])
def test_sampled_draws_are_those_of_rng_choice(monkeypatch, seed, radius):
    # the sampler draws indices from the stream rng.choice reads, so it must
    # make the calls the one-quadruple-at-a-time route makes on the
    # rng.choice draws, in order, and leave rng where they leave it; a
    # Python whose choice draws differently fails here, not in the reports.
    # The draws come in batches: 3,000 samples span two at the module's
    # batch size, and batches of 7 quadruples split 500 into 72, the last
    # one short, so a refill that draws past its shortfall fails too
    calls = []

    def recording(g1, g2, g3):
        calls.append((g1, g2, g3))
        return promislow_circular_order(g1, g2, g3)
    monkeypatch.setattr(promislow, "promislow_circular_order", recording)
    runs = [(500, promislow._DRAW_BATCH), (500, 7)]
    if radius in (5, 8):
        runs.append((3000, promislow._DRAW_BATCH))
    for samples, batch in runs:
        monkeypatch.setattr(promislow, "_DRAW_BATCH", batch)
        calls.clear()
        rng = random.Random(seed)
        got = promislow._sampled_axiom_counts(recording, prom_mul, ball(radius), rng,
                                              samples)
        sampled = calls[:]
        calls.clear()
        quadruples, after = _choice_quadruples(seed, radius, samples)
        assert got == axiom_counts(quadruples)
        # every call, so also each quadruple's first call c(g1, g2, g3)
        assert sampled == calls and len(calls) >= 5 * samples
        assert rng.getstate() == after.getstate()


def test_corrupted_oracles_are_counted_per_sampled_quadruple(monkeypatch):
    seen = set()
    quadruples, _ = _choice_quadruples(1729, 5, 3000)
    for oracle in (_negated_at_a, _zero_on_one_triple, _abs_when_increasing):
        monkeypatch.setattr(promislow, "promislow_circular_order", oracle)
        got = demo(samples=3000)["axioms_sampled"]
        assert got == axiom_counts(quadruples)
        seen |= {kind for kind, count in got["failures"].items() if count}
    # the one zeroed triple is never drawn as (g1, g2, g3) here, so
    # vanishing reads 0 on both routes; the exhaustive test above sees it
    assert seen == {"antisymmetry", "invariance", "cocycle"}


# the report of demo() at the default arguments, pinned from the route that
# called the oracle on every quadruple; only the seed differs between seeds
_DEFAULT_REPORT = {
    "radius": 5, "samples": 100_000,
    "relators": {"abbAbb": True, "baaBaa": True},
    "kernel_cone": {"kernel_ball5_size": 77, "trichotomy_failures": 0,
                    "closure_pairs_checked": 484, "closure_failures": 0, "ok": True},
    "axioms_exhaustive_ball2": {
        "checked": 83521,
        "failures": {"vanishing": 0, "antisymmetry": 0, "invariance": 0, "cocycle": 0},
        "ok": True},
    "ball_sizes": {"0": 1, "1": 5, "2": 17, "3": 41, "4": 83, "5": 147},
    "axioms_sampled": {
        "checked": 100000,
        "failures": {"vanishing": 0, "antisymmetry": 0, "invariance": 0, "cocycle": 0},
        "ok": True},
    "fast_vs_generic": {"agree": 4913, "triples": 4913},
    "abelianization": {"image_size": 16, "relators_die": True, "hom_failures": 0,
                       "ok": True},
    "ok": True,
}


def test_demo_oracle_calls_and_reports(monkeypatch):
    # one table of the 17^3 ball(2) values, plus one invariance call per
    # quadruple of ball(2)^4; the sampled pass makes none at samples=0.
    # The sampled counts were taken from the route that drew with
    # rng.randrange and compared whole key tuples: a cheaper call must not
    # change how many calls the demo makes.
    calls = 0

    def counted(g1, g2, g3):
        nonlocal calls
        calls += 1
        return promislow_circular_order(g1, g2, g3)
    monkeypatch.setattr(promislow, "promislow_circular_order", counted)
    for samples, want in ((0, 17 ** 3 + 17 ** 4), (2000, 108_244)):
        calls = 0
        demo(samples=samples)
        assert calls == want
    calls = 0
    assert demo() == {"seed": 1729, **_DEFAULT_REPORT}
    assert calls == 1_078_684
    monkeypatch.undo()
    for seed in (7, 8):   # seed 1729 is the counted run above
        assert demo(seed=seed) == {"seed": seed, **_DEFAULT_REPORT}


def test_sampled_pass_builds_its_product_table_only_for_samples(monkeypatch):
    # the exhaustive pass builds one table on ball(2); the sampled pass's
    # table on ball(radius) (275,625 products at radius 8) only if it is read
    sizes = []
    build = promislow._product_table

    def recording(mul, elems):
        sizes.append(len(elems))
        return build(mul, elems)
    monkeypatch.setattr(promislow, "_product_table", recording)
    demo(radius=8, samples=0)
    assert sizes == [17]
    sizes.clear()
    demo(radius=8, samples=1)
    assert sizes == [17, 525]


def test_circular_order_invariance_and_cocycle_sampled():
    c = promislow_circular_order
    rng = random.Random(99)
    sphere = ball(5)
    for _ in range(4000):
        g1, g2, g3, h = (sphere[rng.randrange(len(sphere))] for _ in range(4))
        v = c(g1, g2, g3)
        assert c(prom_mul(h, g1), prom_mul(h, g2), prom_mul(h, g3)) == v
        assert c(g2, g3, h) - c(g1, g3, h) + c(g1, g2, h) - v == 0


def test_ball_sizes_and_bound():
    assert [len(ball(r)) for r in range(4)] == [1, 5, 17, 41]
    assert (0, 2, 0, 0) in ball(2)
    assert len(BALL8) == 525
    with pytest.raises(BoundExceeded):
        ball(9)
    # a negative radius is bad input, not an exceeded bound
    with pytest.raises(InvalidGroupError):
        ball(-1)
    with pytest.raises(InvalidGroupError):
        demo(radius=-1)
    # a negative sample count is bad input, not a run with no sampled checks
    with pytest.raises(InvalidGroupError):
        demo(samples=-5)
    assert demo(samples=0)["axioms_sampled"]["checked"] == 0


@pytest.mark.parametrize("name, value", [
    ("seed", None), ("seed", 1.0), ("seed", True), ("radius", 2.0),
    ("radius", True), ("samples", 1.5), ("samples", True), ("samples", None),
])
def test_demo_arguments_must_be_ints(name, value):
    # None would seed from OS entropy, a bool would pass as 0 or 1 and a
    # float would fail deep inside with a bare TypeError
    with pytest.raises(InvalidGroupError, match=f"demo: {name} .* is not an int"):
        demo(**{name: value})


@pytest.mark.parametrize("radius", [2.0, True, None, "2"])
def test_ball_radius_must_be_an_int(radius):
    with pytest.raises(InvalidGroupError, match="is not an int >= 0"):
        ball(radius)


def test_ball_bound_is_the_module_constant(monkeypatch, capsys):
    monkeypatch.setattr(promislow, "BALL_RADIUS_LIMIT", 3)
    assert len(ball(3)) == 41
    with pytest.raises(BoundExceeded):
        ball(4)
    # the demo's cone checks use ball(4), so the CLI hits the same bound
    assert main(["promislow", "--radius", "3", "--samples", "0"]) == 3
    assert "ball: radius 4 > limit 3" in capsys.readouterr().err


def test_torsion_free_sample():
    for p in ball(4):
        if p == IDENTITY:
            continue
        x = p
        for _ in range(8):
            assert x != IDENTITY or p == IDENTITY
            x = prom_mul(x, p)


def test_abelianization():
    assert abelianization_image(GEN_A) == (1, 0)
    assert abelianization_image(GEN_B) == (0, 1)
    assert abelianization_image(prom_mul(GEN_A, GEN_B)) == (1, 1)
    assert abelianization_image(evaluate_word("aaaa")) == (0, 0)
    assert abelianization_image(evaluate_word("bbbb")) == (0, 0)
    for word in RELATORS:
        assert abelianization_image(evaluate_word(word)) == (0, 0)
    images = {abelianization_image(p) for p in ball(4)}
    assert len(images) == 16
    rng = random.Random(5)
    sphere = ball(4)
    for _ in range(500):
        p = sphere[rng.randrange(len(sphere))]
        q = sphere[rng.randrange(len(sphere))]
        ip, iq = abelianization_image(p), abelianization_image(q)
        assert abelianization_image(prom_mul(p, q)) == \
            ((ip[0] + iq[0]) % 4, (ip[1] + iq[1]) % 4)


def test_spectrum_constant():
    assert PROMISLOW_SPECTRUM.minimal == (4,)
    assert not PROMISLOW_SPECTRUM.membership(2)
    assert PROMISLOW_SPECTRUM.membership(4)
    assert PROMISLOW_SPECTRUM.membership(8)
    assert PROMISLOW_SPECTRUM.membership(12)


def test_demo_quick_run_is_deterministic():
    rep1 = demo(seed=7, samples=1500)
    rep2 = demo(seed=7, samples=1500)
    assert rep1 == rep2
    assert rep1["ok"] and rep1["seed"] == 7
    rep3 = demo(seed=8, samples=1500)
    assert rep3["ok"]
