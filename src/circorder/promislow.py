"""The Promislow group as exact integer affine isometries.

The group <a, b | a b^2 a^-1 b^2, b a^2 b^-1 a^2> (the Hantzsche-Wendt
Bieberbach group) is realized with point-group parts among the diagonal sign
matrices I, A = diag(1,-1,-1), B = diag(-1,1,-1), AB = diag(-1,-1,1) and
*doubled* integer translations.  An element is the plain tuple (m, x, y, z):
the index m of its point-group part in SIGNS (0, 1, 2, 3 for I, A, B, AB),
then its doubled translation.  So a = (1, 1, 1, 0) and b = (2, 0, 1, 1)
stand for A and B followed by translations by (1/2, 1/2, 0) and
(0, 1/2, 1/2).  Doubling keeps every computation in Z; the lattice condition
becomes the parity constraint (x, y, z) mod 2 = PARITY[m], with cosets
I -> (0,0,0), A -> (1,1,0), B -> (0,1,1), AB -> (1,0,1).

It is circularly orderable but not left-orderable: the homomorphism to Z/2
killing b has left-orderable kernel (translations along y survive), and the
lexicographic construction glues a left order on that kernel to the unique
circular ordering of Z/2.  That construction is kept as
`promislow_lexicographic_order`.  The oracle the module evaluates,
`promislow_circular_order`, is the same ordering in closed form: cutting the
circle at the identity leaves a linear order on the other elements (the
positive kernel cone, then the coset aK, then the negative cone), so
c(g1, g2, g3) compares g1^-1 g2 with g1^-1 g3 in that order.  It branches
once on the parity of m1, which fixes the sign of y in g1^-1 g: each half
decides the bands (the coset, or the cones) from the parity of m and
compares raw y fields, the odd half with every order comparison mirrored.
Both halves read x and z differences only on a tie in y, in one place.
That is the lexicographic comparison of the keys (class, +-y, sigma_x x,
sigma_z z) without building the keys.  It compares no tuples for equality
either: on group elements, equal bands and y fields force equal
point-group parts by the parity constraint, so two of the arguments are
equal exactly when their x and z fields tie too, and the value is then 0.
The seeded self-check suite (`demo`) checks the axioms on the closed form
and its agreement with the construction on every triple of ball(2).  It
evaluates the closed form once on each of the 17^3 triples of ball(2) into
a table: the agreement count and the exhaustive axioms read it, and only
the invariance check calls the oracle again, on the translated triples, in
one map over columns of the product table per triple.
The sampled axioms call the oracle for every value; they draw indices into
the sampling ball, from the stream rng.choice would use, in batches of a
few thousand quadruples, and read each translated element h g from one
product table of the ball.
The module also provides word evaluation, balls and the abelianization onto
Z/4 x Z/4.
"""

from __future__ import annotations

import random
from itertools import repeat
from operator import add, sub

from .errors import BoundExceeded, CheckFailed, InvalidGroupError
from .obstruction import ObstructionSpectrum
from .orders import LeftOrderOracle, lexicographic_circular_order

BALL_RADIUS_LIMIT = 8
DEFAULT_SEED = 1729
# quadruples of index draws the sampled pass holds at once
_DRAW_BATCH = 2048

# diagonal signs of the point-group matrices, indexed I, A, B, AB
SIGNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
# required parity of the (doubled) translation for each point-group part
PARITY = ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1))


# (m, x, y, z) as in the module docstring.  An exact tuple, not a NamedTuple:
# CPython unpacks and indexes exact tuples on faster paths, and the demo's
# oracle unpacks millions of them.
_Element = tuple[int, int, int, int]

IDENTITY = (0, 0, 0, 0)
GEN_A = (1, 1, 1, 0)
GEN_B = (2, 0, 1, 1)


def prom_mul(p: _Element, q: _Element) -> _Element:
    pm, px, py, pz = p
    qm, qx, qy, qz = q
    sx, sy, sz = SIGNS[pm]
    return (pm ^ qm, px + sx * qx, py + sy * qy, pz + sz * qz)


def prom_inv(p: _Element) -> _Element:
    m, x, y, z = p
    sx, sy, sz = SIGNS[m]
    return (m, -sx * x, -sy * y, -sz * z)


_LETTERS = {"a": GEN_A, "A": prom_inv(GEN_A), "b": GEN_B, "B": prom_inv(GEN_B)}


def evaluate_word(word: str) -> _Element:
    """Product of generator letters; capitals are inverses ("aBa" = a b^-1 a)."""
    acc = IDENTITY
    for ch in word:
        if ch not in _LETTERS:
            raise InvalidGroupError(f"bad generator letter {ch!r} (use a, A, b, B)")
        acc = prom_mul(acc, _LETTERS[ch])
    return acc


def phi(p: _Element) -> int:
    """The quotient map to Z/2 with phi(a) = 1, phi(b) = 0."""
    return p[0] & 1


def kernel_is_positive(p: _Element) -> bool:
    """Positive cone on ker(phi): positive y-translation first, then the
    lexicographic order on (x, z) within the pure translations.

    Well-defined because both I and B fix the y-axis, so y is additive on the
    kernel, and its vanishing forces a pure translation.
    """
    if phi(p) != 0:
        raise InvalidGroupError(f"element {p} is outside the kernel of phi")
    _, x, y, z = p
    if y:
        return y > 0
    return x > 0 or (x == 0 and z > 0)


KERNEL_ORDER = LeftOrderOracle(kernel_is_positive, prom_mul, prom_inv, IDENTITY)


def _z2_order(a, b, c):  # pragma: no cover
    # Z/2 has no triples of distinct elements, so the lexicographic
    # construction never consults the quotient ordering here.
    raise RuntimeError("unreachable: distinct triple in Z/2")


promislow_lexicographic_order = lexicographic_circular_order(
    phi, KERNEL_ORDER, _z2_order, prom_mul, prom_inv)
"""The paper's construction of the ordering; the check on the closed form."""


def promislow_circular_order(g1: _Element, g2: _Element, g3: _Element) -> int:
    """Circular-ordering oracle on the whole group; values in {0, +1, -1}.

    The arguments are group elements: (m, x, y, z) tuples whose translation
    has the parity PARITY[m], as every product of GEN_A and GEN_B does.  The
    value is 0 exactly when two of them are equal, and otherwise +1 exactly
    when g1^-1 g2 comes before g1^-1 g3 in the linear order that cutting the
    circle at the identity leaves: the positive kernel cone (class 0), then
    the coset aK (class 1), then the negative cone (class 2).
    g1^-1 (m, x, y, z) = (m1 ^ m, S1 (x - x1, y - y1, z - z1)) with
    S1 = SIGNS[m1], so no element is built.

    The band decides first: g1^-1 g is in aK exactly when (m ^ m1) & 1, and
    otherwise in a cone.  Within a class g comes before g' when g^-1 g' is
    in the kernel cone, so y decides: in aK the larger y comes first
    (sigma_y = -1 there), in a cone the smaller, and the cone of g1^-1 g is
    the sign of its y.  That y is sigma_y (y - y1), with sigma_y = -1
    exactly when m1 is odd.

    So the oracle branches once, on m1 & 1, into two halves that compare
    raw y fields: y2 or y3 against y1 (which cone) or y2 against y3 (the
    order in one band), with no difference taken and no SIGNS read.  For an
    even m1, g1^-1 g is in aK exactly when m & 1, and sigma_y = 1.  For an
    odd m1, it is in aK exactly when not m & 1, and every y of g1^-1 g is
    the negated raw difference: the half reads the order as it would after
    negating y1, y2 and y3, and -a < -b exactly when a > b while -a == -b
    exactly when a == b.  So the odd half is the even half with each band
    test negated and each < or > between y fields swapped, and each
    equality test kept.

    A tie in y is read after the halves, in one place for both, and only
    there is SIGNS read.  Two elements in one band with equal y have the
    same m, by PARITY, so one is a pure translation of the other and
    d = sx dx or sz dz decides, with (sx, _, sz) = SIGNS of the first (the
    product SIGNS[m1] SIGNS[m1 ^ m2] for g2).  From g1, a translation
    g1^-1 g with d > 0 is the first element of the positive cone and with
    d < 0 the last of the negative one; from g2, g2 comes before g3 when
    d > 0.  This is the lexicographic order on the keys
    (class, +-y, sx x, sz z) of g1^-1 g2 and g1^-1 g3.  A half falls
    through to these lines only on such a tie, and they tell which one
    from the fields alone: with y equal to y1, g1^-1 g is in a cone, and so
    a pure translation, exactly when m equals m1.

    Equality is still read off these differences, with no tuple comparison:
    two elements tie in band and y only with equal m, and then d = 0
    exactly when they are equal.  So g1 == g2 (or g1 == g3) exactly when d
    from g1 is 0, and g2 == g3 exactly when band, y and then d from g2 tie.
    On tuples that break parity this fails, and the value may be wrong.
    """
    m1, x1, y1, z1 = g1
    m2, x2, y2, z2 = g2
    m3, x3, y3, z3 = g3
    if not m1 & 1:                        # even m1: aK is odd m
        if m2 & 1:                        # g1^-1 g2 in aK
            if m3 & 1:                    # both in aK: the larger y comes first
                if y2 > y3:
                    return 1
                if y2 < y3:
                    return -1
            elif y3 > y1:                 # g1^-1 g3 in a cone: -1 if positive
                return -1
            elif y3 < y1:
                return 1
        elif y2 != y1:                    # g1^-1 g2 in a cone
            if m3 & 1:                    # g1^-1 g3 in aK
                return 1 if y2 > y1 else -1
            if y3 != y1:                  # both in the cones
                if y2 > y1:
                    if y3 < y1:
                        return 1          # the positive cone comes first
                elif y3 > y1:
                    return -1
                if y2 < y3:               # one cone: the smaller y comes first
                    return 1
                if y2 > y3:
                    return -1
    else:                                 # odd m1, the mirror: aK is even m
        if not m2 & 1:                    # g1^-1 g2 in aK
            if not m3 & 1:                # both in aK: the smaller raw y first
                if y2 < y3:
                    return 1
                if y2 > y3:
                    return -1
            elif y3 < y1:                 # g1^-1 g3 in a cone: -1 if positive
                return -1
            elif y3 > y1:
                return 1
        elif y2 != y1:                    # g1^-1 g2 in a cone
            if not m3 & 1:                # g1^-1 g3 in aK
                return 1 if y2 < y1 else -1
            if y3 != y1:                  # both in the cones
                if y2 < y1:
                    if y3 > y1:
                        return 1          # the positive cone comes first
                elif y3 < y1:
                    return -1
                if y2 > y3:               # one cone: the larger raw y first
                    return 1
                if y2 < y3:
                    return -1
    # a tie in y, read the same in both halves
    if y2 == y1 and m2 == m1:             # g1^-1 g2 a translation: first or last
        sx, _, sz = SIGNS[m1]
        d = sx * (x2 - x1) or sz * (z2 - z1)
        if not d:
            return 0                      # g2 == g1
        if y3 != y1 or m3 != m1:
            return 1 if d > 0 else -1
        d3 = sx * (x3 - x1) or sz * (z3 - z1)
        if not d3:
            return 0                      # g3 == g1
        if (d > 0) != (d3 > 0):
            return 1 if d > 0 else -1
    elif y3 == y1 and m3 == m1:           # g1^-1 g3 a translation: first or last
        sx, _, sz = SIGNS[m1]
        d = sx * (x3 - x1) or sz * (z3 - z1)
        return (-1 if d > 0 else 1) if d else 0           # d = 0: g3 == g1
    # band and y tie, so m2 == m3: g2^-1 g3 is a translation
    sx, _, sz = SIGNS[m2]
    d = sx * (x3 - x2) or sz * (z3 - z2)
    return (1 if d > 0 else -1) if d else 0               # d = 0: g3 == g2


# Known obstruction spectrum of the group: exactly the multiples of 4.
# The product with Z/2 is still circularly orderable; the product with Z/4
# is not.  Shipped as data.
PROMISLOW_SPECTRUM = ObstructionSpectrum.from_elements([4])


def ball(radius: int) -> list[_Element]:
    """All elements expressible as words of length <= radius (at most
    BALL_RADIUS_LIMIT), sorted as (m, x, y, z) tuples."""
    if type(radius) is not int or radius < 0:
        raise InvalidGroupError(f"ball: radius {radius!r} is not an int >= 0")
    if radius > BALL_RADIUS_LIMIT:
        raise BoundExceeded(f"ball: radius {radius} > limit {BALL_RADIUS_LIMIT}")
    seen = {IDENTITY}
    frontier = [IDENTITY]
    steps = [GEN_A, prom_inv(GEN_A), GEN_B, prom_inv(GEN_B)]
    for _ in range(radius):
        nxt = []
        for p in frontier:
            for s in steps:
                q = prom_mul(p, s)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def abelianization_image(p: _Element) -> tuple[int, int]:
    """(a-exponent, b-exponent) mod 4 in the abelianization Z/4 x Z/4.

    Strips one a and one b according to the point-group part, then reads the
    remaining pure translation (2p, 2q, 2r) as (a^2)^p (b^2)^q ((ab)^2)^-r.
    """
    a_exp = b_exp = 0
    if p[0] & 1:
        p = prom_mul(_LETTERS["A"], p)
        a_exp = 1
    if p[0] == 2:
        p = prom_mul(_LETTERS["B"], p)
        b_exp = 1
    m, x, y, z = p
    if m != 0:
        raise CheckFailed(f"abelianization: stripping failed on {p}")
    return ((a_exp + x - z) % 4, (b_exp + y - z) % 4)


# -- self-checks -------------------------------------------------------------

RELATORS = ("abbAbb", "baaBaa")


def _product_table(mul, elems) -> list[list]:
    """hg[i][j] = mul(elems[i], elems[j]), each distinct product stored once:
    the 21,609 entries of ball(5) are 981 distinct elements."""
    shared: dict = {}
    return [[shared.setdefault(p, p) for p in [mul(h, g) for g in elems]] for h in elems]


def _exhaustive_axiom_counts(c, mul, small, table) -> dict:
    """The four circular-ordering axioms on every quadruple (g1, g2, g3, h)
    of `small`, with c on triples of `small` read from `table`.

    Only invariance calls the oracle `c`, on (h g1, h g2, h g3), with h g
    from `_product_table(mul, small)`: for each (i, j, k) in order, one map
    of c over the table's columns i, j and k (column i holds h g_i for
    every h in order), which counts the values equal to v.  Vanishing and
    antisymmetry do not depend on h, so each triple's verdict is counted
    once for every h; the cocycle terms c(g2, g3, h), c(g1, g3, h) and
    c(g1, g2, h) are all table entries.  The counts are those of the
    per-quadruple check."""
    n = len(small)
    cols = list(zip(*_product_table(mul, small)))   # cols[i][h] = h g_i
    failures = {"vanishing": 0, "antisymmetry": 0, "invariance": 0, "cocycle": 0}
    for i in range(n):
        ti = table[i]
        for j in range(n):
            tij, tj = ti[j], table[j]
            for k in range(n):
                v = tij[k]
                degenerate = i == j or j == k or i == k
                if (v == 0) != degenerate:
                    failures["vanishing"] += n
                if not degenerate:
                    tk = table[k]
                    if tj[i][k] != -v or ti[k][j] != -v or tk[j][i] != -v \
                            or tj[k][i] != v or tk[i][j] != v:
                        failures["antisymmetry"] += n
                failures["invariance"] += n - list(map(c, cols[i], cols[j], cols[k])).count(v)
                failures["cocycle"] += n - list(map(add, map(sub, tj[k], ti[k]), tij)).count(v)
    return {"checked": n ** 4, "failures": failures,
            "ok": not any(failures.values())}


def _sampled_axiom_counts(c, mul, big, rng, samples) -> dict:
    """The four circular-ordering axioms on `samples` quadruples
    (g1, g2, g3, h) drawn from `big` by `rng`, calling the oracle `c` for
    every value: 10 calls per nondegenerate quadruple.  The draws are the
    indices rng.choice would draw on CPython: getrandbits(k) with
    k = len(big).bit_length(), drawn again while >= len(big).  They come in
    batches of at most _DRAW_BATCH quadruples, each refilled by exactly its
    shortfall, so no raw draw is made past the last quadruple and rng is
    left where `samples` quadruples of rng.choice draws leave it.
    Degeneracy compares indices (the elements of `big` are distinct) and h g
    is read from `_product_table(mul, big)`, built only when samples > 0:
    its len(big)^2 products (21,609 on ball(5)) replace the 3 per quadruple,
    300,000 at the default 100,000 samples."""
    hg = _product_table(mul, big) if samples else []
    n = len(big)
    bits, k = rng.getrandbits, n.bit_length()
    vanishing = antisymmetry = invariance = cocycle = 0
    left = samples
    while left:
        batch = min(left, _DRAW_BATCH)
        left -= batch
        want = 4 * batch
        draws = []
        while len(draws) < want:
            draws += [r for r in map(bits, repeat(k, want - len(draws))) if r < n]
        it = iter(draws)
        for i1, i2, i3, ih in zip(it, it, it, it):
            g1, g2, g3, h = big[i1], big[i2], big[i3], big[ih]
            v = c(g1, g2, g3)
            degenerate = i1 == i2 or i2 == i3 or i1 == i3
            if (v == 0) != degenerate:
                vanishing += 1
            if not degenerate:
                w = -v
                if c(g2, g1, g3) != w or c(g1, g3, g2) != w or c(g3, g2, g1) != w \
                        or c(g2, g3, g1) != v or c(g3, g1, g2) != v:
                    antisymmetry += 1
            row = hg[ih]
            if c(row[i1], row[i2], row[i3]) != v:
                invariance += 1
            if c(g2, g3, h) - c(g1, g3, h) + c(g1, g2, h) - v != 0:
                cocycle += 1
    failures = {"vanishing": vanishing, "antisymmetry": antisymmetry,
                "invariance": invariance, "cocycle": cocycle}
    return {"checked": samples, "failures": failures,
            "ok": not any(failures.values())}


def demo(seed: int = DEFAULT_SEED, radius: int = 5, samples: int = 100_000) -> dict:
    """Relator, cone, ordering-axiom, agreement, and abelianization checks;
    JSON-able.  The axioms are checked on `promislow_circular_order`, read
    from the module at call time, so a wrapped or replaced oracle is the one
    checked.

    The oracle is evaluated once on every triple of ball(2) into a table.
    The exhaustive axioms over ball(2)^4 read vanishing, antisymmetry and
    the cocycle terms from it and call the oracle only for invariance, on
    (h g1, h g2, h g3): 17^3 + 17^4 = 88,434 calls.  `fast_vs_generic`
    counts the table entries that agree with `promislow_lexicographic_order`;
    `ok` needs every one.  The sampled pass calls the oracle for every value,
    on the quadruples rng.choice would draw from ball(radius).

    Deterministic given (seed, radius, samples); the seed is recorded in the
    report.  `radius` controls the sampling ball; the kernel cone's
    trichotomy check runs on ball(5) and its closure check on ball(4) at
    every radius.  Each argument must be an int (not a bool or None), and
    `samples` and `radius` must not be negative; otherwise InvalidGroupError.
    """
    for name, value in (("seed", seed), ("radius", radius), ("samples", samples)):
        if type(value) is not int:
            raise InvalidGroupError(f"demo: {name} {value!r} is not an int")
    if samples < 0:
        raise InvalidGroupError(f"demo: negative sample count {samples}")
    c = promislow_circular_order
    report: dict = {"seed": seed, "radius": radius, "samples": samples}
    report["relators"] = {
        word: evaluate_word(word) == IDENTITY for word in RELATORS}

    # ball(4) before ball(5), so a BALL_RADIUS_LIMIT of 3 names radius 4
    positive4 = [p for p in ball(4) if phi(p) == 0 and p != IDENTITY
                 and kernel_is_positive(p)]
    closure_bad = [(p, q) for p in positive4 for q in positive4
                   if not kernel_is_positive(prom_mul(p, q))]
    kernel5 = [p for p in ball(5) if phi(p) == 0]
    trichotomy_bad = [p for p in kernel5
                      if (kernel_is_positive(p), kernel_is_positive(prom_inv(p)),
                          p == IDENTITY).count(True) != 1]
    report["kernel_cone"] = {
        "kernel_ball5_size": len(kernel5),
        "trichotomy_failures": len(trichotomy_bad),
        "closure_pairs_checked": len(positive4) ** 2,
        "closure_failures": len(closure_bad),
        "ok": not trichotomy_bad and not closure_bad,
    }

    small = ball(2)
    table = [[[c(g1, g2, g3) for g3 in small] for g2 in small] for g1 in small]
    report["axioms_exhaustive_ball2"] = _exhaustive_axiom_counts(c, prom_mul, small, table)

    rng = random.Random(seed)
    big = ball(radius)
    report["ball_sizes"] = {str(r): len(ball(r)) for r in range(min(radius, 5) + 1)}
    report["axioms_sampled"] = _sampled_axiom_counts(c, prom_mul, big, rng, samples)

    # The closed form is left-invariant by construction, so the invariance
    # count cannot catch a wrong key; agreement with the construction can.
    agree = sum(table[i][j][k] == promislow_lexicographic_order(g1, g2, g3)
                for i, g1 in enumerate(small) for j, g2 in enumerate(small)
                for k, g3 in enumerate(small))
    report["fast_vs_generic"] = {"agree": agree, "triples": len(small) ** 3}

    images = {abelianization_image(p) for p in ball(4)}
    hom_bad = 0
    for _ in range(2000):
        p = big[rng.randrange(len(big))]
        q = big[rng.randrange(len(big))]
        ip, iq = abelianization_image(p), abelianization_image(q)
        want = ((ip[0] + iq[0]) % 4, (ip[1] + iq[1]) % 4)
        if abelianization_image(prom_mul(p, q)) != want:
            hom_bad += 1
    report["abelianization"] = {
        "image_size": len(images),
        "relators_die": all(abelianization_image(evaluate_word(w)) == (0, 0)
                            for w in RELATORS),
        "hom_failures": hom_bad,
        "ok": len(images) == 16 and hom_bad == 0,
    }

    report["ok"] = (all(report["relators"].values())
                    and report["kernel_cone"]["ok"]
                    and report["axioms_exhaustive_ball2"]["ok"]
                    and report["axioms_sampled"]["ok"]
                    and agree == len(small) ** 3
                    and report["abelianization"]["ok"])
    return report
