"""Circular orderings on groups: representations, validation, conversion,
enumeration.

A finite group is circularly orderable only when it is cyclic, so a checked
ordering of one is its positions pos: G -> Z/|G|, an isomorphism with pos(g)
the place of g counterclockwise from the identity.  That is the one stored
form (`_Positions`); the two encodings are views of it:

* ``Arrangement`` -- the elements listed counterclockwise around the circle,
  starting at the identity, i.e. pos inverted.  This is the canonical finite
  form: O(n) storage and trivially deduplicated.
* ``InhomCircularOrder`` -- a normalized 2-cocycle f: G x G -> {0,1} with
  f(g, g^-1) = 1 off the identity, the carry bit [pos g + pos h >= |G|].
  Think of f(g,h) = 1 as "right multiplication by h drags g
  counterclockwise past the identity"; row g of f holds pos(g) ones.

Each view builds its sequence or its |G|^2 values on first read, and
`arrangement_to_inhom` passes pos across to the one inhomogeneous view an
arrangement keeps.  A group keeps its enumerated arrangements, so their
walks run and their values are built once per group.  The paper's
homogeneous form, a left-invariant alternating function
c: G^3 -> {0,+1,-1} vanishing exactly on degenerate triples and +1 on
counterclockwise ones, is an input only:
`validate_hom` checks it and returns its inhomogeneous view, and
`ordering_from_json` reads kind "hom" through it.  Each raw input has one
check, which reads pos off it (`arrangement_from_sequence`,
`validate_inhom`, `validate_hom`, and the views' constructors for a pos
given as it is), and the enumeration's walks prove themselves, so no
ordering is checked twice.

Every ordering that the other modules take passes one gate here:
`as_ordering` (or `cocycle_values` and `cocycle_sums`, where any cocycle
will do) trusts any view on the group's own table and checks anything else.
A raw matrix's cocycle identity is checked by Light's associativity test on
its central extension, in O(|G|^2 k) for the k <= log2 |G| generators the
group's validation kept (`_identity_failure`), and a raw homogeneous
cocycle against the chart of the positions read off it, in O(|G|^3)
(`validate_hom`); the scans of all triples or quadruples run only to name a
failure.
Orderings on infinite carriers (see the promislow module) are exposed as
evaluation oracles on triples and never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import add, itemgetter, sub
from typing import Any, Callable, Optional, Sequence

from .errors import AxiomError, BoundExceeded, CheckFailed, InvalidGroupError, require
from .groups import FiniteGroup, _powers, cyclic_group, group_from_json, group_to_json

ENUMERATION_ORDER_LIMIT = 12


class _Positions:
    """An ordering of a finite group kept as its one stored form: pos, the
    checked isomorphism G -> Z/|G| (an ordered finite group is cyclic, and
    pos(g) is g's place counterclockwise from the identity), as a tuple.
    The constructor checks pos (`_checked_positions`) and raises AxiomError
    unless it is an isomorphism.  Code that has already proved its pos (the
    checks of raw input, the enumeration's walks, `arrangement_to_inhom` and
    `standard_order_zn`) builds views by `_trusted`.  Equal, with nothing
    built, when their types, tables and positions are; hashed by pos."""

    def __init__(self, group: FiniteGroup, pos: Sequence[int]):
        self.group, self.pos = group, _checked_positions(group, tuple(pos), is_sequence=False)

    @classmethod
    def _trusted(cls, group: FiniteGroup, pos: tuple):
        """The view of a pos its caller has proved an isomorphism, unchecked."""
        view = cls.__new__(cls)
        view.group, view.pos = group, pos
        return view

    def __eq__(self, other):
        return type(other) is type(self) and (self.group, self.pos) == (other.group, other.pos)

    def __hash__(self):
        return hash(self.pos)

    def __repr__(self):
        return f"{type(self).__name__}({self.group!r}, pos={self.pos!r})"


class InhomCircularOrder(_Positions):
    """Checked inhomogeneous form: the carry bit f(g, h) = [pos g + pos h >=
    |G|], a normalized 0/1 cocycle with f(g, g^-1) = 1 off the identity, so
    row g holds pos(g) ones.  as_ordering trusts it on its own group's table;
    its |G|^2 values are built on first read."""

    @cached_property
    def values(self) -> tuple:   # order x order over {0,1}
        n, pos = self.group.order, self.pos
        return tuple(tuple(int(pg + ph >= n) for ph in pos) for pg in pos)

    def __call__(self, g: int, h: int) -> int:
        return int(self.pos[g] + self.pos[h] >= self.group.order)


class Arrangement(_Positions):
    """Checked arrangement: all elements in counterclockwise order, identity
    first, the sequence with sequence[pos g] = g, built on first read.  Its
    inhomogeneous view is built on first read too, and kept
    (`arrangement_to_inhom`)."""

    @cached_property
    def sequence(self) -> tuple:
        return _inverted(self.pos)

    @cached_property
    def _inhom(self) -> InhomCircularOrder:
        return InhomCircularOrder._trusted(self.group, self.pos)


@dataclass(frozen=True)
class LeftOrderOracle:
    """A positive cone P on a (possibly infinite) group given by callables.

    Semantics: P * P is inside P and every element is exactly one of
    positive, inverse-positive, or the identity.
    """
    is_positive: Callable[[Any], bool]
    mul: Callable[[Any, Any], Any]
    inv: Callable[[Any], Any]
    identity: Any

    def less(self, x, y) -> bool:
        return self.is_positive(self.mul(self.inv(x), y))

    def circular_value(self, x, y, z) -> int:
        """The circular ordering induced by the left order (0 on repeats)."""
        if x == y or y == z or x == z:
            return 0
        parity = int(self.less(x, y)) + int(self.less(y, z)) + int(self.less(x, z))
        return 1 if parity % 2 == 1 else -1


# -- validation ------------------------------------------------------------

def arrangement_from_sequence(G: FiniteGroup, sequence: Sequence[int]) -> Arrangement:
    """The package's one check of a sequence: `sequence` as the arrangement
    of G it lists counterclockwise from the identity, or AxiomError with the
    sequence as witness (`_checked_positions`)."""
    seq = tuple(sequence)
    return Arrangement._trusted(G, _checked_positions(G, seq, is_sequence=True))


def _checked_positions(G: FiniteGroup, perm: tuple, is_sequence: bool) -> tuple:
    """The positions of the ordering of G that `perm` gives, as its sequence
    (seq[pos g] = g) if is_sequence, else as its positions pos, checked by
    sorting and one O(n) walk, n = |G|; otherwise AxiomError with perm as
    witness.  Kinds, in the order checked: "shape" (not exact ints forming
    a permutation of range(n)), "normalization" (the identity is not at
    place 0, i.e. perm[0] != 0 on either form) and "invariance" (the
    induced circle order is not left-invariant, i.e. pos is not an
    isomorphism onto Z/n).

    pos is an isomorphism iff the sequence is the walk _powers(G, z),
    z = seq[1] = pos^-1(1): if so, z has order n, and k -> z^k is a
    bijection Z/n -> G, a homomorphism since z^j z^k = z^(j+k) in an
    associative table (FiniteGroup checks it), with inverse pos.  If pos is
    an isomorphism, pos(z*x) = 1 + pos(x), so seq[i] = z^i for i < n and
    z^n = 1: seq is the walk.  The tests' oracle is the O(n^2) definition:
    left multiplication by seq[i] rotates seq by i places."""
    if any(type(g) is not int for g in perm) or sorted(perm) != list(range(G.order)):
        raise AxiomError("shape", perm, "not a permutation of the elements")
    if perm[0] != 0:
        raise AxiomError("normalization", perm, "arrangement must start at the identity")
    seq, pos = (perm, _inverted(perm)) if is_sequence else (_inverted(perm), perm)
    if len(seq) > 1 and tuple(_powers(G, seq[1])) != seq:
        raise AxiomError("invariance", perm, "induced triple function is not left-invariant")
    return pos


def _inverted(perm) -> tuple:
    """The inverse of a permutation of range(len(perm)): pos <-> sequence."""
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


def validate_inhom(G: FiniteGroup, values) -> InhomCircularOrder:
    """Check the inhomogeneous axioms; raise AxiomError with a witness tuple.

    Distinct kinds, in the order they are checked: "shape", "value-range",
    "inverse-pair", and last cocycle_failure's "normalization" and "cocycle".
    """
    values = tuple(tuple(row) for row in values)
    n = G.order
    if len(values) != n or any(len(row) != n for row in values):
        raise AxiomError("shape", (len(values),), f"want {n} x {n}")
    bad = next(((g, h) for g, row in enumerate(values) for h, v in enumerate(row)
                if type(v) is not int or v not in (0, 1)), None)   # not 1.0 or True
    if bad is not None:
        raise AxiomError("value-range", bad, f"value {values[bad[0]][bad[1]]}")
    bad = next((g for g in range(1, n) if values[g][G.inverse[g]] != 1), None)
    if bad is not None:
        raise AxiomError("inverse-pair", (bad,))
    failure = _identity_failure(G, values)   # 0/1 ints skip the type scan
    if failure is not None:
        raise failure
    f = InhomCircularOrder._trusted(G, tuple(map(sum, values)))   # row g holds pos(g) ones
    require(f.values == values, "validate_inhom: the ordering is not the carry bit of its row sums")
    return f


def cocycle_failure(G: FiniteGroup, values, modulus: Optional[int] = None) -> Optional[AxiomError]:
    """The package's one check of the 2-cocycle identity: the first failure of
    `values` to be a normalized cocycle over Z (modulus None) or Z/modulus on
    G ("shape", "value-type" at the first entry whose type is not exactly
    int, "normalization", or "cocycle" at the lexicographically first
    (g, h, k) with f(h,k) - f(gh,k) + f(g,hk) != f(g,h)), in O(|G|^2 k) for
    a cocycle (`_identity_failure`)."""
    n = G.order
    if len(values) != n or any(len(row) != n for row in values):
        return AxiomError("shape", (len(values),), f"want {n} x {n}")
    if set(map(type, chain.from_iterable(values))) != {int}:   # 1.0 and True would pass as 1
        g, h = next((g, h) for g, row in enumerate(values) for h, v in enumerate(row)
                    if type(v) is not int)
        return AxiomError("value-type", (g, h), f"value {values[g][h]!r} is not an int")
    return _identity_failure(G, values, modulus)


def _identity_failure(G: FiniteGroup, values, modulus: Optional[int] = None) -> Optional[AxiomError]:
    """cocycle_failure past its shape and type scans, by Light's test on the
    central extension.  A normalized f is a cocycle exactly when the product
    (a, g)(b, h) = (a + b + f(g, h), gh) on E = A x G (A = Z, or Z/modulus)
    is associative: ((a,g)(b,h))(c,k) and (a,g)((b,h)(c,k)) are both
    (a + b + c + ..., ghk), and their first entries differ by the identity
    at (g, h, k).  (0, e) is a right identity as f(g, e) = 0, and right
    multiplication by T = {(0, s) : s in G.generators} and (+-1, e) reaches
    every element of E from it: (a, g)(0, s) = (a + f(g, s), gs) walks G
    and (a, g)(+-1, e) = (a +- 1, g) walks A.  So, as in
    FiniteGroup.validate, (xy)t = x(yt) for all x, y in E and t in T proves
    (xy)z = x(yz) by induction on z along those walks.  At t = (+-1, e) it
    is the identity at (g, h, e), which holds for normalized f, and at
    t = (0, s) it is f(h, s) - f(gh, s) + f(g, hs) - f(g, h) = 0 for all g
    and h (at g = e it holds for normalized f), which is all that is
    checked here: O(|G|^2 k), k <= log2 |G|.  Only when it fails does the
    lexicographic scan of all |G|^3 triples run, which then finds a
    failure and reports the first one."""
    n, table = G.order, G.table
    if any(values[0]) or any(row[0] for row in values):   # exact ints here
        bad = next(g for g in range(n) if values[0][g] != 0 or values[g][0] != 0)
        return AxiomError("normalization", (bad,))
    for s in G.generators:   # none when n = 1, so each itemgetter below returns a tuple
        fs = [row[s] for row in values]                  # fs[h] = f(h, s)
        at_hs = itemgetter(*[row[s] for row in table])   # row -> its entries at h s
        for g in range(1, n):
            fg = values[g]
            left = list(map(add, fs, at_hs(fg)))                     # f(h, s) + f(g, hs)
            right = list(map(add, itemgetter(*table[g])(fs), fg))    # f(gh, s) + f(g, h)
            if left != right and (not modulus or any(map(modulus.__rmod__, map(sub, left, right)))):
                return _first_identity_failure(table, values, modulus)
    return None


def _first_identity_failure(table, values, modulus: Optional[int]) -> AxiomError:
    """The "cocycle" failure at the lexicographically first (g, h, k), for a
    normalized f that has one."""
    n = len(table)
    for g in range(1, n):   # triples with the identity hold once f is normalized
        for h in range(1, n):
            fg, fh, fgh, th = values[g], values[h], values[table[g][h]], table[h]
            for k in range(1, n):
                v = fh[k] - fgh[k] + fg[th[k]] - fg[h]
                if v % modulus if modulus else v:
                    return AxiomError("cocycle", (g, h, k), f"the identity gives {v}")
    raise CheckFailed("_identity_failure: Light's test failed where no triple does")


def as_ordering(G: FiniteGroup, f) -> InhomCircularOrder:
    """f as a checked ordering on G, in its inhomogeneous view: any view on
    G's table is trusted (an InhomCircularOrder is returned as it is, and an
    Arrangement gives the view it keeps), a view on another table raises
    InvalidGroupError, and any other matrix goes through validate_inhom."""
    if isinstance(f, _Positions):
        if f.group.table != G.table:
            raise InvalidGroupError("ordering lives on a different group")
        return f if isinstance(f, InhomCircularOrder) else arrangement_to_inhom(f)
    return validate_inhom(G, f)


def cocycle_values(G: FiniteGroup, f, modulus: Optional[int] = None) -> tuple:
    """f's matrix as a normalized cocycle on G over Z (modulus None) or
    Z/modulus: a view passes as_ordering (an integral cocycle holds mod
    every n), and any other matrix raises its first cocycle_failure."""
    if isinstance(f, _Positions):
        return as_ordering(G, f).values
    values = tuple(tuple(row) for row in f)
    failure = cocycle_failure(G, values, modulus)
    if failure is not None:
        raise failure
    return values


def cocycle_sums(G: FiniteGroup, f) -> tuple:
    """(S, matrix) for f as cocycle_values takes it over Z: its row sums
    S(g) = sum_h f(g, h) for every g, and a function returning its matrix.
    An ordering view's row sums are its positions, and it builds its values
    only when that function is called."""
    if isinstance(f, _Positions):
        f = as_ordering(G, f)
        return f.pos, lambda: f.values
    values = cocycle_values(G, f)
    return tuple(map(sum, values)), lambda: values


def validate_hom(G: FiniteGroup, values) -> InhomCircularOrder:
    """The ordering a homogeneous cocycle c gives, in its inhomogeneous view;
    kinds "shape", "vanishing", "cocycle", "invariance", checked in that
    order, each at its lexicographically first witness.

    An ordering's c is the chart of its positions, where c(id, g, x) = +1
    for the n - 1 - pos(g) elements x after g.  So c is one exactly when its
    entries are exact ints, the pos read off c(id, ., .) is an isomorphism
    onto Z/n (`_checked_positions`, one O(N) walk) and c is its chart
    (`_chart`): O(N^3), the type scan and the comparison at C speed.  Only
    when that fails do the scans of the definitions run (`_hom_scans`),
    which then find the first failure."""
    n = G.order
    values = tuple(tuple(tuple(plane) for plane in row) for row in values)
    if len(values) != n or any(len(r) != n for r in values) \
            or any(len(p) != n for r in values for p in r):
        raise AxiomError("shape", (len(values),), f"want {n} x {n} x {n}")
    if set(map(type, chain.from_iterable(chain.from_iterable(values)))) == {int}:   # not 1.0 or True
        try:
            pos = _checked_positions(G, _read_positions(values), is_sequence=False)
        except AxiomError:
            pass   # no isomorphism, so c is no ordering: _hom_scans names why
        else:
            if _chart(pos) == values:
                return InhomCircularOrder._trusted(G, pos)
    _hom_scans(G, values)   # raises


def _read_positions(values) -> tuple:
    """pos(g) = n - 1 - #{x : c(id, g, x) = +1}, and pos(id) = 0."""
    return (0, *(len(values) - 1 - plane.count(1) for plane in values[0][1:]))


def _chart(pos: tuple) -> tuple:
    """The homogeneous form of the ordering with positions pos: c(g1, g2, g3)
    is +1 when pos runs counterclockwise through (g1, g2, g3), -1 on the
    other distinct triples and 0 on degenerate ones."""
    n = len(pos)
    steps = ([(p - p1) % n for p in pos] for p1 in pos)   # pos(g1^-1 g) for each g1
    return tuple(tuple(tuple((d2 < d3) - (d2 > d3) if d2 and d3 else 0 for d3 in d)
                       for d2 in d) for d in steps)


def _hom_scans(G: FiniteGroup, values) -> None:
    """Vanishing on all N^3 triples, the cocycle identity on all N^4
    quadruples, then left invariance under every h, in lexicographic order:
    raise AxiomError at the first failure, for a c that has one.

    The cocycle scan runs only when c is not the chart of the p read off
    c(id, ., .) as `validate_hom` reads it, for the chart of any p has no
    failure: it is c(g1, g2, g3) = s(g1, g2) + s(g2, g3) - s(g1, g3), with
    s(a, b) the sign of (p(b) mod N) - (p(a) mod N), as the cyclic
    orientation of three distinct points is +1 on x < y < z, its rotations
    are the rotations of (+1, +1, -1), and a repeated point gives 0 on both
    sides.  So c is a coboundary, and its identity at (g1, g2, g3, g4)
    telescopes to 0."""
    n, table = G.order, G.table
    for g1 in range(n):
        for g2 in range(n):
            for g3 in range(n):
                v = values[g1][g2][g3]
                degenerate = g1 == g2 or g2 == g3 or g1 == g3
                if type(v) is not int:   # not 1.0 or True, which compare equal
                    raise AxiomError("vanishing", (g1, g2, g3), f"value {v!r} is not an int")
                if degenerate and v != 0:
                    raise AxiomError("vanishing", (g1, g2, g3), f"value {v} on repeat")
                if not degenerate and v not in (1, -1):
                    raise AxiomError("vanishing", (g1, g2, g3), f"value {v} on distinct triple")
    if _chart(_read_positions(values)) != values:
        for g1 in range(n):
            for g2 in range(n):
                for g3 in range(n):
                    row = values[g1][g2]
                    for g4 in range(n):
                        if values[g2][g3][g4] - values[g1][g3][g4] + row[g4] - row[g3] != 0:
                            raise AxiomError("cocycle", (g1, g2, g3, g4))
    for h in range(1, n):
        th = table[h]
        for g1 in range(n):
            for g2 in range(n):
                for g3 in range(n):
                    if values[th[g1]][th[g2]][th[g3]] != values[g1][g2][g3]:
                        raise AxiomError("invariance", (h, g1, g2, g3))
    raise CheckFailed("validate_hom: the ordering is not the chart of its positions")


# -- conversion --------------------------------------------------------------

def arrangement_to_inhom(a: Arrangement) -> InhomCircularOrder:
    """The carry bit f(g, h) = [pos g + pos h >= |G|] of a's positions: one
    view per arrangement, kept by it, so its |G|^2 values are built at most
    once however often the arrangement is asked.

    g -> pos g is an isomorphism onto Z/|G|, so f is the carry bit
    c(a, b) = [a + b >= n] of Z/n (n = |G|) pulled back along it.  That
    carry bit is normalized, has c(a, -a) = 1 for a != 0, and satisfies the
    cocycle identity: on representatives in 0..n-1, c(a, b) + c(a + b, k)
    and c(b, k) + c(a, b + k) both count the multiples of n dropped from
    a + b + k.  Pulling back along an isomorphism keeps all three
    properties, and the entries are exact 0/1 ints by construction, so no
    O(|G|^3) validate_inhom is needed (the tests keep it as the oracle).
    """
    return a._inhom


# -- enumeration -----------------------------------------------------------

def enumerate_circular_orders(G: FiniteGroup,
                              max_order: Optional[int] = None) -> list[Arrangement]:
    """All left-invariant arrangements of G, lexicographically by sequence,
    for G up to max_order (default ENUMERATION_ORDER_LIMIT, read per call;
    otherwise an int >= 0).  Every ordering is the walk _powers(G, z) from
    its second entry z (arrangement_from_sequence), so the orderings are the
    walks that cover G, in order of z.  A walk that covers G is its own
    proof, so each Arrangement is built from its positions with no further check.
    Empty exactly when G admits no ordering.

    The walks run once per group: the first call keeps the views on G
    (`FiniteGroup._orderings`), and every call returns a new list of those
    same views, so a caller may change its list but not the next one's.
    The views live as long as G, and so do the |G|^2 values of any
    inhomogeneous view read off them (`arrangement_to_inhom`).  The
    max_order check runs on every call.
    """
    if max_order is not None and (type(max_order) is not int or max_order < 0):
        raise InvalidGroupError(f"enumerate_circular_orders: max_order {max_order!r} "
                                "is not None or an int >= 0")
    limit = ENUMERATION_ORDER_LIMIT if max_order is None else max_order
    if G.order > limit:
        raise BoundExceeded(f"enumerate_circular_orders: order {G.order} > limit {limit}")
    if G._orderings is None:
        walks = (_powers(G, z) for z in range(G.order))   # z = 0 walks (0,) alone
        G._orderings = tuple(Arrangement._trusted(G, _inverted(seq))
                             for seq in walks if len(seq) == G.order)
    return list(G._orderings)


# -- standard and lexicographic constructions ------------------------------

def standard_order_zn(n: int) -> InhomCircularOrder:
    """The ordering of Z/n from the embedding into the circle: f is the carry
    bit of addition, f(a,b) = 1 iff a + b >= n on representatives 0 <= a < n,
    the view of the identity positions pos(a) = a; n an int >= 1."""
    if type(n) is not int or n < 1:   # not True or 2.0
        raise InvalidGroupError(f"standard_order_zn: n = {n!r} is not an int >= 1")
    return InhomCircularOrder._trusted(cyclic_group(n), tuple(range(n)))


def lexicographic_circular_order(phi: Callable[[Any], Any],
                                 kernel_order: LeftOrderOracle,
                                 quotient_order: Callable[[Any, Any, Any], int],
                                 mul: Callable[[Any, Any], Any],
                                 inv: Callable[[Any], Any]) -> Callable[[Any, Any, Any], int]:
    """Circular-order oracle on an extension of a circularly-ordered quotient
    by a left-ordered kernel.

    Three cases on the images under phi: all distinct -> quotient order;
    exactly two equal -> kernel comparison of the equal pair; all equal ->
    kernel circular order of the differences.  Triples whose equal pair is
    not in the first two slots are rotated there first (cyclic rotations are
    even permutations, so the value is unchanged).
    """

    def value(g1, g2, g3) -> int:
        if g1 == g2 or g2 == g3 or g1 == g3:
            return 0
        p1, p2, p3 = phi(g1), phi(g2), phi(g3)
        if p1 != p2 and p2 != p3 and p1 != p3:
            return quotient_order(p1, p2, p3)
        if p1 == p2 == p3:
            d = inv(g1)
            return kernel_order.circular_value(
                mul(d, g3), kernel_order.identity, mul(d, g2))
        if p2 == p3:
            g1, g2, g3 = g2, g3, g1
        elif p1 == p3:
            g1, g2, g3 = g3, g1, g2
        # now phi(g1) == phi(g2) != phi(g3)
        return kernel_order.circular_value(
            mul(inv(g2), g1), kernel_order.identity, mul(inv(g1), g2))

    return value


# -- JSON interface --------------------------------------------------------

def ordering_to_json(obj) -> dict:
    if isinstance(obj, Arrangement):
        kind, data = "arrangement", list(obj.sequence)
    elif isinstance(obj, InhomCircularOrder):
        kind, data = "inhom", [list(r) for r in obj.values]
    else:
        raise TypeError(f"not an ordering object: {type(obj).__name__}")
    return {"group": group_to_json(obj.group), "kind": kind, "data": data}


_READERS = {"arrangement": (1, arrangement_from_sequence), "inhom": (2, validate_inhom),
            "hom": (3, validate_hom)}   # kind -> (list depth of 'data', checker)


def ordering_from_json(data):
    """The checked ordering of a JSON dict; a malformed field raises InvalidGroupError."""
    if not isinstance(data, dict) or "kind" not in data or "data" not in data:
        raise InvalidGroupError("ordering JSON: need fields 'group', 'kind', 'data'")
    G = group_from_json(data.get("group"))
    kind, level = data["kind"], [data["data"]]
    if not isinstance(kind, str) or kind not in _READERS:
        raise InvalidGroupError(f"ordering JSON: unknown kind {kind!r}")
    depth, read = _READERS[kind]
    for _ in range(depth):   # 'data', and its entries to the kind's depth, are lists
        if not all(isinstance(x, list) for x in level):
            raise InvalidGroupError(f"ordering JSON: field 'data' of kind {kind!r} must be a list"
                                    + " of lists" * (depth - 1))
        level = [y for x in level for y in x]
    return read(G, data["data"])
