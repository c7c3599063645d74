"""Central extensions built from 2-cocycles.

From a circularly-ordered finite group (G, f) this module builds:

* the left-ordered extension of G by Z with positive cone
  {(a, g) : a >= 0} minus the identity, together with cone comparison and
  cofinality probes;
* the finite extensions of G by Z/n, materialized as table groups with
  (a, g) at index a*|G| + g;
* the explicit two-case circular ordering on those finite extensions;
* minimal generators of finite cyclic ordered groups;
* one cone quotient (`_cone_quotient`): the Z-extension modulo a positive
  cofinal central element c, with the cocycle of the section that picks each
  coset's element in [id, c).  Cut at z^n it recovers the two-case ordering
  the slow way (`quotient_by_power`); cut at the lift of the minimal
  generator of a central cyclic K it gives the quotient ordering on G/K and
  the section that matches it mod |K| (`quotient_by_cyclic_central`).

Coefficients are arbitrary-precision integers throughout.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import groups
from .errors import AxiomError, BoundExceeded, InvalidGroupError, require
from .groups import (FiniteGroup, GroupHom, group_from_json, group_to_json,
                     quotient, subgroup_generated)
from .orders import InhomCircularOrder, inhom_failures, validate_inhom

MATERIALIZATION_LIMIT = 1024


class CentralExtElement(NamedTuple):
    a: int  # coefficient (integer, or residue 0..n-1 for Z/n extensions)
    g: int  # base-group element index


class CentralExtensionGroup:
    """The set A x G with law (a,g)(b,h) = (a + b + f(g,h), gh).

    `modulus` is None for A = Z and n >= 2 for A = Z/n.  `is_order` records
    whether the cocycle is a genuine circular ordering (required by the cone
    operations).
    """

    __slots__ = ("base", "cocycle", "modulus", "is_order")

    def __init__(self, base: FiniteGroup, cocycle, modulus: Optional[int],
                 is_order: bool):
        self.base = base
        self.cocycle = tuple(tuple(row) for row in cocycle)
        self.modulus = modulus
        self.is_order = is_order

    @property
    def identity(self) -> CentralExtElement:
        return CentralExtElement(0, 0)

    def _reduce(self, a: int) -> int:
        return a if self.modulus is None else a % self.modulus

    def multiply(self, x: CentralExtElement, y: CentralExtElement) -> CentralExtElement:
        return CentralExtElement(
            self._reduce(x.a + y.a + self.cocycle[x.g][y.g]),
            self.base.table[x.g][y.g])

    def inverse(self, x: CentralExtElement) -> CentralExtElement:
        gi = self.base.inverse[x.g]
        return CentralExtElement(self._reduce(-x.a - self.cocycle[x.g][gi]), gi)

    def power(self, x: CentralExtElement, k: int) -> CentralExtElement:
        if k < 0:
            x, k = self.inverse(x), -k
        acc = self.identity
        for _ in range(k):
            acc = self.multiply(acc, x)
        return acc

    def iota(self, a: int) -> CentralExtElement:
        return CentralExtElement(self._reduce(a), 0)

    def rho(self, x: CentralExtElement) -> int:
        return x.g

    def element_name(self, x: CentralExtElement) -> str:
        return f"({x.a}, {self.base.names[x.g]})"

    def materialize(self) -> FiniteGroup:
        """Full table group of order n*|G| for Z/n coefficients, (a, g) at
        index a*|G| + g; BoundExceeded above MATERIALIZATION_LIMIT."""
        if self.modulus is None:
            raise InvalidGroupError("cannot materialize a Z-coefficient extension")
        n, m = self.modulus, self.base.order
        order = n * m
        if order > MATERIALIZATION_LIMIT:
            raise BoundExceeded(f"materialize: order {order} > limit {MATERIALIZATION_LIMIT}")
        steps = [tuple(zip(f, row)) for f, row in zip(self.cocycle, self.base.table)]
        table = [[(a + b + c) % n * m + gh for b in range(n) for c, gh in steps[g]]
                 for a in range(n) for g in range(m)]
        names = [self.element_name(CentralExtElement(a, g)) for a in range(n) for g in range(m)]
        # associativity follows from the verified cocycle identity; the full
        # cubic check is only affordable for small tables
        return FiniteGroup(table, names=names, name=f"ext({self.base.name},Z/{n})",
                           validate=order <= groups.ASSOCIATIVITY_CHECK_LIMIT)


def build_extension(G: FiniteGroup, f, modulus: Optional[int] = None) -> CentralExtensionGroup:
    """Central extension of G by Z (modulus None) or Z/modulus from cocycle f.

    f may be an InhomCircularOrder or any integer matrix satisfying the
    normalized cocycle identity.
    """
    if modulus is not None and modulus < 2:
        raise InvalidGroupError(f"extension modulus {modulus} < 2")
    if isinstance(f, InhomCircularOrder):
        if f.group != G:
            raise InvalidGroupError("cocycle lives on a different group")
        return CentralExtensionGroup(G, f.values, modulus, is_order=True)
    values = tuple(tuple(row) for row in f)
    is_order = True
    for failure in inhom_failures(G, values):
        if failure.kind not in ("value-range", "inverse-pair"):
            raise failure
        is_order = False
    return CentralExtensionGroup(G, values, modulus, is_order=is_order)


# -- the left order on Z-coefficient extensions -----------------------------

def cone_positive(E: CentralExtensionGroup, x: CentralExtElement) -> bool:
    """Membership in the positive cone {(a,g) : a >= 0} minus the identity."""
    if E.modulus is not None or not E.is_order:
        raise InvalidGroupError("positive cone needs a Z-extension built from a circular ordering")
    return x != E.identity and x.a >= 0


def cone_compare(E: CentralExtensionGroup, x: CentralExtElement,
                 y: CentralExtElement) -> int:
    """-1, 0, +1 for x < y, x = y, x > y in the left order x < y iff x^-1 y in P."""
    if x == y:
        return 0
    return -1 if cone_positive(E, E.multiply(E.inverse(x), y)) else 1


def is_cofinal_central(E: CentralExtensionGroup, z: CentralExtElement,
                       probe_bound: int) -> bool:
    """True iff z is central (exhaustively over the base) and every element
    with coefficient magnitude <= probe_bound sits between z^-t and z^t for
    some witnessed t.

    Cofinality is only probed, never proven: it quantifies over an infinite
    group.  For the canonical z = (1, id) of an ordering-built extension the
    probe always succeeds.
    """
    if E.modulus is not None:
        raise InvalidGroupError("cofinality probes need Z coefficients")
    if probe_bound < 0:
        raise InvalidGroupError(f"is_cofinal_central: negative probe_bound {probe_bound}")
    if not cone_positive(E, z):
        raise InvalidGroupError(f"z = {z} is not positive")
    for h in range(E.base.order):
        other = CentralExtElement(0, h)
        if E.multiply(z, other) != E.multiply(other, z):
            return False
    cap = E.base.order * (probe_bound + 3) + 4
    powers = [E.identity]
    for _ in range(cap):
        powers.append(E.multiply(powers[-1], z))
    for a in range(-probe_bound, probe_bound + 1):
        for g in range(E.base.order):
            probe = CentralExtElement(a, g)
            ok = False
            for t in range(1, cap + 1):
                zt = powers[t]
                if cone_compare(E, E.inverse(zt), probe) == -1 \
                        and cone_compare(E, probe, zt) == -1:
                    ok = True
                    break
            if not ok:
                return False
    return True


# -- minimal generators ------------------------------------------------------

def _as_order(G: FiniteGroup, f) -> InhomCircularOrder:
    if isinstance(f, InhomCircularOrder):
        if f.group != G:
            raise InvalidGroupError("ordering lives on a different group")
        return f
    return validate_inhom(G, f)


def minimal_generator(G: FiniteGroup, f) -> int:
    """The unique z with f(z, g) = 0 for every g other than z^-1: the element
    sitting immediately counterclockwise of the identity.

    Cross-checked against the lift definition: (0, z) must be the positive
    generator of the Z-extension, i.e. its |G|-th power is (1, id).
    """
    if not G.is_cyclic():
        raise InvalidGroupError(f"{G.name} is not cyclic, so it has no minimal generator")
    f = _as_order(G, f)
    if G.order == 1:
        return 0
    candidates = [z for z in range(1, G.order)
                  if all(f.values[z][g] == 0
                         for g in range(G.order) if g != G.inverse[z])]
    require(len(candidates) == 1,
            f"minimal generator: candidates {candidates}, want exactly one")
    z = candidates[0]
    E = build_extension(G, f)
    lift = CentralExtElement(0, z)
    require(G.element_order(z) == G.order and E.power(lift, G.order) == E.iota(1),
            f"minimal generator: lift (0, {z}) does not generate the Z-extension")
    return z


# -- quotient constructions ---------------------------------------------------

def _cone_quotient(E: CentralExtensionGroup, c: CentralExtElement, candidates,
                   coset_of) -> tuple:
    """Quotient the Z-extension E by the positive cofinal central element c.

    candidates[i] lists elements of the i-th coset of <c> wide enough to hold
    its representative, the unique one with id <= r < c in the cone order,
    and coset_of maps an element of E to its coset index.  The quotient
    multiplies representatives, and its cocycle at (i1, i2) is the j with
    r_i1 r_i2 = c^j r_(i1 i2).  Returns (reps, table, cocycle).
    """
    reps = []
    for i, coset in enumerate(candidates):
        found = [x for x in coset if cone_compare(E, E.identity, x) <= 0
                 and cone_compare(E, x, c) == -1]
        if len(found) != 1:
            raise AxiomError("minimal-representative", (i,),
                             f"{len(found)} candidates in the cone window")
        reps.append(found[0])
    # a circular ordering takes only the values 0 and 1, so a small window of
    # powers reads every defect that validate_inhom could accept
    exponent = {E.power(c, j): j for j in range(-2, 3)}
    table = [[0] * len(reps) for _ in reps]
    cocycle = [[0] * len(reps) for _ in reps]
    for i1, r1 in enumerate(reps):
        for i2, r2 in enumerate(reps):
            product = E.multiply(r1, r2)
            i12 = table[i1][i2] = coset_of(product)
            defect = E.multiply(product, E.inverse(reps[i12]))
            if defect not in exponent:
                raise AxiomError("minimal-representative", (i1, i2),
                                 "section defect is not a small power of c")
            cocycle[i1][i2] = exponent[defect]
    return reps, table, cocycle


class QuotientPowerResult(NamedTuple):
    group: FiniteGroup
    ordering: InhomCircularOrder


def quotient_by_power(G: FiniteGroup, f, n: int) -> QuotientPowerResult:
    """Quotient the Z-extension of (G, f) by the n-th power of its canonical
    cofinal central element, with the circular ordering of the
    minimal-representative section.

    Every step is carried out by cone search in the Z-extension (no closed
    forms, see `_cone_quotient`): the coset of (a, g) has index
    (a mod n)|G| + g, and its representative is its unique element between
    id (inclusive) and z^n.
    """
    if n < 2:
        raise InvalidGroupError(f"quotient_by_power: n = {n} < 2")
    f = _as_order(G, f)
    E = build_extension(G, f)
    m = G.order
    _, table, cocycle = _cone_quotient(
        E, E.iota(n),
        [[CentralExtElement(a, g) for a in range(residue - 2 * n, residue + 2 * n + 1, n)]
         for residue in range(n) for g in range(m)],
        lambda x: x.a % n * m + x.g)
    names = [f"({a}, {G.names[g]})" for a in range(n) for g in range(m)]
    Q = FiniteGroup(table, names=names, name=f"{G.name}~/{n}",
                    validate=n * m <= groups.ASSOCIATIVITY_CHECK_LIMIT)
    return QuotientPowerResult(Q, validate_inhom(Q, cocycle))


def hat_ordering(G: FiniteGroup, f, n: int) -> InhomCircularOrder:
    """The explicit circular ordering on the Z/n extension of (G, f):

        fhat((a1,g1),(a2,g2)) = f_s(a1,a2)  if a1 + a2 != n - 1,
                                f(g1,g2)    otherwise,

    where f_s is the carry bit on Z/n.  Returned on the materialized group.
    """
    if n < 2:
        raise InvalidGroupError(f"hat_ordering: n = {n} < 2")
    f = _as_order(G, f)
    E = build_extension(G, f, modulus=n)
    group = E.materialize()  # BoundExceeded before the order^2 value table
    m = G.order
    order = n * m
    values = [[0] * order for _ in range(order)]
    for i1 in range(order):
        a1, g1 = divmod(i1, m)
        for i2 in range(order):
            a2, g2 = divmod(i2, m)
            if a1 + a2 != n - 1:
                values[i1][i2] = 1 if a1 + a2 >= n else 0
            else:
                values[i1][i2] = f.values[g1][g2]
    return validate_inhom(group, values)


class CentralQuotientResult(NamedTuple):
    group: FiniteGroup                # G/K
    ordering: InhomCircularOrder      # the quotient circular ordering
    section: tuple                    # nu: nu[q] in coset q, p_n(ordering) = f_nu
    projection: GroupHom              # G -> G/K
    generator: int                    # minimal generator of (K, f|K), = iota([1])


def quotient_by_cyclic_central(G: FiniteGroup, f, K) -> CentralQuotientResult:
    """Quotient a circularly-ordered group by a central cyclic subgroup.

    Follows the cone construction literally: lift to the Z-extension, quotient
    by the positive generator of the preimage of K (`_cone_quotient`, cosets
    indexed as in `groups.quotient`), and pull the minimal-representative
    section back to G.  The returned section, the tuple nu with nu[q] in the
    coset q and nu[0] = 0, satisfies p_n(fbar) = f_nu elementwise, with
    iota([1]) the minimal generator of (K, f restricted to K); both facts are
    checked before returning, and a failure raises CheckFailed or AxiomError.
    """
    f = _as_order(G, f)
    K = frozenset(K)
    quot = quotient(G, K)  # InvalidGroupError unless K is a normal subgroup
    Q, proj = quot.group, quot.projection
    if len(K) < 2:
        raise InvalidGroupError("quotient_by_cyclic_central: |K| must be >= 2")
    sub = subgroup_generated(G, K)
    if not sub.group.is_cyclic():
        raise InvalidGroupError("quotient_by_cyclic_central: K is not cyclic")
    for k in K:
        if not G.is_central(k):
            # normal finite cyclic subgroups of circularly-ordered groups are
            # central, so this cannot fire on a valid ordering
            raise AxiomError("centrality", (k,), "K is not central")
    n = len(K)
    f_restricted = [[f.values[a][b] for b in sub.embedding.map] for a in sub.embedding.map]
    z_sub = minimal_generator(sub.group, f_restricted)
    z = sub.embedding(z_sub)

    E = build_extension(G, f)
    z_lift = CentralExtElement(0, z)
    for h in range(G.order):
        if E.multiply(z_lift, CentralExtElement(0, h)) != \
                E.multiply(CentralExtElement(0, h), z_lift):
            raise AxiomError("centrality", (z, h), "lift of the generator is not central")

    section_lifts, table, fbar = _cone_quotient(
        E, z_lift,
        [[CentralExtElement(c, g) for g in range(G.order) if proj(g) == q for c in range(-2, 3)]
         for q in range(Q.order)],
        lambda x: proj(x.g))
    nu = tuple(x.g for x in section_lifts)
    require(nu[0] == 0 and all(proj(nu[q]) == q for q in range(Q.order)),
            "minimal-representative section is not a normalized section of the projection")
    require([list(row) for row in Q.table] == table,
            "the cone quotient's table is not the table of G/K")
    ordering = validate_inhom(Q, fbar)

    # p_n(fbar) = f_nu, with K coordinatized by iota([1]) = z
    dlog = {G.power(z, j): j for j in range(n)}
    for q1 in range(Q.order):
        for q2 in range(Q.order):
            defect = G.table[G.table[nu[q1]][nu[q2]]][G.inverse[nu[Q.table[q1][q2]]]]
            if defect not in dlog:
                raise AxiomError("section", (q1, q2), "section defect escapes K")
            if dlog[defect] != fbar[q1][q2] % n:
                raise AxiomError("section", (q1, q2),
                                 "p_n(fbar) != f_nu at this pair")
    return CentralQuotientResult(Q, ordering, nu, proj, z)


# -- JSON interface -----------------------------------------------------------

def extension_to_json(E: CentralExtensionGroup) -> dict:
    coeff = "Z" if E.modulus is None else {"Zn": E.modulus}
    return {"base": group_to_json(E.base),
            "cocycle": [list(r) for r in E.cocycle],
            "coefficients": coeff}


def extension_from_json(data) -> CentralExtensionGroup:
    if not isinstance(data, dict) or "base" not in data or "cocycle" not in data:
        raise InvalidGroupError("extension JSON: need fields 'base', 'cocycle', 'coefficients'")
    G = group_from_json(data["base"])
    coeff = data.get("coefficients", "Z")
    if coeff == "Z":
        modulus = None
    elif isinstance(coeff, dict) and set(coeff) == {"Zn"}:
        modulus = coeff["Zn"]
        if not isinstance(modulus, int) or modulus < 2:
            raise InvalidGroupError(f"extension JSON: bad modulus {modulus!r}")
    else:
        raise InvalidGroupError(f"extension JSON: bad coefficients {coeff!r}")
    return build_extension(G, data["cocycle"], modulus)
