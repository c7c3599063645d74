"""Central extensions built from 2-cocycles.

From a circularly-ordered finite group (G, f) this module builds:

* the extensions of G by Z and by Z/n, the latter materialized as table
  groups with (a, g) at index a*|G| + g;
* the explicit two-case circular ordering on those finite extensions;
* minimal generators of finite cyclic ordered groups.

Coefficients are arbitrary-precision integers throughout.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Optional

from .errors import BoundExceeded, InvalidGroupError, require
from .groups import FiniteGroup
from .orders import (InhomCircularOrder, _Positions, _inverted, arrangement_from_sequence,
                     arrangement_to_inhom, as_ordering, cocycle_values)

MATERIALIZATION_LIMIT = 1024


class CentralExtElement(NamedTuple):
    a: int  # coefficient (integer, or residue 0..n-1 for Z/n extensions)
    g: int  # base-group element index


class CentralExtensionGroup:
    """The set A x G with law (a,g)(b,h) = (a + b + f(g,h), gh).

    `modulus` is None (the default) for A = Z and n >= 2 for A = Z/n.  The
    cocycle may be an ordering view on the base or any integer matrix
    satisfying the normalized cocycle identity.  The constructor checks both
    (orders.cocycle_values), so the law is a group.
    """

    __slots__ = ("base", "cocycle", "modulus")

    def __init__(self, base: FiniteGroup, cocycle, modulus: Optional[int] = None):
        if modulus is not None and (type(modulus) is not int or modulus < 2):
            raise InvalidGroupError(f"extension modulus {modulus!r} is not an int >= 2")
        self.base = base
        self.cocycle = cocycle_values(base, cocycle)
        self.modulus = modulus

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
        """x^k by square-and-multiply: O(log |k|) multiplications."""
        if k < 0:
            x, k = self.inverse(x), -k
        acc = self.identity
        while k:
            if k & 1:
                acc = self.multiply(acc, x)
            x, k = self.multiply(x, x), k >> 1
        return acc

    def iota(self, a: int) -> CentralExtElement:
        return CentralExtElement(self._reduce(a), 0)

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
        return FiniteGroup(table, names=names, name=f"ext({self.base.name},Z/{n})")


# -- minimal generators ------------------------------------------------------

def minimal_generator(G: FiniteGroup, f) -> int:
    """The element z with pos(z) = 1, read off f's positions: the element
    sitting immediately counterclockwise of the identity, and the unique z
    with f(z, g) = 0 for every g other than z^-1.

    Only a matrix given raw needs G checked cyclic: an ordering view on G's
    table already proves it.  Cross-checked against the lift definition in
    O(|G|): (0, z) must be the positive generator of the Z-extension, i.e.
    its |G|-th power is (1, id), with the carries f(z^k, z) = [pos z^k +
    pos z >= |G|] read off pos one at a time.
    """
    if not isinstance(f, _Positions) and not G.is_cyclic():
        raise InvalidGroupError(f"{G.name} is not cyclic, so it has no minimal generator")
    f = as_ordering(G, f)
    n, pos, table = G.order, f.pos, G.table
    if n == 1:
        return 0
    z = pos.index(1)
    a, x = 0, 0
    for _ in range(n):    # (a, x) <- (a, x)(0, z)
        a, x = a + (pos[x] + pos[z] >= n), table[x][z]
    require(G.element_order(z) == n and (a, x) == (1, 0),
            f"minimal generator: lift (0, {z}) does not generate the Z-extension")
    return z


def hat_ordering(G: FiniteGroup, f, n: int) -> InhomCircularOrder:
    """The explicit circular ordering on the Z/n extension of (G, f):

        fhat((a1,g1),(a2,g2)) = f_s(a1,a2)  if a1 + a2 != n - 1,
                                f(g1,g2)    otherwise,

    where f_s is the carry bit on Z/n, on the materialized group.  It is
    built as the carry bit of the arrangement a*|G| + g, g in f's arrangement
    (sorted by f's positions), which arrangement_from_sequence proves in
    O(N log N) for N = n*|G| (it is the walk of (0, z), z the minimal
    generator), and compared with the formula entry by entry in O(N^2).
    """
    if type(n) is not int or n < 2:
        raise InvalidGroupError(f"hat_ordering: n = {n!r} is not an int >= 2")
    f = as_ordering(G, f)
    group = CentralExtensionGroup(G, f, n).materialize()  # BoundExceeded before O(N^2)
    m, circle = G.order, _inverted(f.pos)
    fhat = arrangement_to_inhom(arrangement_from_sequence(
        group, tuple(a * m + g for a in range(n) for g in circle)))
    carries = ((0,) * m, (1,) * m)   # f_s(a1, a2) across the m elements of a2
    for i, row in enumerate(fhat.values):
        a1, g1 = divmod(i, m)
        formula = chain.from_iterable(f.values[g1] if a1 + a2 == n - 1 else carries[a1 + a2 >= n]
                                      for a2 in range(n))
        require(row == tuple(formula), f"hat_ordering: the two-case formula differs from "
                                       f"the carry bit of the arrangement in row {i}")
    return fhat
