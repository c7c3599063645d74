"""Finite groups as exact multiplication tables, identity at index 0.

Every finite computation in the package runs over these tables, and every
FiniteGroup is checked as a group when it is built (FiniteGroup.validate:
the identity, right inverses and Light's associativity test).  Constructors
re-index so that the identity is always element 0; all values are immutable
tuples and safe to share.  `direct_product(G, H)` puts (g, h) at g*|H| + h.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import permutations
from math import lcm
from typing import Iterable, NamedTuple, Optional

from .errors import BoundExceeded, InvalidGroupError

# Guard against accidental materialization of huge product tables.
MAX_TABLE_ORDER = 4096


class FiniteGroup:
    """A finite group given by its multiplication table on {0..order-1}.

    table[g][h] is the index of g*h, index 0 is the identity, and `inverse`
    is derived at construction.  `generators` holds the greedy generators
    (`_greedy_generators`) that validation found; the cocycle check of
    `orders` and the presentation of `cohomology._Complex` read them.
    `_orderings` is None until `orders.enumerate_circular_orders` keeps
    the group's orderings there, so they live as long as the group.
    """

    __slots__ = ("name", "order", "table", "names", "inverse", "generators", "_orderings")

    def __init__(self, table, names=None, name: str = "G"):
        table = tuple(tuple(row) for row in table)
        order = len(table)
        if order == 0:
            raise InvalidGroupError("table: empty table (a group has at least the identity)")
        ints = [int] * order   # bool is not an index
        for g, row in enumerate(table):
            if len(row) != order:
                raise InvalidGroupError(f"table[{g}]: row length {len(row)} != order {order}")
            # a row-wide check in C; the scan for the first bad cell runs only on failure
            if list(map(type, row)) != ints or min(row) < 0 or max(row) >= order:
                h, v = next((h, v) for h, v in enumerate(row)
                            if type(v) is not int or not 0 <= v < order)
                raise InvalidGroupError(f"table[{g}][{h}] = {v!r} is not an index in 0..{order - 1}")
        self.order = order
        self.table = table
        if names is None:
            names = tuple(str(i) for i in range(order))
        else:
            names = tuple(str(s) for s in names)
            if len(names) != order:
                raise InvalidGroupError(f"names: {len(names)} names for order {order}")
        self.names = names
        self.name = name
        self.inverse = self._derive_inverse()
        self.validate()
        self._orderings = None

    def _derive_inverse(self) -> tuple:
        inverse = []
        for g, row in enumerate(self.table):
            if row.count(0) != 1:
                raise InvalidGroupError(
                    f"table[{g}]: element has {row.count(0)} right inverses (want exactly 1)")
            inverse.append(row.index(0))
        return tuple(inverse)

    def validate(self) -> None:
        """Check the group axioms; raise InvalidGroupError naming the bad cell.

        Three checks make a group: index 0 is a two-sided identity (here),
        every element has a right inverse (`_derive_inverse`, which also
        wants it unique, as it is in a group), and the table is
        associative.  They suffice (Clifford and Preston, Algebraic Theory
        of Semigroups I, 1.2): if g g' = e and g' g'' = e, then
        g' g = g' g (g' g'') = g' (g g') g'' = e, so right inverses are
        two-sided, and then g x = h solves to x = g' h, one solution, so
        rows and columns are latin without being scanned.

        Associativity is Light's test, in O(|G|^2 |S|): (xy)s = x(ys) for
        all x, y and each s in S = _greedy_generators(self), kept as
        `generators`, from which right multiplication by S alone reaches
        every element z.  That proves (xy)z = x(yz) by induction on z along
        the search: for z s with z done, (xy)(zs) = ((xy)z)s = (x(yz))s =
        x((yz)s) = x(y(zs)), each step the S-case or the hypothesis, and the
        induction starts at the identity, checked above.  It assumes no
        other group axiom, so a table that is not a group may need a larger
        S, but is never passed."""
        n, table = self.order, self.table
        for g in range(n):
            if table[0][g] != g:
                raise InvalidGroupError(f"table[0][{g}] = {table[0][g]}: index 0 is not a left identity")
            if table[g][0] != g:
                raise InvalidGroupError(f"table[{g}][0] = {table[g][0]}: index 0 is not a right identity")
        self.generators = tuple(_greedy_generators(self))
        for s in self.generators:
            col = [row[s] for row in table]           # col[x] = x*s
            for g in range(n):
                rowg = table[g]
                if [col[gh] for gh in rowg] != [rowg[hs] for hs in col]:
                    h = next(h for h in range(n) if col[rowg[h]] != rowg[col[h]])
                    raise InvalidGroupError(
                        f"associativity fails at ({g},{h},{s}): ({g}*{h})*{s} = "
                        f"{col[rowg[h]]} but {g}*({h}*{s}) = {rowg[col[h]]}")

    # -- element arithmetic ------------------------------------------------

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inv(self, g: int) -> int:
        return self.inverse[g]

    def power(self, g: int, k: int) -> int:
        powers = _powers(self, g)
        return powers[k % len(powers)]

    def conjugate(self, g: int, by: int) -> int:
        """Return by * g * by^-1."""
        return self.table[self.table[by][g]][self.inverse[by]]

    def element_order(self, g: int) -> int:
        """The least t >= 1 with g^t the identity: the length of `_powers`."""
        return len(_powers(self, g))

    def exponent(self) -> int:
        return lcm(*(self.element_order(g) for g in range(self.order)))

    def is_abelian(self) -> bool:
        return all(self.table[g][h] == self.table[h][g]
                   for g in range(self.order) for h in range(g))

    def is_cyclic(self) -> bool:
        return any(self.element_order(g) == self.order for g in range(self.order))

    def is_central(self, g: int) -> bool:
        return all(self.table[g][h] == self.table[h][g] for h in range(self.order))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)


class GroupHom:
    """A homomorphism between table groups, stored as an image array."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, map):
        self.source = source
        self.target = target
        self.map = tuple(map)
        if len(self.map) != source.order:
            raise InvalidGroupError(f"hom map has length {len(self.map)} != |source| {source.order}")
        for g, v in enumerate(self.map):
            if type(v) is not int or not 0 <= v < target.order:   # not 1.0 or True
                raise InvalidGroupError(f"hom map[{g}] = {v!r} out of target range")
        if self.map[0] != 0:
            raise InvalidGroupError("hom map[0] != 0: identity not preserved")
        for g in range(source.order):
            for h in range(source.order):
                if self.map[source.table[g][h]] != target.table[self.map[g]][self.map[h]]:
                    raise InvalidGroupError(
                        f"hom fails at ({g},{h}): map[g*h] != map[g]*map[h]")

    def __call__(self, g: int) -> int:
        return self.map[g]

    def is_injective(self) -> bool:
        return len(set(self.map)) == self.source.order

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.target.order

    def is_bijective(self) -> bool:
        return self.source.order == self.target.order and self.is_injective()

    def __repr__(self):
        return f"GroupHom({self.source.name} -> {self.target.name})"


class QuotientResult(NamedTuple):
    group: FiniteGroup
    projection: GroupHom


class SubgroupResult(NamedTuple):
    group: FiniteGroup
    embedding: GroupHom


# -- constructors ----------------------------------------------------------

def cyclic_group(k: int) -> FiniteGroup:
    """Z/kZ with element i at index i (additive); k an int >= 1."""
    if type(k) is not int or k < 1:   # not True or 2.0
        raise InvalidGroupError(f"cyclic_group: order {k!r} is not an int >= 1")
    table = [[(i + j) % k for j in range(k)] for i in range(k)]
    return FiniteGroup(table, name=f"Z/{k}")


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """G x H with (g,h) at index g*|H| + h."""
    n, m = G.order, H.order
    if n * m > MAX_TABLE_ORDER:
        raise BoundExceeded(f"direct_product: order {n}*{m} exceeds table limit {MAX_TABLE_ORDER}")
    table = [[0] * (n * m) for _ in range(n * m)]
    for g1 in range(n):
        for h1 in range(m):
            i = g1 * m + h1
            row = table[i]
            for g2 in range(n):
                grow = G.table[g1][g2]
                for h2 in range(m):
                    row[g2 * m + h2] = grow * m + H.table[h1][h2]
    names = [f"({G.names[g]},{H.names[h]})" for g in range(n) for h in range(m)]
    return FiniteGroup(table, names=names, name=f"{G.name}x{H.name}")


def _check_range(G: FiniteGroup, elems, what: str) -> None:
    """Raise InvalidGroupError at the first element that is not an int index of G."""
    for g in elems:
        if type(g) is not int or not 0 <= g < G.order:   # not 2.0 or True
            raise InvalidGroupError(f"{what} {g!r} out of range for {G.name}")


def _element_set(G: FiniteGroup, elems: Iterable[int], who: str) -> frozenset:
    """elems as a set, each element checked first: a set merges True into 1."""
    elems = list(elems)
    _check_range(G, elems, f"{who}: element")
    return frozenset(elems)


def _subgroup_failure(G: FiniteGroup, s: frozenset, normal: bool) -> Optional[str]:
    """The first reason s is not a subgroup (if `normal`, a normal one) of G."""
    if 0 not in s:
        return "not a subgroup (identity 0 missing)"
    for a in s:
        if G.inverse[a] not in s:
            return f"not a subgroup (inverse of {a} missing)"
        for b in s:
            if G.table[a][b] not in s:
                return f"not a subgroup ({a}*{b} escapes)"
    if normal:
        for a in s:
            for g in range(G.order):
                if G.conjugate(a, g) not in s:
                    return f"not normal ({g}*{a}*{g}^-1 escapes)"


def closure(G: FiniteGroup, gens: Iterable[int]) -> frozenset:
    """Smallest subgroup of G containing gens: the identity and the
    elements that right multiplication by gens reaches from it
    (`_spanning_tree`).  In a finite group that set is closed under
    products, and so under inverses, as g^-1 = g^(k-1) for k the order of
    g."""
    gens = list(gens)
    _check_range(G, gens, "generator")
    return frozenset([0, *(x for _, _, x in _spanning_tree(G, gens))])


def _powers(G: FiniteGroup, g: int) -> list[int]:
    """[g^0, g^1, ...] up to the first power that is the identity again: the
    one walk behind powers, element orders and the orderings (`orders`)."""
    row, powers, x = G.table[g], [0], g   # g^(k+1) = g * g^k
    while x != 0:
        powers.append(x)
        x = row[x]
    return powers


def _greedy_generators(G: FiniteGroup) -> list[int]:
    """The elements, scanned by index, that right multiplication by those
    kept before them does not reach from the identity: each kept g marks
    the tree of the kept elements (`_spanning_tree`) as reached, and at the
    end they reach every element.  It reads only the table, so it runs
    inside validation, which keeps them as `FiniteGroup.generators`.  In a
    group the reached set is the subgroup the kept elements generate, so
    each one at least doubles it, and there are at most log2 |G| of them."""
    gens = []
    reached = [True] + [False] * (G.order - 1)
    for g in range(1, G.order):
        if not reached[g]:
            gens.append(g)
            for _, _, x in _spanning_tree(G, gens):
                reached[x] = True
    return gens


def _spanning_tree(G: FiniteGroup, gens: list[int]) -> list[tuple]:
    """The edges (y, i, y s_i) of one breadth-first search by right
    multiplication by s_1..s_k = gens from the identity at which y s_i is
    first reached, in the order reached: for generators of G, a spanning
    tree of the Cayley graph.  The one search over generators: it gives
    `closure`, `_greedy_generators` and the words and free presentation of
    `cohomology._Complex`."""
    seen, reached, tree = [True] + [False] * (G.order - 1), [0], []
    for y in reached:   # `reached` grows as it is read
        row = G.table[y]
        for i, s in enumerate(gens):
            x = row[s]
            if not seen[x]:
                seen[x] = True
                reached.append(x)
                tree.append((y, i, x))
    return tree


def is_subgroup(G: FiniteGroup, subset: Iterable[int]) -> bool:
    return _subgroup_failure(G, _element_set(G, subset, "is_subgroup"), False) is None


def is_normal(G: FiniteGroup, subset: Iterable[int]) -> bool:
    """Whether subset is a normal subgroup of G."""
    return _subgroup_failure(G, _element_set(G, subset, "is_normal"), True) is None


def subgroup_generated(G: FiniteGroup, gens: Iterable[int]) -> SubgroupResult:
    """Closure of gens as its own FiniteGroup plus the embedding into G."""
    gens = list(gens)
    elems = sorted(closure(G, gens))
    index = {g: i for i, g in enumerate(elems)}
    table = [[index[G.table[a][b]] for b in elems] for a in elems]
    S = FiniteGroup(table, names=[G.names[g] for g in elems],
                    name=f"<{','.join(G.names[g] for g in gens)}> in {G.name}" if gens else "trivial")
    return SubgroupResult(S, GroupHom(S, G, elems))


def quotient(G: FiniteGroup, normal_subset: Iterable[int]) -> QuotientResult:
    """G/N with minimal-index coset representatives; identity coset first.

    Raises InvalidGroupError distinctly for "not a subgroup" and "not normal".
    """
    N = _element_set(G, normal_subset, "quotient")
    failure = _subgroup_failure(G, N, True)
    if failure is not None:
        raise InvalidGroupError(f"quotient: {failure}")
    coset_of = [-1] * G.order
    reps = []
    for g in range(G.order):
        if coset_of[g] == -1:
            idx = len(reps)
            reps.append(g)  # first unseen element is the minimal one in its coset
            for a in N:
                coset_of[G.table[g][a]] = idx
    table = [[coset_of[G.table[reps[i]][reps[j]]] for j in range(len(reps))]
             for i in range(len(reps))]
    Q = FiniteGroup(table, names=[f"[{G.names[r]}]" for r in reps], name=f"{G.name}/N")
    return QuotientResult(Q, GroupHom(G, Q, coset_of))


def symmetric_group(k: int) -> FiniteGroup:
    """S_k via composition of permutation tuples, identity first (k <= 4)."""
    if type(k) is not int or k < 1:   # not True or 2.0
        raise InvalidGroupError(f"symmetric_group: k = {k!r} is not an int >= 1")
    if k > 4:
        raise BoundExceeded(f"symmetric_group: k = {k} > 4")
    perms = sorted(permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    # p*q acts as "apply q first, then p"
    table = [[index[tuple(p[q[i]] for i in range(k))] for q in perms] for p in perms]
    names = ["".join(map(str, p)) for p in perms]
    return FiniteGroup(table, names=names, name=f"S{k}")


def dihedral_group(k: int) -> FiniteGroup:
    """Dihedral group of order 2k: elements r^i s^j, with s r = r^-1 s."""
    if type(k) is not int or k < 1:   # not True or 2.0
        raise InvalidGroupError(f"dihedral_group: k = {k!r} is not an int >= 1")
    n = 2 * k

    def mul(e1, e2):
        i1, j1 = e1
        i2, j2 = e2
        # (r^i1 s^j1)(r^i2 s^j2) = r^(i1 + (-1)^j1 i2) s^(j1+j2)
        i = (i1 + (i2 if j1 == 0 else -i2)) % k
        return (i, (j1 + j2) % 2)

    elems = [(i, j) for j in range(2) for i in range(k)]
    index = {e: x for x, e in enumerate(elems)}
    table = [[index[mul(a, b)] for b in elems] for a in elems]

    def elem_name(i, j):
        rot = f"r{i}" if i else ""
        ref = "s" if j else ""
        return (rot + ref) or "e"

    names = [elem_name(i, j) for (i, j) in elems]
    return FiniteGroup(table, names=names, name=f"D{k}")


# -- JSON interface --------------------------------------------------------

def group_to_json(G: FiniteGroup) -> dict:
    return {"name": G.name, "order": G.order,
            "table": [list(row) for row in G.table], "names": list(G.names)}


def group_from_json(data) -> FiniteGroup:
    """Build a validated group from the JSON dict format; diagnostics name the field."""
    if not isinstance(data, dict):
        raise InvalidGroupError(f"group JSON: expected object, got {type(data).__name__}")
    if "table" not in data:
        raise InvalidGroupError("group JSON: missing required field 'table'")
    table = data["table"]
    if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
        raise InvalidGroupError("group JSON: field 'table' must be a list of rows")
    order = data.get("order", len(table))
    if type(order) is not int or order != len(table):   # not true or 2.0
        raise InvalidGroupError(f"group JSON: field 'order' = {order!r} but table has {len(table)} rows")
    names = data.get("names")
    if names is not None and (not isinstance(names, list)
                              or not all(isinstance(s, str) for s in names)):
        raise InvalidGroupError("group JSON: field 'names' must be a list of strings")
    name = data.get("name", "G")
    if not isinstance(name, str):
        raise InvalidGroupError("group JSON: field 'name' must be a string")
    return FiniteGroup(table, names=names, name=name)


def load_group(path) -> FiniteGroup:
    """The checked group of a group JSON file.  The file is read as bytes,
    and files with the same bytes share one FiniteGroup
    (`_group_from_bytes`), so a file read again unchanged is neither decoded
    nor checked again, and a rewritten one is."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _group_from_bytes(data)
    except InvalidGroupError:   # the table's own diagnostic, without the path
        raise
    except (ValueError, RecursionError) as exc:   # not UTF-8 JSON, or too deep
        raise InvalidGroupError(f"group JSON: {path}: {exc}") from exc


@lru_cache(maxsize=32)
def _group_from_bytes(data: bytes) -> FiniteGroup:
    """The group of a group file's bytes, kept for the 32 most recently
    read distinct contents.  Only new bytes are decoded: as UTF-8, with CRLF
    and CR read as LF, as text mode reads a file, and never by
    `json.loads`, which would also take UTF-16 and UTF-32.  Errors raise and
    are not kept.  An entry count is not a byte budget: one table near
    MAX_TABLE_ORDER can take hundreds of megabytes."""
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return group_from_json(json.loads(text))


def dump_group(G: FiniteGroup, path) -> None:
    with open(path, "w") as fh:
        json.dump(group_to_json(G), fh, indent=1)
        fh.write("\n")
