"""Seeded benchmark inputs and the closed-form answers they are checked against.

Nothing here imports circorder.  Base groups are built from their
definitions, relabeled by a seeded permutation of the non-identity elements,
and every expected answer comes from a closed form in the group's structure:

* H^2(G; Z) = Hom(G, Q/Z), whose invariant factors are those of G^ab;
* H^2(G; Z/n) = Hom(H_2 G, Z/n) + Ext(H_1 G, Z/n) (universal coefficients);
* a finite group is circularly orderable exactly when it is cyclic, and Z/k
  has phi(k) orderings, one per generator;
* G x Z/n is circularly orderable exactly when G is cyclic and
  gcd(|G|, n) = 1;
* the obstruction spectrum of Z/k has the primes of k as minimal elements,
  and that of a non-cyclic group is all of N>=2;
* the class of an ordering of Z/k generates H^2(Z/k; Z) = Z/k, so it is
  n-divisible, and its mod-n reduction trivial, exactly when gcd(n, k) = 1.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple


class BaseGroup(NamedTuple):
    """A base group by definition: `kind` is "abelian" (params are cyclic
    factor orders) or "dihedral" (params is (k,) for the group of order 2k)."""
    name: str
    kind: str
    params: tuple


def abelian(*factors: int, name: str = "") -> BaseGroup:
    return BaseGroup(name or " x ".join(f"Z/{m}" for m in factors), "abelian", factors)


def dihedral(k: int, name: str = "") -> BaseGroup:
    return BaseGroup(name or f"D{k}", "dihedral", (k,))


def order(base: BaseGroup) -> int:
    if base.kind == "dihedral":
        return 2 * base.params[0]
    return math.prod(base.params)


def base_table(base: BaseGroup) -> list[list[int]]:
    """Multiplication table with the identity at index 0.

    Abelian groups index (r_1, ..., r_s) in mixed radix with the last factor
    fastest, which is the layout of circorder's `direct_product` of cyclic
    groups.  D_k lists r^0..r^(k-1), then r^0 s..r^(k-1) s, which is the
    layout of `dihedral_group(k)`.
    """
    if base.kind == "dihedral":
        k = base.params[0]
        elems = [(i, j) for j in range(2) for i in range(k)]
        index = {e: x for x, e in enumerate(elems)}
        return [[index[((i1 + (i2 if j1 == 0 else -i2)) % k, (j1 + j2) % 2)]
                 for (i2, j2) in elems] for (i1, j1) in elems]
    factors = base.params
    elems = [()]
    for m in factors:
        elems = [e + (r,) for e in elems for r in range(m)]
    index = {e: x for x, e in enumerate(elems)}
    return [[index[tuple((a + b) % m for a, b, m in zip(e1, e2, factors))]
             for e2 in elems] for e1 in elems]


def relabel(table: list[list[int]], rng: random.Random) -> tuple[list[list[int]], list[int]]:
    """Table of the same group with non-identity labels permuted by `rng`.

    Returns (table, perm) where element x of the input is perm[x] in the
    output; the identity keeps label 0.
    """
    rest = list(range(1, len(table)))
    rng.shuffle(rest)
    perm = [0] + rest
    return permute(table, perm), perm


def permute(table: list[list[int]], perm: list[int]) -> list[list[int]]:
    """Table of the same group with element x relabeled perm[x].  Self-checks
    that perm is an isomorphism fixing the identity, so the relabeled table
    is the same group."""
    n = len(table)
    if sorted(perm) != list(range(n)) or perm[0] != 0:
        raise RuntimeError("relabeling is not a permutation fixing the identity")
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    if any(out[perm[a]][perm[b]] != perm[table[a][b]] for a in range(n) for b in range(n)):
        raise RuntimeError("relabeling is not an isomorphism")
    return out


def group_json(base: BaseGroup, table: list[list[int]]) -> dict:
    return {"name": base.name, "order": len(table), "table": table}


# -- closed forms ----------------------------------------------------------

def _prime_powers(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 1) * p
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 1) * m
    return out


def primes_of(m: int) -> list[int]:
    return sorted(_prime_powers(m))


def invariant_factors(cyclic_orders) -> tuple:
    """Invariant factors (d_1 | d_2 | ..., all > 1) of a direct sum of cyclic groups."""
    by_prime: dict[int, list[int]] = {}
    for m in cyclic_orders:
        for p, q in _prime_powers(m).items():
            by_prime.setdefault(p, []).append(q)
    length = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * length
    for powers in by_prime.values():
        for i, q in enumerate(sorted(powers, reverse=True)):
            factors[length - 1 - i] *= q
    return tuple(factors)


def h1(base: BaseGroup) -> tuple:
    """Cyclic decomposition of the abelianization H_1(G) = G^ab."""
    if base.kind == "dihedral":
        return (2,) if base.params[0] % 2 else (2, 2)
    return base.params


def schur_multiplier(base: BaseGroup) -> tuple:
    """Cyclic decomposition of H_2(G; Z): wedge square for abelian groups,
    Z/2 for D_k with k even and 0 for k odd."""
    if base.kind == "dihedral":
        return () if base.params[0] % 2 else (2,)
    f = base.params
    return tuple(math.gcd(f[i], f[j]) for i in range(len(f)) for j in range(i + 1, len(f)))


def h2_integral(base: BaseGroup) -> tuple:
    return invariant_factors(h1(base))


def h2_mod(base: BaseGroup, n: int) -> tuple:
    return invariant_factors([math.gcd(m, n) for m in schur_multiplier(base) + h1(base)])


def is_cyclic(base: BaseGroup) -> bool:
    return base.kind == "abelian" and len(invariant_factors(base.params)) <= 1


def ordering_count(base: BaseGroup) -> int:
    k = order(base)
    return sum(1 for r in range(1, k + 1) if math.gcd(r, k) == 1) if is_cyclic(base) else 0


def product_co(base: BaseGroup, n: int) -> bool:
    return is_cyclic(base) and math.gcd(order(base), n) == 1


def obstruction(base: BaseGroup) -> tuple[list, bool]:
    """(minimal elements, is_all) of the obstruction spectrum."""
    if order(base) == 1:
        return [], False
    if is_cyclic(base):
        return primes_of(order(base)), False
    return [], True


def cyclic_generators(base: BaseGroup, perm: list[int]) -> set:
    """Labels of the generators of a relabeled Z/k (residue r is perm[r])."""
    k = order(base)
    return {perm[r] for r in range(1, k) if math.gcd(r, k) == 1} if k > 1 else set()


def cyclic_orderings(base: BaseGroup, perm: list[int]) -> list[list[list[int]]]:
    """Cocycles of every circular ordering of a relabeled Z/k.

    The ordering with generator u puts residue r at position r/u mod k, and
    its cocycle is the carry bit f(g, h) = [pos g + pos h >= k].
    """
    k = order(base)
    out = []
    for u in range(1, k):
        if math.gcd(u, k) != 1:
            continue
        u_inv = pow(u, -1, k)
        f = [[0] * k for _ in range(k)]
        for a in range(k):
            for b in range(k):
                f[perm[a]][perm[b]] = int((a * u_inv) % k + (b * u_inv) % k >= k)
        out.append(f)
    return out
