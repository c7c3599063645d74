"""Obstruction spectra: which cyclic factors kill circular orderability.

The obstruction spectrum of a group G is the set of n >= 2 for which
G x Z/n is not circularly orderable.  It is empty exactly for left-orderable
G and is upward closed under divisibility (Z/n embeds in Z/tn, and subgroups
inherit circular orderings), so every spectrum in scope is represented by its
finite antichain of divisibility-minimal elements, plus a flag for the full
set N>=2, which is not the upward closure of any finite set.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .errors import InvalidGroupError, require
from .groups import FiniteGroup, closure
from .orders import arrangement_to_inhom, enumerate_circular_orders
from .cohomology import is_n_divisible

SPECTRUM_VERIFY_LIMIT = 8
# The largest n up to which the CLI's obstruction report lists membership or
# verdicts, one entry per n: --max-n 10^6 took seconds and some 200 MB.
MAX_N_LIMIT = 10_000

VERDICT_NOT_IN = "not-in-spectrum"
VERDICT_IN = "in-spectrum"
VERDICT_ALL_MULTIPLES = "spectrum-equals-eN"
VERDICT_UNKNOWN = "undetermined"

CO = "circularly_orderable"
NOT_CO = "not_circularly_orderable"


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def _check_ge_2(what: str, values) -> None:
    """Raise ValueError at the first value that is not an int >= 2."""
    for v in values:
        if type(v) is not int or v < 2:   # not True or 2.0
            raise ValueError(f"{what} {v!r} is not an int >= 2")


@dataclass(frozen=True)
class ObstructionSpectrum:
    """Upward-divisibility-closed subset of N>=2.

    `minimal` is the antichain of divisibility-minimal elements; `is_all`
    flags the full set.  Emptiness (no minimal elements, not all) means the
    represented group is left-orderable.
    """
    minimal: tuple = ()
    is_all: bool = False

    def __post_init__(self):
        if self.is_all and self.minimal:
            raise ValueError("the full spectrum carries no minimal-element data")
        _check_ge_2("minimal element", self.minimal)
        if len(set(self.minimal)) != len(self.minimal):
            raise ValueError(f"minimal elements {self.minimal} repeat a value")
        for m in self.minimal:
            for d in self.minimal:
                if d != m and m % d == 0:
                    raise ValueError(f"minimal elements not an antichain: {d} divides {m}")
        object.__setattr__(self, "minimal", tuple(self.minimal))   # a caller's list, frozen

    @classmethod
    def from_elements(cls, elements: Iterable[int]) -> "ObstructionSpectrum":
        """Spectrum generated upward by `elements` (reduced to the antichain)."""
        elements = list(elements)   # checked before a set merges True into 1
        _check_ge_2("spectrum element", elements)
        kept: list[int] = []
        for m in sorted(set(elements)):
            if not any(m % d == 0 for d in kept):
                kept.append(m)
        return cls(tuple(kept))

    @property
    def is_empty(self) -> bool:
        return not self.is_all and not self.minimal

    def membership(self, n: int) -> bool:
        _check_ge_2("spectrum membership: n =", [n])
        if self.is_all:
            return True
        return any(n % m == 0 for m in self.minimal)

    def __contains__(self, n: int) -> bool:
        return self.membership(n)

    def describe(self) -> str:
        if self.is_all:
            return "N>=2"
        if not self.minimal:
            return "empty"
        return " u ".join(f"{m}N" for m in self.minimal)


# The spectrum of the mapping class group of a once-punctured genus >= 2
# surface is everything: by the Mann-Wolff rigidity theorem every circular
# ordering of it represents the (primitive) Euler class, which is never
# divisible.  Shipped as data, not computed.
MAPPING_CLASS_GROUP_SPECTRUM = ObstructionSpectrum(is_all=True)


def spectrum_torsion_part(orders: Iterable[int]) -> ObstructionSpectrum:
    """Torsion part of a spectrum from the orders of a group's torsion
    elements: n belongs iff it shares a prime with one of those orders, so
    the minimal elements are their primes."""
    orders = list(orders)
    _check_ge_2("torsion order", orders)
    primes = sorted({p for k in orders for p in prime_factors(k)})
    return ObstructionSpectrum.from_elements(primes)


def spectrum_finite(G: FiniteGroup) -> ObstructionSpectrum:
    """Exact obstruction spectrum of a finite group.

    Trivial group: empty (it is left-orderable).  Non-cyclic: the full set,
    since the group itself is not circularly orderable and subgroup products
    only get worse.  Cyclic of order k: minimal elements are the primes
    dividing k; for k up to SPECTRUM_VERIFY_LIMIT that answer is re-derived
    from the divisibility pipeline (no enumerated ordering has an
    n-divisible class) and any disagreement raises.
    """
    if G.order == 1:
        return ObstructionSpectrum()
    if not G.is_cyclic():
        return ObstructionSpectrum(is_all=True)
    k = G.order
    primes = prime_factors(k)
    spectrum = ObstructionSpectrum.from_elements(primes)
    if k <= SPECTRUM_VERIFY_LIMIT:
        orderings = [arrangement_to_inhom(a) for a in enumerate_circular_orders(G)]
        for n in range(2, max(k, 8) + 1):
            divisible = any(is_n_divisible(G, f, n).divisible for f in orderings)
            require(divisible != spectrum.membership(n),
                    f"Z/{k} x Z/{n}: divisibility pipeline disagrees with the gcd rule")
    return spectrum


def exponent_facts(e: int, n: int, left_orderable: bool) -> str:
    """Verdict on membership of n in the spectrum of a circularly-orderable
    group whose integral second cohomology has exponent e.

    Returns "spectrum-equals-eN" (e prime, group not left-orderable),
    "not-in-spectrum" (n coprime to e), "in-spectrum" (n = e, not
    left-orderable), or "undetermined".
    """
    _check_ge_2("exponent_facts: e =", [e])
    _check_ge_2("exponent_facts: n =", [n])
    if type(left_orderable) is not bool:   # not "no", which is truthy
        raise ValueError(f"exponent_facts: left_orderable {left_orderable!r} is not a bool")
    if not left_orderable and is_prime(e):
        return VERDICT_ALL_MULTIPLES
    if gcd(n, e) == 1:
        return VERDICT_NOT_IN
    if not left_orderable and n == e:
        return VERDICT_IN
    return VERDICT_UNKNOWN


def bico_product_decision(min_g: Iterable[int], min_a: Iterable[int]) -> str:
    """Circular orderability of G x A where A carries a bi-invariant circular
    ordering: decided by disjointness of the minimal obstruction elements.

    Hypothesis (checked): the minimal elements on the G side are all prime.
    """
    min_g, min_a = list(min_g), list(min_a)   # checked before a set merges True into 1
    _check_ge_2("bico_product_decision: minimal element", min_g + min_a)
    for m in sorted(set(min_g)):
        if not is_prime(m):
            raise InvalidGroupError(
                f"bico_product_decision: minimal element {m} is composite; the "
                f"criterion requires min(Ob(G)) to consist of primes")
    return NOT_CO if set(min_g) & set(min_a) else CO


def cyclic_quotient_stats(A: FiniteGroup) -> tuple[int, int]:
    """(m, e): number of subgroups N of the finite abelian group A with A/N
    cyclic, and the lcm of those quotient orders.

    By duality, A/N is cyclic exactly when the annihilator of N in the dual
    Hom(A, Q/Z) is cyclic, and N -> annihilator is a bijection onto the
    subgroups of the dual, which is isomorphic to A.  So m is the number of
    cyclic subgroups of A, one per distinct closure of a single element.  A
    has a cyclic quotient of order exp(A), and every cyclic quotient's order
    divides exp(A), so e is the exponent.
    """
    if not A.is_abelian():
        raise InvalidGroupError("cyclic_quotient_stats expects an abelianization (abelian group)")
    return len({closure(A, [g]) for g in range(A.order)}), A.exponent()


def iterated_nonco_bound(abelianization: FiniteGroup) -> int:
    """Upper bound m*e on a power of G that fails to be circularly orderable,
    for finitely generated amenable circularly-orderable G that is not
    left-orderable and has the given finite abelianization.

    m counts the cyclic quotients of the abelianization (one per kernel) and
    e is the exponent of their direct sum.  The bound is existential, so the
    kernel-level overcount stays valid.
    """
    m, e = cyclic_quotient_stats(abelianization)
    return m * e
