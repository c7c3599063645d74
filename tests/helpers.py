"""Independent oracles and the shared library of test groups.

Everything here is deliberately written from scratch (brute force,
enumeration, minors) so that it can cross-check the production code without
sharing its machinery.  The exceptions are the slow literal routes that no
answer of the package runs, kept here as references: the literal
group-axiom scans with the cubic associativity check, the rotation check
of an arrangement, the isomorphism search, the finite left orders and
lexicographic orderings, and the Z-extension cone with its quotients,
which build on the package's group tables and extensions; the Smith
normal forms of d1, all of it and its rows at generator last arguments
with their witness u = V u'; and the d2 route to H^2(G; Z/n) that Q's
rows replaced: the kernel basis, the Smith data of d2 from its rows at
generator last arguments and from all of it, the unit-pivot elimination
of its invariants, and the class of a Z/n cocycle read off that data;
and the searches over generators that `groups._spanning_tree` replaced:
the incremental greedy generators, the closure that also steps by
inverses, the word vectors and the relation matrix of G^ab at every
edge.  The closed forms of the Schur multiplier M(G) check Q's rank block.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations, permutations, product
from math import gcd, lcm
from typing import NamedTuple, Optional

from circorder import promislow
from circorder.cohomology import (IntMatrix, SNFResult, _Complex, _gcdext, coboundary_matrices,
                                  coboundary_matrix, smith_normal_form)
from circorder.errors import AxiomError, BoundExceeded, InvalidGroupError, require
from circorder.extensions import CentralExtElement, CentralExtensionGroup, minimal_generator
from circorder.groups import (FiniteGroup, GroupHom, _greedy_generators, _spanning_tree, closure,
                              cyclic_group, dihedral_group,
                              direct_product, quotient, subgroup_generated, symmetric_group)
from circorder.orders import (InhomCircularOrder, LeftOrderOracle,
                              as_ordering, cocycle_failure, cocycle_values,
                              lexicographic_circular_order,
                              validate_hom, validate_inhom)

ISOMORPHISM_ORDER_LIMIT = 24


def library_groups() -> list[FiniteGroup]:
    groups = [cyclic_group(1)]
    groups += [cyclic_group(k) for k in range(2, 13)]
    c2, c3, c4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    groups.append(direct_product(c2, c2))          # Klein
    groups.append(direct_product(c2, c4))
    groups.append(direct_product(c2, direct_product(c2, c2)))
    groups.append(direct_product(c3, c3))
    groups.append(symmetric_group(3))
    groups.append(dihedral_group(4))
    return groups


def relabeled(G: FiniteGroup, perm) -> FiniteGroup:
    """G with each element g renamed perm[g]; perm[0] must be 0."""
    n = G.order
    inv = [0] * n
    for g, p in enumerate(perm):
        inv[p] = g
    return FiniteGroup([[perm[G.table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)],
                       name=f"{G.name}~")


def associativity_failure(table) -> Optional[tuple]:
    """The first (g, h, k) with (g*h)*k != g*(h*k) over all |G|^3 triples,
    or None: the cubic check that Light's test in FiniteGroup.validate
    replaces."""
    n = len(table)
    for g in range(n):
        rowg = table[g]
        for h in range(n):
            rowgh, rowh = table[rowg[h]], table[h]
            for k in range(n):
                if rowgh[k] != rowg[rowh[k]]:
                    return g, h, k
    return None


def group_axiom_failure(table) -> Optional[str]:
    """The first group axiom that the square table of indices 0..n-1
    fails, or None, each checked literally: index 0 a two-sided identity,
    latin rows and columns, two-sided inverses, and associativity over all
    |G|^3 triples.  FiniteGroup.validate checks only the identity, right
    inverses and Light's test, which imply the rest."""
    n = len(table)
    full = set(range(n))
    if any(table[0][g] != g or table[g][0] != g for g in range(n)):
        return "identity"
    if any(set(row) != full for row in table):
        return "latin rows"
    if any({table[g][h] for g in range(n)} != full for h in range(n)):
        return "latin columns"
    for g in range(n):
        if not any(table[g][h] == 0 == table[h][g] for h in range(n)):
            return "two-sided inverse"
    if associativity_failure(table) is not None:
        return "associativity"
    return None


def is_intercalate(table, r1, r2, c1, c2) -> bool:
    """Whether rows r1, r2 and columns c1, c2 (none of them 0) form a 2x2
    latin subsquare with no identity entry: swapping it keeps the latin
    rows and columns, the identity and the inverses of a table."""
    return (0 not in (r1, r2, c1, c2)
            and table[r1][c1] == table[r2][c2] != 0
            and table[r1][c2] == table[r2][c1] != 0)


def intercalates(table) -> list[tuple]:
    """Every intercalate (r1, r2, c1, c2) with r1 < r2 and c1 < c2."""
    pairs = list(combinations(range(1, len(table)), 2))
    return [(r1, r2, c1, c2) for r1, r2 in pairs for c1, c2 in pairs
            if is_intercalate(table, r1, r2, c1, c2)]


def swap_intercalate(table, r1, r2, c1, c2) -> list[list[int]]:
    """A copy of table with the latin subsquare at rows r1, r2 and columns
    c1, c2 swapped."""
    out = [list(row) for row in table]
    out[r1][c1], out[r1][c2] = table[r1][c2], table[r1][c1]
    out[r2][c1], out[r2][c2] = table[r2][c2], table[r2][c1]
    return out


def loop130_table() -> list[list[int]]:
    """Z/130 with one intercalate swapped (rows 1 and 66, columns 2 and 67):
    an identity, two-sided inverses and latin rows and columns, but not
    associative, and above the order (128) where associativity used to be
    checked."""
    return swap_intercalate(cyclic_group(130).table, 1, 66, 2, 67)


class _Expired(TimeoutError):
    """Raised by the alarm in whatever frame it interrupts."""


@contextmanager
def time_budget(seconds: float):
    """Raise TimeoutError out of the block once `seconds` of wall time pass.

    The alarm interrupts the block at an arbitrary instruction, and there a
    traceback entry can lack a line number (`tb_lineno` is None), which
    pytest cannot format.  So the alarm's exception stops here, and the
    TimeoutError is raised afresh from this frame, naming the interrupted
    line in its message."""
    def expire(signum, frame):
        code = frame.f_code
        raise _Expired(f"{code.co_name} ({code.co_filename}:{frame.f_lineno or '?'})")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Expired as exc:
        raise TimeoutError(f"over the {seconds} s budget, at {exc}") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def euler_phi(n: int) -> int:
    return sum(1 for i in range(1, n + 1) if gcd(i, n) == 1)


def primes_dividing(n: int) -> list[int]:
    out = []
    d = 2
    while d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out


def all_subgroups(G: FiniteGroup) -> list[frozenset]:
    """Every subgroup of G, found by closing generator sets breadth-first."""
    trivial = frozenset({0})
    found = {trivial}
    queue = [trivial]
    while queue:
        S = queue.pop()
        for g in range(G.order):
            if g not in S:
                T = closure(G, set(S) | {g})
                if T not in found:
                    found.add(T)
                    queue.append(T)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def lattice_cyclic_quotient_stats(A: FiniteGroup) -> tuple[int, int]:
    """(m, e) of obstruction.cyclic_quotient_stats by walking the whole
    subgroup lattice: one quotient A/N per subgroup N, and the count and lcm
    of the orders of the cyclic ones.  This is the route the library no
    longer takes; it counts cyclic subgroups instead, by duality."""
    orders = [Q.order for Q in (quotient(A, N).group for N in all_subgroups(A))
              if Q.is_cyclic()]
    return len(orders), lcm(*orders)


# -- the searches over generators that `groups._spanning_tree` replaced -----

def incremental_greedy_generators(G) -> list[int]:
    """`groups._greedy_generators` as it extended the reached set in place:
    each kept element restarts the search from every element reached so
    far.  It reads only `table` and `order`, so it runs on non-groups."""
    table, gens = G.table, []
    reached = [True] + [False] * (G.order - 1)
    for g in range(1, G.order):
        if not reached[g]:
            gens.append(g)
            frontier = [x for x, r in enumerate(reached) if r]
            while frontier:
                nxt = []
                for x in frontier:
                    row = table[x]
                    for s in gens:
                        y = row[s]
                        if not reached[y]:
                            reached[y] = True
                            nxt.append(y)
                frontier = nxt
    return gens


def inverse_step_closure(G: FiniteGroup, gens) -> frozenset:
    """The subgroup generated by gens, searched by right multiplication by
    gens and their inverses, as `groups.closure` did."""
    step = sorted({*gens, *(G.inverse[g] for g in gens)})
    elems, frontier = {0}, [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in step:
                y = G.table[x][g]
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(elems)


def word_vectors(G: FiniteGroup, gens: list[int]) -> list[tuple]:
    """v: G -> Z^k for generators s_1..s_k of G along `_spanning_tree`:
    v(id) = 0, and v(y s_i) = v(y) + e_i at a tree edge, so v(x) counts
    each s_i in a word for x."""
    words = [(0,) * len(gens)] + [None] * (G.order - 1)
    for y, i, x in _spanning_tree(G, gens):
        words[x] = tuple(c + (i == j) for j, c in enumerate(words[y]))
    return words


def relation_rows_at_every_edge(G: FiniteGroup) -> list[tuple]:
    """The distinct nonzero rows v(x) + e_i - v(x s_i) of the relation
    matrix of G^ab at all |G| k edges (x, s_i), in first-seen order over x
    and then i, by `word_vectors`: the matrix the library reduced before
    it read the rows rho at the non-tree edges alone."""
    gens = _greedy_generators(G)
    words = word_vectors(G, gens)
    rows = dict.fromkeys(
        tuple(a + (i == j) - b for j, (a, b) in enumerate(zip(words[x], words[G.table[x][s]])))
        for x in range(G.order) for i, s in enumerate(gens))
    rows.pop((0,) * len(gens), None)
    return list(rows)


# -- isomorphism search ----------------------------------------------------

def _generating_sequence(G: FiniteGroup) -> list[int]:
    gens: list[int] = []
    have = frozenset({0})
    while len(have) < G.order:
        g = min(set(range(G.order)) - have)
        gens.append(g)
        have = closure(G, gens)
    return gens


def find_isomorphism(G: FiniteGroup, H: FiniteGroup) -> Optional[GroupHom]:
    """First isomorphism G -> H in lexicographic generator-image order, or None.

    A homomorphism is fixed by where it sends a generating sequence of G.  Each
    tuple of images (elements of H of the same order, ascending, in
    itertools.product order) is spread over G along one breadth-first tree of
    right multiplications by the generators, and GroupHom checks the result.
    """
    if G.order > ISOMORPHISM_ORDER_LIMIT or H.order > ISOMORPHISM_ORDER_LIMIT:
        raise BoundExceeded(f"find_isomorphism: order exceeds limit {ISOMORPHISM_ORDER_LIMIT}")
    if G.order != H.order:
        return None
    if sorted(G.element_order(g) for g in range(G.order)) != \
       sorted(H.element_order(h) for h in range(H.order)):
        return None
    gens = _generating_sequence(G)
    tree = []   # (x, k, y): y = x * gens[k], with x reached before y
    reached = [0]
    seen = {0}
    for x in reached:   # grows while it is read: a breadth-first queue
        for k, g in enumerate(gens):
            y = G.table[x][g]
            if y not in seen:
                seen.add(y)
                reached.append(y)
                tree.append((x, k, y))
    candidates = [[h for h in range(H.order) if H.element_order(h) == G.element_order(g)]
                  for g in gens]
    for images in product(*candidates):
        m = [0] * G.order
        for x, k, y in tree:
            m[y] = H.table[m[x]][images[k]]
        if len(set(m)) != G.order:
            continue
        try:
            return GroupHom(G, H, m)
        except InvalidGroupError:
            continue
    return None


# -- brute-force circular-order enumeration ----------------------------------

def _cyclic_value(pos, g1, g2, g3, n):
    if g1 == g2 or g2 == g3 or g1 == g3:
        return 0
    d2 = (pos[g2] - pos[g1]) % n
    d3 = (pos[g3] - pos[g1]) % n
    return 1 if d2 < d3 else -1


def brute_force_arrangements(G: FiniteGroup) -> list[tuple]:
    """All identity-anchored permutations whose induced triple function is
    left-invariant, checked directly on every (h, triple)."""
    n = G.order
    if n == 1:
        return [(0,)]
    out = []
    for tail in permutations(range(1, n)):
        seq = (0,) + tail
        pos = {g: p for p, g in enumerate(seq)}
        ok = True
        for h in range(n):
            for g1 in range(n):
                for g2 in range(n):
                    for g3 in range(n):
                        if _cyclic_value(pos, g1, g2, g3, n) != _cyclic_value(
                                pos, G.table[h][g1], G.table[h][g2], G.table[h][g3], n):
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append(seq)
    return out


def rotation_positions(G: FiniteGroup, seq: tuple) -> Optional[list[int]]:
    """The positions of seq (a permutation of G starting at the identity)
    if they form an isomorphism onto Z/|G|, else None, by the O(|G|^2)
    definition: pos(h*g) = pos(h) + pos(g) for all h and g, that is, left
    multiplication by seq[i] rotates seq by i places."""
    if any(tuple(G.table[h][g] for g in seq) != seq[i:] + seq[:i]
           for i, h in enumerate(seq)):
        return None
    pos = [0] * G.order
    for p, g in enumerate(seq):
        pos[g] = p
    return pos


def group_is_circularly_orderable_brute(G: FiniteGroup) -> bool:
    return bool(brute_force_arrangements(G))


# -- the standard conversion formulas between the two cocycle forms -----------

def hom_to_inhom_formula(G: FiniteGroup, c) -> tuple:
    """f(g,h) = 0 if g or h is the identity, 1 if gh = id with g != id, else
    (1 - c(id, g, gh)) / 2, from the matrix c of a left-invariant
    homogeneous cocycle: the oracle for the ordering `orders.validate_hom`
    reads off c by its positions."""
    return tuple(tuple(0 if g == 0 or h == 0 else 1 if gh == 0 else (1 - c[0][g][gh]) // 2
                       for h, gh in enumerate(row)) for g, row in enumerate(G.table))


def inhom_to_hom_formula(G: FiniteGroup, f) -> tuple:
    """c(g1,g2,g3) = 1 - 2 f(g1^-1 g2, g2^-1 g3) on distinct triples, else 0,
    from the matrix f of a normalized cocycle: the homogeneous input the
    tests give `orders.validate_hom`, built without its chart."""
    n, table, inverse = G.order, G.table, G.inverse
    return tuple(tuple(tuple(0 if g3 == g1 or g3 == g2 or g1 == g2
                             else 1 - 2 * f[table[inverse[g1]][g2]][table[inverse[g2]][g3]]
                             for g3 in range(n))
                       for g2 in range(n))
                 for g1 in range(n))


# -- left orders and the lexicographic construction on finite carriers ---------
# A finite group has a left order only when it is trivial, so on finite
# carriers these are vacuous; the package keeps the oracle form
# (`orders.lexicographic_circular_order`) that the Promislow ordering uses.

def left_order_from_cone(G: FiniteGroup, positive) -> LeftOrderOracle:
    """Exhaustively checked cone on a finite carrier (only the trivial group,
    among finite groups, admits one)."""
    P = frozenset(positive)
    for g in range(G.order):
        flags = (g in P, G.inverse[g] in P, g == 0)
        if sum(flags) != 1:
            raise AxiomError("trichotomy", (g,))
    for a in P:
        for b in P:
            if G.table[a][b] not in P:
                raise AxiomError("closure", (a, b))
    return LeftOrderOracle(P.__contains__, G.mul, G.inv, 0)


def lexicographic_order_finite(phi: GroupHom, kernel_order: LeftOrderOracle,
                               quotient_order: InhomCircularOrder) -> InhomCircularOrder:
    """Materialized lexicographic ordering for a finite total group, from the
    homogeneous form of the quotient's ordering, checked by validate_hom."""
    G, H = phi.source, phi.target
    if not phi.is_surjective():
        raise InvalidGroupError("lexicographic order: phi is not onto the quotient carrier")
    if quotient_order.group != H:
        raise InvalidGroupError("lexicographic order: quotient ordering lives on the wrong group")
    chart = inhom_to_hom_formula(H, quotient_order.values)
    oracle = lexicographic_circular_order(phi, kernel_order, lambda a, b, c: chart[a][b][c],
                                          G.mul, G.inv)
    n = G.order
    values = [[[oracle(g1, g2, g3) for g3 in range(n)] for g2 in range(n)] for g1 in range(n)]
    return validate_hom(G, values)


# -- independent Smith-normal-form oracles ------------------------------------

def naive_diagonalize(M) -> list[int]:
    """Diagonal of *some* diagonalization by row/column reduction, without
    transforms and with a different reduction strategy (always reduces by the
    first nonzero entry found, no minimal-pivot rule)."""
    a = [list(row) for row in M]
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    t = 0
    while t < min(m, n):
        # find any nonzero entry
        pivot = next(((i, j) for i in range(t, m) for j in range(t, n) if a[i][j]), None)
        if pivot is None:
            break
        i0, j0 = pivot
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        while True:
            done = True
            for i in range(t + 1, m):
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        done = False
            for j in range(t + 1, n):
                while a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        done = False
            if done:
                break
        diag.append(abs(a[t][t]))
        t += 1
    diag += [0] * (min(m, n) - len(diag))
    return diag


def invariant_factors_from_diagonal(diag: list[int]) -> list[int]:
    """Normalize a diagonal multiset into the invariant-factor chain by
    prime-exponent sorting (gcd/lcm closure done arithmetically)."""
    nonzero = [d for d in diag if d]
    zeros = len(diag) - len(nonzero)
    primes = sorted({p for d in nonzero for p in primes_dividing(d)})
    factors = [1] * len(nonzero)
    for p in primes:
        exps = sorted(_p_exponent(d, p) for d in nonzero)
        for i, e in enumerate(exps):
            factors[i] *= p ** e
    return factors + [0] * zeros


def _p_exponent(d: int, p: int) -> int:
    e = 0
    while d % p == 0:
        d //= p
        e += 1
    return e


def minors_gcd_invariant_factors(M) -> list[int]:
    """Invariant factors via gcds of k x k minors (tiny matrices only)."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    prev = 1
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[M[i][j] for j in csel] for i in rsel]
                g = gcd(g, _det(sub))
        if g == 0:
            out.extend([0] * (min(rows, cols) - len(out)))
            break
        out.append(g // prev)
        prev = g
    return out


def _det(a) -> int:
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j]:
            minor = [row[:j] + row[j + 1:] for row in a[1:]]
            total += (-1) ** j * a[0][j] * _det(minor)
    return total


def seeded_random_matrices(seed: int, count: int = 100, max_dim: int = 50) -> list:
    """Seeded random SNF inputs: dense full-range matrices up to 24x24, and
    rank-bounded (<= 12) products at the larger shapes up to max_dim.

    Keeping the dense cores small is deliberate: exact euclidean-style SNF
    with transforms (here and in every mainstream pure-Python implementation)
    suffers entry explosion once an effectively dense core of size ~30+
    appears, so unbounded dense 50x50 instances are not a regime any such
    engine can promise to verify quickly.
    """
    import random as _random
    rng = _random.Random(seed)
    out = []
    for _ in range(count):
        rows = rng.randrange(1, max_dim + 1)
        cols = rng.randrange(1, max_dim + 1)
        if max(rows, cols) <= 24:
            M = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        else:
            k = rng.randrange(1, 13)
            R = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(rows)]
            C = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(k)]
            M = [[sum(R[i][x] * C[x][j] for x in range(k)) for j in range(cols)]
                 for i in range(rows)]
        out.append(M)
    return out


def determinant(M: IntMatrix) -> int:
    """Bareiss fraction-free elimination (square matrices)."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = [row[:] for row in M.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def verify_snf(snf, check_determinants: bool = True) -> None:
    """Check the postconditions of a SNFResult exactly: U M V = diag, the
    diagonal's signs, trailing zeros and divisibility chain, V Vinv = I, and
    unit determinants.  Raises CheckFailed, so it also runs under python -O."""
    D = IntMatrix.zeros(snf.matrix.rows, snf.matrix.cols)
    for i, d in enumerate(snf.diagonal):
        D.data[i][i] = d
    require(snf.U @ snf.matrix @ snf.V == D, "U M V != diag")
    nz = [d for d in snf.diagonal if d]
    require(all(d > 0 for d in nz), "diagonal not nonnegative")
    require(list(snf.diagonal[:len(nz)]) == nz, "zero entries not trailing")
    require(all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1)), "divisibility chain")
    require(snf.V @ snf.Vinv == IntMatrix.identity(snf.V.rows), "Vinv wrong")
    if check_determinants:
        require(determinant(snf.U) in (1, -1), "det U not a unit")
        require(determinant(snf.V) in (1, -1), "det V not a unit")


def solve_int(snf, b) -> list[int] | None:
    """One integer solution x of (snf.matrix) x = b, or None."""
    m, n = snf.matrix.rows, snf.matrix.cols
    if len(b) != m:
        raise ValueError(f"rhs has length {len(b)}, want {m}")
    ub = snf.U.mul_vector(list(b))
    y = [0] * n
    for i in range(m):
        d = snf.diagonal[i] if i < len(snf.diagonal) else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % d != 0:
                return None
            y[i] = ub[i] // d
    return snf.V.mul_vector(y)


def cochain_matrix(G: FiniteGroup, vec) -> list[list[int]]:
    """The full cochain matrix, with identity zeros, from its entries at
    nonidentity pairs (g, h) in lexicographic order: the inverse of
    cocycle_vector."""
    n = G.order
    it = iter(vec)
    return [[next(it) if g and h else 0 for h in range(n)] for g in range(n)]


def cocycle_vector(G: FiniteGroup, f) -> list[int]:
    """A normalized 2-cochain matrix (not necessarily a cocycle) as its entries
    at nonidentity pairs, in the column order of coboundary_matrices.  A matrix
    of the wrong shape or not normalized raises orders.cocycle_failure's
    AxiomError ("shape" or "normalization")."""
    values = f.values if isinstance(f, InhomCircularOrder) else f
    failure = cocycle_failure(G, values)
    if failure is not None and failure.kind in ("shape", "normalization"):
        raise failure
    n = G.order
    return [values[g][h] for g in range(1, n) for h in range(1, n)]


# -- brute-force cohomology over Z/n ------------------------------------------

def is_cocycle_mod(G: FiniteGroup, f, n) -> bool:
    """The 2-cocycle identity for the cochain matrix f, checked on every
    triple mod n (exactly over Z for n None)."""
    m = G.order
    for g in range(m):
        for h in range(m):
            gh = G.table[g][h]
            for k in range(m):
                v = f[h][k] - f[gh][k] + f[g][G.table[h][k]] - f[g][h]
                if v % n if n else v:
                    return False
    return True


def first_failing_triple(G: FiniteGroup, f, n) -> Optional[tuple]:
    """((g, h, k), v) at the lexicographically first triple of all |G|^3,
    identities included, where v = f(h,k) - f(gh,k) + f(g,hk) - f(g,h) is
    nonzero (mod n; over Z for n None), or None: the witness that
    orders.cocycle_failure must report."""
    m = G.order
    for g, h, k in product(range(m), repeat=3):
        v = f[h][k] - f[G.table[g][h]][k] + f[g][G.table[h][k]] - f[g][h]
        if v % n if n else v:
            return (g, h, k), v
    return None


def quartic_hom_failure(G: FiniteGroup, values) -> Optional[tuple]:
    """(kind, witness) of the first failure of a {-1, 0, 1} triple function
    that vanishes exactly on degenerate triples: the cocycle identity
    c(g2,g3,g4) - c(g1,g3,g4) + c(g1,g2,g4) - c(g1,g2,g3) = 0 on all |G|^4
    quadruples, then c(h g1, h g2, h g3) = c(g1, g2, g3) for every h != id,
    each in lexicographic order; None when both hold.  The literal
    definitions behind orders.validate_hom's comparison with the chart of
    the positions it reads off c."""
    m, t = G.order, G.table
    for g1, g2, g3, g4 in product(range(m), repeat=4):
        if values[g2][g3][g4] - values[g1][g3][g4] + values[g1][g2][g4] - values[g1][g2][g3]:
            return "cocycle", (g1, g2, g3, g4)
    for h, g1, g2, g3 in product(range(1, m), range(m), range(m), range(m)):
        if values[t[h][g1]][t[h][g2]][t[h][g3]] != values[g1][g2][g3]:
            return "invariance", (h, g1, g2, g3)
    return None


def d2_annihilates(G: FiniteGroup, f, n) -> bool:
    """Whether d2 f = 0 over Z (n None) or mod n, by the dense product with
    d2 from coboundary_matrices: the oracle for orders.cocycle_failure, which
    the library checks on the multiplication table instead."""
    d2 = coboundary_matrix(G, 2)
    return not any(v % n if n else v for v in d2.mul_vector(cocycle_vector(G, f)))


def invariant_factors_of_sum(orders) -> tuple:
    """Nonunit invariant factors of the direct sum of the cyclic groups Z/o."""
    return tuple(d for d in invariant_factors_from_diagonal(list(orders)) if d != 1)


def abelian_h2_mod(orders, n: int) -> tuple:
    """Nonunit invariant factors of H^2(A; Z/n), A = (+) Z/a_i for a_i in
    `orders`: (+) Z/gcd(a_i, n) (+) (+)_{i<j} Z/gcd(a_i, a_j, n), that is
    Ext(A, Z/n) (+) Hom(H_2(A), Z/n) with H_2(A) the exterior square
    (+)_{i<j} Z/gcd(a_i, a_j) (universal coefficients; Brown, Cohomology of
    Groups, III.1 and V.6)."""
    return invariant_factors_of_sum([gcd(a, n) for a in orders]
                                    + [gcd(a, b, n) for a, b in combinations(orders, 2)])


def dihedral_h2_mod(k: int, n: int) -> tuple:
    """Nonunit invariant factors of H^2(D_k; Z/n), D_k of order 2k: by
    universal coefficients, from H_1 = Z/2 (k odd) or Z/2 (+) Z/2 (k even)
    and the Schur multiplier H_2 = 0 (k odd) or Z/2 (k even)."""
    return invariant_factors_of_sum(gcd(2, n) for _ in range(1 if k % 2 else 3))


def brute_h2_order_modn(G: FiniteGroup, n: int, limit: int = 20000) -> int:
    """|H^2(G; Z/n)| counted by enumerating all normalized 2-cochains mod n.

    Only feasible for n^((|G|-1)^2) <= limit.
    """
    m = G.order
    pairs = [(g, h) for g in range(1, m) for h in range(1, m)]
    total = n ** len(pairs)
    if total > limit:
        raise ValueError(f"brute force infeasible: {total} cochains")

    def unrank(r):
        f = [[0] * m for _ in range(m)]
        for (g, h) in pairs:
            f[g][h] = r % n
            r //= n
        return f

    cocycles = sum(1 for r in range(total) if is_cocycle_mod(G, unrank(r), n))
    coboundaries = set()
    for r in range(n ** (m - 1)):
        u = [0] * m
        rr = r
        for g in range(1, m):
            u[g] = rr % n
            rr //= n
        key = tuple((u[g] + u[h] - u[G.table[g][h]]) % n for (g, h) in pairs)
        coboundaries.add(key)
    assert cocycles % len(coboundaries) == 0
    return cocycles // len(coboundaries)


@lru_cache(maxsize=None)
def coboundary_solver(G: FiniteGroup, n):
    """SNF of [d1 | nI] on G (of d1 for n None): f is a coboundary over the
    coefficient ring iff f = d1 u + n w is solvable over Z.

    This is the direct route the library does not take: it shares the Smith
    normal form engine, but solves on the whole cochain space with an SNF per
    modulus, not on the cocycle lattice of the cached d2 SNF."""
    d1 = coboundary_matrix(G, 1)
    if n is None:
        return smith_normal_form(d1)
    return smith_normal_form([row + [n * (i == j) for j in range(d1.rows)]
                              for i, row in enumerate(d1.data)])


def is_coboundary_mod(G: FiniteGroup, f, n) -> bool:
    """Whether f = d1 u + n w for integer u, w (f = d1 u for n None)."""
    return solve_int(coboundary_solver(G, n), cocycle_vector(G, f)) is not None


@lru_cache(maxsize=None)
def _full_u_head(G: FiniteGroup) -> tuple:
    """(the first m = |G| - 1 rows of the square row transform U of the
    Smith normal form U d1 V = diag(e_j) of all (|G|-1)^2 rows of d1, the
    e_j): the class-coordinate rows the library no longer builds, since it
    reads U f off the row sums of f and reduces only d1's generator rows."""
    snf = smith_normal_form(coboundary_matrix(G, 1))
    return IntMatrix(snf.U.data[:G.order - 1], cols=snf.U.cols), snf.diagonal


def full_u_coordinates(G: FiniteGroup, f) -> list[int]:
    """(U f)_j for j < m, through the square U of all of d1."""
    return _full_u_head(G)[0].mul_vector(cocycle_vector(G, f))


def full_u_factors(G: FiniteGroup) -> tuple:
    """The Smith diagonal e_j of all of d1: (U f)_j mod e_j is f's class."""
    return _full_u_head(G)[1]


@lru_cache(maxsize=None)
def _generator_rows(G: FiniteGroup) -> tuple:
    """(the places (g, s) of d1's rows at generator last arguments, in
    cochain order, and the Smith normal form of those rows R with its
    square U): the route the library took before it reduced the relation
    matrix of G^ab.  The rows r(g,s) span the row lattice of d1 (d2 d1 = 0
    gives r(g,hs) = r(gh,s) - r(h,s) + r(g,h); induct on the word length of
    h), so d1 = C R and R's V serves d1 itself."""
    gens = _greedy_generators(G)
    m = G.order - 1
    return ([(g - 1) * m + s - 1 for g in range(1, m + 1) for s in gens],
            smith_normal_form(coboundary_rows(G, 1, gens)))


def generator_u_coordinates(G: FiniteGroup, f) -> list[int]:
    """(U_R f_R)_j for j < m: f at the rows R, through U_R."""
    places, snf = _generator_rows(G)
    vector = cocycle_vector(G, f)
    return IntMatrix(snf.U.data[:G.order - 1], cols=snf.U.cols).mul_vector(
        [vector[i] for i in places])


def generator_row_coordinates(G: FiniteGroup, f) -> list[int]:
    """(U_R f)_j = e_j (V^-1 S)_j / |G| for j < m, from the row sums S of f
    at the nonidentity elements (|G| f = d1 S), without U_R."""
    snf = _generator_rows(G)[1]
    scaled = [e * w for e, w in zip(snf.diagonal, snf.Vinv.mul_vector(
        [sum(row) for row in cocycle_values(G, f)[1:]]))]
    require(all(v % G.order == 0 for v in scaled), "e_j (V^-1 S)_j is not divisible by |G|")
    return [v // G.order for v in scaled]


def generator_row_divisibility(G: FiniteGroup, f, n: int) -> tuple:
    """(divisible, mu, u) by the generator rows of d1: with z = U_R f, the
    equation f = n mu + d1 u splits into z_j = n (U mu)_j + e_j u'_j with
    u = V u', solvable iff gcd(n, e_j) | z_j; mu = (f - d1 u) / n is
    checked by exact division, entry by entry."""
    snf = _generator_rows(G)[1]
    u_smith = []
    for z, e in zip(generator_row_coordinates(G, f), snf.diagonal):
        g, _, t = _gcdext(n, e)
        if z % g:
            return False, None, None
        u_smith.append(t * (z // g))
    u = [0, *snf.V.mul_vector(u_smith)]
    rest = [[fv - ug - uh + u[gh] for fv, gh, uh in zip(fg, row, u)]
            for fg, row, ug in zip(cocycle_values(G, f), G.table, u)]
    require(all(v % n == 0 for row in rest for v in row), "f - d1 u is not divisible by n")
    return True, [[v // n for v in row] for row in rest], u[1:]


def kernel_basis(snf: SNFResult) -> IntMatrix:
    """Columns spanning the integer kernel of snf.matrix (a saturated
    lattice): the trailing columns of V."""
    n = snf.matrix.cols
    r = snf.rank
    return IntMatrix([[snf.V.data[i][j] for j in range(r, n)] for i in range(n)],
                     cols=n - r)


def sparse_coboundary_rows(G: FiniteGroup, degree: int, lasts):
    """The rows of `coboundary_matrix(G, degree)` at the cells
    (g_0..g_degree) whose last argument is in `lasts` (nonidentity), in
    lexicographic order of (g_0..g_(degree-1), position of g_degree in
    `lasts`), as {column: value} dicts of their nonzero entries (at most
    degree + 2 each); all nonidentity lasts give every row."""
    n = G.order
    m, table = n - 1, G.table
    for head in product(range(1, n), repeat=degree):
        for last in lasts:
            cell = head + (last,)
            faces = [cell[1:]]
            faces += [cell[:i] + (table[cell[i]][cell[i + 1]],) + cell[i + 2:]
                      for i in range(degree)]
            faces.append(cell[:-1])
            row = {}
            for i, face in enumerate(faces):
                if 0 not in face:
                    col = 0
                    for g in face:
                        col = col * m + g - 1
                    v = row.get(col, 0) + (-1 if i % 2 else 1)
                    if v:
                        row[col] = v
                    else:
                        del row[col]
            yield row


def coboundary_rows(G: FiniteGroup, degree: int, lasts) -> IntMatrix:
    """`sparse_coboundary_rows` as a dense matrix."""
    cols = (G.order - 1) ** degree
    return IntMatrix([[row.get(c, 0) for c in range(cols)]
                      for row in sparse_coboundary_rows(G, degree, lasts)], cols=cols)


def generator_d2_rows(G: FiniteGroup) -> IntMatrix:
    """The (|G|-1)^2 k rows (g, h, s) of d2, s in the greedy generating set,
    one block per generator.  Write r(g,h,k) for the row of d2 at (g,h,k),
    with r = 0 when an argument is the identity: d3 d2 = 0 on normalized
    cochains gives r(g,h,kl) = r(h,k,l) - r(gh,k,l) + r(g,hk,l) + r(g,h,k),
    and taking l a generator, induction on the word length of the last
    argument shows that these rows span the row lattice of d2.  So they
    have its integer kernel, rank and nonzero Smith diagonal, and their V
    diagonalizes d2 itself."""
    return IntMatrix([row for s in _greedy_generators(G)
                      for row in coboundary_rows(G, 2, (s,)).data], cols=(G.order - 1) ** 2)


class D2Smith(NamedTuple):
    """The Smith normal form data of d2 that Z/n coefficients read on the
    route the library replaced by Q's rows (`_Complex.schreier`)."""
    rank: int
    factors: tuple              # d_1 .. d_rank
    vinv: IntMatrix             # V^-1 of U d2 V = diag(d_i)
    kernel_classes: IntMatrix   # ker d2 basis (trailing columns of V) in class coordinates


def _d2_smith(G: FiniteGroup, rows) -> D2Smith:
    """D2Smith from the SNF of rows spanning the row lattice of d2; the
    kernel basis goes to the library's integral class coordinates through
    `_Complex.smith_coordinates` on each column's row sums."""
    snf2 = smith_normal_form(rows)
    basis = kernel_basis(snf2)
    m = G.order - 1
    classes = [_Complex(G).smith_coordinates([0, *(sum(col[i:i + m]) for i in range(0, m * m, m))])
               for col in map(basis.col, range(basis.cols))]
    return D2Smith(snf2.rank, snf2.diagonal[:snf2.rank], snf2.Vinv,
                   IntMatrix([list(row) for row in zip(*classes)], cols=basis.cols))


@lru_cache(maxsize=None)
def generator_d2_smith(G: FiniteGroup) -> D2Smith:
    """D2Smith from the SNF of `generator_d2_rows`: the route the library
    took for Z/n projections before it read Q's rows."""
    return _d2_smith(G, generator_d2_rows(G))


def full_d2_smith(G: FiniteGroup) -> D2Smith:
    """D2Smith from the SNF of all (|G|-1)^3 rows of d2."""
    return _d2_smith(G, coboundary_matrix(G, 2))


def d2_class(G: FiniteGroup, f, n: int, smith: D2Smith) -> tuple:
    """The class of the Z/n cocycle f by the d2 route: with
    U' d2 V' = diag(d_1..d_r, 0..) and y = V'^-1 f, d2 f = 0 mod n puts the
    rank block of y on the steps n / gcd(d_i, n), whose quotients are read
    mod gcd(d_i, n), and the kernel block is read in the integral class
    coordinates mod gcd(a_j, n) (universal coefficients).  Zero exactly
    when [f] = 0, and additive, in another basis than the library's."""
    y = smith.vinv.mul_vector(cocycle_vector(G, f))
    steps = [n // gcd(d, n) for d in smith.factors]
    require(all(v % step == 0 for v, step in zip(y, steps)),
            "d2 f = 0 mod n but the rank block of V^-1 f is off its steps")
    kernel = smith.kernel_classes.mul_vector(y[smith.rank:])
    return (tuple(v // step % gcd(d, n) for v, step, d in zip(y, steps, smith.factors))
            + tuple(v % gcd(a, n) for v, a in zip(kernel, _Complex(G).factors)))


def unit_pivot_invariants(rows: list) -> tuple:
    """The nonzero Smith diagonal d_1 | d_2 | ... of the integer matrix with
    sparse rows `rows` ({column: value} dicts, consumed), the elimination
    that gave the Z/n factors off d2's generator rows before the library
    read Q's rows.  While some entry p[c] is +-1, in a row p of least
    weight and, among that row's units, in the column c with the fewest
    entries, the exact row additions r -= r[c] p[c] p clear column c, and
    row p and column c are dropped.  Column c is then zero outside row p,
    so column additions clear the rest of row p and touch no other row;
    both are unimodular, so the matrix is equivalent to (+-1) (+) R, R what
    is left, and each step adds a 1 to the diagonal.  What is left when no
    unit remains goes to `smith_normal_form`, whose diagonal alone is read."""
    live = {i: row for i, row in enumerate(rows) if row}
    cols = {}   # column -> the live rows with a nonzero entry there
    for i, row in live.items():
        for c in row:
            cols.setdefault(c, set()).add(i)
    heap = [(len(row), i) for i, row in live.items()]
    heapify(heap)
    units = 0
    while heap:
        weight, p = heappop(heap)
        row = live.get(p)
        if row is None or len(row) != weight:
            continue   # pivoted, emptied or pushed again since
        pivots = [c for c, v in row.items() if v in (1, -1)]
        if not pivots:
            continue   # stays in the residue unless an addition changes it
        c = min(pivots, key=lambda c: len(cols[c]))
        del live[p]
        v = row.pop(c)
        for j in row:
            cols[j].discard(p)
        others = cols.pop(c)
        others.discard(p)
        for i in others:
            r = live[i]
            q = r.pop(c) * v   # v * v = 1
            for j, x in row.items():
                y = r.get(j, 0) - q * x
                if y:
                    if j not in r:
                        cols[j].add(i)
                    r[j] = y
                else:
                    del r[j]
                    cols[j].discard(i)
            if r:
                heappush(heap, (len(r), i))
            else:
                del live[i]
        units += 1
    used = sorted({c for row in live.values() for c in row})
    residue = [[row.get(c, 0) for c in used] for row in live.values()]
    rest = smith_normal_form(residue).diagonal if residue else ()
    return (1,) * units + tuple(d for d in rest if d)


def abelianization_factors(G: FiniteGroup) -> tuple:
    """Nonunit invariant factors of G^ab, built as the quotient of G by the
    closure of its commutators (gh)(hg)^-1 and read off element-order
    counts: with p^c_i elements of order dividing p^i, G^ab has
    c_i - c_(i-1) cyclic p-summands of order at least p^i.  The oracle for
    the relation matrix of `_Complex`, sharing none of its route."""
    t, inv = G.table, G.inverse
    commutators = {t[t[g][h]][inv[t[h][g]]] for g in range(G.order) for h in range(G.order)}
    A = quotient(G, closure(G, commutators)).group
    orders = [A.element_order(x) for x in range(A.order)]
    summands = []
    for p in primes_dividing(A.order):
        at_least, c = [], 0        # at_least[i - 1]: p-summands of order >= p^i
        while True:
            above = _p_exponent(sum(1 for o in orders if p ** (len(at_least) + 1) % o == 0), p)
            if above == c:
                break
            at_least.append(above - c)
            c = above
        summands += [p ** sum(1 for a in at_least if a >= j) for j in range(1, at_least[0] + 1)]
    return invariant_factors_of_sum(summands)


def abelian_schur_multiplier(orders) -> tuple:
    """Nonunit invariant factors of M(A) = H_2(A; Z), A = (+) Z/a_i for a_i
    in `orders`: the exterior square (+)_{i<j} Z/gcd(a_i, a_j) (Brown,
    Cohomology of Groups, V.6)."""
    return invariant_factors_of_sum(gcd(a, b) for a, b in combinations(orders, 2))


def dihedral_schur_multiplier(m: int) -> tuple:
    """Nonunit invariant factors of M(D_m), D_m of order 2m: Z/2 for even m
    and 0 for odd m (Karpilovsky, The Schur Multiplier, 1987)."""
    return () if m % 2 else (2,)


def product_schur_multiplier(m_g, ab_g, m_h, ab_h) -> tuple:
    """Nonunit invariant factors of M(G x H) = M(G) (+) M(H) (+)
    (G^ab (x) H^ab), from the factors of M and of the abelianization of
    each (the Kuenneth formula; Karpilovsky, The Schur Multiplier, 1987)."""
    return invariant_factors_of_sum(list(m_g) + list(m_h)
                                    + [gcd(a, b) for a in ab_g for b in ab_h])


@lru_cache(maxsize=None)
def cyclic_characters(G: FiniteGroup, m: int) -> list[tuple]:
    """Every homomorphism G -> Z/m, as its tuple of values: each choice of
    images of the greedy generators, spread along their word vectors and
    kept when phi(gh) = phi(g) + phi(h) holds on the whole table."""
    gens, out = _greedy_generators(G), []
    words = word_vectors(G, gens)
    for images in product(range(m), repeat=len(gens)):
        phi = [sum(w * a for w, a in zip(word, images)) % m for word in words]
        if all(phi[gh] == (phi[g] + phi[h]) % m
               for g, row in enumerate(G.table) for h, gh in enumerate(row)):
            out.append(tuple(phi))
    return out


@lru_cache(maxsize=None)
def kernel_route(G: FiniteGroup):
    """H^2(G; Z) through the cocycle lattice: the SNF of d2 gives coordinates
    x = (V^-1 f)[r:] in a basis of ker d2, and the SNF of d1 in those
    coordinates gives Z^k / im d1 = (+) Z/a_j in the coordinates U x.

    This is the route the library no longer takes for integral classes: it
    needs the cubic-size SNF of d2.  Returns (Vinv, r, U, (a_j)), with a_j = 0
    past the rank of d1 marking a free summand."""
    d1, d2 = coboundary_matrices(G)
    snf2 = smith_normal_form(d2)
    r = snf2.rank
    k = d2.cols - r
    d1_in_kernel = IntMatrix(snf2.Vinv.data[r:], cols=d2.cols) @ d1
    rel = smith_normal_form(d1_in_kernel)
    return snf2.Vinv, r, rel.U, (rel.diagonal + (0,) * k)[:k]


def kernel_route_factors(G: FiniteGroup) -> tuple:
    """Nonunit invariant factors of H^2(G; Z) by the kernel route."""
    return tuple(a for a in kernel_route(G)[3] if a != 1)


def kernel_route_class(G: FiniteGroup, f) -> tuple:
    """Coordinates of the integral cocycle f in (+) Z/a_j by the kernel route."""
    vinv, r, U, factors = kernel_route(G)
    y = vinv.mul_vector(cocycle_vector(G, f))
    assert not any(y[:r]), "f is not an integral cocycle"
    return tuple(z % a if a else z for z, a in zip(U.mul_vector(y[r:]), factors))


def minimal_generator_by_scan(G: FiniteGroup, f) -> int:
    """The unique z with f(z, g) = 0 for every g other than z^-1, found by
    scanning every candidate row of f's matrix: the route that
    `extensions.minimal_generator` replaced by reading pos(z) = 1.  Raises
    CheckFailed unless exactly one candidate is found."""
    f = as_ordering(G, f)
    if G.order == 1:
        return 0
    candidates = [z for z in range(1, G.order)
                  if all(f.values[z][g] == 0 for g in range(G.order) if g != G.inverse[z])]
    require(len(candidates) == 1, f"minimal generator: candidates {candidates}, want exactly one")
    return candidates[0]


# -- Promislow elements from raw data -----------------------------------------

M_NAMES = ("I", "A", "B", "AB")


def make_element(m: int, w) -> tuple:
    """Validated constructor; rejects parity-violating (corrupt) data."""
    w = tuple(w)
    if m not in (0, 1, 2, 3) or len(w) != 3 or not all(type(v) is int for v in w):
        raise InvalidGroupError(f"bad element data ({m!r}, {w!r})")
    if tuple(v % 2 for v in w) != promislow.PARITY[m]:
        raise InvalidGroupError(f"parity violation: w = {w} is not congruent to "
                                f"{promislow.PARITY[m]} mod 2 for {M_NAMES[m]}")
    return (m, *w)


# -- the Promislow axioms, one quadruple at a time ------------------------------

def axiom_counts(quadruples) -> dict:
    """All four circular-ordering axioms on each (g1, g2, g3, h), calling
    `promislow.promislow_circular_order` (read at call time, so a patched
    oracle is the one checked) for every value: 10 calls per nondegenerate
    quadruple.  This is the route `promislow.demo` no longer takes on
    ball(2)^4, where it reads one table of oracle values."""
    c = promislow.promislow_circular_order
    mul = promislow.prom_mul
    checked = 0
    failures = {"vanishing": 0, "antisymmetry": 0, "invariance": 0, "cocycle": 0}
    for g1, g2, g3, h in quadruples:
        checked += 1
        v = c(g1, g2, g3)
        degenerate = g1 == g2 or g2 == g3 or g1 == g3
        if (v == 0) != degenerate:
            failures["vanishing"] += 1
        if not degenerate:
            if c(g2, g1, g3) != -v or c(g1, g3, g2) != -v or c(g3, g2, g1) != -v \
                    or c(g2, g3, g1) != v or c(g3, g1, g2) != v:
                failures["antisymmetry"] += 1
        if c(mul(h, g1), mul(h, g2), mul(h, g3)) != v:
            failures["invariance"] += 1
        if c(g2, g3, h) - c(g1, g3, h) + c(g1, g2, h) - v != 0:
            failures["cocycle"] += 1
    return {"checked": checked, "failures": failures,
            "ok": not any(failures.values())}


# -- the Promislow ordering from cut-at-identity keys ---------------------------

def _cut_key(m: int, x: int, y: int, z: int) -> tuple:
    """Key of the element (m, x, y, z) in the linear order that cutting the
    circle at the identity leaves: the positive kernel cone (class 0), then
    the coset aK (class 1), then the negative cone (class 2).  Within a class
    g comes before g' when g^-1 g' = (m ^ m', S (x' - x, y' - y, z' - z)),
    S = SIGNS[m], is in the kernel cone: y decides (sigma_y = -1 on aK
    reverses it), and a tie in y forces m == m' by parity, so sigma_x x and
    then sigma_z z break it."""
    sx, _, sz = promislow.SIGNS[m]
    if m & 1:
        return (1, -y, sx * x, sz * z)
    if y:
        cone = 0 if y > 0 else 2
    else:
        cone = 0 if x > 0 or (x == 0 and z > 0) else 2
    return (cone, y, sx * x, sz * z)


def key_circular_order(g1, g2, g3) -> int:
    """The Promislow ordering by building the key tuples of g1^-1 g2 and
    g1^-1 g3 and comparing them whole; `promislow.promislow_circular_order`
    compares the same keys field by field.  g1^-1 (m, x, y, z) =
    (m1 ^ m, S1 (x - x1, y - y1, z - z1)) with S1 = SIGNS[m1].  `_cut_key`
    is read at call time, so a patched key is the one used."""
    if g1 == g2 or g2 == g3 or g1 == g3:
        return 0
    m1, x1, y1, z1 = g1
    sx, sy, sz = promislow.SIGNS[m1]
    m2, x2, y2, z2 = g2
    m3, x3, y3, z3 = g3
    if _cut_key(m1 ^ m2, sx * (x2 - x1), sy * (y2 - y1), sz * (z2 - z1)) \
            < _cut_key(m1 ^ m3, sx * (x3 - x1), sy * (y3 - y1), sz * (z3 - z1)):
        return 1
    return -1


# -- the Z-extension's cone and its quotients -----------------------------------
#
# The paper's literal construction of the ordering on a Z/n extension: the
# Z-extension of (G, f) is left-ordered with positive cone {(a, g) : a >= 0}
# minus the identity, and one cone quotient (`_cone_quotient`) cuts it at a
# positive cofinal central element c, with the cocycle of the section that
# picks each coset's element in [id, c).  Cut at z^n it recovers
# `extensions.hat_ordering` the slow way (`quotient_by_power`); cut at the
# lift of the minimal generator of a central cyclic K it gives the quotient
# ordering on G/K and the section that matches it mod |K|
# (`quotient_by_cyclic_central`).  Each cone function takes the ordering f,
# an InhomCircularOrder, and works in the Z-extension built from it.

def cone_positive(f: InhomCircularOrder, x: CentralExtElement) -> bool:
    """Membership in the positive cone {(a,g) : a >= 0} minus the identity."""
    if not isinstance(f, InhomCircularOrder):
        raise InvalidGroupError("positive cone needs a Z-extension built from a circular ordering")
    return x != (0, 0) and x.a >= 0


def cone_compare(f: InhomCircularOrder, x: CentralExtElement,
                 y: CentralExtElement) -> int:
    """-1, 0, +1 for x < y, x = y, x > y in the left order x < y iff x^-1 y in P."""
    if x == y:
        return 0
    E = CentralExtensionGroup(f.group, f)
    return -1 if cone_positive(f, E.multiply(E.inverse(x), y)) else 1


def is_cofinal_central(f: InhomCircularOrder, z: CentralExtElement,
                       probe_bound: int) -> bool:
    """True iff z is central (exhaustively over the base) and every element
    with coefficient magnitude <= probe_bound sits between z^-t and z^t for
    some witnessed t.

    Cofinality is only probed, never proven: it quantifies over an infinite
    group.  For the canonical z = (1, id) of an ordering-built extension the
    probe always succeeds.
    """
    if probe_bound < 0:
        raise InvalidGroupError(f"is_cofinal_central: negative probe_bound {probe_bound}")
    if not cone_positive(f, z):
        raise InvalidGroupError(f"z = {z} is not positive")
    E = CentralExtensionGroup(f.group, f)
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
                if cone_compare(f, E.inverse(zt), probe) == -1 \
                        and cone_compare(f, probe, zt) == -1:
                    ok = True
                    break
            if not ok:
                return False
    return True


def _cone_quotient(f: InhomCircularOrder, c: CentralExtElement, candidates,
                   coset_of) -> tuple:
    """Quotient the Z-extension of (f.group, f) by the positive cofinal
    central element c.

    candidates[i] lists elements of the i-th coset of <c> wide enough to hold
    its representative, the unique one with id <= r < c in the cone order,
    and coset_of maps an element of E to its coset index.  The quotient
    multiplies representatives, and its cocycle at (i1, i2) is the j with
    r_i1 r_i2 = c^j r_(i1 i2).  Returns (reps, table, cocycle).
    """
    E = CentralExtensionGroup(f.group, f)
    reps = []
    for i, coset in enumerate(candidates):
        found = [x for x in coset if cone_compare(f, E.identity, x) <= 0
                 and cone_compare(f, x, c) == -1]
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
            r12 = E.multiply(r1, r2)
            i12 = table[i1][i2] = coset_of(r12)
            defect = E.multiply(r12, E.inverse(reps[i12]))
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
    f = as_ordering(G, f)
    m = G.order
    _, table, cocycle = _cone_quotient(
        f, CentralExtElement(n, 0),
        [[CentralExtElement(a, g) for a in range(residue - 2 * n, residue + 2 * n + 1, n)]
         for residue in range(n) for g in range(m)],
        lambda x: x.a % n * m + x.g)
    names = [f"({a}, {G.names[g]})" for a in range(n) for g in range(m)]
    Q = FiniteGroup(table, names=names, name=f"{G.name}~/{n}")
    return QuotientPowerResult(Q, validate_inhom(Q, cocycle))


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
    f = as_ordering(G, f)
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

    E = CentralExtensionGroup(G, f)
    z_lift = CentralExtElement(0, z)
    for h in range(G.order):
        if E.multiply(z_lift, CentralExtElement(0, h)) != \
                E.multiply(CentralExtElement(0, h), z_lift):
            raise AxiomError("centrality", (z, h), "lift of the generator is not central")

    section_lifts, table, fbar = _cone_quotient(
        f, z_lift,
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
