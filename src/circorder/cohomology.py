"""Exact second cohomology of finite groups over Z and Z/n.

Everything runs over arbitrary-precision integers: normalized bar-resolution
coboundary matrices, a Smith-normal-form engine that eliminates on the
matrix alone and builds, from a log of its steps, only the unimodular
transforms a caller reads (deterministic first-nonzero pivoting), and the
divisibility tests on cohomology classes of circular orderings.  Cochains
are normalized (they vanish when any argument is the identity), so
degree-k cochains on a group of order m live in Z^((m-1)^k).

Integral classes are characters.  Summing the cocycle identity
f(h,k) - f(gh,k) + f(g,hk) - f(g,h) = 0 over k gives |G| f = d1 S with
S(g) = sum_h f(g,h), so S mod |G| is a homomorphism and the class of f is
the character chi_f(g) = S(g)/|G| mod 1: it is zero exactly when S = |G| u,
i.e. f = d1 u, and every character is that of the carry bit of its lift to
Z/|G|.  So H^2(G; Z) = Hom(G^ab, Q/Z) (Brown, Cohomology of Groups, III.1
and III.10), read in the Smith basis of a k-column relation matrix A of
G^ab at k <= log2 |G| generators (`_Complex`), from S at those.  A's rows
are the rows rho below, so one breadth-first tree feeds the integral and
the Z/n route alike.  S of an
ordering is its positions, so its class needs no matrix.  n-divisibility is
solved on the character, and mod-n triviality of an integral cocycle is the
same question, so nothing depends on n; d1 u is read off the table.

Every cocycle passes orders.cocycle_values or cocycle_sums, which check a
raw matrix and trust any ordering view on the group.  When
gcd(n, |G|) = 1, H^2(G; Z/n) = 0, as both |G| (Brown III.10) and n kill
it, so no complex is constructed; a projection still checks a raw
matrix's cocycle identity mod n.  Otherwise H^2(G; Z/n) is read off a free
presentation, built once per group (`_Complex`).  Let F be free
on the generators s_1..s_k and R the kernel of F -> G.  The tree of
`groups._spanning_tree` gives each x a word w(x), and by
Reidemeister-Schreier R is free on the y = w(x) s w(x s)^-1 at the
|G|(k-1)+1 non-tree edges (x, s): y is the loop of the Cayley graph that
runs the tree to x, the edge (x, s) and the tree back from x s, so a loop
is the sum of the y at its non-tree edges.  F acts on R^ab by conjugation
through G, which translates loops, so Q = R/[F,R] is Z^Y modulo the rows
rewrite(s y s^-1) - y, one for each (s, y).  By Hopf's formula Q is
Z^k (+) M(G), M(G) = H_2(G; Z) the Schur multiplier, and the five-term
sequence of 1 -> R -> F -> G -> 1 gives H^2(G; A) = Hom(Q, A) / res
Hom(F, A) for trivial A (Brown II.5 and VII.6).  The class of a Z/n
cocycle f is the map R -> Z/n of its extension (a,g)(b,h) =
(a + b + f(g,h), gh): lift s to (0, s), so that w(x) goes to (beta(x), x)
with beta(id) = 0 and beta(x s) = beta(x) + f(x, s) along tree edges, and
y goes to (beta(x) + f(x, s), x s)(beta(x s), x s)^-1, which is
c_y = beta(x) + f(x, s) - beta(x s) in the central Z/n.  Being central, c
kills Q's rows mod n.  A hom F -> Z/n with values t at the generators
restricts to rho t, rho_y = v(x) + e_s - v(x s) the relation rows of G^ab
at the non-tree edges, whose distinct nonzero rows are A.  With
U Q V = diag(d_1..d_r, 0..0) for Q's rows, c kills them mod n exactly
when w = V^-1 c is a multiple of n / gcd(d_i, n) on the rank block; the
nonunit d_i are M(G), and the k zero columns are the free block.  rho t is
a hom Q -> Z, in the kernel of Q's rows, so V^-1 rho vanishes on the rank
block and is a k x k matrix B on the free block, and
H^2(G; Z) = Z^k / B Z^k, so B's Smith diagonal is A's, (a_j).
With U_B B V_B = diag(a_j) the free block reads U_B w mod gcd(a_j, n).
So H^2(G; Z/n) = (+) Z/gcd(d_i, n) (+) (+) Z/gcd(a_j, n), which is
Hom(M(G), Z/n) (+) Ext(G^ab, Z/n) (universal coefficients, Brown III.1),
read in those coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, product
from math import gcd
from typing import NamedTuple, Optional, Sequence, Union

from .errors import BoundExceeded, require
from .groups import FiniteGroup, _spanning_tree
from .orders import cocycle_sums, cocycle_values

H2_ORDER_LIMIT = 10


class IntMatrix:
    """Dense integer matrix backed by lists; exact arithmetic only."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[int]], cols: Optional[int] = None):
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        self.cols = cols if cols is not None else len(self.data[0]) if self.data else 0
        for i, row in enumerate(self.data):
            if len(row) != self.cols:
                raise ValueError(f"row {i} has length {len(row)}, want {self.cols}")
        if not set(map(type, chain.from_iterable(self.data))) <= {int}:   # not 1.5 or True
            i, j = next((i, j) for i, row in enumerate(self.data)
                        for j, v in enumerate(row) if type(v) is not int)
            raise ValueError(f"entry ({i}, {j}) = {self.data[i][j]!r} is not an int")

    @classmethod
    def _trusted(cls, data: list, cols: int) -> "IntMatrix":
        """A matrix on `data` itself: fresh lists of `cols` exact ints each,
        built in this module, so with no copy, length check or type scan."""
        M = cls.__new__(cls)
        M.data, M.rows, M.cols = data, len(data), cols
        return M

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._trusted(_identity_lists(n), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._trusted([[0] * cols for _ in range(rows)], cols)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        return IntMatrix(_mul_lists(self.data, other.data, other.cols), cols=other.cols)

    def mul_vector(self, vec: Sequence[int]) -> list[int]:
        if self.cols != len(vec):
            raise ValueError(f"dimension mismatch: {self.cols} vs {len(vec)}")
        return [sum(a * v for a, v in zip(row, vec) if a and v) for row in self.data]

    def col(self, j: int) -> list[int]:
        return [row[j] for row in self.data]

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


@dataclass
class SNFResult:
    """U @ matrix @ V == diag(diagonal), with U, V unimodular.

    `diagonal` has length min(rows, cols); nonzero entries are positive, come
    first, and satisfy the divisibility chain d1 | d2 | ...  `U`, `V` and
    `Vinv` (coordinates in the column space of V) are each replayed from the
    elimination's `log` when first read, and kept.
    """
    matrix: IntMatrix
    diagonal: tuple
    log: list = field(repr=False)

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    @cached_property
    def U(self) -> IntMatrix:
        m = self.matrix.rows
        return IntMatrix._trusted(_replay(self.log, 0, m, False), m)

    @cached_property
    def V(self) -> IntMatrix:
        n = self.matrix.cols
        return IntMatrix._trusted(list(map(list, zip(*_replay(self.log, 1, n, False)))), n)

    @cached_property
    def Vinv(self) -> IntMatrix:
        n = self.matrix.cols
        return IntMatrix._trusted(_replay(self.log, 1, n, True), n)


def _gcdext(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0, coefficients minimal."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _mul_lists(A, B, bcols):
    out = []
    for row in A:
        acc = [0] * bcols
        for aik, brow in zip(row, B):
            if aik:
                for j, v in enumerate(brow):
                    if v:
                        acc[j] += aik * v
        out.append(acc)
    return out


def _identity_lists(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def _snf_in_place(a, m, n):
    """Diagonalize `a` in place and return the log of its unimodular steps
    (side, i, j, p, q, r, w), side 0 for rows and 1 for columns, each taking
    (line i, line j) to (p line i + q line j, r line i + w line j).  When
    pivot position k is reached, the rows and columns from k on are zero
    outside the block a[k:, k:], so whole-line steps leave the finished part
    of `a` unchanged.  The exact additions that clear pivot k run over
    nonzero entries only: a row addition over the support of the pivot row,
    a column addition over the rows nonzero in the pivot column."""
    log = []

    def rotate(side, i, j, p, q, r, w):
        log.append((side, i, j, p, q, r, w))
        if side:
            for row in a:
                e, f = row[i], row[j]
                row[i], row[j] = p * e + q * f, r * e + w * f
        else:
            ri, rj = a[i], a[j]
            a[i] = [p * e + q * f for e, f in zip(ri, rj)]
            a[j] = [r * e + w * f for e, f in zip(ri, rj)]

    for k in range(min(m, n)):
        # pivot: first nonzero entry of the block in row-major order
        i = next((i for i in range(k, m) if any(a[i][k:])), None)
        if i is None:
            break  # the rest of the block is zero
        j = next(j for j in range(k, n) if a[i][j])
        if i != k:
            log.append((0, k, i, 0, 1, 1, 0))
            a[k], a[i] = a[i], a[k]
        if j != k:
            log.append((1, k, j, 0, 1, 1, 0))
            for row in a:
                row[k], row[j] = row[j], row[k]
        while True:
            # clear column k and row k; one Bezout rotation per stubborn entry
            dirty = True
            while dirty:
                piv, dirty = a[k][k], False
                support = [(c, v) for c, v in enumerate(a[k]) if v]
                for i in range(k + 1, m):
                    x = a[i][k]
                    if not x:
                        continue
                    dirty = True
                    if x % piv == 0:   # row i -= d row k
                        d, ri = x // piv, a[i]
                        log.append((0, k, i, 1, 0, -d, 1))
                        for c, v in support:
                            ri[c] -= d * v
                    else:
                        g, xx, yy = _gcdext(piv, x)
                        rotate(0, k, i, xx, yy, x // g, -(piv // g))
                        piv, support = g, [(c, v) for c, v in enumerate(a[k]) if v]
                holders = [row for row in a if row[k]]
                for j in range(k + 1, n):
                    x = a[k][j]
                    if not x:
                        continue
                    dirty = True
                    if x % piv == 0:   # col j -= d col k
                        d = x // piv
                        log.append((1, k, j, 1, 0, -d, 1))
                        for row in holders:
                            row[j] -= d * row[k]
                    else:
                        g, xx, yy = _gcdext(piv, x)
                        rotate(1, k, j, xx, yy, x // g, -(piv // g))
                        piv, holders = g, [row for row in a if row[k]]
            # grind the pivot until it divides the rest of the block: this is
            # what makes the divisibility chain hold with no repair pass
            p = a[k][k]
            offender = None if p in (1, -1) else next(
                (i for i in range(k + 1, m) if any(a[i][j] % p for j in range(k + 1, n))), None)
            if offender is None:
                break
            rotate(0, k, offender, 1, 1, 0, 1)   # row k += row offender
        if a[k][k] < 0:
            rotate(0, k, k, -1, 0, 0, -1)   # negate row k: the step with i = j
    return log


def _replay(log, side, size, inverse):
    """The steps of `log` on `side`, or the inverse of each, applied in order
    as row steps to the identity of `size`.  Row steps give U.  A column
    step T right-multiplies V, so the same row step, T^T, left-multiplies
    V^T: column steps give V^T.  T^-1 left-multiplies V^-1, and its 2 x 2
    block is det (w, -r; -q, p), det = pw - qr = +-1."""
    out = _identity_lists(size)
    for s, i, j, p, q, r, w in log:
        if s != side:
            continue
        if inverse:
            det = p * w - q * r
            p, q, r, w = det * w, -det * r, -det * q, det * p
        ri, rj = out[i], out[j]
        if p == w == 1 and not q * r:   # one line gains a multiple of the other
            dst, src, x = (ri, rj, q) if q else (rj, ri, r)
            for c, v in enumerate(src):
                if v:
                    dst[c] += x * v
        elif p == w == 0 and q == r == 1:   # a swap
            out[i], out[j] = rj, ri
        else:
            out[i] = [p * e + q * f for e, f in zip(ri, rj)]
            out[j] = [r * e + w * f for e, f in zip(ri, rj)]
    return out


def smith_normal_form(M: Union[IntMatrix, Sequence[Sequence[int]]]) -> SNFResult:
    """Exact Smith normal form, whose transforms are replayed from the log
    of its steps when first read (`SNFResult`, `_replay`).

    One pass over the pivot positions, on the matrix alone
    (`_snf_in_place`).  Each off-pivot entry dies in a single unimodular
    Bezout rotation (one extended-gcd step, no remainder cascades), and the
    pivot is not finalized until it divides the whole working block, so the
    divisibility chain needs no repair pass.  Pivot rule: first nonzero
    entry in row-major order; smallest-value pivoting was measured to
    inflate transform entries ~50x on dense input by repeatedly dragging
    heavily mixed rows back into the pivot seat.  Deterministic by
    construction.
    """
    if not isinstance(M, IntMatrix):
        M = IntMatrix(M)
    a = [row[:] for row in M.data]
    log = _snf_in_place(a, M.rows, M.cols)
    return SNFResult(M, tuple(a[i][i] for i in range(min(M.rows, M.cols))), log)


# -- normalized cochain complex ---------------------------------------------

def coboundary_matrix(G: FiniteGroup, degree: int) -> IntMatrix:
    """The coboundary C^degree -> C^(degree+1) on normalized cochains.

    Rows and columns are indexed by tuples of nonidentity elements in
    lexicographic order, so a cochain matrix f reads f(g,h) at column
    (g-1)(|G|-1) + (h-1).  The bar coboundary
    (d f)(g_0..g_k) = f(g_1..g_k) + sum_i (-1)^(i+1) f(.., g_i g_(i+1), ..)
                      + (-1)^(k+1) f(g_0..g_(k-1)),
    with k = degree, drops the terms whose argument hits the identity:
    (d1 u)(g,h) = u(h) - u(gh) + u(g) and
    (d2 f)(g,h,k) = f(h,k) - f(gh,k) + f(g,hk) - f(g,h).
    """
    n = G.order
    if n > H2_ORDER_LIMIT:
        raise BoundExceeded(f"coboundary_matrix: order {n} > limit {H2_ORDER_LIMIT}")
    m, table = n - 1, G.table
    d = IntMatrix.zeros(m ** (degree + 1), m ** degree)
    for row, cell in zip(d.data, product(range(1, n), repeat=degree + 1)):
        faces = [cell[1:]]
        faces += [cell[:i] + (table[cell[i]][cell[i + 1]],) + cell[i + 2:] for i in range(degree)]
        faces.append(cell[:-1])
        for i, face in enumerate(faces):
            if 0 not in face:
                col = 0
                for g in face:
                    col = col * m + g - 1
                row[col] += -1 if i % 2 else 1
    return d


def coboundary_matrices(G: FiniteGroup):
    """(d1, d2) from `coboundary_matrix`; d2 @ d1 = 0."""
    return coboundary_matrix(G, 1), coboundary_matrix(G, 2)


class _Schreier(NamedTuple):
    """The Hopf data of H^2(G; Z/n) (module docstring); the tree, the
    non-tree edges y and the relation rows rho it reads are `_Complex`'s."""
    rows: IntMatrix   # the distinct nonzero rows rewrite(s y s^-1) - y of Q
    vinv: IntMatrix   # V^-1 of U Q V = diag(d_1..d_r, 0..0)
    torsion: tuple    # d_1..d_r, the rank block; its nonunit entries are M(G)
    free: IntMatrix   # U_B of U_B B V_B = diag(a_j), B = (V^-1 rho) on the free block


@lru_cache(maxsize=32)
class _Complex:
    """Cached per-group data: the checked group it was built from, one free
    presentation of it, the Smith data of a relation matrix A of G^ab, the
    Schreier data of Z/n coefficients and the H^2 structures built on them.
    A breadth-first search over the greedy generators s_1..s_k that the
    group's validation kept (`FiniteGroup.generators`,
    `groups._spanning_tree`) gives the tree and, along it, word vectors
    v: G -> Z^k with v(id) = 0 and v(x s) = v(x) + e_s at a tree edge.  The
    other |G|(k-1)+1 edges (x, s) are the free generators y of R (module
    docstring), and rho_y = v(x) + e_s - v(x s).  With L the lattice of
    the rows v(x) + e_i - v(x s_i) at all edges, which are 0 at tree edges
    and rho at the others, v(x s_i) = v(x) + e_i mod L, so
    v(xy) = v(x) + v(y) mod L by induction on the word length of y:
    x -> v(x) is a homomorphism onto Z^k / L, as e_i = v(s_i).  e_i -> s_i
    sends v(x) to x and each row to 1 in G^ab, so it is defined on Z^k / L
    and undoes x -> v(x): G^ab = Z^k / L.  A is rho's distinct nonzero
    rows.  With U A V = diag(a_1..a_k), each a_j nonzero as G^ab is finite,
    w in Z^k has coordinates (w V)_j mod a_j in the basis b_j of G^ab, row
    j of V^-1.  `gens`, `tree`, `words`, `edges`, `rho`, `V`, `Vinv` and
    `factors` = (a_j) are built by the constructor, and `schreier` on the
    first Z/n question with n not prime to |G|, so integral questions never
    build it.  A Z/n question with n prime to |G| constructs no complex
    (`h2_structure`).  Cached by multiplication table (the group kept is
    the first one asked about, already checked; its names are never read)
    for the 32 most recently asked tables.  An entry count is not a byte
    budget: with H2_ORDER_LIMIT raised toward groups.MAX_TABLE_ORDER, each
    entry grows with its table."""

    def __init__(self, G: FiniteGroup):
        self.group, table = G, G.table
        self.gens = gens = list(G.generators)
        k, self.tree = len(gens), [(x, gens[i], xs) for x, i, xs in _spanning_tree(G, gens)]
        self.words = words = [(0,) * k] + [None] * (G.order - 1)
        for x, s, xs in self.tree:
            words[xs] = tuple(c + (s == t) for t, c in zip(gens, words[x]))
        self.edges = sorted({(x, s, table[x][s]) for x in range(G.order) for s in gens}
                            - set(self.tree))
        rho = [[a + (s == t) - b for t, a, b in zip(gens, words[x], words[xs])]
               for x, s, xs in self.edges]
        self.rho = IntMatrix._trusted(rho, k)
        rows = {tuple(row): row for row in rho if any(row)}   # distinct, in order
        snf = smith_normal_form(IntMatrix._trusted(list(rows.values()), k))
        self.V, self.Vinv, self.factors = snf.V, snf.Vinv, snf.diagonal
        self.structures: dict = {}    # modulus (None for Z) -> H2Structure

    def smith_coordinates(self, sums: Sequence[int]) -> list[int]:
        """The class coordinates c_j = a_j chi_f(b_j) of an integral cocycle
        f from its row sums S(g) = sum_h f(g,h), g in G: chi_f(g) = S(g)/|G|
        mod 1, so with t_i = S(s_i), c_j = a_j (V^-1 t)_j / |G|, and a
        remainder fails the check."""
        n = self.group.order
        t = [sums[s] for s in self.gens]
        scaled = [a * w for a, w in zip(self.factors, self.Vinv.mul_vector(t))]
        require(all(v % n == 0 for v in scaled),
                "a_j (V^-1 t)_j is not divisible by |G| on a cocycle's row sums S")
        return [v // n for v in scaled]

    def lift(self, f) -> list[int]:
        """c_y = beta(x) + f(x, s) - beta(x s) at y = (x, s, x s), with
        beta(id) = 0 and beta(x s) = beta(x) + f(x, s) along the tree."""
        beta = [0] * len(f)
        for x, s, xs in self.tree:
            beta[xs] = beta[x] + f[x][s]
        return [beta[x] + f[x][s] - beta[xs] for x, s, xs in self.edges]

    @cached_property
    def schreier(self) -> _Schreier:
        """Q's rows on the non-tree edges, their Smith normal form with
        V^-1, and B's with U (module docstring).  A loop in the Cayley
        graph is the sum of its fundamental cycles, read off its non-tree
        edges, and s acts by translating loops, so the row of (s, y) is the
        non-tree part of s C_y, with C_y the tree path to x, the edge y and
        the tree path back from x s, less y.  B presents G^ab as A does, so
        its Smith diagonal must be `factors`."""
        table, tree, edges = self.group.table, self.tree, self.edges
        index = {(x, s): e for e, (x, s, _) in enumerate(edges)}
        rows = {}
        for s in self.gens:
            path = [()] * self.group.order   # the non-tree edges of s (tree path to x)
            for x, t, xt in tree:
                e = index.get((table[s][x], t))
                path[xt] = path[x] if e is None else path[x] + (e,)
            for y, (x, t, xt) in enumerate(edges):
                row = [0] * len(edges)
                row[y] -= 1
                moved = index.get((table[s][x], t))   # the edge y translated by s
                if moved is not None:
                    row[moved] += 1
                for e in path[x]:
                    row[e] += 1
                for e in path[xt]:
                    row[e] -= 1
                rows[tuple(row)] = row
        rows.pop((0,) * len(edges), None)
        snf = smith_normal_form(IntMatrix._trusted(list(rows.values()), len(edges)))
        r, k = snf.rank, len(self.gens)
        image = snf.Vinv @ self.rho
        require(len(edges) - r == k and not any(v for row in image.data[:r] for v in row),
                "Q's free block is not the image of the relation rows rho")
        free = smith_normal_form(IntMatrix._trusted(image.data[r:], k))
        require(free.diagonal == self.factors,
                "B's Smith diagonal is not the invariant factors of G^ab")
        return _Schreier(snf.matrix, snf.Vinv, snf.diagonal[:r], free.U)


def _complex_for(G: FiniteGroup, modulus: Optional[int] = None) -> Optional[_Complex]:
    """G's cached `_Complex`, or None for a modulus prime to |G|, which needs
    none: |G| and n both kill H^2(G; Z/n) (Brown III.10), so it is 0."""
    if G.order > H2_ORDER_LIMIT:
        raise BoundExceeded(f"cohomology: order {G.order} > limit {H2_ORDER_LIMIT}")
    return None if modulus is not None and gcd(modulus, G.order) == 1 else _Complex(G)


@dataclass(frozen=True)
class H2Structure:
    """Invariant factors of H^2(G; A) plus the class-projection data.

    `invariant_factors` lists the nonunit factors in divisibility order; all
    are nonzero, since H^2(G; Z) and H^2(G; Z/n) are finite.  The projection
    sends a cocycle matrix to coordinates that are killed exactly on the
    coboundary lattice, additively, and reduces them mod each factor.  Over
    Z it reads the class coordinates c_j = a_j chi_f(b_j) off the matrix's
    row sums at the generators (`_Complex.smith_coordinates`) and applies
    `_coords`, which selects those of the nonunit a_j.  Over Z/n with n not
    prime to |G| it lifts f to c on the free generators of R
    (`_Complex.lift`), requires that c kill Q's rows mod n and that
    w = V^-1 c lie on the steps n / gcd(d_i, n) of the rank block, divides
    by them, and applies `_coords` to those quotients and w's free block,
    which `_coords` reads through U_B.  For n prime to |G| (no complex) it
    checks a raw matrix's cocycle identity mod n and returns the zero class.
    Equal and hashed by modulus, factors and table, which fix the rest, so
    the zero structures built afresh for one table are equal.
    """
    modulus: Optional[int]
    invariant_factors: tuple
    _group: FiniteGroup = field(repr=False)
    _complex: Optional[_Complex] = field(repr=False, compare=False)
    _steps: tuple = field(repr=False, compare=False)
    _coords: IntMatrix = field(repr=False, compare=False)

    def project(self, f) -> "CohomologyClass":
        comp = self._complex
        if self.modulus is None:
            x = comp.smith_coordinates(cocycle_sums(self._group, f)[0])
        else:
            n = self.modulus
            values = cocycle_values(self._group, f, n)
            if comp is None:
                return CohomologyClass(self, ())    # H^2(G; Z/n) = 0, see h2_structure
            data = comp.schreier
            c = comp.lift(values)
            require(all(v % n == 0 for v in data.rows.mul_vector(c)),
                    "c does not kill Q's rows mod n")
            w = data.vinv.mul_vector(c)
            r = len(self._steps)
            require(all(v % step == 0 for v, step in zip(w, self._steps)),
                    "V^-1 c is off its steps on the rank block")
            x = [v // step for v, step in zip(w, self._steps)] + w[r:]
        coords = self._coords.mul_vector(x)
        return CohomologyClass(self, tuple(
            c % e for c, e in zip(coords, self.invariant_factors)))


@dataclass(frozen=True)
class CohomologyClass:
    structure: H2Structure
    coords: tuple

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        if other.structure != self.structure:
            raise ValueError("classes live in different structures")
        return CohomologyClass(self.structure, tuple(
            (a + b) % e
            for a, b, e in zip(self.coords, other.coords, self.structure.invariant_factors)))

    def scale(self, k: int) -> "CohomologyClass":
        return CohomologyClass(self.structure, tuple(
            (c * k) % e for c, e in zip(self.coords, self.structure.invariant_factors)))


def h2_structure(G: FiniteGroup, modulus: Optional[int] = None) -> H2Structure:
    """H^2(G; Z) for modulus None, else H^2(G; Z/modulus); |G| <= H2_ORDER_LIMIT.

    When gcd(n, |G|) = 1 the group is 0, and its structure is built afresh,
    with no complex.  Otherwise it is read off the group's cached `_Complex`
    once per modulus.  Over Z/n the summands are Z/gcd(d_i, n) on the rank
    block of Q's rows and Z/gcd(a_j, n) on its free block, read through U_B
    (`_Complex.schreier`); over Z they are the Z/a_j of G^ab, with no rank
    block and U_B = I.  One Smith normal form of the diagonal of nonunit
    orders, with U, puts them in divisibility order and gives the
    projection's coordinates, unless the diagonal is already a divisibility
    chain (the a_j are one, and so is any of length at most 1): then U = I.
    """
    if modulus is not None and (type(modulus) is not int or modulus < 2):
        raise ValueError(f"modulus {modulus!r} is not an int >= 2")
    comp = _complex_for(G, modulus)
    if comp is None:
        return H2Structure(modulus, (), G, None, (), IntMatrix([], cols=0))
    got = comp.structures.get(modulus)
    if got is not None:
        return got
    k = len(comp.factors)
    if modulus is None:
        steps, orders, free = (), comp.factors, IntMatrix.identity(k)
    else:
        data = comp.schreier
        steps = tuple(modulus // gcd(d, modulus) for d in data.torsion)
        orders = [modulus // step for step in steps] + [gcd(a, modulus) for a in comp.factors]
        free = data.free
    r = len(steps)
    keep = [i for i, o in enumerate(orders) if o != 1]
    # (rank-block quotients, free block) -> coordinates mod the kept orders
    block = IntMatrix([[int(i == j) for j in range(r)] + [0] * k if i < r
                       else [0] * r + free.data[i - r] for i in keep], cols=r + k)
    kept = [orders[i] for i in keep]
    if all(b % a == 0 for a, b in zip(kept, kept[1:])):
        # already a divisibility chain of nonunits: its own Smith form, U = I
        factors, coords = tuple(kept), block
    else:
        snf = smith_normal_form([[orders[i] if i == j else 0 for j in keep] for i in keep])
        nonunit = [j for j, e in enumerate(snf.diagonal) if e != 1]
        factors = tuple(snf.diagonal[j] for j in nonunit)
        coords = IntMatrix([snf.U.data[j] for j in nonunit], cols=len(keep)) @ block
    got = comp.structures[modulus] = H2Structure(modulus, factors, comp.group, comp, steps, coords)
    return got


def class_of(G: FiniteGroup, f) -> CohomologyClass:
    """Coordinates of an integer 2-cocycle in H^2(G; Z)."""
    return h2_structure(G).project(f)


class DivisibilityWitness(NamedTuple):
    divisible: bool
    mu: Optional[list]          # cocycle matrix with n*[mu] = [f], when divisible
    coboundary_of: Optional[list]  # 1-cochain u with f = n*mu + d1 u


def is_trivial_mod_n(G: FiniteGroup, f, n: int) -> bool:
    """Whether the mod-n reduction of the integral cocycle f is a coboundary
    over Z/n coefficients, i.e. f = d1 u + n w for integer u, w.

    For integral f that is exactly n-divisibility of [f] (d2 w = 0 follows
    from d2 f = 0), so this is `is_n_divisible`, witness check included.
    """
    return is_n_divisible(G, f, n).divisible


def is_n_divisible(G: FiniteGroup, f, n: int) -> DivisibilityWitness:
    """Whether [f] = n*mu for some mu in H^2(G; Z), with a re-verified witness.

    [f] is the character chi_f, with coordinates c_j = a_j chi_f(b_j) read
    off the row sums S of f (an ordering's positions; `_Complex`), so
    n chi_mu = chi_f solves to n m_j = c_j mod a_j, m_j = a_j chi_mu(b_j),
    iff gcd(n, a_j) | c_j for every j: nothing depends on n, and f's matrix
    is read only when it holds.  chi_mu(s_i) = sum_j V_ij m_j / a_j lifts
    along the word vectors to P = |G| chi_mu: G -> Z/|G|, and mu is the
    carry bit [P(g) + P(h) >= |G|], with row sums P.  So |G| f = d1 S and
    |G| mu = d1 P give f = n mu + d1 u for u = (S - n P) / |G|, an exact
    division that is checked; d1 u is read off the table, u(identity) = 0.
    mu = (f - d1 u) / n is checked by exact division, entry by entry; then
    f = n mu + d1 u holds exactly, which proves mu a cocycle: f is one (it
    passes orders.cocycle_sums), d1 u is a coboundary and the identity is
    linear, so n d2 mu = 0, hence d2 mu = 0 over Z.
    """
    if type(n) is not int or n < 2:
        raise ValueError(f"n = {n!r} is not an int >= 2")
    comp = _complex_for(G)
    order = G.order
    sums, matrix = cocycle_sums(G, f)
    lifts = []   # |G| chi_mu(b_j) = m_j |G| / a_j
    for c, a in zip(comp.smith_coordinates(sums), comp.factors):
        g, x, _ = _gcdext(n, a)
        if c % g:
            return DivisibilityWitness(False, None, None)
        lifts.append(x * (c // g) * (order // a))
    p = comp.V.mul_vector(lifts)   # P at the generators
    P = [sum(w * q for w, q in zip(word, p)) % order for word in comp.words]
    require(all((s - n * q) % order == 0 for s, q in zip(sums, P)),
            "S - n P is not divisible by |G|")
    u = [(s - n * q) // order for s, q in zip(sums, P)]
    f = matrix()
    rest = [[fv - ug - uh + u[gh] for fv, gh, uh in zip(fg, row, u)]
            for fg, row, ug in zip(f, G.table, u)]   # f - d1 u
    require(all(v % n == 0 for row in rest for v in row), "f - d1 u is not divisible by n")
    mu = [[v // n for v in row] for row in rest]
    return DivisibilityWitness(True, mu, u[1:])
