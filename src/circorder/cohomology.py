"""Exact second cohomology of finite groups over Z and Z/n.

Everything runs over arbitrary-precision integers: normalized bar-resolution
coboundary matrices, a Smith-normal-form engine with unimodular transforms
(deterministic first-nonzero pivoting; the exact row and column additions
that clear a pivot run over nonzero entries only), and the divisibility
tests on cohomology classes of circular orderings.  Cochains are normalized
(they vanish when any argument is the identity), so degree-k cochains on a
group of order m live in Z^((m-1)^k).

Integral classes are characters.  Summing the cocycle identity
f(h,k) - f(gh,k) + f(g,hk) - f(g,h) = 0 over k gives |G| f = d1 S with
S(g) = sum_h f(g,h), so S mod |G| is a homomorphism and the class of f is
the character chi_f(g) = S(g)/|G| mod 1: it is zero exactly when S = |G| u,
i.e. f = d1 u, and every character is that of the carry bit of its lift to
Z/|G|.  So H^2(G; Z) = Hom(G^ab, Q/Z) (Brown, Cohomology of Groups, III.1
and III.10), read in the Smith basis of a k-column relation matrix of G^ab
at k <= log2 |G| generators (`_Complex`), from S at those.  S of an
ordering is its positions, so its class needs no matrix.  n-divisibility is
solved on the character, and mod-n triviality of an integral cocycle is the
same question, so nothing depends on n; d1 u is read off the table.

Every cocycle passes orders.cocycle_values or cocycle_sums, which check a
raw matrix and trust an InhomCircularOrder on the group.  d2 is reduced
only for Z/n coefficients with gcd(n, |G|) > 1, once per group; only a
projection there flattens a cocycle to a vector.  When gcd(n, |G|) = 1,
H^2(G; Z/n) = 0, as both |G| (Brown III.10) and n kill it, so no matrix is
needed; a projection still checks a raw matrix's cocycle identity mod n.  With
U' d2 V' = diag(d_1..d_r, 0..) and y = V'^-1 f, the cocycle condition mod n
reads d_i y_i = 0 mod n on the rank block and leaves the kernel block free,
while im d1 lies in the kernel block.  So H^2(G; Z/n) splits as
(+) Z/gcd(d_i, n) (+) (+) Z/gcd(a_j, n), the kernel block read in the class
coordinates above (the universal coefficient theorem, Brown III.1).

The invariant factors need only the nonzero d_i, not V', and d2 has at most
4 nonzero entries per row, so the factors come from a sparse elimination
(`_unit_pivot_invariants`).  While some entry is +-1, row additions clear
its column; that column is then zero outside the pivot row, so column
additions clear the rest of the pivot row and touch no other row.  Both are
unimodular, so d2 is equivalent to (+-1) (+) R, R the Schur complement left
once the pivot row and column are dropped, and its Smith diagonal is a 1
followed by that of R.  What is left when no unit remains goes to the dense
SNF; on the groups within the order limit it had at most 10 columns and
entries of at most 4.  A projection needs V'^-1 and the kernel block, so the
dense SNF of d2 runs on the first projection over Z/n only, and it must
reproduce the d_i of the elimination and the structure's factors.

V' comes from the rows of d2 whose last argument is a generator, not from
all (|G|-1)^3 of them: (|G|-1)^2 k rows for a generating set of k <= log2 |G|
elements.  Write r(g,h,k) for the row of d2 at (g,h,k), with r = 0 when an
argument is the identity.  d3 d2 = 0 on normalized cochains gives
r(g,h,kl) = r(h,k,l) - r(gh,k,l) + r(g,hk,l) + r(g,h,k).  Taking l a
generator, induction on the word length of the last argument shows that the
rows r(g,h,s), s a generator, span the row lattice of d2.  Two matrices
with the same row lattice have the same integer kernel, rank and nonzero
Smith diagonal, and a V' that diagonalizes one diagonalizes the other for
some unimodular U'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from itertools import product
from math import gcd
from typing import NamedTuple, Optional, Sequence, Union

from .errors import BoundExceeded, require
from .groups import FiniteGroup, _greedy_generators, _word_vectors
from .orders import cocycle_sums, cocycle_values

H2_ORDER_LIMIT = 10


class IntMatrix:
    """Dense integer matrix backed by lists; exact arithmetic only."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[int]], cols: Optional[int] = None):
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
        else:
            self.cols = 0 if cols is None else cols
        for i, row in enumerate(self.data):
            if len(row) != self.cols:
                raise ValueError(f"row {i} has length {len(row)}, want {self.cols}")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        M = cls.__new__(cls)  # fresh rows: no copy, no length check
        M.data = [[0] * cols for _ in range(rows)]
        M.rows, M.cols = rows, cols
        return M

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
    first, and satisfy the divisibility chain d1 | d2 | ...  `U` is None
    unless requested with want_u; `V` and `Vinv` (which gives coordinates in
    the column space of V) are always returned.
    """
    matrix: IntMatrix
    diagonal: tuple
    U: Optional[IntMatrix]
    V: IntMatrix
    Vinv: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


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
                if aik == 1:
                    for j, v in enumerate(brow):
                        if v:
                            acc[j] += v
                else:
                    for j, v in enumerate(brow):
                        if v:
                            acc[j] += aik * v
        out.append(acc)
    return out


def _identity_lists(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def _snf_in_place(a, m, n, want_u):
    """Diagonalize `a` in place; return (s, t, tinv) transform lists with
    s @ a_original @ t = a_final.  One pass over the pivot positions k, each
    elementary operation applied to `a` and, in the same step, to s, t and
    tinv.  When position k is reached, the rows and columns from k on are
    zero outside the block a[k:, k:], so whole-row and whole-column
    operations leave the finished part of `a` unchanged.  The exact
    additions that clear pivot k run over nonzero entries only (see
    `smith_normal_form`)."""
    s = _identity_lists(m) if want_u else None
    t = _identity_lists(n)
    tinv = _identity_lists(n)
    by_rows = (a, s) if want_u else (a,)  # row operations act on a and s alike

    def swap_rows(i, j):
        for rows in by_rows:
            rows[i], rows[j] = rows[j], rows[i]

    def negate_row(i):
        for rows in by_rows:
            rows[i] = [-v for v in rows[i]]

    def row_support(i):
        # the nonzero (column, value) pairs of row i of a and, with want_u, s
        return [(rows, [(j, v) for j, v in enumerate(rows[i]) if v]) for rows in by_rows]

    def add_row(support, dst, q):
        # row dst -= q * row src, given src's row_support
        for rows, entries in support:
            rd = rows[dst]
            for j, v in entries:
                rd[j] -= q * v

    def rotate_rows(i, j, p, q, r, w):
        # (row_i, row_j) <- (p*row_i + q*row_j, r*row_i + w*row_j); pw-qr = +-1
        for rows in by_rows:
            ri, rj = rows[i], rows[j]
            for c, (e, f) in enumerate(zip(ri, rj)):
                ri[c] = p * e + q * f
                rj[c] = r * e + w * f

    def swap_cols(i, j):
        if i == j:
            return
        for rows in (a, t):
            for row in rows:
                row[i], row[j] = row[j], row[i]
        tinv[i], tinv[j] = tinv[j], tinv[i]

    def col_holders(i):
        # the rows of a and t whose column-i entry is nonzero
        return [row for rows in (a, t) for row in rows if row[i]]

    def add_col(src, dst, q, holders):
        # col dst -= q * col src over `holders`; V^-1 gets the inverse row operation
        for row in holders:
            row[dst] -= q * row[src]
        rs = tinv[src]
        for j, v in enumerate(tinv[dst]):
            if v:
                rs[j] += q * v

    def rotate_cols(i, j, p, q, r, w):
        # (col_i, col_j) <- (p*col_i + q*col_j, r*col_i + w*col_j)
        for rows in (a, t):
            for row in rows:
                e, f = row[i], row[j]
                row[i] = p * e + q * f
                row[j] = r * e + w * f
        det = p * w - q * r  # +-1
        ri, rj = tinv[i], tinv[j]
        for c, (e, f) in enumerate(zip(ri, rj)):
            ri[c] = det * (w * e - r * f)
            rj[c] = det * (-q * e + p * f)

    for k in range(min(m, n)):
        # pivot: first nonzero entry of the block in row-major order
        best = next(((i, j) for i in range(k, m) for j in range(k, n) if a[i][j]), None)
        if best is None:
            break  # the rest of the block is zero
        swap_rows(k, best[0])
        swap_cols(k, best[1])
        while True:
            # clear column k and row k; one Bezout rotation per stubborn entry
            while True:
                piv = a[k][k]
                dirty = False
                support = row_support(k)
                for i in range(k + 1, m):
                    x = a[i][k]
                    if not x:
                        continue
                    d, r = divmod(x, piv)
                    if r == 0:
                        add_row(support, i, d)
                    else:
                        g, xx, yy = _gcdext(piv, x)
                        rotate_rows(k, i, xx, yy, x // g, -(piv // g))
                        piv = g
                        support = row_support(k)
                    dirty = True
                holders = col_holders(k)
                for j in range(k + 1, n):
                    x = a[k][j]
                    if not x:
                        continue
                    d, r = divmod(x, piv)
                    if r == 0:
                        add_col(k, j, d, holders)
                    else:
                        g, xx, yy = _gcdext(piv, x)
                        rotate_cols(k, j, xx, yy, x // g, -(piv // g))
                        piv = g
                        holders = col_holders(k)
                    dirty = True
                if not dirty:
                    break
            # grind the pivot until it divides the rest of the block: this is
            # what makes the divisibility chain hold with no repair pass
            p = a[k][k]
            if p in (1, -1):
                break
            offender = next((i for i in range(k + 1, m)
                             if any(a[i][j] % p for j in range(k + 1, n))), None)
            if offender is None:
                break
            add_row(row_support(offender), k, -1)
        if a[k][k] < 0:
            negate_row(k)
    return s, t, tinv


def smith_normal_form(M: Union[IntMatrix, Sequence[Sequence[int]]],
                      want_u: bool = True) -> SNFResult:
    """Exact Smith normal form with unimodular transforms.

    One pass over the pivot positions, with no recursion.  Each off-pivot
    entry dies in a single unimodular Bezout rotation (one extended-gcd
    step, no remainder cascades), and the pivot is not finalized until it
    divides the whole working block, so the divisibility chain needs no
    repair pass.  Every elementary operation is applied at once to U, V and
    V^-1.  An exact row addition runs over the nonzero entries of the pivot
    row in the matrix and U, and an exact column addition over the rows of
    the matrix and V that are nonzero in the pivot column, each support
    taken once per sweep and again after a Bezout rotation; V^-1 takes its
    dense row update.  Skipping zeros changes no entry, and on the d2 of
    groups of order 8-10 (at most 4 nonzero entries per row) it cut the SNF
    time by 25-55%.  Recursing per pivot and composing small per-level
    transforms gives the same matrices entry for entry, but it measured
    2-5x slower on the d2 of groups of order 8-10 and about 2.5x slower on
    dense 9x9 input, held a submatrix per level (166 MB at size 300), and
    met Python's recursion limit near size 1000.  Pivot rule: first nonzero
    entry in row-major order; smallest-value pivoting was measured to
    inflate transform entries ~50x on dense input by repeatedly dragging
    heavily mixed rows back into the pivot seat.  Deterministic by
    construction.
    """
    if not isinstance(M, IntMatrix):
        M = IntMatrix(M)
    m, n = M.rows, M.cols
    a = [row[:] for row in M.data]
    s, t, tinv = _snf_in_place(a, m, n, want_u)
    diagonal = tuple(a[i][i] for i in range(min(m, n)))
    U = IntMatrix(s, cols=m) if want_u else None
    return SNFResult(M, diagonal, U, IntMatrix(t, cols=n), IntMatrix(tinv, cols=n))


def kernel_basis(snf: SNFResult) -> IntMatrix:
    """Columns spanning the integer kernel of snf.matrix (a saturated lattice)."""
    n = snf.matrix.cols
    r = snf.rank
    return IntMatrix([[snf.V.data[i][j] for j in range(r, n)] for i in range(n)],
                     cols=n - r)


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
    return _coboundary_rows(G, degree, range(1, n))


def _coboundary_rows(G: FiniteGroup, degree: int, lasts: Sequence[int]) -> IntMatrix:
    """The rows of the coboundary C^degree -> C^(degree+1) at the cells
    (g_0..g_degree) whose last argument is in `lasts` (nonidentity), in
    lexicographic order of (g_0..g_(degree-1), position of g_degree in
    `lasts`); all nonidentity lasts give `coboundary_matrix`."""
    m = G.order - 1
    d = IntMatrix.zeros(m ** degree * len(lasts), m ** degree)
    for row, entries in zip(d.data, _sparse_coboundary_rows(G, degree, lasts)):
        for col, v in entries.items():
            row[col] = v
    return d


def _sparse_coboundary_rows(G: FiniteGroup, degree: int, lasts: Sequence[int]):
    """The rows of `_coboundary_rows`, in its order, as {column: value} dicts
    of their nonzero entries (at most degree + 2 each)."""
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


def _unit_pivot_invariants(rows: list) -> tuple:
    """The nonzero Smith diagonal d_1 | d_2 | ... of the integer matrix with
    sparse rows `rows` ({column: value} dicts, consumed).  While some entry
    p[c] is +-1, in a row p of least weight and, among that row's units, in
    the column c with the fewest entries, the exact row additions
    r -= r[c] p[c] p clear column c, and row p and column c are dropped:
    each such step adds a 1 to the diagonal (module docstring).  What is
    left when no unit remains goes to `smith_normal_form` without U."""
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
    rest = smith_normal_form(residue, want_u=False).diagonal if residue else ()
    return (1,) * units + tuple(d for d in rest if d)


def coboundary_matrices(G: FiniteGroup):
    """(d1, d2) from `coboundary_matrix`; d2 @ d1 = 0."""
    return coboundary_matrix(G, 1), coboundary_matrix(G, 2)


class _D2Smith(NamedTuple):
    """The Smith normal form data of d2 that Z/n coefficients need."""
    rank: int
    factors: tuple              # d_1 .. d_rank
    vinv: IntMatrix             # V^-1 of U d2 V = diag(d_i)
    kernel_classes: IntMatrix   # ker d2 basis (trailing columns of V) in class coordinates


@lru_cache(maxsize=None)
class _Complex:
    """Cached per-group data: the checked group it was built from, the Smith
    data of a relation matrix A of G^ab and the H^2 structures built on
    them.  A breadth-first search over the greedy generators s_1..s_k gives
    word vectors v: G -> Z^k (`groups._word_vectors`), and A has the |G| k
    rows v(x) + e_i - v(x s_i).  With L their lattice, v(x s_i) = v(x) + e_i
    mod L, so v(xy) = v(x) + v(y) mod L by induction on the word length of
    y: x -> v(x) is a homomorphism onto Z^k / L, as e_i = v(s_i).  e_i -> s_i
    sends v(x) to x and each row to 1 in G^ab, so it is defined on Z^k / L
    and undoes x -> v(x): G^ab = Z^k / L.  With U A V = diag(a_1..a_k), each
    a_j nonzero as G^ab is finite, w in Z^k has coordinates (w V)_j mod a_j
    in the basis b_j of G^ab, row j of V^-1.  `gens`, `words`, `V`, `Vinv`
    and `factors` = (a_j) are kept, built on the first read of any from A's
    distinct nonzero rows, so a Z/n question with n prime to |G| builds
    none.  d2 is only reduced for Z/n with n not prime to |G|, on its rows
    at generator last arguments: by the unit-pivot elimination for the
    factors (`d2_invariants`), and by the dense SNF with V'^-1 and the
    kernel classes (`d2_smith`) on the first projection.  Cached by
    multiplication table (the group kept is the first one asked about,
    already checked; its names are never read) and unbounded by design: one
    entry per distinct table, released by `cache_clear()`."""

    def __init__(self, G: FiniteGroup):
        self.group = G
        self.structures: dict = {}    # modulus (None for Z) -> H2Structure

    def __getattr__(self, name):
        # runs only while `name` is not yet an attribute: the Smith data of
        # A is set as plain attributes, so later reads (and replacements)
        # of them never come back here
        if name not in ("gens", "words", "V", "Vinv", "factors"):
            raise AttributeError(name)
        G, table = self.group, self.group.table
        gens = _greedy_generators(G)
        k, words = len(gens), _word_vectors(G, gens)
        rows = dict.fromkeys(
            tuple(a + (i == j) - b for j, (a, b) in enumerate(zip(words[x], words[table[x][s]])))
            for x in range(G.order) for i, s in enumerate(gens))
        rows.pop((0,) * k, None)
        snf = smith_normal_form(IntMatrix(list(rows), cols=k), want_u=False)
        self.gens, self.words = gens, words
        self.V, self.Vinv, self.factors = snf.V, snf.Vinv, snf.diagonal
        return vars(self)[name]

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

    @cached_property
    def d2_invariants(self) -> tuple:
        """The nonzero Smith diagonal d_1..d_r of d2, all that the invariant
        factors of H^2(G; Z/n) read: `_unit_pivot_invariants` of the sparse
        rows (g, h, s), s in the generating set of `d2_smith`, which span
        the row lattice of d2 (module docstring)."""
        G = self.group
        return _unit_pivot_invariants([row for s in _greedy_generators(G)
                                       for row in _sparse_coboundary_rows(G, 2, (s,))])

    @cached_property
    def d2_smith(self) -> _D2Smith:
        """The Smith data of d2, read off the SNF of its (|G|-1)^2 k rows
        (g, h, s) with s in a greedy generating set of k elements: they span
        the row lattice of the (|G|-1)^3-row d2 (module docstring), so the
        kernel, rank, nonzero diagonal and V are those of d2 itself.  The
        rows come in one block per generator: on the non-cyclic groups of
        order 6-12 that reduced 10-35% faster, with transform entries no
        larger, than rows ordered by (g, h, s)."""
        G = self.group
        rows = [row for s in _greedy_generators(G) for row in _coboundary_rows(G, 2, (s,)).data]
        snf2 = smith_normal_form(rows, want_u=False)
        basis = kernel_basis(snf2)
        m = G.order - 1
        classes = [self.smith_coordinates([0, *(sum(col[i:i + m]) for i in range(0, m * m, m))])
                   for col in map(basis.col, range(basis.cols))]
        return _D2Smith(snf2.rank, snf2.diagonal[:snf2.rank], snf2.Vinv,
                        IntMatrix([list(row) for row in zip(*classes)], cols=basis.cols))


def _complex_for(G: FiniteGroup) -> _Complex:
    if G.order > H2_ORDER_LIMIT:
        raise BoundExceeded(f"cohomology: order {G.order} > limit {H2_ORDER_LIMIT}")
    return _Complex(G)


@dataclass
class H2Structure:
    """Invariant factors of H^2(G; A) plus the class-projection data.

    `invariant_factors` lists the nonunit factors in divisibility order; all
    are nonzero, since H^2(G; Z) and H^2(G; Z/n) are finite.  The projection
    sends a cocycle matrix to coordinates that are killed exactly on the
    coboundary lattice, additively.  Over Z it reads the class coordinates
    c_j = a_j chi_f(b_j) off the matrix's row sums at the generators
    (`_Complex.smith_coordinates`) and applies `_coords`, which selects
    those of the nonunit a_j.  Over Z/n it flattens f to its entries at
    nonidentity pairs, takes y = V^-1 f from the d2 Smith normal form and
    divides the rank block of y exactly by its steps n / gcd(d_i, n), then
    applies `_coords`; for n prime to |G| it checks a raw matrix's cocycle
    identity mod n and returns the zero class.  Coordinates are reduced mod
    each factor.  Over Z/n with n not prime to |G| the factors come from the
    unit-pivot elimination of d2 (`_Complex.d2_invariants`), and `_steps`
    and `_coords` are built on the first projection (`_mod_n_projection`),
    which cross-checks them against the Smith normal form of d2.
    """
    modulus: Optional[int]
    invariant_factors: tuple
    _complex: _Complex = field(repr=False)
    _steps: Optional[tuple] = field(default=None, repr=False)
    _coords: Optional[IntMatrix] = field(default=None, repr=False)

    def project(self, f) -> "CohomologyClass":
        comp = self._complex
        if self.modulus is None:
            x = comp.smith_coordinates(cocycle_sums(comp.group, f)[0])
        else:
            values = cocycle_values(comp.group, f, self.modulus)
            if gcd(self.modulus, comp.group.order) == 1:
                return CohomologyClass(self, ())    # H^2(G; Z/n) = 0, see h2_structure
            if self._coords is None:
                self._steps, self._coords = self._mod_n_projection()
            d2 = comp.d2_smith
            y = d2.vinv.mul_vector([v for row in values[1:] for v in row[1:]])
            head = y[:d2.rank]
            require(all(v % step == 0 for v, step in zip(head, self._steps)),
                    "d2 f = 0 mod n but the rank block of V^-1 f is off its steps")
            x = [v // step for v, step in zip(head, self._steps)] + y[d2.rank:]
        coords = self._coords.mul_vector(x)
        return CohomologyClass(self, tuple(
            c % e for c, e in zip(coords, self.invariant_factors)))

    def _mod_n_projection(self) -> tuple:
        """(steps, coords) over Z/n from the Smith data of d2: Z/gcd(d_i, n)
        on the rank block and Z/gcd(a_j, n) on the kernel block, in the class
        coordinates of the kernel basis, put in divisibility order by the U of
        the diagonal's Smith normal form.  Requires the d_i to be those of the
        unit-pivot elimination and the factors to be the structure's."""
        n, comp = self.modulus, self._complex
        d2 = comp.d2_smith
        require(d2.factors == comp.d2_invariants,
                "the Smith diagonal of d2 differs from its unit-pivot elimination")
        steps = tuple(n // gcd(d, n) for d in d2.factors)
        r, k = len(steps), d2.kernel_classes.cols
        orders = [n // step for step in steps] + [gcd(e, n) for e in comp.factors]
        # maps (rank quotients, kernel coords) to coordinates mod `orders`
        block = IntMatrix([[int(i == j) for j in range(r)] + [0] * k for i in range(r)]
                          + [[0] * r + row for row in d2.kernel_classes.data], cols=r + k)
        keep, snf = _nonunit_diagonal_snf(orders, want_u=True)
        selected = IntMatrix([block.data[i] for i in keep], cols=block.cols)
        rows = [j for j, e in enumerate(snf.diagonal) if e != 1]
        require(tuple(snf.diagonal[j] for j in rows) == self.invariant_factors,
                "the factors rebuilt from the Smith data of d2 differ from the structure's")
        return steps, IntMatrix([snf.U.data[j] for j in rows], cols=len(keep)) @ selected


def _nonunit_diagonal_snf(orders: Sequence[int], want_u: bool) -> tuple:
    """(keep, SNF of diag(orders[i] for i in keep)), keep the nonunit places."""
    keep = [i for i, o in enumerate(orders) if o != 1]
    return keep, smith_normal_form([[orders[i] if i == j else 0 for j in keep] for i in keep],
                                   want_u=want_u)


@dataclass(frozen=True)
class CohomologyClass:
    structure: H2Structure
    coords: tuple

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        if other.structure is not self.structure:
            raise ValueError("classes live in different structures")
        return CohomologyClass(self.structure, tuple(
            (a + b) % e
            for a, b, e in zip(self.coords, other.coords, self.structure.invariant_factors)))

    def scale(self, k: int) -> "CohomologyClass":
        return CohomologyClass(self.structure, tuple(
            (c * k) % e for c, e in zip(self.coords, self.structure.invariant_factors)))


def h2_structure(G: FiniteGroup, modulus: Optional[int] = None) -> H2Structure:
    """H^2(G; Z) for modulus None, else H^2(G; Z/modulus); |G| <= H2_ORDER_LIMIT.

    Over Z the summands are the nonunit Z/a_j of G^ab from the Smith normal
    form of the group's cached relation matrix (`_Complex`), already in
    divisibility order.  Over Z/n they are Z/gcd(d_i, n) on the rank block
    of d2 and Z/gcd(a_j, n) on its kernel block, the d_i from the unit-pivot
    elimination of d2; one Smith normal form of the diagonal of nonunit
    orders puts them in divisibility order, and the projection data waits
    for the first projection.  When gcd(n, |G|) = 1 the group is 0 and d2
    is never built.
    """
    if modulus is not None and (type(modulus) is not int or modulus < 2):
        raise ValueError(f"modulus {modulus!r} is not an int >= 2")
    comp = _complex_for(G)
    got = comp.structures.get(modulus)
    if got is not None:
        return got
    if modulus is None:
        # the Smith diagonal is already a divisibility chain: its nonunit
        # entries are the invariant factors, and _coords selects them
        m = len(comp.factors)
        keep = [j for j, e in enumerate(comp.factors) if e != 1]
        got = H2Structure(None, tuple(comp.factors[j] for j in keep), comp, (),
                          IntMatrix([[int(i == j) for i in range(m)] for j in keep], cols=m))
    elif gcd(modulus, G.order) == 1:
        # |G| and n both kill H^2(G; Z/n) (Brown III.10), so it is 0: no d2
        got = H2Structure(modulus, (), comp, (), IntMatrix([], cols=0))
    else:
        orders = ([gcd(d, modulus) for d in comp.d2_invariants]
                  + [gcd(e, modulus) for e in comp.factors])
        diagonal = _nonunit_diagonal_snf(orders, want_u=False)[1].diagonal
        got = H2Structure(modulus, tuple(e for e in diagonal if e != 1), comp)
    comp.structures[modulus] = got
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
