"""Exact second cohomology of finite groups over Z and Z/n.

Everything runs over arbitrary-precision integers: normalized bar-resolution
coboundary matrices, a Smith-normal-form engine with unimodular transforms
(deterministic first-nonzero pivoting), and the divisibility tests on
cohomology classes of circular orderings.  Cochains are normalized (they
vanish when any argument is the identity), so degree-k cochains on a group of
order m live in Z^((m-1)^k).

One Smith normal form of d2 per group serves every coefficient ring.  With
U d2 V = diag(d_1..d_r, 0..) and y = V^-1 f, the cocycle condition mod n
reads d_i y_i = 0 mod n on the rank block and leaves the kernel block free,
while im d1 lies in the kernel block.  So H^2(G; Z/n) splits as
(+) Z/gcd(d_i, n) (+) (+) Z/gcd(a_j, n), with a_j the integral invariant
factors of the kernel block modulo im d1; that is the universal coefficient
theorem (Brown, Cohomology of Groups, III.1).  H^2(G; Z) is the same
projection with an empty rank block.

The divisibility tests read the same cached data: n-divisibility of [f] is
solved in the Smith basis of im d1 inside the cocycle lattice, and mod-n
triviality of an integral cocycle is the same question.  So no Smith normal
form depends on n; the only ones computed are those of d2 and of d1 in
kernel coordinates, once per group, and a diagonal one per H^2 structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from typing import NamedTuple, Optional, Sequence, Union

from .errors import AxiomError, BoundExceeded, require
from .groups import FiniteGroup
from .orders import InhomCircularOrder

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
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def column(cls, entries: Sequence[int]) -> "IntMatrix":
        return cls([[v] for v in entries], cols=1)

    def copy(self) -> "IntMatrix":
        return IntMatrix(self.data, cols=self.cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        od = other.data
        out = []
        for row in self.data:
            acc = [0] * other.cols
            for aik, orow in zip(row, od):
                if aik:
                    for j, v in enumerate(orow):
                        if v:
                            acc[j] += aik * v
            out.append(acc)
        return IntMatrix(out, cols=other.cols)

    def mul_vector(self, vec: Sequence[int]) -> list[int]:
        if self.cols != len(vec):
            raise ValueError(f"dimension mismatch: {self.cols} vs {len(vec)}")
        return [sum(a * v for a, v in zip(row, vec) if a and v) for row in self.data]

    def col(self, j: int) -> list[int]:
        return [row[j] for row in self.data]

    def transpose(self) -> "IntMatrix":
        return IntMatrix([self.col(j) for j in range(self.cols)], cols=self.rows)

    def is_diagonal(self) -> bool:
        return all(v == 0 for i, row in enumerate(self.data)
                   for j, v in enumerate(row) if i != j)

    def determinant(self) -> int:
        """Bareiss fraction-free elimination (square matrices)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [row[:] for row in self.data]
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

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


@dataclass
class SNFResult:
    """U @ matrix @ V == diag(diagonal), with U, V unimodular.

    `diagonal` has length min(rows, cols); nonzero entries are positive, come
    first, and satisfy the divisibility chain d1 | d2 | ...  `Vinv` is tracked
    on request (it gives coordinates in the column space of V).
    """
    matrix: IntMatrix
    diagonal: tuple
    U: IntMatrix
    V: IntMatrix
    Vinv: Optional[IntMatrix]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def diagonal_matrix(self) -> IntMatrix:
        D = IntMatrix.zeros(self.matrix.rows, self.matrix.cols)
        for i, d in enumerate(self.diagonal):
            D.data[i][i] = d
        return D

    def verify(self, check_determinants: bool = True) -> None:
        """Check the postconditions exactly; raises CheckFailed on failure."""
        require(self.U @ self.matrix @ self.V == self.diagonal_matrix(), "U M V != diag")
        nz = [d for d in self.diagonal if d]
        require(all(d > 0 for d in nz), "diagonal not nonnegative")
        require(list(self.diagonal[:len(nz)]) == nz, "zero entries not trailing")
        require(all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1)), "divisibility chain")
        if self.Vinv is not None:
            require(self.V @ self.Vinv == IntMatrix.identity(self.V.rows), "Vinv wrong")
        if check_determinants:
            require(self.U.determinant() in (1, -1), "det U not a unit")
            require(self.V.determinant() in (1, -1), "det V not a unit")


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


def _snf_in_place(a, m, n, want_u, want_vinv):
    """Diagonalize `a` in place; return (s, t, tinv) local transform lists
    with s @ a_original @ t = a_final.  Recursive on the strict submatrix,
    with per-level transform composition: elementary operations only ever
    touch this level's small transforms, never the accumulated product."""
    s = _identity_lists(m) if want_u else None
    t = _identity_lists(n)
    tinv = _identity_lists(n) if want_vinv else None
    if m == 0 or n == 0:
        return s, t, tinv

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            if s is not None:
                s[i], s[j] = s[j], s[i]

    def negate_row(i):
        a[i] = [-v for v in a[i]]
        if s is not None:
            s[i] = [-v for v in s[i]]

    def add_row(src, dst, q):
        # row dst -= q * row src
        rs, rd = a[src], a[dst]
        for j, v in enumerate(rs):
            if v:
                rd[j] -= q * v
        if s is not None:
            us, ud = s[src], s[dst]
            for j, v in enumerate(us):
                if v:
                    ud[j] -= q * v

    def rotate_rows(i, j, p, q, r, w):
        # (row_i, row_j) <- (p*row_i + q*row_j, r*row_i + w*row_j); pw-qr = +-1
        for rows in (a, s) if s is not None else (a,):
            ri, rj = rows[i], rows[j]
            for k in range(len(ri)):
                e, f = ri[k], rj[k]
                ri[k] = p * e + q * f
                rj[k] = r * e + w * f

    def swap_cols(i, j):
        if i == j:
            return
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in t:
            row[i], row[j] = row[j], row[i]
        if tinv is not None:
            tinv[i], tinv[j] = tinv[j], tinv[i]

    def add_col(src, dst, q):
        # col dst -= q * col src
        for row in a:
            if row[src]:
                row[dst] -= q * row[src]
        for row in t:
            if row[src]:
                row[dst] -= q * row[src]
        if tinv is not None:
            rs, rd = tinv[src], tinv[dst]
            for j, v in enumerate(rd):
                if v:
                    rs[j] += q * v

    def rotate_cols(i, j, p, q, r, w):
        # (col_i, col_j) <- (p*col_i + q*col_j, r*col_i + w*col_j)
        det = p * w - q * r  # +-1
        for row in a:
            e, f = row[i], row[j]
            row[i] = p * e + q * f
            row[j] = r * e + w * f
        for row in t:
            e, f = row[i], row[j]
            row[i] = p * e + q * f
            row[j] = r * e + w * f
        if tinv is not None:
            ri, rj = tinv[i], tinv[j]
            for k in range(len(ri)):
                e, f = ri[k], rj[k]
                ri[k] = det * (w * e - r * f)
                rj[k] = det * (-q * e + p * f)

    # pivot: first nonzero entry in row-major order
    best = next(((i, j) for i in range(m) for j in range(n) if a[i][j]), None)
    if best is None:
        return s, t, tinv  # zero matrix
    swap_rows(0, best[0])
    swap_cols(0, best[1])

    while True:
        # clear column 0 and row 0; one Bezout rotation per stubborn entry
        while True:
            piv = a[0][0]
            dirty = False
            for i in range(1, m):
                x = a[i][0]
                if not x:
                    continue
                d, r = divmod(x, piv)
                if r == 0:
                    add_row(0, i, d)
                else:
                    g, xx, yy = _gcdext(piv, x)
                    rotate_rows(0, i, xx, yy, x // g, -(piv // g))
                    piv = g
                dirty = True
            for j in range(1, n):
                x = a[0][j]
                if not x:
                    continue
                d, r = divmod(x, piv)
                if r == 0:
                    add_col(0, j, d)
                else:
                    g, xx, yy = _gcdext(piv, x)
                    rotate_cols(0, j, xx, yy, x // g, -(piv // g))
                    piv = g
                dirty = True
            if not dirty:
                break
        # grind the pivot until it divides the whole submatrix: this is what
        # makes the divisibility chain hold with no repair pass
        p = a[0][0]
        if p in (1, -1):
            break
        offender = None
        for i in range(1, m):
            row = a[i]
            for j in range(1, n):
                if row[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is None:
            break
        add_row(offender, 0, -1)
    if a[0][0] < 0:
        negate_row(0)

    sub = [row[1:] for row in a[1:]]
    s2, t2, t2inv = _snf_in_place(sub, m - 1, n - 1, want_u, want_vinv)
    for i in range(1, m):
        a[i][1:] = sub[i - 1]
    # compose: total_s = diag(1, s2) @ s, total_t = t @ diag(1, t2),
    # total_tinv = diag(1, t2inv) @ tinv; identity sublevels skip the product
    if s is not None and not _is_identity(s2):
        s[1:] = _mul_lists(s2, s[1:], m)
    if not _is_identity(t2):
        rest = _mul_lists([row[1:] for row in t], t2, n - 1)
        for i in range(n):
            t[i][1:] = rest[i]
    if tinv is not None and not _is_identity(t2inv):
        tinv[1:] = _mul_lists(t2inv, tinv[1:], n)
    return s, t, tinv


def _is_identity(rows):
    if rows is None:
        return True
    return all(v == (1 if i == j else 0)
               for i, row in enumerate(rows) for j, v in enumerate(row))


def smith_normal_form(M: Union[IntMatrix, Sequence[Sequence[int]]],
                      want_u: bool = True, want_vinv: bool = False) -> SNFResult:
    """Exact Smith normal form with unimodular transforms.

    Position-by-position reduction, recursing on the strict submatrix.  Each
    off-pivot entry dies in a single unimodular Bezout rotation (one
    extended-gcd step, no remainder cascades), the pivot is not finalized
    until it divides the whole working submatrix (so the divisibility chain
    needs no repair pass), and transforms are composed once per recursion
    level rather than updated per elementary operation, which is what keeps
    the arithmetic from drowning in the transforms' large entries.  Pivot
    rule: first nonzero entry in row-major order; smallest-value pivoting
    was measured to inflate transform entries ~50x on dense input by
    repeatedly dragging heavily mixed rows back into the pivot seat.
    Deterministic by construction.
    """
    if not isinstance(M, IntMatrix):
        M = IntMatrix(M)
    m, n = M.rows, M.cols
    a = [row[:] for row in M.data]
    s, t, tinv = _snf_in_place(a, m, n, want_u, want_vinv)
    diagonal = tuple(a[i][i] for i in range(min(m, n)))
    U = IntMatrix(s, cols=m) if want_u else IntMatrix.identity(m)
    V = IntMatrix(t, cols=n)
    Vinv = IntMatrix(tinv, cols=n) if want_vinv else None
    return SNFResult(M, diagonal, U, V, Vinv)


def solve_int(snf: SNFResult, b: Sequence[int]) -> Optional[list[int]]:
    """One integer solution x of (matrix) x = b using a precomputed SNF, or None."""
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


def kernel_basis(snf: SNFResult) -> IntMatrix:
    """Columns spanning the integer kernel of snf.matrix (a saturated lattice)."""
    n = snf.matrix.cols
    r = snf.rank
    return IntMatrix([[snf.V.data[i][j] for j in range(r, n)] for i in range(n)],
                     cols=n - r)


# -- normalized cochain complex ---------------------------------------------

def _pair_index(n: int, g: int, h: int) -> int:
    return (g - 1) * (n - 1) + (h - 1)


def coboundary_matrices(G: FiniteGroup, max_order: int = H2_ORDER_LIMIT):
    """(d1, d2) on normalized cochains indexed by tuples of nonidentity elements.

    d1: C^1 -> C^2, (d1 u)(g,h) = u(g) - u(gh) + u(h);
    d2: C^2 -> C^3, (d2 f)(g,h,k) = f(h,k) - f(gh,k) + f(g,hk) - f(g,h);
    terms hitting the identity drop out.  d2 @ d1 = 0.
    """
    n = G.order
    if n > max_order:
        raise BoundExceeded(f"coboundary_matrices: order {n} > limit {max_order}")
    m = n - 1
    d1 = IntMatrix.zeros(m * m, m)
    for g in range(1, n):
        for h in range(1, n):
            row = d1.data[_pair_index(n, g, h)]
            row[g - 1] += 1
            row[h - 1] += 1
            gh = G.table[g][h]
            if gh != 0:
                row[gh - 1] -= 1
    d2 = IntMatrix.zeros(m * m * m, m * m)
    for g in range(1, n):
        for h in range(1, n):
            gh = G.table[g][h]
            for k in range(1, n):
                row = d2.data[(_pair_index(n, g, h)) * m + (k - 1)]
                row[_pair_index(n, h, k)] += 1
                if gh != 0:
                    row[_pair_index(n, gh, k)] -= 1
                hk = G.table[h][k]
                if hk != 0:
                    row[_pair_index(n, g, hk)] += 1
                row[_pair_index(n, g, h)] -= 1
    return d1, d2


def cocycle_vector(G: FiniteGroup, f) -> list[int]:
    """Flatten a normalized 2-cochain matrix to nonidentity-pair coordinates."""
    return _flatten(G.order, f)


def _flatten(n: int, f) -> list[int]:
    values = f.values if isinstance(f, InhomCircularOrder) else f
    for g in range(n):
        if values[g][0] != 0 or values[0][g] != 0:
            raise AxiomError("normalization", (g,), "cochain not normalized")
    return [values[g][h] for g in range(1, n) for h in range(1, n)]


def cochain_matrix(G: FiniteGroup, vec: Sequence[int]) -> list[list[int]]:
    """Inverse of cocycle_vector: rebuild the full matrix with identity zeros."""
    n = G.order
    out = [[0] * n for _ in range(n)]
    i = 0
    for g in range(1, n):
        for h in range(1, n):
            out[g][h] = vec[i]
            i += 1
    return out


@lru_cache(maxsize=None)
class _Complex:
    """Cached per-group data: d1, d2, the Smith normal form of d2, the
    integer cocycle lattice, im d1 in its Smith basis, and the H^2 structures
    built on them.  Cached by multiplication table (`cache_clear` and
    `cache_info` clear and size the cache); nothing here depends on names."""

    def __init__(self, G: FiniteGroup):
        self.order = G.order
        self.d1, self.d2 = coboundary_matrices(G, max_order=G.order)
        snf2 = smith_normal_form(self.d2, want_u=False, want_vinv=True)
        self.rank2 = snf2.rank
        self.d2_factors = snf2.diagonal[:self.rank2]
        self.kernel = kernel_basis(snf2)          # c2 x k
        self.kernel_dim = self.kernel.cols
        self.vinv = snf2.Vinv
        # d1 columns in kernel coordinates (d2 @ d1 = 0 guarantees they fit)
        c1 = self.d1.cols
        cols = [self.kernel_coords(self.d1.col(j)) for j in range(c1)]
        self.d1_in_kernel = IntMatrix([[cols[j][i] for j in range(c1)]
                                       for i in range(self.kernel_dim)], cols=c1)
        # rel_U @ d1_in_kernel @ rel_V = diag(a_j), so Z^k / im d1 = (+) Z/a_j
        # in the coordinates rel_U @ (kernel coords); a_j = 0 past the rank of
        # d1_in_kernel marks a free summand
        rel = smith_normal_form(self.d1_in_kernel)
        self.rel_U, self.rel_V = rel.U, rel.V
        self.rel_factors = (rel.diagonal + (0,) * self.kernel_dim)[:self.kernel_dim]
        self.structures: dict = {}    # modulus (None for Z) -> H2Structure

    def kernel_coords(self, vec: Sequence[int]) -> list[int]:
        y = self.vinv.mul_vector(list(vec))
        if any(y[i] != 0 for i in range(self.rank2)):
            raise AxiomError("cocycle", (), "vector is not in the kernel of d2")
        return y[self.rank2:]

    def cocycle(self, f, modulus: Optional[int]) -> list[int]:
        """f as a vector, checked to satisfy d2 f = 0 over Z (modulus None)
        or Z/modulus."""
        vec = _flatten(self.order, f)
        if any(v % modulus if modulus else v for v in self.d2.mul_vector(vec)):
            raise AxiomError("cocycle", (), "d2 f != 0 over the coefficient ring")
        return vec


def _complex_for(G: FiniteGroup, max_order: int = H2_ORDER_LIMIT) -> _Complex:
    if G.order > max_order:
        raise BoundExceeded(f"cohomology: order {G.order} > limit {max_order}")
    return _Complex(G)


@dataclass
class H2Structure:
    """Invariant factors of H^2(G; A) plus the class-projection data.

    `invariant_factors` lists the nonunit factors in divisibility order,
    with 0 marking free summands (none occur for Z/n coefficients).
    The projection sends a cocycle vector to coordinates that are killed
    exactly on the coboundary lattice, additively: y = V^-1 f from the d2
    Smith normal form, the rank block of y divided exactly by its steps
    n / gcd(d_i, n) (over Z the block is zero and dropped), then the fixed
    integer matrix `_coords`, reduced mod each factor.
    """
    modulus: Optional[int]
    invariant_factors: tuple
    _complex: _Complex = field(repr=False)
    _steps: tuple = field(repr=False)
    _coords: IntMatrix = field(repr=False)

    def project(self, f) -> "CohomologyClass":
        comp = self._complex
        y = comp.vinv.mul_vector(comp.cocycle(f, self.modulus))
        head, x = y[:comp.rank2], y[comp.rank2:]
        if self.modulus is None:
            require(not any(head), "d2 f = 0 but V^-1 f has a nonzero rank block")
        else:
            require(all(v % step == 0 for v, step in zip(head, self._steps)),
                    "d2 f = 0 mod n but the rank block of V^-1 f is off its steps")
            x = [v // step for v, step in zip(head, self._steps)] + x
        coords = self._coords.mul_vector(x)
        return CohomologyClass(self, tuple(
            c % e if e else c for c, e in zip(coords, self.invariant_factors)))

    def zero_class(self) -> "CohomologyClass":
        return CohomologyClass(self, tuple(0 for _ in self.invariant_factors))


@dataclass(frozen=True)
class CohomologyClass:
    structure: H2Structure
    coords: tuple

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        if other.structure is not self.structure:
            raise ValueError("classes live in different structures")
        return self._combine(other.coords, 1)

    def scale(self, k: int) -> "CohomologyClass":
        return CohomologyClass(self.structure, tuple(
            (c * k) % e if e else c * k
            for c, e in zip(self.coords, self.structure.invariant_factors)))

    def _combine(self, coords, sign):
        return CohomologyClass(self.structure, tuple(
            (a + sign * b) % e if e else a + sign * b
            for a, b, e in zip(self.coords, coords, self.structure.invariant_factors)))


def h2_structure(G: FiniteGroup, modulus: Optional[int] = None,
                 max_order: int = H2_ORDER_LIMIT) -> H2Structure:
    """H^2(G; Z) for modulus None, else H^2(G; Z/modulus).

    Both are read off the group's one cached Smith normal form of d2 (see the
    module docstring): the summands are Z/gcd(d_i, n) on the rank block of d2
    (Z/n only) and Z/gcd(a_j, n) on its kernel block modulo im d1 (Z/a_j over
    Z).  One Smith normal form of the diagonal of nonunit orders puts them in
    divisibility order.
    """
    if modulus is not None and modulus < 2:
        raise ValueError(f"modulus {modulus} < 2")
    comp = _complex_for(G, max_order=max_order)
    got = comp.structures.get(modulus)
    if got is not None:
        return got
    steps = () if modulus is None else tuple(
        modulus // gcd(d, modulus) for d in comp.d2_factors)
    r, k = len(steps), comp.kernel_dim
    orders = ([modulus // step for step in steps]
              + [gcd(a, modulus or 0) for a in comp.rel_factors])
    block = ([[int(i == j) for j in range(r)] + [0] * k for i in range(r)]
             + [[0] * r + row for row in comp.rel_U.data])
    # block maps (rank quotients, kernel coords) to coordinates mod `orders`
    keep = [i for i, o in enumerate(orders) if o != 1]
    snf = smith_normal_form([[orders[i] if i == j else 0 for j in keep] for i in keep])
    selected = IntMatrix([block[i] for i in keep], cols=r + k)
    rows = [j for j, e in enumerate(snf.diagonal) if e != 1]
    coords = IntMatrix([snf.U.data[j] for j in rows], cols=len(keep)) @ selected
    got = H2Structure(modulus, tuple(snf.diagonal[j] for j in rows), comp, steps, coords)
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

    Read off the group's cached complex, so no Smith normal form depends on
    n.  In kernel coordinates x of f, f = n*mu + d1 u reads x = n y + A u with
    A = d1 in kernel coordinates; with U A V = diag(a_j) and z = U x it splits
    into z_j = n y'_j + a_j u'_j, solvable iff gcd(n, a_j) | z_j for every j.
    The witness u = V u', y = (x - A u) / n is checked by exact division and
    then by direct substitution.
    """
    if n < 2:
        raise ValueError(f"n = {n} < 2")
    comp = _complex_for(G)
    vec = comp.cocycle(f, None)
    x = comp.kernel_coords(vec)
    u_smith = [0] * comp.d1.cols
    for j, (z, a) in enumerate(zip(comp.rel_U.mul_vector(x), comp.rel_factors)):
        g, _, t = _gcdext(n, a)
        if z % g:
            return DivisibilityWitness(False, None, None)
        if j < len(u_smith):
            u_smith[j] = t * (z // g)
    u = comp.rel_V.mul_vector(u_smith)
    rest = [xi - ai for xi, ai in zip(x, comp.d1_in_kernel.mul_vector(u))]
    require(all(v % n == 0 for v in rest), "x - A u is not divisible by n")
    mu_vec = comp.kernel.mul_vector([v // n for v in rest])
    # direct substitution: d2 mu = 0 and f = n*mu + d1 u, exactly
    require(all(v == 0 for v in comp.d2.mul_vector(mu_vec)), "witness mu is not a cocycle")
    d1u = comp.d1.mul_vector(u)
    require(all(fv == n * m + c for fv, m, c in zip(vec, mu_vec, d1u)),
            "witness fails direct substitution")
    return DivisibilityWitness(True, cochain_matrix(G, mu_vec), list(u))
