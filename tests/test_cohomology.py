import random
from functools import lru_cache
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from circorder import cohomology
from circorder.errors import AxiomError, BoundExceeded, InvalidGroupError
from circorder.groups import (FiniteGroup, cyclic_group, dihedral_group, direct_product,
                              symmetric_group, trivial_group)
from circorder.orders import (arrangement_to_inhom, cocycle_failure,
                              enumerate_circular_orders, standard_order_zn)
from circorder.cohomology import (IntMatrix, _Complex, class_of, coboundary_matrices,
                                  h2_structure, is_n_divisible, is_trivial_mod_n,
                                  kernel_basis, smith_normal_form)

from helpers import (brute_h2_order_modn, cochain_matrix, cocycle_vector, d2_annihilates,
                     full_u_coordinates, full_u_kernel_classes,
                     invariant_factors_from_diagonal, invariant_factors_of_sum,
                     is_coboundary_mod, is_cocycle_mod, kernel_route_class,
                     kernel_route_factors, minors_gcd_invariant_factors,
                     naive_diagonalize, relabeled, seeded_random_matrices,
                     solve_int, time_budget, verify_snf)


def klein():
    return direct_product(cyclic_group(2), cyclic_group(2))


def product(*groups):
    out = groups[0]
    for G in groups[1:]:
        out = direct_product(out, G)
    return out


# Non-cyclic groups of order <= 10 with H_1 = G^ab and H_2 = H_2(G; Z) as
# cyclic decompositions (H_2 is the wedge square for abelian groups, Z/2 for
# D4 and 0 for the odd dihedral groups).
NONCYCLIC_HOMOLOGY = [
    (klein(), (2, 2), (2,)),
    (product(cyclic_group(2), cyclic_group(4)), (2, 4), (2,)),
    (product(cyclic_group(3), cyclic_group(3)), (3, 3), (3,)),
    (product(cyclic_group(2), cyclic_group(2), cyclic_group(2)), (2, 2, 2), (2, 2, 2)),
    (symmetric_group(3), (2,), ()),
    (dihedral_group(4), (2, 2), (2,)),
    (dihedral_group(5), (2,), ()),
]
SMALL_GROUPS = [cyclic_group(k) for k in range(2, 11)] + [G for G, _, _ in NONCYCLIC_HOMOLOGY]


# -- Smith normal form ----------------------------------------------------------

def test_snf_worked_examples():
    r = smith_normal_form([[2, 0], [0, 3]])
    assert r.diagonal == (1, 6)
    verify_snf(r)
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == (0, 0)
    assert smith_normal_form([[1]]).diagonal == (1,)
    assert smith_normal_form([[4, 6], [6, 9]]).diagonal == (1, 0)  # rank 1
    assert smith_normal_form([[6, 4], [8, 10]]).diagonal == (2, 14)


def test_snf_against_minor_gcds_on_small_random():
    rng = random.Random(42)
    for _ in range(60):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        M = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        got = list(smith_normal_form(M).diagonal)
        want = minors_gcd_invariant_factors(M)
        want += [0] * (len(got) - len(want))
        assert got == want, (M, got, want)


def test_snf_against_independent_elimination():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        M = [[rng.randrange(-20, 21) for _ in range(cols)] for _ in range(rows)]
        got = list(smith_normal_form(M).diagonal)
        want = invariant_factors_from_diagonal(naive_diagonalize(M))
        assert got == want, (M, got, want)


def test_snf_postconditions_on_seeded_random_matrices():
    for M in seeded_random_matrices(20230815, count=100, max_dim=50):
        r = smith_normal_form(M)
        verify_snf(r, check_determinants=True)


def test_snf_deterministic():
    M = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    a = smith_normal_form(M)
    b = smith_normal_form(M)
    assert a.diagonal == b.diagonal
    assert a.U == b.U and a.V == b.V and a.Vinv == b.Vinv
    # The exact transforms, not only their shape: the CLI prints class
    # coordinates read through V^-1, so reordering any elementary operation
    # would change its output.
    assert a.diagonal == (1, 1, 90)
    assert a.U.data == [[0, 1, 0], [-3, -11, 10], [133, 487, -443]]
    assert a.V.data == [[1, 159, 323], [0, -30, -61], [0, -1, -2]]
    assert a.Vinv.data == [[1, 5, 9], [0, 2, -61], [0, -1, 30]]
    d1 = coboundary_matrices(symmetric_group(3))[0]
    r = smith_normal_form(d1, want_u=False)
    assert r.diagonal == (1, 1, 1, 1, 2) and r.U is None
    assert r.V.data == [[1, -1, -1, -1, 1], [0, 1, 1, 2, -1], [0, 0, 1, 1, 0],
                        [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    assert r.Vinv.data == [[1, 1, 0, -1, 0], [0, 1, -1, -1, 1], [0, 0, 1, -1, 0],
                           [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]


def test_snf_depth_is_not_bounded_by_the_stack():
    # 1024 is the column count of d2 at order 33; one pivot per position
    # must neither recurse nor redo work per position.
    with time_budget(10):
        r = smith_normal_form(IntMatrix.identity(1024), want_u=False)
    assert r.diagonal == (1,) * 1024


def test_solve_and_kernel():
    M = IntMatrix([[2, 4], [0, 6]])
    snf = smith_normal_form(M)
    x = solve_int(snf, [6, 6])
    assert M.mul_vector(x) == [6, 6]
    assert solve_int(snf, [1, 0]) is None
    K = kernel_basis(smith_normal_form([[1, 2, 3]]))
    assert K.cols == 2
    for j in range(2):
        col = K.col(j)
        assert col[0] + 2 * col[1] + 3 * col[2] == 0


# -- coboundary matrices ----------------------------------------------------------

def test_d2_after_d1_is_zero():
    for G in (cyclic_group(6), klein(), symmetric_group(3)):
        d1, d2 = coboundary_matrices(G)
        assert d2.rows == (G.order - 1) ** 3 and d2.cols == (G.order - 1) ** 2
        assert d1.rows == (G.order - 1) ** 2 and d1.cols == G.order - 1
        prod = d2 @ d1
        assert all(v == 0 for row in prod.data for v in row)


def test_d1_for_z2_is_doubling():
    d1, _ = coboundary_matrices(cyclic_group(2))
    assert d1.data == [[2]]


def test_trivial_group_spaces_are_zero_dimensional():
    d1, d2 = coboundary_matrices(trivial_group())
    assert d1.rows == d1.cols == 0
    assert d2.rows == d2.cols == 0
    assert h2_structure(trivial_group()).invariant_factors == ()


def test_coboundary_bound():
    with pytest.raises(BoundExceeded):
        coboundary_matrices(cyclic_group(11))


# -- H^2 structures ----------------------------------------------------------------

def test_h2_of_cyclic_groups():
    for k in range(2, 9):
        assert h2_structure(cyclic_group(k)).invariant_factors == (k,)


def test_h2_of_klein_group():
    assert h2_structure(klein()).invariant_factors == (2, 2)


def test_h2_mod_n_matches_brute_force_counts():
    cases = [(cyclic_group(2), 2), (cyclic_group(2), 3), (cyclic_group(2), 4),
             (cyclic_group(2), 6), (cyclic_group(3), 2), (cyclic_group(3), 3),
             (cyclic_group(3), 6), (cyclic_group(4), 2), (klein(), 2)]
    for G, n in cases:
        factors = h2_structure(G, modulus=n).invariant_factors
        size = 1
        for d in factors:
            assert d != 0
            size *= d
        assert size == brute_h2_order_modn(G, n), (G.name, n)


def test_h2_mod_n_cyclic_gcd_pattern():
    for k in range(2, 11):
        for n in range(2, 13):
            factors = h2_structure(cyclic_group(k), modulus=n).invariant_factors
            g = gcd(k, n)
            assert factors == (() if g == 1 else (g,)), (k, n, factors)


def test_h2_mod_n_matches_uct():
    # universal coefficients: H^2(G; Z/n) = Hom(H_2, Z/n) + Ext(H_1, Z/n),
    # the sum of Z/gcd(m, n) over the cyclic summands m of H_1 and H_2; every
    # case is inside the documented order limit, so none may take long
    with time_budget(30):
        for G, h1, h2 in NONCYCLIC_HOMOLOGY:
            assert h2_structure(G).invariant_factors == invariant_factors_of_sum(h1), G.name
            for n in range(2, 13):
                want = invariant_factors_of_sum(gcd(m, n) for m in h1 + h2)
                assert h2_structure(G, n).invariant_factors == want, (G.name, n)


def test_cache_is_keyed_by_table_and_carries_no_names():
    A = cyclic_group(4)
    B = FiniteGroup(A.table, names=["e", "x", "x^2", "x^3"], name="C4")
    _Complex.cache_clear()
    HA = h2_structure(A)
    assert h2_structure(B) is HA and not hasattr(HA, "group")
    assert _Complex.cache_info().currsize == 1
    mu = is_n_divisible(B, standard_order_zn(4).values, 3).mu
    assert class_of(B, mu).scale(3).coords == class_of(A, standard_order_zn(4)).coords
    _Complex.cache_clear()
    assert _Complex.cache_info().currsize == 0


def test_integral_questions_never_reduce_d2(monkeypatch):
    G = dihedral_group(5)
    m = G.order - 1
    shapes = []
    transforms = []  # (rows, want_u, diagonal input) of every SNF
    built = []  # row counts of every IntMatrix constructed
    init, zeros = IntMatrix.__init__, IntMatrix.zeros

    def recording(M, *args, **kwargs):
        result = smith_normal_form(M, *args, **kwargs)
        want_u = args[0] if args else kwargs.get("want_u", True)
        diagonal = not any(v for i, row in enumerate(result.matrix.data)
                           for j, v in enumerate(row) if i != j)
        shapes.append((result.matrix.rows, result.matrix.cols))
        transforms.append((result.matrix.rows, want_u, diagonal))
        return result

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.rows)

    def recording_zeros(cls, rows, cols):
        built.append(rows)
        return zeros(rows, cols)

    monkeypatch.setattr(cohomology, "smith_normal_form", recording)
    monkeypatch.setattr(IntMatrix, "__init__", recording_init)
    monkeypatch.setattr(IntMatrix, "zeros", classmethod(recording_zeros))
    _Complex.cache_clear()
    # the pullback of the Z/2 ordering cocycle along the sign map of D5,
    # whose reflections are its elements of order 2
    reflection = [G.element_order(g) == 2 for g in range(G.order)]
    f = [[int(a and b) for b in reflection] for a in reflection]
    assert h2_structure(G).invariant_factors == (2,)
    # a cold H^2(G; Z) is one SNF, of d1: its diagonal is already a
    # divisibility chain, so the invariant factors need no second SNF
    assert shapes == [(m * m, m)], shapes
    assert class_of(G, f).coords == (1,)
    assert not is_n_divisible(G, f, 2).divisible and is_n_divisible(G, f, 3).divisible
    assert is_trivial_mod_n(G, f, 3) and not is_trivial_mod_n(G, f, 4)
    assert shapes and all(rows < m ** 3 for rows, _ in shapes), shapes
    # no square U of d1's m^2 rows: a row transform is only ever asked for
    # on the small invariant-factor diagonal
    assert all(not want_u or (diagonal and rows <= m)
               for rows, want_u, diagonal in transforms), transforms
    assert built and m ** 3 not in built, sorted(set(built))
    # d1 (m^2 rows) is reduced but not kept: is_n_divisible reads d1 u off
    # the table
    held = [v for v in vars(_Complex(G)).values() if isinstance(v, IntMatrix)]
    assert held and all(M.rows < m * m for M in held), held
    assert "d2_smith" not in vars(_Complex(G))
    assert not hasattr(_Complex(G), "U")
    shapes.clear()
    h2_structure(G, 4)
    h2_structure(G, 3)
    assert [rows for rows, _ in shapes].count(m ** 3) == 1, shapes
    _Complex.cache_clear()


def test_order_bound_is_checked_on_cache_hits(monkeypatch):
    # the bound is the module constant, read on every call: lowering it
    # refuses a group before and after its complex is cached
    G = relabeled(cyclic_group(8), [0, 2, 1, 3, 4, 5, 6, 7])
    _Complex.cache_clear()
    for modulus in (None, 2):
        monkeypatch.setattr(cohomology, "H2_ORDER_LIMIT", 4)
        with pytest.raises(BoundExceeded):
            h2_structure(G, modulus)
        monkeypatch.undo()
        h2_structure(G, modulus)
        monkeypatch.setattr(cohomology, "H2_ORDER_LIMIT", 4)
        with pytest.raises(BoundExceeded):
            h2_structure(G, modulus)
        monkeypatch.undo()


@pytest.mark.parametrize("value", [1.0, 1.5, True])
def test_cochain_entries_must_be_ints(value):
    # 1.0 and True compare equal to 1, and 1.5 broke the class arithmetic:
    # every cocycle entry point reports bad input at the entry's position
    G = cyclic_group(2)
    f = [[0, 0], [0, value]]
    for ask in (lambda: class_of(G, f), lambda: is_n_divisible(G, f, 2),
                lambda: h2_structure(G, 2).project(f)):
        with pytest.raises(AxiomError) as exc:
            ask()
        assert exc.value.kind == "value-type" and exc.value.witness == (1, 1)
    assert class_of(G, [[0, 0], [0, 1]]).coords == (1,)


# -- classes -----------------------------------------------------------------------

def test_class_of_standard_orders():
    cls2 = class_of(cyclic_group(2), standard_order_zn(2))
    assert cls2.coords == (1,)
    cls4 = class_of(cyclic_group(4), standard_order_zn(4))
    assert gcd(cls4.coords[0], 4) == 1


def test_class_of_coboundary_is_zero():
    rng = random.Random(11)
    G = cyclic_group(5)
    d1, _ = coboundary_matrices(G)
    for _ in range(20):
        u = [rng.randrange(-5, 6) for _ in range(G.order - 1)]
        f = cochain_matrix(G, d1.mul_vector(u))
        assert class_of(G, f).is_zero()


def test_class_of_is_coboundary_invariant_and_additive():
    rng = random.Random(13)
    G = cyclic_group(6)
    f = standard_order_zn(6)
    base = class_of(G, f)
    d1, _ = coboundary_matrices(G)
    fvec = cocycle_vector(G, f)
    for _ in range(10):
        u = [rng.randrange(-4, 5) for _ in range(G.order - 1)]
        shifted = cochain_matrix(G, [a + b for a, b in zip(fvec, d1.mul_vector(u))])
        assert class_of(G, shifted).coords == base.coords
    doubled = cochain_matrix(G, [2 * v for v in fvec])
    assert class_of(G, doubled).coords == base.scale(2).coords


def test_class_of_rejects_non_cocycles():
    G = cyclic_group(3)
    bad = [[0, 0, 0], [0, 1, 1], [0, 1, 1]]
    with pytest.raises(AxiomError) as err:
        class_of(G, bad)
    assert err.value.kind == "cocycle" and len(err.value.witness) == 3
    g, h, k = err.value.witness
    assert bad[h][k] - bad[G.table[g][h]][k] + bad[g][G.table[h][k]] - bad[g][h] != 0


def test_orderings_of_another_group_are_rejected():
    # Z/2 x Z/3 is cyclic of order 6, but its table is not that of Z/6
    c6 = cyclic_group(6)
    f = arrangement_to_inhom(enumerate_circular_orders(
        direct_product(cyclic_group(2), cyclic_group(3)))[0])
    for ask in (lambda: class_of(c6, f), lambda: h2_structure(c6).project(f),
                lambda: h2_structure(c6, 2).project(f), lambda: is_n_divisible(c6, f, 2)):
        with pytest.raises(InvalidGroupError, match="different group"):
            ask()
    with pytest.raises(AxiomError, match="cocycle"):   # the bare matrix is no cocycle on Z/6
        class_of(c6, f.values)


def test_cochains_of_the_wrong_shape_are_rejected():
    # a 4 x 4 matrix whose top-left block is a Z/3 ordering, and a 3 x 2 one
    G = cyclic_group(3)
    padded = [list(row) + [0] for row in standard_order_zn(3).values] + [[0] * 4]
    short = [[0, 0], [0, 0], [0, 1]]
    for f in (padded, short):
        for ask in (lambda: class_of(G, f), lambda: is_n_divisible(G, f, 2),
                    lambda: h2_structure(G, 3).project(f),
                    lambda: cocycle_vector(G, f)):
            with pytest.raises(AxiomError) as err:
                ask()
            assert err.value.kind == "shape"


def test_enumerated_orderings_never_have_zero_class():
    # a zero class would make the group left-orderable; finite nontrivial
    # groups never are
    for k in range(2, 9):
        G = cyclic_group(k)
        for arr in enumerate_circular_orders(G):
            assert not class_of(G, arrangement_to_inhom(arr)).is_zero()


# -- divisibility ------------------------------------------------------------------

def test_divisibility_examples():
    c4 = cyclic_group(4)
    fs4 = standard_order_zn(4)
    assert is_n_divisible(c4, fs4, 3).divisible
    assert not is_n_divisible(c4, fs4, 2).divisible
    zero = [[0] * 4 for _ in range(4)]
    res = is_n_divisible(c4, zero, 6)
    assert res.divisible and all(v == 0 for row in res.mu for v in row)


def test_divisibility_witness_class_arithmetic():
    c4 = cyclic_group(4)
    fs4 = standard_order_zn(4)
    res = is_n_divisible(c4, fs4, 3)
    assert res.divisible
    assert class_of(c4, res.mu).scale(3).coords == class_of(c4, fs4).coords


def test_triviality_examples():
    c2 = cyclic_group(2)
    fs2 = standard_order_zn(2)
    assert is_trivial_mod_n(c2, fs2, 3) is True
    assert is_trivial_mod_n(c2, fs2, 2) is False
    assert is_trivial_mod_n(cyclic_group(5), [[0] * 5 for _ in range(5)], 4) is True


def test_long_exact_sequence_consistency():
    for k in range(2, 9):
        G = cyclic_group(k)
        orderings = [arrangement_to_inhom(a) for a in enumerate_circular_orders(G)]
        for f in orderings:
            for n in range(2, 9):
                trivial = is_trivial_mod_n(G, f, n)
                assert trivial == is_n_divisible(G, f, n).divisible
                assert trivial == h2_structure(G, n).project(f).is_zero()


# -- properties of the class projection on relabeled groups -------------------

@lru_cache(maxsize=None)
def _d2_snf(index):
    return smith_normal_form(coboundary_matrices(SMALL_GROUPS[index])[1], want_u=False)


def _cocycle_basis(index, n):
    """Vectors spanning {f : d2 f = 0 mod n} on SMALL_GROUPS[index] (over Z
    for n None): the columns of V, scaled on the rank block of d2."""
    snf = _d2_snf(index)
    out = []
    for j in range(snf.V.cols):
        d = snf.diagonal[j] if j < len(snf.diagonal) else 0
        if not d:
            out.append(snf.V.col(j))
        elif n is not None:
            out.append([v * (n // gcd(d, n)) for v in snf.V.col(j)])
    return out


@st.composite
def relabelings(draw, groups):
    index = draw(st.integers(0, len(groups) - 1))
    G = groups[index]
    perm = [0] + draw(st.permutations(range(1, G.order)))
    return index, perm, relabeled(G, perm)


SMALL = st.integers(-3, 3)


def _relabel_cochain(base, perm):
    m = len(base)
    f = [[0] * m for _ in range(m)]
    for g in range(m):
        for h in range(m):
            f[perm[g]][perm[h]] = base[g][h]
    return f


def _draw_cocycle(data, index, perm, n):
    """A random combination of the cocycle basis mod n on SMALL_GROUPS[index]
    (over Z for n None), and its copy on the relabeled group."""
    basis = _cocycle_basis(index, n)
    m = SMALL_GROUPS[index].order
    coeffs = data.draw(st.lists(SMALL, min_size=len(basis), max_size=len(basis)))
    vec = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range((m - 1) ** 2)]
    base = cochain_matrix(SMALL_GROUPS[index], vec)
    return base, _relabel_cochain(base, perm)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_integral_classes_match_the_kernel_route(data):
    # the kernel route (SNF of d2, then of d1 in kernel coordinates) is the
    # independent oracle for the library's d1-only route
    index, perm, G = data.draw(relabelings(SMALL_GROUPS))
    B = SMALL_GROUPS[index]
    m = B.order
    assert h2_structure(G).invariant_factors == kernel_route_factors(B)
    (f_base, f), (h_base, _) = (_draw_cocycle(data, index, perm, None),
                                _draw_cocycle(data, index, perm, None))
    k = data.draw(st.sampled_from([0, 1, m]))       # |G| kills H^2(G; Z)
    u = [0] + data.draw(st.lists(SMALL, min_size=m - 1, max_size=m - 1))
    g_base = [[f_base[a][b] + k * h_base[a][b] + u[a] + u[b] - u[B.table[a][b]]
               if a and b else 0 for b in range(m)] for a in range(m)]
    difference = [[x - y for x, y in zip(rf, rg)] for rf, rg in zip(f_base, g_base)]
    same = class_of(G, f).coords == class_of(G, _relabel_cochain(g_base, perm)).coords
    assert same == (not any(kernel_route_class(B, difference)))
    assert same or k == 1


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_row_sum_coordinates_match_the_full_u_oracle(data):
    # (U f)_j read off the row sums of f must equal U[:m] f from the square U
    # of the d1 Smith normal form exactly, not only mod e_j, on every ordering
    # and on a sum of cocycle basis columns; so must the ker d2 basis columns
    index, perm, G = data.draw(relabelings(SMALL_GROUPS))
    comp = _Complex(G)
    cocycles = [arrangement_to_inhom(a).values for a in enumerate_circular_orders(G)]
    cocycles.append(_draw_cocycle(data, index, perm, None)[1])
    for f in cocycles:
        sums = [sum(row) for row in f[1:]]
        assert comp.smith_coordinates(sums) == full_u_coordinates(G, f)
    assert comp.d2_smith.kernel_classes == full_u_kernel_classes(G)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cocycle_check_matches_the_dense_d2_oracle(data):
    # cochains that are cocycles mod n (over Z for n None), half of them with
    # one nonidentity entry moved; the table check must agree with d2 f = 0
    # over both rings, and name a triple on which the identity fails
    index, perm, G = data.draw(relabelings(SMALL_GROUPS))
    n = data.draw(st.sampled_from([None] + list(range(2, 13))))
    _, f = _draw_cocycle(data, index, perm, n)
    if data.draw(st.booleans()):
        g, h = (data.draw(st.integers(1, G.order - 1)) for _ in range(2))
        f[g][h] += data.draw(st.integers(1, 12))
    for modulus in (n, None):
        failure = cocycle_failure(G.table, f, modulus)
        assert (failure is None) == d2_annihilates(G, f, modulus)
        if failure is not None:
            g, h, k = failure.witness
            v = f[h][k] - f[G.table[g][h]][k] + f[g][G.table[h][k]] - f[g][h]
            assert failure.kind == "cocycle" and (v % modulus if modulus else v)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_projection_is_faithful_additive_and_kills_relations(data):
    index, perm, G = data.draw(relabelings(SMALL_GROUPS))
    n = data.draw(st.sampled_from([None] + list(range(2, 13))))
    m = G.order
    (base, f), (_, g) = _draw_cocycle(data, index, perm, n), _draw_cocycle(data, index, perm, n)
    assert is_cocycle_mod(G, f, n) and is_cocycle_mod(G, g, n)
    u = [0] + data.draw(st.lists(SMALL, min_size=m - 1, max_size=m - 1))
    w = data.draw(st.lists(SMALL, min_size=m * m, max_size=m * m)) if n else [0] * (m * m)
    shifted = [[f[a][b] + u[a] + u[b] - u[G.table[a][b]] + (n or 0) * w[a * m + b]
                if a and b else 0 for b in range(m)] for a in range(m)]
    H = h2_structure(G, n)
    pf = H.project(f)
    assert pf.is_zero() == is_coboundary_mod(SMALL_GROUPS[index], base, n)
    assert H.project(shifted).coords == pf.coords
    total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(f, g)]
    assert H.project(total).coords == (pf + H.project(g)).coords


def _span(generators, moduli):
    """The subgroup of (+) Z/e (e in moduli) that the generators generate."""
    seen = {tuple(0 for _ in moduli)}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = tuple((a + b) % e for a, b, e in zip(x, g, moduli))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def test_projection_is_onto():
    # with the relations killed (property test above) and |H^2| matching the
    # closed forms, a projection onto the whole group is an isomorphism; the
    # groups with H_2 != 0 are the ones whose classes reach the rank block
    for G, _, h2 in NONCYCLIC_HOMOLOGY:
        if not h2:
            continue
        index = SMALL_GROUPS.index(G)
        for n in [None] + list(range(2, 13)):
            H = h2_structure(G, n)
            images = [H.project(cochain_matrix(G, b)).coords for b in _cocycle_basis(index, n)]
            assert len(_span(images, H.invariant_factors)) == prod(H.invariant_factors), (G.name, n)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_projection_is_zero_iff_trivial_mod_n_on_orderings(data):
    _, _, G = data.draw(relabelings(SMALL_GROUPS[:9]))   # Z/2 .. Z/10
    n = data.draw(st.integers(2, 12))
    H = h2_structure(G, n)
    for arr in enumerate_circular_orders(G):
        f = arrangement_to_inhom(arr)
        assert H.project(f).is_zero() == is_trivial_mod_n(G, f, n)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_divisibility_matches_the_coboundary_oracle(data):
    index, perm, G = data.draw(relabelings(SMALL_GROUPS))
    n = data.draw(st.integers(2, 12))
    scale = data.draw(st.sampled_from([1, n]))    # n times a cocycle is always divisible
    base, f = (
        [[scale * v for v in row] for row in matrix]
        for matrix in _draw_cocycle(data, index, perm, None))
    divisible = is_coboundary_mod(SMALL_GROUPS[index], base, n)
    assert divisible or scale == 1
    result = is_n_divisible(G, f, n)
    assert result.divisible == is_trivial_mod_n(G, f, n) == divisible
    if divisible:
        d1, _ = coboundary_matrices(G)
        d1u = d1.mul_vector(result.coboundary_of)
        assert is_cocycle_mod(G, result.mu, None)
        assert cocycle_vector(G, f) == [n * m + c for m, c in
                                        zip(cocycle_vector(G, result.mu), d1u)]


def test_divisibility_witness_is_pinned():
    # the exact witness, recorded when d1 u was still a product with the
    # dense d1: reading d1 u off the table must not change it
    got = is_n_divisible(cyclic_group(4), standard_order_zn(4), 3)
    assert got.divisible
    assert got.mu == [[0, 0, 0, 0], [0, 3, 0, 0], [0, 0, -3, -3], [0, 0, -3, 0]]
    assert got.coboundary_of == [-2, 5, 3]


def test_divisibility_matches_gcd_rule_for_cyclic():
    for k in range(2, 9):
        G = cyclic_group(k)
        orderings = [arrangement_to_inhom(a) for a in enumerate_circular_orders(G)]
        for n in range(2, 13):
            some = any(is_n_divisible(G, f, n).divisible for f in orderings)
            assert some == (gcd(n, k) == 1), (k, n)
