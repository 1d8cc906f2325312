import math
import random

import pytest

from ppshift import eigen
from ppshift.eigen import (
    Subspace,
    _difference_power,
    _lucas_columns,
    apply_shift,
    default_generators,
    intersection_space,
    kernel_dim,
    kernel_power,
    mat_identity,
    mat_mul,
    mat_rank,
    nullspace,
    predicted_basis,
    rref,
    shift_operator,
    span_of_polys,
)
from ppshift.errors import CapExceededError, DimensionMismatchError, OutOfRangeError
from ppshift.gf import line_decomposition
from ppshift.poly import coords, degree, gmb_poly, monomial, reduce_poly
from test_claims import _chain_identity_powers

FIELDS = [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (3, 3)]


def with_zech(fields, zech):
    """(p, n, factory) cases: fields with their flat tables under the
    plain p-n ids, then zech-p-n cases built without them."""
    return [pytest.param(p, n, "field", id=f"{p}-{n}") for p, n in fields] + [
        pytest.param(p, n, "zech_field", id=f"zech-{p}-{n}") for p, n in zech
    ]


def mat_vec(ctx, a, vec):
    """a . vec over F_q, summed entry by entry."""
    out = []
    for row in a:
        acc = 0
        for aik, v in zip(row, vec):
            acc = ctx.add(acc, ctx.mul(aik, v))
        out.append(acc)
    return out


def dense_mat_mul(ctx, a, b):
    """a . b by the triple loop: each entry summed over every k."""
    columns = [[bk[j] for bk in b] for j in range(len(b[0]) if b else 0)]
    return tuple(tuple(mat_vec(ctx, [row], col)[0] for col in columns) for row in a)


@pytest.mark.parametrize("p,n,make", with_zech([(5, 2), (3, 3)], [(5, 2)]))
def test_mat_mul_matches_the_dense_product(request, p, n, make):
    ctx = request.getfixturevalue(make)(p, n)
    rng = random.Random(31 + ctx.q)
    for _ in range(30):
        # random, not triangular, with zero and repeated rows on either side
        nrows, inner, ncols = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)
        a = _random_rows(rng, ctx.q, nrows, inner)
        b = _random_rows(rng, ctx.q, inner, ncols)
        assert mat_mul(ctx, a, b) == dense_mat_mul(ctx, a, b)
    ops = [shift_operator(ctx, r) for r in (1, ctx.primitive, ctx.q - 1)]
    for x in ops:
        for y in ops:
            assert mat_mul(ctx, x, y) == dense_mat_mul(ctx, x, y)
    zero = ((0, 0, 0),) * 2
    assert mat_mul(ctx, zero, ((1, 2), (3, 4), (0, 5))) == ((0, 0), (0, 0))
    assert mat_mul(ctx, ((1, 2, 3),), ((0, 0),) * 3) == ((0, 0),)
    # empty rows and empty matrices
    assert mat_mul(ctx, ((), ()), ()) == dense_mat_mul(ctx, ((), ()), ()) == ((), ())
    assert mat_mul(ctx, (), ((1, 2),)) == ()


def test_shift_matrix_f5_columns(field):
    op = shift_operator(field(5, 1), 1)
    assert op == ((1, 2, 3), (0, 1, 3), (0, 0, 1))


def test_zero_shift_is_identity(field):
    for p, n in FIELDS:
        ctx = field(p, n)
        assert shift_operator(ctx, 0) == mat_identity(ctx.q - 2)


def test_matrix_fixes_p_power_monomials(field):
    f9 = field(3, 2)
    op = shift_operator(f9, 1)
    vec = coords(f9, monomial(3))
    assert mat_vec(f9, op, vec) == vec


def test_apply_shift_examples(field):
    f5 = field(5, 1)
    assert apply_shift(f5, 1, monomial(2)) == [0, 2, 1]  # (x+1)^2 - 1
    f9 = field(3, 2)
    for r in range(9):
        for k in range(2):
            mono = monomial(3**k)
            assert apply_shift(f9, r, mono) == mono
    g = gmb_poly(f9, 2, 1)
    assert apply_shift(f9, 1, g) == g


@pytest.mark.parametrize("p,n", FIELDS)
def test_apply_shift_agrees_with_matrix(field, p, n):
    ctx = field(p, n)
    rng = random.Random(17)
    ops = {r: shift_operator(ctx, r) for r in range(ctx.q)}
    for _ in range(40):
        f = reduce_poly(ctx, [0] + [rng.randrange(ctx.q) for _ in range(ctx.q - 2)])
        vec = coords(ctx, f)
        for r in range(ctx.q):
            shifted = apply_shift(ctx, r, f)
            assert mat_vec(ctx, ops[r], vec) == coords(ctx, shifted)
            if f:
                assert degree(shifted) == degree(f)


def test_operator_orders(field):
    # the least j with A_r^j = I, read from the shift's own product chain
    def order(p, n, r):
        flags = _chain_identity_powers(field(p, n))[r]
        return flags.index(True) + 1

    assert order(5, 1, 1) == 5
    assert order(3, 2, 3) == 3
    assert order(2, 3, 1) == 2
    # over F_4 every shift already acts as the identity
    assert order(2, 2, 1) == 1


def test_kernel_power_examples(field):
    f5 = field(5, 1)
    k1 = kernel_power(f5, 1, 1)
    assert k1.dim == 1 and k1 == span_of_polys(f5, [monomial(1)])
    f9 = field(3, 2)
    k = kernel_power(f9, 1, 1)
    assert k.dim == 3
    assert k == span_of_polys(f9, [monomial(1), monomial(3), gmb_poly(f9, 2, 1)])
    assert kernel_power(f9, 1, 3).dim == 7


@pytest.mark.parametrize("p,n", FIELDS)
def test_kernel_dims_and_chain(field, p, n):
    ctx = field(p, n)
    for r in (1, ctx.primitive):
        prev = None
        for k in range(1, ctx.p + 1):
            space = kernel_power(ctx, r, k)
            assert space.dim == min(k * ctx.p ** (ctx.n - 1), ctx.q - 2)
            assert kernel_dim(ctx, r, k) == space.dim
            if prev is not None:
                assert space.contains(prev)
            prev = space


def product_chain(ctx, r):
    """(A_r - I)^k for k = 1..p from k - 1 dense products of A_r - I: no
    Lemma 9 (A_r^j = A_(jr)) and no conjugation A_r = D_r^-1 A_1 D_r."""
    a = shift_operator(ctx, r)
    b = tuple(
        tuple(ctx.sub(v, 1) if i == j else v for j, v in enumerate(row))
        for i, row in enumerate(a)
    )
    chain = [b]
    for _ in range(ctx.p - 1):
        chain.append(mat_mul(ctx, chain[-1], b))
    return chain


@pytest.mark.parametrize(
    "p,n,make",
    with_zech([(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (5, 3)], [(2, 3), (5, 2)]),
)
def test_difference_power_matches_product_chain(request, p, n, make):
    # D_r^-1 (A_1 - I)^k D_r has entry (i, j) = M_k[i][j] * r^(j - i)
    ctx = request.getfixturevalue(make)(p, n)
    powers = [_difference_power(ctx, k) for k in range(1, ctx.p + 1)]
    for m in powers:
        assert all(v < ctx.p for row in m for v in row)  # entries in F_p
    # every shift up to F_27; F_125 at the unit shift only, the chain of
    # its lowest k, whose digit patterns the Lucas build must get right
    shifts = range(1, ctx.q) if ctx.q < 100 else [1]
    for r in shifts:
        for k, (m, chain) in enumerate(zip(powers, product_chain(ctx, r)), start=1):
            conj = [
                tuple(ctx.mul(v, ctx.pow(r, j - i)) if v else 0 for j, v in enumerate(row))
                for i, row in enumerate(m)
            ]
            assert conj == list(chain), (r, k)


def _pascal_rows(p: int, d: int):
    """Rows e = 1..d of Pascal's triangle mod p: C(e, 0..e)."""
    row = [1]
    for _ in range(d):
        row = [1] + [(a + b) % p for a, b in zip(row, row[1:])] + [1]
        yield row


def dense_shift_operator(ctx, r):
    """A_r from dense Pascal columns: column e - 1 holds C(e, i) r^(e-i)
    for i = 1..e, every binomial computed, then transposed."""
    d = ctx.q - 2
    cols = [[ctx.mul(binom[i], ctx.pow(r, e - i)) for i in range(1, e + 1)] + [0] * (d - e)
            for e, binom in enumerate(_pascal_rows(ctx.p, d), start=1)]
    return tuple(zip(*cols))


@pytest.mark.parametrize("p,n,make", with_zech([(5, 2), (3, 3)], [(5, 2)]))
def test_shift_operator_matches_dense_pascal_columns(request, p, n, make):
    ctx = request.getfixturevalue(make)(p, n)
    for r in range(ctx.q):
        assert shift_operator(ctx, r) == dense_shift_operator(ctx, r), r


def dense_difference_power(ctx, k):
    """(A_1 - I)^k from dense Pascal columns: entry (i, e) is
    C(e, i) * Delta_k(e - i), every entry computed, then transposed."""
    p, d = ctx.p, ctx.q - 2
    signed = [(-1) ** (k - t) * math.comb(k, t) for t in range(k + 1)]
    period = [sum(c * pow(t, s, p) for t, c in enumerate(signed)) % p for s in range(1, p)]
    delta = [0] + [period[(s - 1) % (p - 1)] for s in range(1, d)]
    cols = []
    for e, binom in enumerate(_pascal_rows(p, d), start=1):
        cols.append([binom[i] * delta[e - i] % p for i in range(1, e)] + [0] * (d - e + 1))
    return [list(row) for row in zip(*cols)]


@pytest.mark.parametrize("p,n,ks", [(7, 3, range(1, 8)), (5, 4, (1, 2)), (2, 5, (1, 2))])
def test_difference_power_matches_dense_pascal_columns(field, p, n, ks):
    ctx = field(p, n)
    for k in ks:
        got = _difference_power(ctx, k)
        assert type(got) is list and len(got) == ctx.q - 2
        for row in got:
            assert type(row) is list and len(row) == ctx.q - 2
            assert all(0 <= v < p for v in row)
        assert got == dense_difference_power(ctx, k), k


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lucas_columns_list_the_nonzero_binomials(p):
    d = p**3 + 3  # past the third digit, so every digit pattern occurs
    for e, col in enumerate(_lucas_columns(p, d), start=1):
        want = [(i, math.comb(e, i) % p) for i in range(e + 1) if math.comb(e, i) % p]
        assert col == want, e


ROSTER = [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)]


@pytest.mark.parametrize("p,n,make", with_zech(ROSTER, ROSTER))
def test_kernel_power_matches_dense_nullspace(request, p, n, make):
    # the rescaled F_p kernel against elimination of the dense chain over F_q
    ctx = request.getfixturevalue(make)(p, n)
    for r in range(1, ctx.q):
        for k, chain in enumerate(product_chain(ctx, r), start=1):
            want = nullspace(ctx, chain, ctx.q - 2)
            got = kernel_power(ctx, r, k)
            assert got.basis == want.basis, (r, k)
            assert kernel_dim(ctx, r, k) == want.dim, (r, k)


@pytest.mark.parametrize("p,n", [(5, 2), (3, 3)])
def test_intersection_space_matches_dense_kernels(field, p, n):
    ctx = field(p, n)
    gens = default_generators(ctx)
    chains = [product_chain(ctx, r) for r in gens]
    for k in range(1, ctx.p + 1):
        kernels = [nullspace(ctx, chain[k - 1], ctx.q - 2) for chain in chains]
        want = kernels[0]
        for other in kernels[1:]:
            want = want.intersect(other)
        assert intersection_space(ctx, k).basis == want.basis, k
    # an explicit generator set, repeats and other lines included
    alt = [2, ctx.primitive, ctx.mul(3, ctx.primitive), 2]
    want = nullspace(ctx, product_chain(ctx, alt[0])[0], ctx.q - 2)
    for r in alt[1:]:
        want = want.intersect(nullspace(ctx, product_chain(ctx, r)[0], ctx.q - 2))
    assert intersection_space(ctx, 1, alt) == want


@pytest.mark.parametrize("p,n", [(5, 2), (3, 3), (2, 5)])
def test_intersect_images_are_the_canonical_basis_of_the_meet(field, p, n):
    # intersect runs no elimination after mapping the solutions back: the
    # images must already be canonical, lie in both spaces and have the
    # dimension dim a + dim b - dim(a + b)
    ctx = field(p, n)
    rng = random.Random(p * 100 + n)
    ambient = 7

    def vectors(count):
        return [[rng.randrange(ctx.q) if rng.random() < 0.6 else 0 for _ in range(ambient)]
                for _ in range(count)]

    for _ in range(50):
        shared = vectors(rng.randrange(3))
        a = Subspace.from_vectors(ctx, shared + vectors(rng.randrange(1, 4)), ambient)
        b = Subspace.from_vectors(ctx, shared + vectors(rng.randrange(1, 4)), ambient)
        meet = a.intersect(b)
        assert Subspace.from_vectors(ctx, list(meet.basis), ambient).basis == meet.basis
        assert a.contains(meet) and b.contains(meet)
        joined = Subspace.from_vectors(ctx, list(a.basis + b.basis), ambient)
        assert meet.dim == a.dim + b.dim - joined.dim


def test_dense_routes_refuse_past_the_cap(field, monkeypatch):
    f9 = field(3, 2)
    monkeypatch.setattr(eigen, "OPERATOR_MAX_Q", 8)
    for call in (
        lambda: shift_operator(f9, 1),
        lambda: kernel_power(f9, 1, 1),
        lambda: kernel_dim(f9, 1, 1),
        lambda: intersection_space(f9, 1),
    ):
        with pytest.raises(CapExceededError, match="exceeds the dense operator cap 8"):
            call()


def test_kernel_power_preconditions(field):
    f9 = field(3, 2)
    with pytest.raises(OutOfRangeError):
        kernel_power(f9, 0, 1)
    with pytest.raises(OutOfRangeError):
        kernel_power(f9, 1, 4)
    # an out-of-range shift must not alias through the flat tables
    with pytest.raises(OutOfRangeError):
        kernel_power(field(5, 1), 7, 1)


@pytest.mark.parametrize("p,n,make", with_zech([(2, 2), (5, 1), (3, 2), (5, 2)], [(5, 1), (3, 2), (5, 2)]))
def test_additivity_exhaustive(request, p, n, make):
    ctx = request.getfixturevalue(make)(p, n)
    ops = {r: shift_operator(ctx, r) for r in range(ctx.q)}
    for r in range(ctx.q):
        for s in range(ctx.q):
            assert mat_mul(ctx, ops[r], ops[s]) == ops[ctx.add(r, s)]


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
def test_same_line_same_kernels(field, p, n):
    ctx = field(p, n)
    for r in range(1, ctx.q):
        for k in range(1, ctx.p + 1):
            base = kernel_power(ctx, r, k)
            for i in range(2, ctx.p):
                assert kernel_power(ctx, ctx.mul(i, r), k) == base


def test_predicted_basis_lemma6(field):
    for p, n in ((3, 2), (5, 2), (3, 3)):
        ctx = field(p, n)
        assert span_of_polys(ctx, predicted_basis(ctx, "lemma6")) == kernel_power(ctx, 1, 1)


def test_predicted_basis_theorem7(field):
    for p, n, mmax in ((3, 2, 3), (5, 2, 4), (3, 3, 2)):
        ctx = field(p, n)
        for m in range(1, mmax + 1):
            predicted = span_of_polys(ctx, predicted_basis(ctx, "theorem7", m=m))
            assert predicted == kernel_power(ctx, 1, m)


def test_predicted_basis_theorem11(field):
    for p, n in ((3, 2), (5, 2)):
        ctx = field(p, n)
        for line in line_decomposition(ctx):
            predicted = span_of_polys(
                ctx, predicted_basis(ctx, "theorem11", r=line.representative)
            )
            assert predicted == kernel_power(ctx, line.representative, 1)


def test_predicted_basis_theorem11_f9_shape(field):
    f9 = field(3, 2)
    r = 3  # b = r^2 = 2
    b = f9.pow(r, 2)
    polys = predicted_basis(f9, "theorem11", r=r)
    assert polys == [monomial(1), monomial(3), gmb_poly(f9, 2, b)]


def test_predicted_basis_corollary3(field):
    for p in (5, 7):
        ctx = field(p, 1)
        for m in range(1, p + 1):
            predicted = span_of_polys(ctx, predicted_basis(ctx, "corollary3", m=m))
            assert predicted == kernel_power(ctx, 1, min(m, p))
    assert predicted_basis(field(7, 1), "corollary3", m=3) == [
        monomial(1), monomial(2), monomial(3)
    ]


def test_predicted_basis_preconditions(field):
    with pytest.raises(OutOfRangeError):
        predicted_basis(field(3, 2), "corollary3", m=1)
    with pytest.raises(OutOfRangeError):
        predicted_basis(field(5, 1), "theorem7")
    with pytest.raises(OutOfRangeError):
        predicted_basis(field(3, 2), "nope")
    f25 = field(5, 2)
    for r in (-1, 25, 10**6):  # -1 once aliased r = 24
        with pytest.raises(OutOfRangeError):
            predicted_basis(f25, "theorem11", r=r)


def test_span_of_polys_refuses_non_elements(field):
    # [0, -1] once aliased [0, 24]; a coefficient >= q raised IndexError
    f25 = field(5, 2)
    for bad in ([0, -1], [0, 25], [0, 1, 10**6]):
        with pytest.raises(OutOfRangeError):
            span_of_polys(f25, [bad])


def test_intersection_space_examples(field):
    f9 = field(3, 2)
    v1 = intersection_space(f9, 1)
    assert v1.dim == 2
    assert v1 == span_of_polys(f9, [monomial(1), monomial(3)])
    f25 = field(5, 2)
    v2 = intersection_space(f25, 2)
    assert v2.dim == 5
    assert v2 == span_of_polys(f25, [monomial(e) for e in (1, 2, 5, 6, 10)])
    assert intersection_space(f9, 3).dim == 7


def test_intersection_dims_follow_meeting_rule(field):
    f25 = field(5, 2)
    assert [intersection_space(f25, k).dim for k in range(1, 6)] == [2, 5, 10, 17, 23]
    f27 = field(3, 3)
    assert [intersection_space(f27, k).dim for k in (1, 2)] == [3, 10]


def test_default_generators(field):
    f27 = field(3, 3)
    a = f27.primitive
    assert default_generators(f27) == [1, a, f27.mul(a, a)]


def test_subspace_algebra(field):
    f9 = field(3, 2)
    k1 = kernel_power(f9, 1, 1)
    k2 = kernel_power(f9, 2, 1)  # 2 lies on the line of 1
    assert k1.intersect(k2) == k1
    assert k1 == k1
    v1 = intersection_space(f9, 1)
    assert v1.contains_vector(coords(f9, [0, 1, 0, 1]))  # x^3 + x
    assert not v1.contains_vector(coords(f9, [0, 0, 1]))
    other = Subspace.from_vectors(f9, [[1, 0]], 2)
    with pytest.raises(DimensionMismatchError):
        v1.intersect(other)
    with pytest.raises(DimensionMismatchError):
        v1.contains_vector([1, 0])


@pytest.mark.parametrize("make", ["field", "zech_field"])
def test_membership_agrees_with_the_span_dimension(request, make):
    ctx = request.getfixturevalue(make)(3, 2)
    d = ctx.q - 2
    empty = Subspace.from_vectors(ctx, [], d)
    spaces = [empty, kernel_power(ctx, 1, 1), kernel_power(ctx, 4, 2),
              intersection_space(ctx, 1), Subspace.from_vectors(ctx, [[1] * d], d)]
    rng = random.Random(5)
    vectors = [[0] * d] + [[rng.randrange(ctx.q) for _ in range(d)] for _ in range(20)]
    for space in spaces:
        for row in space.basis:
            vectors.append(list(row))
            for j in range(d):  # one entry off a basis row
                vectors.append([ctx.add(v, 1) if i == j else v for i, v in enumerate(row)])
    for space in spaces:
        for vec in vectors:
            spanned = Subspace.from_vectors(ctx, [*space.basis, vec], d).dim == space.dim
            assert space.contains_vector(vec) == spanned, (space.basis, vec)
        for other in spaces:
            spanned = Subspace.from_vectors(ctx, [*space.basis, *other.basis], d).dim == space.dim
            assert space.contains(other) == spanned
    assert empty.contains_vector([0] * d) and not empty.contains_vector([1] + [0] * (d - 1))
    assert empty.contains(empty) and all(s.contains(empty) for s in spaces)
    assert not empty.contains(spaces[1])


def test_subspace_from_vectors_canonical(field):
    f9 = field(3, 2)
    rows = [coords(f9, gmb_poly(f9, 2, 1)), coords(f9, monomial(1))]
    a = Subspace.from_vectors(f9, rows, 7)
    b = Subspace.from_vectors(f9, [
        [f9.add(x, y) for x, y in zip(rows[0], rows[1])], rows[1]
    ], 7)
    assert a == b and a.basis == b.basis


def _random_rows(rng, q, nrows, ncols):
    # sparse-ish rows with duplicated and zero rows, so rank < nrows occurs
    rows = [[rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(ncols)]
            for _ in range(nrows)]
    if nrows > 2:
        rows[-1] = list(rows[0])
        rows[1] = [0] * ncols
    return rows


@pytest.mark.parametrize("p", [2, 3, 7, 13])
def test_rref_matches_sympy_over_prime_fields(field, p):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ctx = field(p, 1)
    dom = sympy.GF(p)
    rng = random.Random(2024 + p)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = _random_rows(rng, p, nrows, ncols)
        red, pivots = rref(ctx, rows)
        dm = DomainMatrix([[dom(v) for v in row] for row in rows], (nrows, ncols), dom)
        want, want_pivots = dm.rref()
        want_rows = [[int(v) % p for v in row] for row in want.to_list()]
        assert pivots == tuple(want_pivots)
        assert [list(row) for row in red] == want_rows[: len(pivots)]
        assert mat_rank(ctx, rows) == len(pivots)


def sympy_rref(p, rows, ncols):
    """(rows, pivots) of DomainMatrix.rref over GF(p), zero rows dropped."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    dom = sympy.GF(p)
    dm = DomainMatrix([[dom(v) for v in row] for row in rows], (len(rows), ncols), dom)
    red, pivots = dm.rref()
    return tuple(tuple(int(v) % p for v in row) for row in red.to_list()[: len(pivots)]), tuple(pivots)


@pytest.mark.parametrize(
    "p,n,ks", [(3, 4, range(1, 4)), (5, 3, range(1, 6)), (7, 3, (3,))], ids=["81", "125", "343"]
)
def test_rref_matches_sympy_on_the_kernel_chain(field, p, n, ks):
    # the matrices unit_kernel and kernel_dim eliminate, over F_p
    fp = field(p, 1)
    for k in ks:
        rows = _difference_power(field(p, n), k)
        want = sympy_rref(p, rows, len(rows))
        assert rref(fp, rows) == want, k
        assert mat_rank(fp, rows) == len(want[1]), k


@pytest.mark.parametrize("p", [2, 5, 13])
def test_rref_matches_sympy_on_larger_random_matrices(field, p):
    ctx = field(p, 1)
    rng = random.Random(4040 + p)
    for _ in range(6):
        nrows, ncols = rng.randint(20, 40), rng.randint(20, 40)
        rows = _random_rows(rng, p, nrows, ncols)
        dup, zero = rng.sample(range(3, nrows - 1), 2)
        rows[dup], rows[zero] = list(rows[2]), [0] * ncols  # besides rows 1 and -1
        want = sympy_rref(p, rows, ncols)
        assert rref(ctx, rows) == want
        assert mat_rank(ctx, rows) == len(want[1])


@pytest.mark.parametrize("p,n", [(7, 1), (13, 1), (5, 2), (3, 3)])
def test_rref_scales_non_unit_pivots_on_the_zech_branch(field, zech_field, p, n):
    # a pivot row is scaled in place by its head's inverse through the
    # Zech branch of axpy_at, against the flat tables and sympy
    zech, flat = zech_field(p, n), field(p, n)
    rng = random.Random(77 + zech.q)
    for _ in range(10):
        nrows, ncols = rng.randint(3, 12), rng.randint(3, 12)
        rows = _random_rows(rng, zech.q, nrows, ncols)
        rows[0][0] = rng.randrange(2, zech.q)  # the first pivot's head is not 1
        red, pivots = rref(zech, rows)
        assert (red, pivots) == rref(flat, rows)
        assert mat_rank(zech, rows) == len(pivots)
        if n == 1:
            assert (red, pivots) == sympy_rref(p, rows, ncols)


@pytest.mark.parametrize(
    "p,n,make", with_zech([(2, 3), (3, 2), (5, 2), (3, 3), (5, 4)], [(3, 2), (5, 2), (3, 3)])
)
def test_rref_over_extension_fields(request, p, n, make):
    ctx = request.getfixturevalue(make)(p, n)
    rng = random.Random(99)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = _random_rows(rng, ctx.q, nrows, ncols)
        red, pivots = rref(ctx, rows)
        # reduced row-echelon form: unit pivots, increasing, alone in their column
        assert list(pivots) == sorted(set(pivots)) and len(red) == len(pivots)
        for i, (row, pc) in enumerate(zip(red, pivots)):
            assert row[pc] == 1 and not any(row[:pc])
            assert all(red[j][pc] == 0 for j in range(len(red)) if j != i)
        assert mat_rank(ctx, rows) == len(pivots)
        # same row space: each side lies in the span of the other. The
        # transform T with T * rows = red is the right block of rref([rows | I]).
        space = Subspace(ctx=ctx, basis=red, ambient=ncols)
        assert all(space.contains_vector(row) for row in rows)
        aug, _ = rref(ctx, [row + [int(i == j) for j in range(nrows)]
                            for i, row in enumerate(rows)])
        transform = [row[ncols:] for row in aug[: len(pivots)]]
        assert mat_mul(ctx, transform, rows) == red
