import random

import pytest

from ppshift.claims import linearized_to_matrix, matrix_to_linearized
from ppshift.eigen import mat_rank
from ppshift.errors import BadExponentError, NotRootOfUnityError, OutOfRangeError
from ppshift.gf import roots_of_unity
from ppshift.poly import (
    _binomial_power,
    compose,
    coords,
    degree,
    eval_table,
    format_poly,
    from_coords,
    gmb_poly,
    hmd_d,
    hmd_poly,
    linearized_coeffs,
    linearized_poly,
    monomial,
    neg_one_pow,
    normalize,
    parse_poly,
    poly_mul,
    poly_pow,
    reduce_poly,
)

SMALL_FIELDS = [(2, 2), (5, 1), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)]


def eval_at(ctx, f, x):
    """Horner's rule at one point: the oracle for eval_table."""
    acc = 0
    for c in reversed(f):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def test_reduce_examples(field):
    f5 = field(5, 1)
    assert reduce_poly(f5, [0] * 9 + [1]) == [0, 1]  # x^9 -> x
    for p, n in ((2, 2), (5, 1), (2, 3), (3, 2)):
        ctx = field(p, n)
        assert reduce_poly(ctx, [0] * ctx.q + [1]) == [0, 1]  # x^q -> x
    f = [0] * (f5.q - 1) + [1]
    f[1] = 1  # x^(q-1) + x is already reduced
    assert reduce_poly(f5, list(f)) == f


@pytest.mark.parametrize("p,n", SMALL_FIELDS)
def test_reduce_preserves_evaluation(field, p, n):
    ctx = field(p, n)
    rng = random.Random(99)
    trials = 2000 if ctx.q <= 9 else 300
    for _ in range(trials):
        raw = [rng.randrange(ctx.q) for _ in range(rng.randrange(1, 3 * ctx.q))]
        reduced = reduce_poly(ctx, raw)
        assert len(reduced) <= ctx.q
        for x in range(ctx.q):
            assert eval_at(ctx, raw, x) == eval_at(ctx, reduced, x)


def test_eval_table_examples(field):
    f5 = field(5, 1)
    assert eval_table(f5, monomial(1)) == [0, 1, 2, 3, 4]
    assert eval_table(f5, monomial(3)) == [0, 1, 3, 2, 4]
    assert set(eval_table(f5, monomial(2))) == {0, 1, 4}


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (7, 2), (5, 4), (3, 6)])
def test_sparse_eval_table_matches_horner(field, p, n):
    # F_4, F_9, F_49 use the flat tables; F_625 and F_729 the exp/log path
    ctx = field(p, n)
    q = ctx.q
    rng = random.Random(p * 100 + n)
    dense = [rng.randrange(q) for _ in range(q - 1)] + [1 + rng.randrange(q - 1)]
    polys = [
        [],
        [rng.randrange(1, q)],  # a nonzero constant
        monomial(q - 1, rng.randrange(1, q)),
        dense,  # degree q-1 with a constant term
    ]
    for _ in range(3):  # sparse, with and without a constant term
        f = [0] * q
        for e in rng.sample(range(q), 4):
            f[e] = rng.randrange(q)
        polys.append(normalize(f))
    polys.append([0] * q + [1])  # unreduced x^q
    # Horner costs O(q) per point at these degrees: sample the large fields
    points = range(q) if q < 100 else [0, 1, *rng.sample(range(2, q), 40)]
    for f in polys:
        table = eval_table(ctx, f)
        assert len(table) == q
        assert [table[x] for x in points] == [eval_at(ctx, f, x) for x in points], f[:8]


def test_compose_examples(field):
    f5 = field(5, 1)
    assert compose(f5, monomial(3), monomial(3)) == [0, 1]  # x^9 -> x
    assert compose(f5, monomial(2), [1, 1]) == [1, 2, 1]
    rng = random.Random(7)
    for _ in range(50):
        f = reduce_poly(f5, [rng.randrange(5) for _ in range(6)])
        assert compose(f5, f, monomial(1)) == f
        assert compose(f5, monomial(1), f) == f


@pytest.mark.parametrize("p,n", [(5, 1), (3, 2), (2, 3)])
def test_compose_matches_table_composition_and_associativity(field, p, n):
    ctx = field(p, n)
    rng = random.Random(11)
    for _ in range(60):
        f = reduce_poly(ctx, [rng.randrange(ctx.q) for _ in range(ctx.q + 2)])
        g = reduce_poly(ctx, [rng.randrange(ctx.q) for _ in range(ctx.q + 2)])
        h = reduce_poly(ctx, [rng.randrange(ctx.q) for _ in range(ctx.q + 2)])
        fg = compose(ctx, f, g)
        tf, tg = eval_table(ctx, f), eval_table(ctx, g)
        assert eval_table(ctx, fg) == [tf[tg[x]] for x in range(ctx.q)]
        assert compose(ctx, fg, h) == compose(ctx, f, compose(ctx, g, h))


def test_degree_sentinel():
    assert degree([]) is None
    assert degree([0, 1]) == 1


def test_gmb_examples(field):
    f9 = field(3, 2)
    assert gmb_poly(f9, 2, 1) == [0, 0, 1, 0, 1, 0, 1]  # (x^3 - x)^2
    assert hmd_d(f9, 2, 1) == 1
    assert hmd_poly(f9, 2, 1) == gmb_poly(f9, 2, 1)
    with pytest.raises(BadExponentError):
        gmb_poly(f9, 1, 1)
    with pytest.raises(NotRootOfUnityError):
        gmb_poly(f9, 2, 4)  # the primitive element is not a 4th root


@pytest.mark.parametrize("build", [gmb_poly, hmd_poly])
@pytest.mark.parametrize("b", [99, -1])
def test_gmb_hmd_reject_non_elements(field, build, b):
    with pytest.raises(OutOfRangeError, match="is not an element index of F_9"):
        build(field(3, 2), 2, b)


@pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (11, 2), (5, 3)])
def test_binomial_power_closed_form_matches_poly_pow(field, p, n):
    # gmb_poly and hmd_poly build (x^p - b x)^m from the binomial
    # theorem; repeated squaring of the binomial is the oracle
    ctx = field(p, n)
    for b in range(ctx.q):
        binomial = [0] * (p + 1)
        binomial[1] = ctx.neg(b)
        binomial[p] = 1
        for m in range(2, p):
            assert _binomial_power(ctx, b, m) == poly_pow(ctx, binomial, m), (m, b)


@pytest.mark.parametrize("p,n", [(3, 3), (5, 3), (2, 4), (7, 2), (3, 4)])
def test_binomial_power_matches_poly_pow_below_p_to_the_n_minus_1(field, p, n):
    # predicted_basis reads (x^p - bx)^i, i < p^(n-1), from the closed form
    # (theorem7 at b = 1, theorem11 at b = r^(p-1)); poly_pow is the oracle
    ctx = field(p, n)
    for b in (1, ctx.pow(ctx.primitive, p - 1)):
        binomial = [0, ctx.neg(b)] + [0] * (p - 2) + [1]
        for i in range(p ** (n - 1)):
            assert _binomial_power(ctx, b, i) == poly_pow(ctx, binomial, i), (b, i)


def test_gmb_f25_degree_and_power_identity(field):
    f25 = field(5, 2)
    for b in roots_of_unity(f25, 6):
        g = gmb_poly(f25, 3, b)
        assert len(g) - 1 == 15
        lhs = poly_pow(f25, g, 5)
        scale = f25.mul(f25.neg(1), f25.pow(b, 15))
        assert lhs == [f25.mul(scale, c) for c in g]


def test_neg_one_pow(field):
    f25, f8 = field(5, 2), field(2, 3)
    assert [neg_one_pow(f25, m) for m in range(4)] == [1, f25.neg(1), 1, f25.neg(1)]
    assert {neg_one_pow(f8, m) for m in range(4)} == {1}  # -1 = 1 in characteristic 2


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (5, 2), (3, 3)])
def test_linearized_bridge_roundtrip_and_determinant(field, p, n):
    ctx = field(p, n)
    singular = bijective = 0
    for idx in range(ctx.q**ctx.n):
        d = [(idx // ctx.q**j) % ctx.q for j in range(ctx.n)]
        mat = linearized_to_matrix(ctx, d)
        assert matrix_to_linearized(ctx, mat) == d
        f = linearized_poly(ctx, d)
        for j in range(n):  # column j holds the digits of f(t^j)
            assert ctx.digits(eval_at(ctx, f, p**j)) == tuple(row[j] for row in mat)
        values = set(eval_table(ctx, f))
        is_bijective = len(values) == ctx.q
        assert is_bijective == (mat_rank(field(p), mat) == n)
        bijective += is_bijective
        singular += not is_bijective
    if (p, n) == (3, 2):
        assert bijective == 48  # (9-1)(9-3) invertible matrices
        assert bijective // (ctx.q - 1) == 6


def test_linearized_bridge_examples(field):
    f9 = field(3, 2)
    assert linearized_to_matrix(f9, [1, 0]) == ((1, 0), (0, 1))
    assert linearized_to_matrix(f9, [0, 1]) == ((1, 0), (0, 2))  # x^3: t -> 2t


def test_linearized_poly_shape(field):
    f27 = field(3, 3)
    f = linearized_poly(f27, [1, 2, 5])
    assert f[1] == 1 and f[3] == 2 and f[9] == 5
    assert linearized_coeffs(f27, f) == [1, 2, 5]
    assert linearized_coeffs(f27, [0, 1, 1]) is None


def test_format_parse_roundtrip(field):
    f9 = field(3, 2)
    rng = random.Random(5)
    for _ in range(100):
        f = reduce_poly(f9, [rng.randrange(9) for _ in range(rng.randrange(1, 12))])
        assert parse_poly(f9, format_poly(f9, f)) == f
    assert format_poly(f9, []) == "0"
    assert parse_poly(f9, "0") == []
    assert parse_poly(f9, "1*x^2 + 1*x^4 + 1*x^6") == gmb_poly(f9, 2, 1)
    assert parse_poly(f9, "x") == [0, 1]
    assert parse_poly(f9, "2*x") == [0, 2]
    assert parse_poly(f9, "x^2 + x^2") == [0, 0, 2]
    with pytest.raises(OutOfRangeError):
        parse_poly(f9, "9*x^2")
    with pytest.raises(OutOfRangeError):
        parse_poly(f9, "x**2")


def test_parse_poly_folds_huge_exponents(field):
    f5 = field(5, 1)
    e = 10**18
    # folded before any allocation; the list is never 10^18 long
    assert parse_poly(f5, f"1*x^{e}") == monomial(1 + (e - 1) % 4) == [0, 0, 0, 0, 1]
    assert parse_poly(f5, f"2*x^{e} + 3*x^4") == []  # both fold to x^4 and 2 + 3 = 0
    assert parse_poly(f5, f"3*x^{e + 1} + 1") == [1, 3]
    for text in ("1*x^" + "9" * 5000, "9" * 5000 + "*x", "9" * 5000):
        with pytest.raises(OutOfRangeError, match="digits"):
            parse_poly(f5, text)


def test_coords_roundtrip(field):
    f9 = field(3, 2)
    f = gmb_poly(f9, 2, 1)
    vec = coords(f9, f)
    assert len(vec) == 7
    assert from_coords(f9, vec) == f
    with pytest.raises(OutOfRangeError):
        coords(f9, [1, 1])  # nonzero constant term
    for bad in ([0, -1], [0, 9], [0, 1, 2.0]):
        with pytest.raises(OutOfRangeError):
            coords(f9, bad)


def test_poly_mul_reduces(field):
    f5 = field(5, 1)
    prod = poly_mul(f5, monomial(3), monomial(3))
    assert prod == [0, 0, 1]  # x^6 -> x^2
    assert poly_mul(f5, [], monomial(2)) == []
