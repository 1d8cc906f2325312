import hashlib
import random
from itertools import product
from math import factorial, gcd

import pytest

from ppshift import build_field, fp2
from ppshift.claims import DEFAULT_ROSTER, RunConfig
from ppshift.eigen import (
    apply_shift,
    degree_echelon,
    intersection_space,
    kernel_power,
    predicted_basis,
    rescale_kernel,
    shift_operator,
    span_of_polys,
    unit_kernel,
)
from ppshift.errors import (
    BadExponentError,
    BudgetExceededError,
    CapExceededError,
    DimensionMismatchError,
    NotADivisorError,
    NotAPermutationError,
    NotIrreducibleError,
    OutOfRangeError,
    PreconditionError,
)
from ppshift.fp2 import (
    build_pair,
    constructible_pairs,
    derive_params,
    family_b_values,
    family_poly,
    shape_pprs,
)
from ppshift.gf import roots_of_unity
from ppshift.poly import (
    compose,
    eval_table,
    linearized_coeffs,
    linearized_poly,
    monomial,
    normalize,
    poly_mul,
    poly_pow,
    reduce_poly,
    require_poly,
)
from ppshift.pp import (
    HERMITE_MAX_Q,
    _hermite_table,
    _prefixes,
    _scan,
    compositional_inverse,
    degree_distribution,
    enumerate_pprs,
    hermite_test,
    interpolate_table,
    inverse_table,
    is_compositional_inverse,
    is_permutation,
)
from test_poly import eval_at


def brute_is_pp(ctx, f):
    return len(set(eval_table(ctx, f))) == ctx.q


def horner_verdict(ctx, f):
    """(is_pp, is_ppr, witness) from Horner's rule point by point, the
    first repeated value giving the witness."""
    preimage = {}
    for x in range(ctx.q):
        y = eval_at(ctx, f, x)
        if y in preimage:
            return False, False, (preimage[y], x)
        preimage[y] = x
    return True, bool(f) and f[-1] == 1 and f[0] == 0, None


def _verdict_inputs(ctx, rng):
    q = ctx.q
    polys = [[], [1], [0, 1], monomial(q - 1)]
    polys += [monomial(e) for e in range(2, q + 3)]  # x^q and past: unreduced
    values = list(range(q))
    for _ in range(6):
        rng.shuffle(values)
        polys.append(interpolate_table(ctx, values))  # a permutation
    for _ in range(20):
        f = [rng.randrange(q) for _ in range(rng.randrange(1, 2 * q + 3))]
        f[-1] = 1 + rng.randrange(q - 1)
        polys.append(f)
        polys.append([0, *f[1:-1], 1])  # zero-fixing and monic
    return polys


@pytest.mark.parametrize("p,n", [(5, 2), (3, 3)])
def test_is_permutation_matches_a_horner_loop(field, zech_field, p, n):
    for ctx in (field(p, n), zech_field(p, n)):
        rng = random.Random(p * 10 + n)
        for f in _verdict_inputs(ctx, rng):
            v = is_permutation(ctx, f)
            assert (v.is_pp, v.is_ppr, v.witness) == horner_verdict(ctx, f), f
    f9 = field(3, 2)
    # x^10 = x^2 on F_9: the same collision, found at the same points
    assert is_permutation(f9, monomial(10)) == is_permutation(f9, monomial(2))
    assert is_permutation(f9, monomial(10)).witness == horner_verdict(f9, monomial(2))[2]


def test_is_permutation_examples(field):
    f5 = field(5, 1)
    v = is_permutation(f5, monomial(1))
    assert v.is_pp and v.is_ppr and v.witness is None
    v = is_permutation(f5, monomial(2))
    assert not v.is_pp and not v.is_ppr
    x1, x2 = v.witness
    assert x1 != x2 and f5.pow(x1, 2) == f5.pow(x2, 2)
    v = is_permutation(f5, monomial(3, 2))  # 2x^3 permutes but is not monic
    assert v.is_pp and not v.is_ppr


def test_hermite_examples(field):
    f5 = field(5, 1)
    assert hermite_test(f5, monomial(3)) is True
    assert hermite_test(f5, monomial(2)) is False
    for p, n in ((5, 1), (3, 2), (2, 3)):
        ctx = field(p, n)
        assert hermite_test(ctx, monomial(ctx.q - 1)) is False
    with pytest.raises(CapExceededError):
        hermite_test(field(3, 4), monomial(1))  # q = 81 > HERMITE_MAX_Q


def test_hermite_agreement_exhaustive_f5(field):
    f5 = field(5, 1)
    for vec in product(range(5), repeat=3):
        f = normalize([0, *vec])
        assert hermite_test(f5, f) == brute_is_pp(f5, f)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (13, 1)])
def test_hermite_agreement_sampled(field, p, n):
    ctx = field(p, n)
    rng = random.Random(42)
    for _ in range(400):
        f = normalize([0] + [rng.randrange(ctx.q) for _ in range(ctx.q - 2)])
        assert hermite_test(ctx, f) == brute_is_pp(ctx, f)


def slow_hermite_test(ctx, f):
    """Hermite's criterion by expanding the reduced powers f^t mod
    x^q - x one dense poly_mul at a time, O(q^3) per polynomial."""
    require_poly(ctx, f)
    q, p = ctx.q, ctx.p
    if q <= 2:
        raise OutOfRangeError("degree criterion needs q > 2")
    if q > HERMITE_MAX_Q:
        raise CapExceededError(f"q = {q} exceeds the cost cap {HERMITE_MAX_Q}")
    f = reduce_poly(ctx, f)
    power = [1]
    for t in range(1, q - 1):
        power = poly_mul(ctx, power, f)
        if t % p and len(power) - 1 > q - 2:
            return False
    power = poly_mul(ctx, power, f)
    return len(power) == q and power[-1] == 1


@pytest.mark.parametrize("p,n", [(3, 1), (2, 2), (5, 1)])
def test_hermite_matches_the_power_loop_on_every_reduced_polynomial(field, p, n):
    ctx = field(p, n)
    hits = 0
    for f in product(range(ctx.q), repeat=ctx.q):
        f = normalize(f)
        verdict = hermite_test(ctx, f)
        assert verdict == slow_hermite_test(ctx, f), f
        hits += verdict
    # every permutation of F_q has exactly one reduced polynomial
    assert hits == factorial(ctx.q)


def test_hermite_matches_the_power_loop_on_all_of_v_f7(field):
    f7 = field(7, 1)
    hits = 0
    for vec in product(range(7), repeat=5):
        f = normalize([0, *vec])
        verdict = hermite_test(f7, f)
        assert verdict == slow_hermite_test(f7, f), f
        hits += verdict
    # every permutation fixing 0 has degree <= q-2, so it lies in V[x]
    assert hits == factorial(6)


def _hermite_inputs(ctx, rng):
    """Zero, the nonzero constants, every x^e up to x^(q+2) (x^e for
    gcd(e, q-1) = 1 permutes), x^(q-1), one dense permutation and
    seeded random polynomials of degree up to 2q, past q."""
    q = ctx.q
    polys = [[], *([c] for c in range(1, q))]
    polys += [monomial(e, c) for e in range(1, q + 3) for c in (1, q - 1)]
    values = list(range(q))
    rng.shuffle(values)
    polys.append(interpolate_table(ctx, values))
    for _ in range(40):
        f = [rng.randrange(q) for _ in range(rng.randrange(1, 2 * q + 1))]
        polys.append(f)
        polys.append([0, *f[1:]])  # with the root x = 0
    return polys


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)])
def test_hermite_matches_the_power_loop_on_seeded_inputs(field, zech_field, p, n):
    ctx, twin = field(p, n), zech_field(p, n)
    polys = _hermite_inputs(ctx, random.Random(p * 100 + n))
    verdicts = []
    for f in polys:
        verdict = hermite_test(ctx, f)
        assert verdict == slow_hermite_test(ctx, f) == brute_is_pp(ctx, f), f
        assert _hermite_table(twin, eval_table(twin, f)) == verdict, f
        verdicts.append(verdict)
    permuting = [e for e in range(1, ctx.q - 1) if gcd(e, ctx.q - 1) == 1]
    assert all(hermite_test(ctx, monomial(e)) for e in permuting)
    assert True in verdicts and False in verdicts


def test_hermite_refuses_in_its_validation_order(field):
    f2, f81 = field(2, 1), field(3, 4)
    for test in (hermite_test, slow_hermite_test):
        with pytest.raises(OutOfRangeError, match="not an element index"):
            test(f81, [0, 99])  # the coefficient first, then the cap
        with pytest.raises(OutOfRangeError, match="not an element index"):
            test(f2, [0, 2])
        with pytest.raises(OutOfRangeError, match="needs q > 2"):
            test(f2, [0, 1])
        with pytest.raises(CapExceededError):
            test(f81, [0, 1])


def test_prefix_tables_follow_the_product_order(field):
    f5 = field(5, 1)
    rows = [eval_table(f5, monomial(j)) for j in range(1, 4)]
    tables = list(_prefixes(f5, [0] * 5, rows))
    assert tables == [eval_table(f5, [0, *vec]) for vec in product(range(5), repeat=3)]


def test_interpolate_table_is_exact(field):
    for p, n in ((5, 1), (3, 2), (2, 3)):
        ctx = field(p, n)
        rng = random.Random(3)
        for _ in range(30):
            values = [rng.randrange(ctx.q) for _ in range(ctx.q)]
            h = interpolate_table(ctx, values)
            assert eval_table(ctx, h) == values
            assert len(h) <= ctx.q


def slow_interpolate_table(ctx, values):
    """The O(q^2) power-sum double loop: S_j = sum over nonzero a of
    values[a] * a^j, one running power of a per point."""
    q = ctx.q
    s = [0] * (q - 1)
    for a in range(1, q):
        term = values[a]
        if term:
            for j in range(q - 1):
                s[j] = ctx.add(s[j], term)
                term = ctx.mul(term, a)
    out = [values[0]] + [ctx.neg(s[q - 1 - k]) for k in range(1, q - 1)]
    out.append(ctx.neg(ctx.add(s[0], values[0])))
    return normalize(out)


def oracle_tables(ctx, rng, sampled=False):
    """A random permutation and a random function; unless sampled, also
    the zero table, one nonzero point and a nonzero value at 0 only."""
    q = ctx.q
    perm = list(range(q))
    rng.shuffle(perm)
    yield perm
    yield [rng.randrange(q) for _ in range(q)]
    if sampled:
        return
    yield [0] * q
    single = [0] * q
    single[rng.randrange(1, q)] = 1 + rng.randrange(q - 1)
    yield single
    yield [1 + rng.randrange(q - 1)] + [0] * (q - 1)


# q - 1 = 1, 2, the roster, 80 = 2^4 5, 120 = 2^3 3 5, 124 = 2^2 31,
# 127 prime, 168 = 2^3 3 7 (a leaf stage of 7 under 24 sub-transforms),
# 288 = 2^5 3^2 and 342 = 2 3^2 19
@pytest.mark.parametrize(
    "p,n", [(2, 1), (3, 1), *DEFAULT_ROSTER, (3, 4), (11, 2), (5, 3), (2, 7), (13, 2),
            (17, 2), (7, 3)]
)
def test_interpolate_table_matches_power_sum_oracle(field, p, n):
    ctx = field(p, n)
    rng = random.Random(ctx.q)
    for values in oracle_tables(ctx, rng):
        assert interpolate_table(ctx, values) == slow_interpolate_table(ctx, values)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2), (11, 2)])
def test_interpolate_table_matches_oracle_without_flat_tables(zech_field, p, n):
    ctx = zech_field(p, n)
    rng = random.Random(ctx.q)
    for values in oracle_tables(ctx, rng):
        assert interpolate_table(ctx, values) == slow_interpolate_table(ctx, values)


@pytest.mark.parametrize("p,n", [(5, 4), (3, 6)])  # q > FLAT_TABLE_LIMIT
def test_interpolate_table_matches_oracle_on_zech_fields(field, p, n):
    ctx = field(p, n)
    assert ctx.add_table is None
    rng = random.Random(ctx.q)
    for values in oracle_tables(ctx, rng, sampled=True):
        assert interpolate_table(ctx, values) == slow_interpolate_table(ctx, values)


@pytest.mark.parametrize("p,n", [(2, 13), (65267, 1)])
def test_interpolate_table_refuses_fields_costlier_than_f65536(field, monkeypatch, p, n):
    # (q - 1) P leaf terms: 8191^2 = 6.7e7 on F_8192 and 65266 * 32633 =
    # 2.1e9 on F_65267, against 65535 * 257 = 1.7e7 on F_65536
    from ppshift import pp

    def never(*args):
        raise AssertionError("the transform ran")

    monkeypatch.setattr(pp, "_dft", never)
    ctx = field(p, n)
    with pytest.raises(CapExceededError, match=f"F_{ctx.q} costs"):
        interpolate_table(ctx, list(range(ctx.q)))
    with pytest.raises(CapExceededError):
        compositional_inverse(ctx, monomial(1))


@pytest.mark.parametrize("p,n", [(11, 2), (5, 3), (2, 7)])
def test_inverse_of_monomial_is_closed_form(field, p, n):
    # x^e permutes F_q iff gcd(e, q - 1) = 1, and x^e o x^e' = x^(e e')
    ctx = field(p, n)
    q1 = ctx.q - 1
    for e in range(1, q1):
        if gcd(e, q1) == 1:
            assert compositional_inverse(ctx, monomial(e)) == monomial(pow(e, -1, q1))


def test_inverse_of_monomial_on_a_zech_field(field):
    ctx = field(5, 4)
    for e in (5, 7, 11, 623):
        assert compositional_inverse(ctx, monomial(e)) == monomial(pow(e, -1, 624))


def test_inverse_examples(field):
    f5 = field(5, 1)
    assert compositional_inverse(f5, monomial(3)) == monomial(3)
    assert compositional_inverse(f5, monomial(1)) == monomial(1)
    with pytest.raises(NotAPermutationError):
        compositional_inverse(f5, monomial(2))


def test_compositional_inverse_skips_the_inverse_table_check(field, monkeypatch):
    # eval_table checks f, so its table is valid by construction
    from ppshift import pp

    ctx = field(7, 2)
    calls = []
    require_table = pp._require_table
    monkeypatch.setattr(pp, "_require_table", lambda *a: calls.append(a) or require_table(*a))
    f = monomial(5)  # gcd(5, 48) = 1: a permutation of F_49
    h = compositional_inverse(ctx, f)
    assert len(calls) == 1  # interpolate_table's, on the inverse
    assert h == monomial(29)  # 5 * 29 = 1 mod 48
    assert is_compositional_inverse(ctx, f, h)
    assert len(calls) == 1  # nor does is_compositional_inverse check its table
    with pytest.raises(NotAPermutationError):
        is_compositional_inverse(ctx, monomial(2), h)
    assert interpolate_table(ctx, inverse_table(ctx, eval_table(ctx, f))) == h
    assert len(calls) == 3  # the public entries keep their checks
    with pytest.raises(NotAPermutationError):
        compositional_inverse(ctx, monomial(2))
    with pytest.raises(OutOfRangeError):
        compositional_inverse(ctx, [0, 49])


def test_inverse_table(field):
    f5 = field(5, 1)
    assert inverse_table(f5, [0, 1, 3, 2, 4]) == [0, 1, 3, 2, 4]
    assert inverse_table(f5, [4, 0, 1, 2, 3]) == [1, 2, 3, 4, 0]
    assert eval_table(f5, monomial(2)) == [0, 1, 4, 4, 1]
    with pytest.raises(NotAPermutationError, match="^not a permutation: collides at 2 and 3$"):
        inverse_table(f5, [0, 1, 4, 4, 1])


@pytest.mark.parametrize("p", [3, 5])
def test_pointwise_inverse_check_rejects_near_misses(field, p):
    ctx = field(p, 2)
    q = ctx.q
    rng = random.Random(p)
    for m in range(2, p):
        for b in family_b_values(ctx):
            pairs = constructible_pairs(ctx, m, b)
            for alpha, beta in rng.sample(pairs, 3):
                f, h = build_pair(derive_params(ctx, m, b, alpha, beta))
                assert is_compositional_inverse(ctx, f, h)
                # one coefficient changed
                e = rng.randrange(len(h))
                wrong = list(h)
                wrong[e] = ctx.add(wrong[e], 1 + rng.randrange(q - 1))
                assert not is_compositional_inverse(ctx, f, normalize(wrong))
                # the same map, padded past degree q-1 with x^q - x
                padded = list(h) + [0] * (q + 1 - len(h))
                padded[1] = ctx.sub(padded[1], 1)
                padded[q] = 1
                assert eval_table(ctx, padded) == eval_table(ctx, h)
                assert not is_compositional_inverse(ctx, f, padded)
    with pytest.raises(NotAPermutationError):
        is_compositional_inverse(ctx, monomial(2), monomial(1))


@pytest.mark.parametrize("p,n", [(5, 1), (3, 2), (2, 3), (5, 2)])
def test_inverse_composes_to_identity(field, p, n):
    ctx = field(p, n)
    rng = random.Random(23)
    values = list(range(ctx.q))
    for _ in range(25):
        rng.shuffle(values)
        f = interpolate_table(ctx, values)  # a random permutation polynomial
        assert is_permutation(ctx, f).is_pp
        h = compositional_inverse(ctx, f)
        assert compose(ctx, h, f) == [0, 1]
        assert compose(ctx, f, h) == [0, 1]


def test_inverse_of_linearized_is_linearized(field):
    f9 = field(3, 2)
    rng = random.Random(31)
    seen = 0
    while seen < 20:
        d = [rng.randrange(9), rng.randrange(9)]
        f = linearized_poly(f9, d)
        if not f or not is_permutation(f9, f).is_pp:
            continue
        seen += 1
        h = compositional_inverse(f9, f)
        assert linearized_coeffs(f9, h) is not None


def test_enumerate_v1_counts(field):
    f9 = field(3, 2)
    report = enumerate_pprs(f9, intersection_space(f9, 1))
    assert report.ppr_count == 6
    assert report.searched == 81
    assert report.ppr_list is not None and len(report.ppr_list) == 6
    assert list(report.ppr_list) == sorted(report.ppr_list)
    f27 = field(3, 3)
    report = enumerate_pprs(f27, intersection_space(f27, 1))
    assert report.ppr_count == 432  # (27-3)(27-9)


def test_enumerate_v2_f9(field):
    f9 = field(3, 2)
    report = enumerate_pprs(f9, intersection_space(f9, 2))
    assert report.searched == 9**5  # dim V_2 = 2^2 + 1
    assert report.ppr_count == 54  # 6 linearized + 48 of degree 2p
    assert list(report.ppr_list) == sorted(report.ppr_list) and len(report.ppr_list) == 54


def test_enumerate_budget(field):
    f9 = field(3, 2)
    with pytest.raises(BudgetExceededError):
        enumerate_pprs(f9, intersection_space(f9, 2), budget=100)


def test_enumerate_takes_only_a_subspace(field):
    f25 = field(5, 2)
    with pytest.raises(OutOfRangeError, match="unsupported enumeration domain tuple"):
        enumerate_pprs(f25, (3, 1))
    with pytest.raises(OutOfRangeError, match="monomial coordinates"):
        enumerate_pprs(f25, intersection_space(field(3, 2), 1))


def test_enumerate_matches_brute_force(field):
    f9 = field(3, 2)
    space = kernel_power(f9, 1, 1)
    report = enumerate_pprs(f9, space)
    brute = 0
    for vec in product(range(9), repeat=space.dim):
        acc = [0] * 7
        for c, row in zip(vec, space.basis):
            acc = [f9.add(a, f9.mul(c, b)) for a, b in zip(acc, row)]
        f = normalize([0, *acc])
        if f and f[-1] == 1 and brute_is_pp(f9, f):
            brute += 1
    assert report.ppr_count == brute


# (searched, ppr_count, sha256 of repr(ppr_list) to 16 digits), recorded
# from the per-space scanners that the affine scan replaced
RECORDED_SCANS = {
    (2, 3, "V", 1): (512, 24, "abbaf267c9282eb3"),
    (2, 3, "V", 2): (262144, 720, "f10affcad92732ea"),
    (3, 2, "V", 1): (81, 6, "36c6f2ec9fe3fc6f"),
    (3, 2, "V", 2): (59049, 54, "35a1aaa3defd9d2b"),
    (3, 2, "ker", 1): (729, 18, "f6d49457e2456790"),
    (5, 2, "V", 1): (625, 20, "b25b7a87802045b7"),
    (3, 3, "V", 1): (19683, 432, "20c2fb3d98c5529c"),
    (7, 2, "V", 1): (2401, 42, "b5d470ef83590dee"),
}


def _space(ctx, kind, k):
    return intersection_space(ctx, k) if kind == "V" else kernel_power(ctx, 1, k)


def _recorded(report):
    digest = hashlib.sha256(repr(report.ppr_list).encode()).hexdigest()[:16]
    return report.searched, report.ppr_count, digest


@pytest.mark.parametrize("key", sorted(RECORDED_SCANS))
def test_enumerate_matches_recorded_scans(field, key):
    p, n, kind, k = key
    ctx = field(p, n)
    assert _recorded(enumerate_pprs(ctx, _space(ctx, kind, k))) == RECORDED_SCANS[key]


def test_enumerate_on_zech_arithmetic_matches_recorded_scan(zech_field):
    ctx = zech_field(3, 2)
    assert _recorded(enumerate_pprs(ctx, _space(ctx, "V", 2))) == RECORDED_SCANS[(3, 2, "V", 2)]


def _brute_monic_pprs(ctx, space):
    """Every member of the space, summed coordinate by coordinate, kept
    when it is monic and is_permutation accepts it."""
    found = []
    for vec in product(range(ctx.q), repeat=space.dim):
        acc = [0] * space.ambient
        for c, row in zip(vec, space.basis):
            acc = [ctx.add(a, ctx.mul(c, b)) for a, b in zip(acc, row)]
        f = normalize([0, *acc])
        if f and f[-1] == 1 and is_permutation(ctx, f).is_pp:
            found.append(tuple(f))
    return sorted(found)


@pytest.mark.parametrize(
    "p,n,kind,k", [(2, 3, "V", 1), (3, 2, "V", 1), (5, 2, "V", 1), (7, 2, "V", 1)]
)
def test_enumerate_matches_an_is_permutation_loop(field, p, n, kind, k):
    ctx = field(p, n)
    space = _space(ctx, kind, k)
    report = enumerate_pprs(ctx, space)
    assert report.searched == ctx.q**space.dim
    assert list(report.ppr_list) == _brute_monic_pprs(ctx, space)


def test_enumerate_a_subspace_without_x(field):
    f9 = field(3, 2)
    space = span_of_polys(f9, [monomial(2), monomial(3), monomial(5)])
    report = enumerate_pprs(f9, space)
    assert report.searched == 729
    assert list(report.ppr_list) == _brute_monic_pprs(f9, space)
    # x^3 and x^5 (gcd(e, 8) = 1), and no other monic member
    assert report.ppr_list == ((0, 0, 0, 0, 0, 1), (0, 0, 0, 1))


def test_enumerate_family_shape(field):
    f25 = field(5, 2)
    assert len(shape_pprs(f25, 3, 1, budget=625)) == 180  # 5 * 4 * 9


def _scanned_family(ctx, m, b):
    """The (alpha, beta), alpha outer and beta ascending, whose family
    member is_permutation accepts: the oracle for the shape scan."""
    return [(alpha, beta) for alpha in range(ctx.q) for beta in range(ctx.q)
            if is_permutation(ctx, family_poly(ctx, m, b, alpha, beta)).is_pp]


def _decoded(ctx, codes):
    """shape_pprs' alpha * q + beta codes as (alpha, beta) pairs."""
    return [divmod(code, ctx.q) for code in codes]


def _family_cases(ctx, ms, ends_only=False):
    bs = family_b_values(ctx)
    if ends_only:
        bs = [bs[0], bs[-1]]
    return [(m, b) for m in ms for b in bs]


@pytest.mark.parametrize("p,ms,ends_only", [(3, (2,), False), (5, (2, 3, 4), False), (7, (2, 5), True)])
def test_family_shape_scan_matches_is_permutation(field, p, ms, ends_only):
    ctx = field(p, 2)
    for m, b in _family_cases(ctx, ms, ends_only):
        codes = shape_pprs(ctx, m, b, budget=ctx.q**2)
        assert _decoded(ctx, codes) == _scanned_family(ctx, m, b), (m, b)


def test_family_shape_scan_without_flat_tables(field, zech_field):
    flat, zech = field(5, 2), zech_field(5, 2)
    for m, b in _family_cases(flat, (2, 3)):
        assert shape_pprs(zech, m, b) == shape_pprs(flat, m, b)
    for m, b in _family_cases(flat, (3,), ends_only=True):
        assert _decoded(zech, shape_pprs(zech, m, b)) == _scanned_family(flat, m, b)


def test_degree_distribution_f5_f3(field):
    census = degree_distribution(field(5, 1))
    assert census.counts == {1: 1, 2: 0, 3: 5}
    assert census.total == 6
    assert census.stage_violations == ()
    assert degree_distribution(field(3, 1)).counts == {1: 1}


def test_degree_distribution_f7(field):
    census = degree_distribution(field(7, 1))
    assert census.total == 120  # 7!/(7*6)
    assert census.counts[2] == 0 and census.counts[3] == 0  # degrees dividing q-1
    assert 6 not in census.counts
    assert census.stage_violations == ()


def test_degree_distribution_on_zech_arithmetic(field, zech_field):
    assert degree_distribution(zech_field(7, 1)) == degree_distribution(field(7, 1))


BAD_COEFFICIENTS = [[0, 1, 60], [0, -1, 1], [0, 1.0]]  # over F_49


@pytest.mark.parametrize("f", BAD_COEFFICIENTS)
def test_entry_points_refuse_non_element_coefficients(field, f):
    f49 = field(7, 2)
    calls = [
        lambda: is_permutation(f49, f),
        lambda: hermite_test(f49, f),
        lambda: compositional_inverse(f49, f),
        lambda: is_compositional_inverse(f49, f, [0, 1]),
        lambda: is_compositional_inverse(f49, [0, 1], f),
        lambda: eval_table(f49, f),
    ]
    for call in calls:
        with pytest.raises(OutOfRangeError, match="not an element index of F_49"):
            call()


# (call on the field factory F, the typed error, or None for a boundary
# value that must still be answered). Integers are ints with bools
# refused, and operands come from one field: every refusal is a
# PreconditionError (exit 2) or BudgetExceededError (exit 3), never a
# TypeError or IndexError traceback, nor an answer for an aliased input.
G9 = (2, 2, 1)  # F_9 under t^2 + 2t + 2, another encoding of F_9
ENTRY_POINT_INPUTS = {
    "inverse short": (lambda F: inverse_table(F(5), [0, 1]), DimensionMismatchError),
    "interpolate long": (lambda F: interpolate_table(F(5), [0, 1, 2, 3, 4, 0, 0]),
                         DimensionMismatchError),
    "inverse 9": (lambda F: inverse_table(F(5), [0, 1, 2, 3, 9]), OutOfRangeError),
    "interpolate 9": (lambda F: interpolate_table(F(5), [0, 1, 2, 3, 9]), OutOfRangeError),
    "inverse -1": (lambda F: inverse_table(F(5), [0, 1, 2, 3, -1]), OutOfRangeError),
    "poly_pow": (lambda F: poly_pow(F(5), [0, 9], 2), OutOfRangeError),
    "compose outer": (lambda F: compose(F(5), [0, 9], [0, 1]), OutOfRangeError),
    "compose inner": (lambda F: compose(F(5), [0, 1], [0, 9]), OutOfRangeError),
    "apply_shift": (lambda F: apply_shift(F(5), 1, [0, 9]), OutOfRangeError),
    # a bool once read as 1
    "kernel_power k True": (lambda F: kernel_power(F(3, 2), 1, True), OutOfRangeError),
    "poly_pow e True": (lambda F: poly_pow(F(3, 2), [0, 1, 1], True), OutOfRangeError),
    "shift_operator r True": (lambda F: shift_operator(F(3, 2), True), OutOfRangeError),
    "derive_params alpha True": (lambda F: derive_params(F(3, 2), 2, 1, True, 7),
                                 OutOfRangeError),
    "family_poly beta True": (lambda F: family_poly(F(3, 2), 2, 1, 3, True), OutOfRangeError),
    "intersection generator True": (lambda F: intersection_space(F(3, 2), 1, [True]),
                                    OutOfRangeError),
    "roots_of_unity d True": (lambda F: roots_of_unity(F(3, 2), True), NotADivisorError),
    "is_permutation coefficient True": (lambda F: is_permutation(F(3, 2), [0, True]),
                                        OutOfRangeError),
    "interpolate entry True": (lambda F: interpolate_table(F(3), [True, 0, 2]), OutOfRangeError),
    "RunConfig seed True": (lambda F: RunConfig(seed=True), OutOfRangeError),
    "shape_closure code True": (lambda F: fp2.shape_closure(F(5, 2), {(3, 1): [True]}),
                                OutOfRangeError),
    "linearized_poly d True": (lambda F: linearized_poly(F(3, 2), [True, 0]), OutOfRangeError),
    "linearized_coeffs f True": (lambda F: linearized_coeffs(F(3, 2), [0, True]),
                                 OutOfRangeError),
    # a float once ended in a TypeError, or was read silently
    "kernel_power k 1.5": (lambda F: kernel_power(F(3, 2), 1, 1.5), OutOfRangeError),
    "intersection k 2.0": (lambda F: intersection_space(F(3, 2), 2.0), OutOfRangeError),
    "theorem7 m 1.5": (lambda F: predicted_basis(F(3, 2), "theorem7", m=1.5), OutOfRangeError),
    "census m 2.0": (lambda F: fp2.census(F(3, 2), 2.0, 1), BadExponentError),
    "inverse_sweep m 2.0": (lambda F: fp2.inverse_sweep(F(3, 2), 2.0, 1), BadExponentError),
    "shape_closure m 3.0": (lambda F: fp2.shape_closure(F(5, 2), {(3.0, 1): []}), BadExponentError),
    "poly_pow e 2.5": (lambda F: poly_pow(F(3, 2), [0, 1, 1], 2.5), OutOfRangeError),
    "monomial e -1": (lambda F: monomial(-1), OutOfRangeError),
    "monomial e True": (lambda F: monomial(True), OutOfRangeError),
    "roots_of_unity d 2.0": (lambda F: roots_of_unity(F(3, 2), 2.0), NotADivisorError),
    "degree_distribution budget None": (lambda F: degree_distribution(F(5), budget=None),
                                        OutOfRangeError),
    "RunConfig budget 1.5": (lambda F: RunConfig(budget=1.5), OutOfRangeError),
    "override coefficient 1.5": (lambda F: build_field(3, 2, modulus_override=(1.5, 0, 1)),
                                 NotIrreducibleError),
    # an element index out of range once answered
    "linearized_poly d 9": (lambda F: linearized_poly(F(3, 2), [9, 0]), OutOfRangeError),
    # an argument the basis variant does not read once answered another question
    "lemma6 r 4": (lambda F: predicted_basis(F(3, 2), "lemma6", r=4), OutOfRangeError),
    "theorem11 m 1": (lambda F: predicted_basis(F(3, 2), "theorem11", m=1, r=4),
                      OutOfRangeError),
    "theorem7 r 1": (lambda F: predicted_basis(F(3, 2), "theorem7", m=1, r=1), OutOfRangeError),
    "corollary3 r 1": (lambda F: predicted_basis(F(5), "corollary3", m=1, r=1), OutOfRangeError),
    # an operand from another field once answered
    "rescale_kernel F_25 unit": (lambda F: rescale_kernel(F(3, 2), unit_kernel(F(5, 2), 1), 1),
                                 DimensionMismatchError),
    "rescale_kernel F_9 unit into F_27": (
        lambda F: rescale_kernel(F(3, 3), unit_kernel(F(3, 2), 1), 1), DimensionMismatchError),
    "enumerate G_9 kernel": (
        lambda F: enumerate_pprs(F(3, 2), kernel_power(build_field(3, 2, G9), 3, 1)),
        DimensionMismatchError),
    "degree_echelon G_9 kernel": (
        lambda F: degree_echelon(F(3, 2), kernel_power(build_field(3, 2, G9), 3, 1)),
        DimensionMismatchError),
    "hermite over the cap": (lambda F: hermite_test(F(3, 4), [0, 1]), CapExceededError),
    "negative budget": (lambda F: degree_distribution(F(5), budget=-1), BudgetExceededError),
    # boundary values that stay admitted
    "kernel_power k = p": (lambda F: kernel_power(F(3, 2), 1, 3), None),
    "intersection k = p": (lambda F: intersection_space(F(3, 2), 3), None),
    "theorem7 m = p": (lambda F: predicted_basis(F(3, 2), "theorem7", m=3), None),
    "census m = p - 1": (lambda F: fp2.census(F(5, 2), 4, 1), None),
    "poly_pow e = 0": (lambda F: poly_pow(F(5), [0, 1], 0), None),
    "monomial e = 0": (lambda F: monomial(0), None),
    "roots_of_unity d = q - 1": (lambda F: roots_of_unity(F(3, 2), 8), None),
    "shift_operator r = q - 1": (lambda F: shift_operator(F(3, 2), 8), None),
    "is_permutation element q - 1": (lambda F: is_permutation(F(3, 2), [0, 8]), None),
    "override coefficient p - 1": (lambda F: build_field(3, 2, modulus_override=G9), None),
}


@pytest.mark.parametrize("name", ENTRY_POINT_INPUTS)
def test_table_and_coefficient_entry_points_refuse_malformed_input(field, name):
    call, error = ENTRY_POINT_INPUTS[name]
    if error is None:
        assert call(field) is not None
        return
    with pytest.raises((PreconditionError, BudgetExceededError)) as refused:
        call(field)
    assert isinstance(refused.value, error)


def test_degree_distribution_preconditions(field):
    with pytest.raises(OutOfRangeError):
        degree_distribution(field(3, 2))
    # sum p^(d-1) over d = 1..p-2 candidates: 31 on F_5, 2.36e8 on F_11
    assert degree_distribution(field(5, 1), budget=31).total == 6
    with pytest.raises(BudgetExceededError, match="31 candidates exceed budget 30"):
        degree_distribution(field(5, 1), budget=30)
    for p in (11, 13):
        with pytest.raises(BudgetExceededError):
            degree_distribution(field(p, 1))


@pytest.mark.parametrize("p,zech", [(5, False), (7, False), (7, True)])
def test_scan_with_a_basis_that_outranks_the_offset(field, zech_field, p, zech):
    ctx = (zech_field if zech else field)(p)
    hits = list(_scan(ctx, [], [monomial(j) for j in range(p - 1)]))
    assert len(hits) == factorial(p)  # every permutation, in degree <= q-2
    assert {len(f) for f in hits} == {p - 1}  # padded to the longest basis polynomial
    if p == 5:
        loop = [normalize(v) for v in product(range(5), repeat=4)]
        assert [normalize(f) for f in hits] == [f for f in loop if is_permutation(ctx, f).is_pp]


def test_orbit_identity_f5(field):
    f5 = field(5, 1)
    count = sum(
        brute_is_pp(f5, normalize(list(vec))) for vec in product(range(5), repeat=4)
    )
    assert count == 120 == 5 * 4 * degree_distribution(f5).total
