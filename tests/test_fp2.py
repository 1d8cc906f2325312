import functools
import math
from array import array
from collections import Counter

import pytest

from ppshift import build_field, fp2, gf, poly, pp
from ppshift.errors import (
    BadExponentError,
    BudgetExceededError,
    DegenerateParametersError,
    NotConstructibleError,
    NotRootOfUnityError,
    OutOfRangeError,
)
from ppshift.fp2 import (
    build_pair,
    census,
    check_conditions,
    constructible_pairs,
    derive_params,
    family_b_values,
    family_poly,
    lemma_suite,
    shape_pprs,
)
from ppshift.poly import (
    compose,
    eval_table,
    gmb_poly,
    hmd_d,
    hmd_poly,
    monomial,
    neg_one_pow,
    normalize,
    poly_pow,
    poly_scale,
)
from ppshift.pp import compositional_inverse, is_permutation


def test_family_b_values(field):
    f9 = field(3, 2)
    assert family_b_values(f9) == [1, 2, 3, 6]
    with pytest.raises(OutOfRangeError):
        family_b_values(field(5, 1))


@pytest.mark.parametrize("make", ["field", "zech_field"])
def test_family_poly_and_shape_pprs_refuse_bad_input(request, make):
    f25 = request.getfixturevalue(make)(5, 2)
    for alpha, beta in ((99, 0), (-1, 0), (0, 99), (0, -1)):
        with pytest.raises(OutOfRangeError):
            family_poly(f25, 3, 1, alpha, beta)
    with pytest.raises(OutOfRangeError):
        shape_pprs(request.getfixturevalue(make)(3, 3), 2, 1)


def test_derive_params_worked_instance(field):
    f9 = field(3, 2)
    # m=2, b=1, alpha=t, beta=1+2t
    inst = derive_params(f9, 2, 1, 3, 7)
    assert inst.d == 1
    assert inst.gamma == 6  # 2t
    assert inst.epsilon == 4  # 1+t
    assert inst.delta == 2  # -1


def test_derive_params_trivial_instance(field):
    f9 = field(3, 2)
    inst = derive_params(f9, 2, 1, 0, 1)
    assert (inst.gamma, inst.epsilon, inst.d) == (0, 1, 1)
    assert inst.delta == f9.neg(1)


def test_derive_params_identities(field):
    f9 = field(3, 2)
    for alpha in range(9):
        for beta in range(9):
            if f9.pow(alpha, 4) == f9.pow(beta, 4):
                continue
            inst = derive_params(f9, 2, 1, alpha, beta)
            lhs = f9.add(f9.mul(inst.gamma, f9.pow(beta, 3)), f9.mul(alpha, inst.epsilon))
            rhs = f9.add(f9.mul(inst.gamma, f9.pow(alpha, 3)), f9.mul(beta, inst.epsilon))
            assert lhs == 0 and rhs == 1
            assert f9.add(f9.mul(alpha, f9.pow(inst.epsilon, 3)), f9.mul(beta, inst.gamma)) == 0


def test_derive_params_preconditions(field):
    f9 = field(3, 2)
    with pytest.raises(DegenerateParametersError):
        derive_params(f9, 2, 1, 1, 1)
    with pytest.raises(BadExponentError):
        derive_params(f9, 1, 1, 3, 7)
    with pytest.raises(NotRootOfUnityError):
        derive_params(f9, 2, 4, 3, 7)
    with pytest.raises(OutOfRangeError):
        derive_params(field(5, 1), 2, 1, 1, 2)


def test_check_conditions_examples(field):
    f9 = field(3, 2)
    v = check_conditions(f9, 2, 1, 3, 7)
    assert v.cond1 and v.cond2 and v.constructible
    v = check_conditions(f9, 2, 1, 1, 1)
    assert not v.cond1
    # beta + b*alpha = 0 forces the second condition false
    v = check_conditions(f9, 2, 1, 1, f9.neg(1))
    assert not v.cond2


def test_conditioned_count_f25(field):
    f25 = field(5, 2)
    b = family_b_values(f25)[0]
    assert len(constructible_pairs(f25, 2, b)) == 80  # p(p-1)^2


def scanned_pairs(ctx, m, b):
    """The q^2 scan of check_conditions that the closed form replaces."""
    return [
        (alpha, beta)
        for alpha in range(ctx.q)
        for beta in range(ctx.q)
        if (alpha or beta) and check_conditions(ctx, m, b, alpha, beta).constructible
    ]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_constructible_pairs_closed_form_matches_scan(field, p):
    ctx = field(p, 2)
    for m in range(2, p):
        for b in family_b_values(ctx):
            assert constructible_pairs(ctx, m, b) == scanned_pairs(ctx, m, b), (m, b)


def test_constructible_pairs_closed_form_matches_scan_f121(field):
    ctx = field(11, 2)
    bs = family_b_values(ctx)
    for m in (2, 6):
        for b in (bs[0], bs[-1]):
            pairs = constructible_pairs(ctx, m, b)
            assert len(pairs) == 11 * 10**2
            assert pairs == scanned_pairs(ctx, m, b), (m, b)


def test_build_pair_frozen_f9(field):
    f9 = field(3, 2)
    inst = derive_params(f9, 2, 1, 3, 7)
    f, h = build_pair(inst)
    assert f == [0, 7, 1, 3, 1, 0, 1]  # (x^3-x)^2 + t x^3 + (1+2t) x
    assert h == [0, 4, 2, 6, 2, 0, 2]  # 2(x^3-x)^2 + 2t x^3 + (1+t) x
    assert is_permutation(f9, f).is_ppr
    assert compose(f9, h, f) == [0, 1]
    assert compose(f9, f, h) == [0, 1]
    assert h == compositional_inverse(f9, f)


def test_build_pair_rejects_unconstructible(field):
    f9 = field(3, 2)
    inst = derive_params(f9, 2, 1, 0, 4)  # cond2 fails: (1+t)^2 = 2t != 1
    assert not check_conditions(f9, 2, 1, 0, 4).cond2
    with pytest.raises(NotConstructibleError):
        build_pair(inst)


@pytest.mark.parametrize("p", [3, 5])
def test_family_sweep_inverse_exact(field, p):
    ctx = field(p, 2)
    for m in range(2, p):
        for b in family_b_values(ctx):
            for alpha, beta in constructible_pairs(ctx, m, b):
                inst = derive_params(ctx, m, b, alpha, beta)
                f, h = build_pair(inst)
                assert f[-1] == 1 and f[0] == 0 and len(f) - 1 == m * p
                assert h == compositional_inverse(ctx, f)


def test_census_counts(field):
    f9 = field(3, 2)
    for b in family_b_values(f9):
        rep = census(f9, 2, b, "full")
        assert rep.conditioned == 12 and rep.full == 12 and rep.excess == 0
    f25 = field(5, 2)
    rep = census(f25, 3, 1, "full")
    assert rep.conditioned == 80
    assert rep.full == 180  # p(p-1)(2p-1)
    assert rep.excess == 100  # p^2(p-1)
    rep = census(f25, 2, 1, "conditioned")
    assert rep.full is None and rep.excess is None and rep.conditioned == 80


@pytest.mark.parametrize("make", ["field", "zech_field"])
def test_shape_pprs_match_the_listed_enumeration(request, make):
    ctx = request.getfixturevalue(make)(5, 2)
    q = ctx.q
    for m in (2, 3, 4):
        for b in family_b_values(ctx):
            codes = shape_pprs(ctx, m, b)
            listed = [(alpha, beta) for alpha in range(q) for beta in range(q)
                      if is_permutation(ctx, family_poly(ctx, m, b, alpha, beta)).is_pp]
            assert [divmod(c, q) for c in codes] == listed
            assert census(ctx, m, b, "full").full == len(codes)
    with pytest.raises(BudgetExceededError):
        shape_pprs(ctx, 3, 1, budget=q * q - 1)
    assert len(shape_pprs(ctx, 3, 1, budget=q * q)) == 180


def _scanned_shape(ctx, m, b):
    """The q^2 route shape_pprs replaces: one pp._scan of every (alpha,
    beta), each hit coded alpha * q + beta."""
    p, q = ctx.p, ctx.q
    hits = pp._scan(ctx, gmb_poly(ctx, m, b), [monomial(p), monomial(1)])
    return array("I", (f[p] * q + f[1] for f in hits))


def _scaling_group(ctx, m):
    """H_m = {lambda^(1-m) : lambda in F_p^*}; F_p sits in F_q as 0 .. p-1."""
    return sorted({ctx.pow(lam, (1 - m) % (ctx.p - 1)) for lam in range(1, ctx.p)})


@pytest.mark.parametrize("make,p", [("field", 3), ("field", 5), ("field", 7),
                                    ("zech_field", 5), ("zech_field", 7)])
def test_shape_pprs_match_the_full_scan(request, make, p):
    ctx = request.getfixturevalue(make)(p, 2)
    for m in range(2, p):
        for b in family_b_values(ctx):
            assert shape_pprs(ctx, m, b) == _scanned_shape(ctx, m, b), (m, b)


def test_shape_pprs_match_the_full_scan_f121(field):
    ctx = field(11, 2)
    bs = family_b_values(ctx)
    for m in (2, 6):  # h = p - 1 and h = 2
        for b in (bs[0], bs[-1]):
            assert shape_pprs(ctx, m, b) == _scanned_shape(ctx, m, b), (m, b)


def test_shape_pprs_match_the_full_scan_f121_without_flat_tables(zech_field):
    ctx = zech_field(11, 2)
    bs = family_b_values(ctx)
    for m in (2, 6):
        for b in (bs[0], bs[-1]):
            assert shape_pprs(ctx, m, b) == _scanned_shape(ctx, m, b), (m, b)


def test_shape_pprs_match_the_full_scan_f169_at_half(field):
    # m = 7 = (p + 1)/2, the exponent with the largest count
    ctx = field(13, 2)
    b = family_b_values(ctx)[-1]
    codes = shape_pprs(ctx, 7, b)
    assert len(codes) == 12012
    assert codes == _scanned_shape(ctx, 7, b)


def _shape_count(p, m):
    """The count of shape PPRs of one (m, b) over F_{p^2} by the three-row
    table, which holds for every m at p <= 17 and at p = 23 only: the
    third row at m = (p+1)/2, whatever gcd(m, p - 1), then the coprime
    and the conditioned counts."""
    if 2 * m == p + 1:
        return p * (p - 1) * (p - 2) * (p + 1) // 2
    if math.gcd(m, p - 1) == 1:
        return p * (p - 1) * (2 * p - 1)
    return p * (p - 1) ** 2


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_shape_counts_follow_the_three_row_table(field, p):
    ctx = field(p, 2)
    bs = family_b_values(ctx)
    if p == 13:
        bs = [bs[0], bs[-1]]
    for m in range(2, p):
        for b in bs:
            assert len(shape_pprs(ctx, m, b)) == _shape_count(p, m), (m, b)


def _scaled(ctx, codes, mu):
    """The codes of mu (alpha, beta) for each alpha * q + beta in codes."""
    q = ctx.q
    return {ctx.mul(mu, c // q) * q + ctx.mul(mu, c % q) for c in codes}


def test_shape_pprs_closed_under_scaling(field):
    # scaling is injective, so the images equal the set iff each lies in it
    ctx = field(7, 2)
    for m in range(2, ctx.p):
        group = _scaling_group(ctx, m)
        assert len(group) == (ctx.p - 1) // math.gcd(m - 1, ctx.p - 1)
        for b in family_b_values(ctx):
            codes = shape_pprs(ctx, m, b)
            for mu in group:
                assert _scaled(ctx, codes, mu) == set(codes), (m, b, mu)
    # the closure is H_m's, not all of F_p^*'s: at m = 4, H_m = {1, -1}
    codes = shape_pprs(ctx, 4, 1)
    assert _scaled(ctx, codes, 2) != set(codes)


def _binomials(p, m):
    """C_m = {c in F_p : x^m + cx permutes F_p}, by brute force."""
    return [c for c in range(p) if len({(lam**m + c * lam) % p for lam in range(p)}) == p]


def test_shape_pprs_planted_dropped_binomial(monkeypatch):
    # shape_pprs reads each code in the frame r = g^(log b / (p-1)), which
    # spans the kernel of x^p - bx, and t = r g: u = M(r), c = (M(t)/u) // p
    # for M = alpha x^p + beta x and s = (L(t)^m/u) // p. A code is a PPR iff
    # c != 0 when s = 0 and c in s C_m otherwise, and dropping c0 from C_m
    # must lose the p codes of each fiber with s != 0 and c = s c0, no others
    ctx = build_field(7, 2)
    p, q = ctx.p, ctx.q
    m, b = 4, family_b_values(ctx)[1]
    binomials = _binomials(p, m)
    assert binomials == [3, 4]  # no c = 0: x^4 does not permute F_7
    r = ctx.exp_table[ctx.log_table[b] // (p - 1)]
    t = ctx.mul(r, ctx.primitive)
    g = ctx.pow(ctx.sub(ctx.frobenius(t), ctx.mul(b, t)), m)
    assert ctx.frobenius(r) == ctx.mul(b, r) and g

    def fiber(code):
        alpha, beta = divmod(code, q)
        u = ctx.add(ctx.mul(alpha, ctx.frobenius(r)), ctx.mul(beta, r))
        w = ctx.add(ctx.mul(alpha, ctx.frobenius(t)), ctx.mul(beta, t))
        return u, ctx.div(g, u) // p, ctx.div(w, u) // p

    def allowed(s):
        return {s * c % p for c in binomials} if s else set(range(1, p))

    want = shape_pprs(ctx, m, b)
    sizes = Counter(map(fiber, want))
    fibers = {(u, s, c) for u in range(1, q) for s in [ctx.div(g, u) // p] for c in allowed(s)}
    assert set(sizes) == fibers and set(sizes.values()) == {p}
    assert sum(s == 0 for _, s, _ in fibers) == (p - 1) ** 2
    c0 = binomials[0]
    dropped = [(lam**m + c0 * lam) % p for lam in range(p)]
    invert = pp._invert
    monkeypatch.setattr(pp, "_invert", lambda table: (None, (0, 1)) if list(table) == dropped
                        else invert(table))
    got = shape_pprs(ctx, m, b)
    assert set(got) <= set(want)
    lost = [code for code in want if fiber(code)[1] and fiber(code)[2] == fiber(code)[1] * c0 % p]
    assert sorted(set(want) - set(got)) == lost
    assert len(lost) == p * p * (p - 1)  # one s c0 for each u off G F_p^*


@pytest.mark.parametrize("p,m,count", [(19, 5, 12654), (19, 7, 32148), (19, 13, 32148),
                                       (29, 8, 116928)])
def test_shape_counts_follow_the_binomial_law(field, p, m, count):
    # p(p - 1)(p - 1 + p N_m), N_m = |C_m|; the three-row table of
    # _shape_count holds at (19, 5) and fails at the other three
    ctx = field(p, 2)
    assert p * (p - 1) * (p - 1 + p * len(_binomials(p, m))) == count
    assert (count == _shape_count(p, m)) == (m == 5)
    b = family_b_values(ctx)[-1]
    codes = shape_pprs(ctx, m, b)
    assert len(codes) == count
    if (p, m) == (19, 7):
        assert codes == _scanned_shape(ctx, m, b)


def _unconditioned_codes(ctx, m, b, count=None):
    """The first count codes (all when None) of shape PPRs of (m, b) off
    the conditions."""
    return [code for code in shape_pprs(ctx, m, b)
            if not check_conditions(ctx, m, b, *divmod(code, ctx.q)).constructible][:count]


# -- the q-point table walks of the family, kept as the oracle of the
# fibre-by-fibre routes of fp2.inverse_sweep and fp2.shape_closure --


def _members(ctx, table, codes):
    """(alpha, beta, the table of P + alpha x^p + beta x) for each code
    alpha * q + beta in codes, given P's table."""
    row_alpha = row = None
    for code in codes:
        alpha, beta = divmod(code, ctx.q)
        if alpha != row_alpha:
            row_alpha, row = alpha, ctx.axpy(table, alpha, ctx.frob_table)
        yield alpha, beta, ctx.axpy(row, beta, range(ctx.q))


def _member(ctx, c, table, alpha, beta):
    """The table of c P + alpha x^p + beta x, given P's table."""
    scaled = ctx.axpy([0] * ctx.q, c, table)
    return ctx.axpy(ctx.axpy(scaled, alpha, ctx.frob_table), beta, range(ctx.q))


def _power_tables(ctx):
    """(m, b) -> the table of (x^p - bx)^m, each evaluated once."""
    return functools.cache(lambda m, b: eval_table(ctx, gmb_poly(ctx, m, b)))


def _interpolant_coeffs(ctx, values, degrees):
    """The coefficients of pp.interpolate_table(ctx, values) at the given
    degrees 1 <= k <= q-2, each from its one power sum: c_k = -S_(q-1-k)
    with S_j = sum_i values[g^i] g^(ij)."""
    q1 = ctx.q - 1
    exp, log = ctx.exp_table, ctx.log_table
    terms = [(log[values[x]], i) for i, x in enumerate(exp) if values[x]]
    coeffs = [0] * len(degrees)
    for t, k in enumerate(degrees):
        ctx.axpy_at(coeffs, ctx.neg(1), [(t, exp[(e + i * (q1 - k)) % q1]) for e, i in terms])
    return coeffs


def _inverse_table_keeps_shape(ctx, m_inv, inverse, power_table):
    """Whether the inverse table is that of c (x^p - b'x)^m' + alpha'
    x^p + beta' x with c != 0, b'^(p+1) = 1 and m' = m_inv: four
    coefficients of its interpolant fix the candidate (c at m'p, -m' c b'
    at m'p - (p-1), alpha' and beta' at p and 1), and the candidate,
    reduced, is the interpolant iff its table is the inverse table."""
    p = ctx.p
    lead, low, alpha, beta = _interpolant_coeffs(
        ctx, inverse, (m_inv * p, m_inv * p - (p - 1), p, 1))
    b = ctx.div(ctx.neg(low), ctx.mul(lead, m_inv)) if lead else 0  # 0: no candidate
    return (b != 0 and ctx.pow(b, p + 1) == 1
            and _member(ctx, lead, power_table(m_inv, b), alpha, beta) == inverse)


def table_shape_closure(ctx, shapes):
    """fp2.shape_closure by q-point tables: the (m, b, alpha, beta) of
    each PPR whose inverse table leaves the shape with exponent m^-1."""
    power_table = _power_tables(ctx)
    bad = []
    for (m, b), codes in shapes.items():
        m_inv = pow(m, -1, ctx.p - 1)
        for alpha, beta, f in _members(ctx, power_table(m, b), codes):
            if not _inverse_table_keeps_shape(ctx, m_inv, pp._inverse(f), power_table):
                bad.append((m, b, alpha, beta))
    return bad


def table_inverse_sweep(ctx, m, b):
    """fp2.inverse_sweep by q-point tables: h is accepted when h(f(x)) = x
    at every x, and f's bijectivity is read only on a mismatch."""
    p, q = ctx.p, ctx.q
    pairs = array("I", [alpha * q + beta for alpha, beta in constructible_pairs(ctx, m, b)])
    g = gmb_poly(ctx, m, b)
    monic = len(g) > p + 1 and g[-1] == 1 and g[0] == 0
    d = hmd_d(ctx, m, b)
    h_table = eval_table(ctx, gmb_poly(ctx, m, d))
    failures, inverses = [], array("I")
    for alpha, beta, f in _members(ctx, eval_table(ctx, g), pairs):
        inst = derive_params(ctx, m, b, alpha, beta)
        h = _member(ctx, inst.delta, h_table, inst.gamma, inst.epsilon)
        if not monic:
            failures.append(("not a PPR", alpha, beta))
        elif [h[y] for y in f] != list(range(q)):
            bijective = pp._invert(f)[0] is not None
            failures.append(("inverse mismatch" if bijective else "not a PPR", alpha, beta))
        inverses.append(ctx.div(inst.gamma, inst.delta) * q + ctx.div(inst.epsilon, inst.delta)
                        if inst.delta else q * q)
    return fp2.InverseSweep(pairs, failures, inverses)


def _coprime_shapes(ctx, bs=None):
    """{(m, b): unconditioned shape PPR codes} for every m coprime to
    p - 1 and every b (or the b of bs)."""
    return {(m, b): _unconditioned_codes(ctx, m, b) for m in range(2, ctx.p)
            if math.gcd(m, ctx.p - 1) == 1 for b in (bs or family_b_values(ctx))}


@pytest.mark.parametrize("make,p", [("field", 5), ("field", 7), ("zech_field", 5)])
def test_inverse_sweep_matches_the_table_walk(request, make, p):
    ctx = request.getfixturevalue(make)(p, 2)
    for m in range(2, p):
        for b in family_b_values(ctx):
            assert fp2.inverse_sweep(ctx, m, b) == table_inverse_sweep(ctx, m, b), (m, b)


def test_inverse_sweep_matches_the_table_walk_f121(field):
    ctx = field(11, 2)
    m, b = 7, family_b_values(ctx)[5]
    sweep = fp2.inverse_sweep(ctx, m, b)
    assert sweep == table_inverse_sweep(ctx, m, b)
    assert len(sweep.pairs) == 1100 and not sweep.failures


@pytest.mark.parametrize("make,p", [("field", 5), ("field", 7), ("zech_field", 5)])
def test_shape_closure_matches_the_table_walk(request, make, p):
    ctx = request.getfixturevalue(make)(p, 2)
    shapes = _coprime_shapes(ctx)
    assert sum(map(len, shapes.values())) == {5: 600, 7: 2352}[p]
    assert fp2.shape_closure(ctx, shapes) == table_shape_closure(ctx, shapes) == []


def test_shape_closure_matches_the_table_walk_f121(field):
    # one b, every m coprime to 10: 3, 7 and 9, 3630 PPRs
    ctx = field(11, 2)
    shapes = _coprime_shapes(ctx, family_b_values(ctx)[7:8])
    assert sum(map(len, shapes.values())) == 3630
    assert fp2.shape_closure(ctx, shapes) == table_shape_closure(ctx, shapes) == []


def test_shape_closure_inverts_one_binomial_per_label(field, monkeypatch):
    # F_121, m = 3 and 7 over every b: the p residue tables of x^m + cx
    # are inverted once per m, and no q-point table is built or inverted
    ctx = field(11, 2)
    shapes = {(m, b): _unconditioned_codes(ctx, m, b, 30)
              for m in (3, 7) for b in family_b_values(ctx)}
    calls = Counter()
    invert = pp._invert

    def counted(table):
        calls[len(table), tuple(table)] += 1
        return invert(table)

    def refuse(*args):
        raise AssertionError("a q-point table was built or inverted")

    monkeypatch.setattr(pp, "_invert", counted)
    for module, name in ((pp, "_inverse"), (pp, "eval_table"), (poly, "eval_table"),
                         (gf.FieldContext, "axpy")):
        monkeypatch.setattr(module, name, refuse)
    assert fp2.shape_closure(ctx, shapes) == []
    residue = {tuple((lam**m + c * lam) % 11 for lam in range(11)) for m in (3, 7) for c in range(11)}
    assert set(calls) == {(11, table) for table in residue} and set(calls.values()) == {1}


def test_inverse_sweep_builds_no_table_per_instance(field, monkeypatch):
    # F_49: each instance is read at its frame constants; the q-point
    # route is only the fallback, and it is not taken
    ctx = field(7, 2)
    want = {(m, b): table_inverse_sweep(ctx, m, b) for m in (2, 5) for b in family_b_values(ctx)}

    def refuse(*args):
        raise AssertionError("a q-point table was built")

    for module, name in ((pp, "is_compositional_inverse"), (pp, "eval_table"),
                         (poly, "eval_table"), (gf.FieldContext, "axpy")):
        monkeypatch.setattr(module, name, refuse)
    assert {mb: fp2.inverse_sweep(ctx, *mb) for mb in want} == want


def _plant_epsilon(monkeypatch, ctx, at):
    """fp2._derive with epsilon + 1 at the instance at = (m, b, alpha, beta)."""
    m0, b0, alpha0, beta0 = at
    key, derive = (m0, hmd_d(ctx, m0, b0), alpha0, beta0), fp2._derive

    def planted(ctx, m, d, alpha, beta):
        gamma, epsilon, delta = derive(ctx, m, d, alpha, beta)
        return gamma, ctx.add(epsilon, 1) if (m, d, alpha, beta) == key else epsilon, delta

    monkeypatch.setattr(fp2, "_derive", planted)


@pytest.mark.parametrize("make", ["field", "zech_field"])
def test_inverse_sweep_names_a_planted_epsilon(request, monkeypatch, make):
    ctx = request.getfixturevalue(make)(7, 2)
    m, b = 4, family_b_values(ctx)[3]
    assert b != 1
    alpha, beta = constructible_pairs(ctx, m, b)[40]
    _plant_epsilon(monkeypatch, ctx, (m, b, alpha, beta))
    sweep = fp2.inverse_sweep(ctx, m, b)
    assert sweep.failures == [("inverse mismatch", alpha, beta)]
    assert sweep == table_inverse_sweep(ctx, m, b)


@pytest.mark.parametrize("make", ["field", "zech_field"])
def test_inverse_sweep_falls_back_off_the_kernel_guard(request, monkeypatch, make):
    # a frame whose r is not in the kernel of x^p - bx fails u^(p-1) = d
    # at every instance, so pp.is_compositional_inverse decides each one,
    # with the same verdicts, planted epsilon or not
    ctx = request.getfixturevalue(make)(5, 2)
    m, b = 3, family_b_values(ctx)[2]
    alpha, beta = constructible_pairs(ctx, m, b)[11]
    calls = Counter()
    check, derive, frame = pp.is_compositional_inverse, fp2._derive, fp2._frame

    def counted(*args):
        calls["q-point"] += 1
        return check(*args)

    monkeypatch.setattr(pp, "is_compositional_inverse", counted)
    want = fp2.inverse_sweep(ctx, m, b)
    assert not want.failures and not calls
    _plant_epsilon(monkeypatch, ctx, (m, b, alpha, beta))
    planted = fp2.inverse_sweep(ctx, m, b)
    assert planted.failures == [("inverse mismatch", alpha, beta)]
    assert calls["q-point"] == 1  # the mismatch alone
    def off_kernel(ctx, m, b):
        r, t, g = frame(ctx, m, b)
        return ctx.mul(r, ctx.primitive), ctx.mul(t, ctx.primitive), g

    monkeypatch.setattr(fp2, "_frame", off_kernel)
    assert fp2.inverse_sweep(ctx, m, b) == planted
    assert calls["q-point"] == 1 + len(want.pairs) == 81
    monkeypatch.setattr(fp2, "_derive", derive)
    assert fp2.inverse_sweep(ctx, m, b) == want
    assert calls["q-point"] == 161


def _label(ctx, b, m, code):
    """kappa = c/s mod p of a code with s != 0, read in the frame r =
    g^(log b / (p-1)), t = r g: u = M(r), s = (L(t)^m/u) // p and
    c = (M(t)/u) // p."""
    p = ctx.p
    alpha, beta = divmod(code, ctx.q)
    r = ctx.exp_table[ctx.log_table[b] // (p - 1)]
    t = ctx.mul(r, ctx.primitive)
    u = ctx.add(ctx.mul(alpha, ctx.frobenius(r)), ctx.mul(beta, r))
    w = ctx.add(ctx.mul(alpha, ctx.frobenius(t)), ctx.mul(beta, t))
    s = ctx.div(ctx.pow(ctx.sub(ctx.frobenius(t), ctx.mul(b, t)), m), u) // p
    return ctx.div(w, u) // p * pow(s, -1, p) % p


def test_shape_closure_planted_binomial_verdict_flips_its_fibre(field, monkeypatch):
    # F_169, m = 7: C_7 = {0, 2, 6, 7, 11}, and every inverse keeps the
    # shape; a wrong verdict for x^7 + 6x must refute exactly the codes
    # labelled 6, and nothing else
    ctx = field(13, 2)
    m, b = 7, family_b_values(ctx)[4]
    codes = _unconditioned_codes(ctx, m, b)
    labels = Counter(_label(ctx, b, m, code) for code in codes)
    assert sorted(labels) == list(fp2._binomial_inverses(13, m)) == [0, 2, 6, 7, 11]
    assert fp2.shape_closure(ctx, {(m, b): codes}) == []
    planted = fp2._binomial_inverses(13, m)[6]
    verdict = fp2._is_binomial
    monkeypatch.setattr(fp2, "_is_binomial", lambda p, k, inverse: (
        not verdict(p, k, inverse)) if list(inverse) == planted else verdict(p, k, inverse))
    bad = fp2.shape_closure(ctx, {(m, b): codes})
    assert bad == [("inverse leaves the shape", m, b, *divmod(code, ctx.q))
                   for code in codes if _label(ctx, b, m, code) == 6]
    assert len(bad) == labels[6] == 13 * 12 * 13  # p(p - 1) units u off G F_p^*, p codes each


def test_shape_closure_tags_a_conditioned_code_and_refuses_a_non_ppr(field):
    ctx = field(5, 2)
    m, b = 3, family_b_values(ctx)[1]
    alpha, beta = constructible_pairs(ctx, m, b)[0]
    assert fp2.shape_closure(ctx, {(m, b): [alpha * 25 + beta]}) == [
        ("s = 0, a conditioned PPR", m, b, alpha, beta)]
    ppr = set(shape_pprs(ctx, m, b))
    for code in [0, *[code for code in range(625) if code not in ppr][1::150]]:
        with pytest.raises(pp.NotAPermutationError):
            fp2.shape_closure(ctx, {(m, b): [code]})


def _interpolant_degrees(p, table):
    """The degrees of the nonzero coefficients of the reduced interpolant
    over F_p of table, which fixes 0, by brute-force power sums."""
    return [j for j in range(1, p) if sum(table[z] * pow(z, p - 1 - j, p) for z in range(1, p)) % p]


def test_binomial_inverses_follow_the_index_rule():
    # every p < 50: for c != 0 the F_p inverse of a permutation x^m + cx
    # is a binomial iff its index l = (p - 1)/gcd(m - 1, p - 1) is 2, that
    # is m = (p + 1)/2; the first binomial with c != 0 and l > 2 is at p = 19
    found = Counter()
    for p in (p for p in range(3, 50) if all(p % k for k in range(2, p))):
        for m in range(2, p):
            for c, inverse in fp2._binomial_inverses(p, m).items():
                if c == 0:
                    assert inverse == [pow(z, pow(m, -1, p - 1), p) for z in range(p)]
                    continue
                index = (p - 1) // math.gcd(m - 1, p - 1)
                assert (len(_interpolant_degrees(p, inverse)) == 2) == (index == 2), (p, m, c)
                if math.gcd(m, p - 1) == 1:
                    assert fp2._is_binomial(p, pow(m, -1, p - 1), inverse) == (index == 2)
                found[index == 2, p] += 1
    primes = {p for _, p in found}
    assert min(p for binomial, p in found if not binomial) == 19
    # N_(p+1)/2 = (p - 3)/2, which counts c = 0 too when p = 1 mod 4
    assert [found[True, p] for p in sorted(primes)] == [
        (p - 3) // 2 - (p % 4 == 1) for p in sorted(primes)]
    assert sum(found[False, p] for p in primes) == 49


def test_shape_closure_refutes_the_closure_at_p19(field):
    # F_361, (m, b) = (7, 1): 19,494 of the 25,992 unconditioned PPRs
    # invert off the shape, among them (x^19 - x)^7 + 10x, whose inverse
    # has 24 terms, two of them at 13 * 19 and 7 * 19
    ctx = field(19, 2)
    codes = sorted(set(shape_pprs(ctx, 7, 1)).difference(fp2.inverse_sweep(ctx, 7, 1).pairs))
    bad = fp2.shape_closure(ctx, {(7, 1): codes})
    assert len(codes) == 25992 and len(bad) == 19494
    assert {tag for tag, *_ in bad} == {"inverse leaves the shape"}
    assert ("inverse leaves the shape", 7, 1, 0, 10) in bad
    h = compositional_inverse(ctx, family_poly(ctx, 7, 1, 0, 10))
    assert sum(map(bool, h)) == 24 and h[13 * 19] and h[7 * 19]
    assert shape_parameters(ctx, poly_scale(ctx, ctx.inv(h[-1]), h)) is None


@pytest.mark.parametrize("make", ["field", "zech_field"])
def test_shape_closure_refuses_bad_input(request, make):
    f25 = request.getfixturevalue(make)(5, 2)
    codes = _unconditioned_codes(f25, 3, 1, 2)
    assert fp2.shape_closure(f25, {(3, 1): codes}) == []
    for shapes in ({(2, 1): codes},  # 2 is not coprime to p - 1 = 4
                   {(3, 1): [*codes, 25 * 25]}):
        with pytest.raises(OutOfRangeError):
            fp2.shape_closure(f25, shapes)
    with pytest.raises(BadExponentError):
        fp2.shape_closure(f25, {(5, 1): codes})
    with pytest.raises(OutOfRangeError):
        fp2.shape_closure(request.getfixturevalue(make)(5, 1), {(3, 1): codes})


def test_census_invariant_under_b(field):
    f25 = field(5, 2)
    counts = {census(f25, 3, b, "full").full for b in family_b_values(f25)}
    assert counts == {180}


def test_lemma_suite_passes(field):
    for p in (3, 5):
        report = lemma_suite(field(p, 2))
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["lemma22"].skipped > 0  # beta + b*alpha = 0 rows skipped
        assert by_name["lemma21"].checked + by_name["lemma21"].skipped == p**4


# (name, checked, skipped, passed) of every identity check, recorded
# from the method-call implementation the table-driven suite replaced
LEMMA_SUITE_PINS = {
    3: [
        ("lemma20", 4, 0, True), ("lemma21", 48, 33, True), ("lemma22", 192, 132, True),
        ("lemma23", 48, 0, True), ("lemma24", 48, 0, True), ("lemma25", 4, 0, True),
    ],
    5: [
        ("lemma20", 18, 0, True), ("lemma21", 480, 145, True), ("lemma22", 8640, 2610, True),
        ("lemma23", 1440, 0, True), ("lemma24", 1440, 0, True), ("lemma25", 18, 0, True),
    ],
    7: [
        ("lemma20", 40, 0, True), ("lemma21", 2016, 385, True), ("lemma22", 80640, 15400, True),
        ("lemma23", 10080, 0, True), ("lemma24", 10080, 0, True), ("lemma25", 40, 0, True),
    ],
}


@pytest.mark.parametrize("p", sorted(LEMMA_SUITE_PINS))
def test_lemma_suite_pinned_counts(field, p):
    report = lemma_suite(field(p, 2))
    got = [(c.name, c.checked, c.skipped, c.passed) for c in report.checks]
    assert got == LEMMA_SUITE_PINS[p]


def test_lemma_suite_validates_once_per_exponent_and_root(field, monkeypatch):
    # the constructible instances are met inside lemma 22's walk, so the
    # suite neither lists them nor derives their parameters; (m, b) is
    # validated only by gmb_poly and hmd_poly in the lemma 20/25 loop
    ctx = field(5, 2)
    for name in ("constructible_pairs", "require_mb", "_derive", "derive_params"):
        monkeypatch.setattr(fp2, name, lambda *args, name=name: pytest.fail(f"called {name}"))
    assert lemma_suite(ctx).passed


def test_lemma_suite_without_flat_tables(field, zech_field):
    for p in (3, 5):
        assert lemma_suite(zech_field(p, 2)) == lemma_suite(field(p, 2))


def five_loop_lemma_suite(ctx):
    """The identity suite as five loops, lemma 23/24 over a second
    listing of the constructible set with the paper's delta per instance:
    the oracle for lemma_suite's three passes."""
    p, q = ctx.p, ctx.q
    q1 = q - 1
    bs = family_b_values(ctx)
    ms = range(2, p)
    exp, log, neg = ctx.exp_table, ctx.log_table, ctx.neg_table
    frob = ctx.frob_table
    norm = [ctx.pow(x, p + 1) for x in range(q)]
    pm1 = [ctx.pow(x, p - 1) for x in range(q)]
    add, sub, mul = ctx.add, ctx.sub, ctx.mul
    checks = []

    bad = []
    for m in ms:
        for b in bs:
            g = gmb_poly(ctx, m, b)
            scale = mul(neg_one_pow(ctx, m), ctx.pow(b, m * p))
            if poly_pow(ctx, g, p) != poly_scale(ctx, scale, g):
                bad.append((m, b))
    checks.append(fp2.LemmaCheck("lemma20", "g^p = (-1)^m b^(mp) g", len(ms) * len(bs), 0,
                                 tuple(bad)))

    bad, n_checked, n_skipped = [], 0, 0
    for alpha in range(q):
        for beta in range(q):
            norm_gap = sub(norm[beta], norm[alpha])
            if norm_gap == 0:
                n_skipped += 1
                continue
            n_checked += 1
            gamma = ctx.div(neg[alpha], norm_gap)
            epsilon = ctx.div(frob[beta], norm_gap)
            ok = (
                frob[norm_gap] == norm_gap
                and add(mul(gamma, frob[beta]), mul(alpha, epsilon)) == 0
                and add(mul(gamma, frob[alpha]), mul(beta, epsilon)) == 1
                and add(mul(alpha, frob[epsilon]), mul(beta, gamma)) == 0
                and add(mul(alpha, frob[gamma]), mul(beta, epsilon)) == 1
            )
            if not ok:
                bad.append((alpha, beta))
    checks.append(fp2.LemmaCheck(
        "lemma21",
        "beta^(p+1) - alpha^(p+1) in F_p; gamma beta^p + alpha epsilon = 0;"
        " gamma alpha^p + beta epsilon = 1; alpha epsilon^p + beta gamma = 0;"
        " alpha gamma^p + beta epsilon = 1",
        n_checked, n_skipped, tuple(bad)))

    bad, n_checked, n_skipped = [], 0, 0
    for m in ms:
        for b in bs:
            sign = neg_one_pow(ctx, m)
            rhs_direct = mul(sign, ctx.pow(b, m * p - 1))
            rhs_ratio = mul(sign, ctx.pow(b, m * p))
            for alpha in range(q):
                for beta in range(q):
                    base = add(beta, mul(b, alpha))
                    if base == 0 or norm[alpha] == norm[beta]:
                        n_skipped += 1
                        continue
                    n_checked += 1
                    direct = pm1[base] == rhs_direct
                    ratio = ctx.div(add(mul(b, frob[beta]), frob[alpha]), base) == rhs_ratio
                    if direct != ratio:
                        bad.append((m, b, alpha, beta))
    checks.append(fp2.LemmaCheck(
        "lemma22",
        "(beta + b alpha)^(p-1) = (-1)^m b^(mp-1) iff"
        " (b beta^p + alpha^p)/(beta + alpha b) = (-1)^m b^(mp)",
        n_checked, n_skipped, tuple(bad)))

    bad23, bad24, n_checked = [], [], 0
    for m in ms:
        for b in bs:
            d = hmd_d(ctx, m, b)
            for alpha, beta in constructible_pairs(ctx, m, b):
                # delta by the paper's formula, not _derive's closed form
                gap = sub(norm[beta], norm[alpha])
                gamma, epsilon = ctx.div(ctx.neg(alpha), gap), ctx.div(frob[beta], gap)
                delta = ctx.div(ctx.neg(add(mul(gamma, d), epsilon)),
                                ctx.pow(sub(frob[beta], mul(alpha, d)), m))
                n_checked += 1
                base = add(beta, mul(b, alpha))
                closed = ctx.neg(ctx.div(ctx.pow(base, m - 1),
                                         ctx.pow(sub(norm[beta], norm[alpha]), m)))
                if delta != closed:
                    bad23.append((m, b, alpha, beta))
                if mul(ctx.pow(b, m * m), frob[delta]) != mul(b, delta):
                    bad24.append((m, b, alpha, beta))
    checks.append(fp2.LemmaCheck(
        "lemma23", "delta = -(beta + b alpha)^(m-1) / (beta^(p+1) - alpha^(p+1))^m",
        n_checked, 0, tuple(bad23)))
    checks.append(fp2.LemmaCheck("lemma24", "b^(m^2) delta^p = b delta", n_checked, 0,
                                 tuple(bad24)))

    bad = []
    for m in ms:
        for b in bs:
            h = hmd_poly(ctx, m, b)
            if poly_pow(ctx, h, p) != poly_scale(ctx, ctx.pow(b, m * m), h):
                bad.append((m, b))
    checks.append(fp2.LemmaCheck("lemma25", "h^p = b^(m^2) h", len(ms) * len(bs), 0, tuple(bad)))
    return fp2.LemmaSuiteReport(checks=tuple(checks))


@pytest.mark.parametrize("make,p", [("field", 3), ("field", 5), ("field", 7),
                                    ("zech_field", 5), ("zech_field", 7)])
def test_lemma_suite_matches_the_five_loop_oracle(request, make, p):
    ctx = request.getfixturevalue(make)(p, 2)
    assert lemma_suite(ctx) == five_loop_lemma_suite(ctx)


@pytest.mark.parametrize("make", ["field", "zech_field"])
def test_lemma_suite_planted_wrong_d(request, monkeypatch, make):
    # d enters delta only: lemma 23 names the instances it breaks, and
    # a d that zeroes one instance's beta^p - alpha d leaves its delta
    # undefined, which counts against lemmas 23 and 24 instead of raising
    ctx = request.getfixturevalue(make)(5, 2)
    b = family_b_values(ctx)[2]
    at = (3, b, *constructible_pairs(ctx, 3, b)[9])
    alpha, beta = at[2:]
    assert alpha
    real_d = hmd_d(ctx, 3, b)
    wrong = {"d": ctx.mul(real_d, ctx.primitive)}
    monkeypatch.setattr(fp2, "hmd_d", lambda ctx, m, bb: wrong["d"] if (m, bb) == (3, b)
                        else hmd_d(ctx, m, bb))
    checks = {c.name: c for c in lemma_suite(ctx).checks}
    assert checks["lemma21"].passed and checks["lemma22"].passed
    assert checks["lemma20"].passed and checks["lemma25"].passed
    named = checks["lemma23"].counterexamples
    assert named and {x[:2] for x in named} == {(3, b)}
    pairs = constructible_pairs(ctx, 3, b)
    assert all(x[2:] in pairs for x in named)
    wrong["d"] = ctx.div(ctx.frobenius(beta), alpha)  # beta^p - alpha d = 0 at at
    checks = {c.name: c for c in lemma_suite(ctx).checks}
    assert at in checks["lemma23"].counterexamples and at in checks["lemma24"].counterexamples
    assert checks["lemma23"].checked == checks["lemma24"].checked == 1440


@pytest.mark.parametrize("make", ["field", "zech_field"])
def test_lemma_suite_planted_ratio_side(request, monkeypatch, make):
    # b^(mp) read as s b^(mp) moves the ratio form's right side at those m
    # only: lemma 22 names exactly them, in ascending (m, b, alpha, beta)
    # order, over the same instances, and the five-loop oracle agrees. The
    # ratio's left side is b (beta + b alpha)^(p-1), a (p+1)-th root of
    # unity, so with s = g^(p-1), of order p + 1, the form fails both
    # ways: direct form true and ratio false, and the reverse. d =
    # (-1)^m b^(mp) reads the same power, so it is held at its true value
    # in both suites (a wrong d is test_lemma_suite_planted_wrong_d's case)
    ctx = request.getfixturevalue(make)(5, 2)
    p = ctx.p
    clean = {c.name: c for c in lemma_suite(ctx).checks}["lemma22"]
    true_d = {(m, b): hmd_d(ctx, m, b) for m in range(2, p) for b in family_b_values(ctx)}
    monkeypatch.setattr(fp2, "hmd_d", lambda ctx, m, b: true_d[m, b])
    monkeypatch.setitem(globals(), "hmd_d", fp2.hmd_d)
    power, s = ctx.pow, ctx.pow(ctx.primitive, p - 1)
    for ms in ({3}, {2, 4}):
        monkeypatch.setattr(ctx, "pow", lambda x, e, ms=ms: ctx.mul(power(x, e), s)
                            if e in {m * p for m in ms} else power(x, e))
        report = lemma_suite(ctx)
        lemma22 = {c.name: c for c in report.checks}["lemma22"]
        named = lemma22.counterexamples
        assert named and {x[0] for x in named} == ms
        assert list(named) == sorted(named)
        assert {check_conditions(ctx, *x).cond2 for x in named} == {True, False}
        assert (lemma22.checked, lemma22.skipped) == (clean.checked, clean.skipped)
        assert report == five_loop_lemma_suite(ctx)


@pytest.mark.parametrize("make", ["field", "zech_field"])
def test_lemma_suite_refuses_over_budget_before_walking(request, monkeypatch, make):
    # F_25: (p + 1) q^2 = 6 * 625 = 3750 instances
    ctx = request.getfixturevalue(make)(5, 2)
    monkeypatch.setattr(fp2, "family_b_values", lambda ctx: pytest.fail("walked over budget"))
    with pytest.raises(BudgetExceededError, match="3750 candidates exceed budget 3749"):
        lemma_suite(ctx, budget=3749)
    monkeypatch.undo()
    assert lemma_suite(ctx, budget=3750) == lemma_suite(ctx)


def test_inverse_instance_stays_constructible(field):
    f9 = field(3, 2)
    for b in family_b_values(f9):
        for alpha, beta in constructible_pairs(f9, 2, b):
            inst = derive_params(f9, 2, b, alpha, beta)
            f, h = build_pair(inst)
            alpha2 = f9.div(inst.gamma, inst.delta)
            beta2 = f9.div(inst.epsilon, inst.delta)
            assert check_conditions(f9, 2, inst.d, alpha2, beta2).constructible
            assert poly_scale(f9, f9.inv(inst.delta), h) == family_poly(
                f9, 2, inst.d, alpha2, beta2
            )


def test_closure_failures_refuses_a_missing_partner(field):
    # on F_25 the inverses of (3, 1) land in (m, d) = (3, -1), index 4
    f25 = field(5, 2)
    sweeps = {(3, 1): fp2.inverse_sweep(f25, 3, 1)}
    with pytest.raises(OutOfRangeError, match=r"\(3, 4\)"):
        fp2.closure_failures(f25, sweeps)
    sweeps[3, 4] = fp2.inverse_sweep(f25, 3, 4)
    assert fp2.closure_failures(f25, sweeps) == []


def shape_parameters(ctx, f):
    """(m, b, alpha, beta) if the monic polynomial f is
    (x^p - bx)^m + alpha x^p + beta x for some (p+1)-th root b, else
    None: the oracle that reads the family shape off coefficients."""
    p = ctx.p
    deg = len(f) - 1
    if deg <= 0 or deg % p or f[-1] != 1:
        return None
    m = deg // p
    if not 2 <= m <= p - 1:
        return None
    # coefficient at degree mp - (p-1) is -m * b
    c = f[m * p - (p - 1)] if m * p - (p - 1) < len(f) else 0
    b = ctx.div(ctx.neg(c), m % p) if m % p else None
    if b is None or b == 0 or ctx.pow(b, p + 1) != 1:
        return None
    g = gmb_poly(ctx, m, b)
    alpha = ctx.sub(f[p] if p < len(f) else 0, g[p])
    beta = ctx.sub(f[1] if 1 < len(f) else 0, g[1])
    return (m, b, alpha, beta) if family_poly(ctx, m, b, alpha, beta) == normalize(list(f)) else None


def test_shape_parameters_roundtrip(field):
    f25 = field(5, 2)
    for b in family_b_values(f25)[:2]:
        for alpha, beta in ((0, 1), (3, 17), (24, 0)):
            f = family_poly(f25, 3, b, alpha, beta)
            assert shape_parameters(f25, f) == (3, b, alpha, beta)
    assert shape_parameters(f25, [0, 1]) is None


def test_extra_pprs_close_under_inversion_f25(field):
    f25 = field(5, 2)
    checked = 0
    for b in family_b_values(f25):
        for alpha in range(25):
            for beta in range(25):
                if check_conditions(f25, 3, b, alpha, beta).constructible:
                    continue
                f = family_poly(f25, 3, b, alpha, beta)
                if not is_permutation(f25, f).is_pp:
                    continue
                checked += 1
                h = compositional_inverse(f25, f)
                ppr = poly_scale(f25, f25.inv(h[-1]), h)
                back = shape_parameters(f25, ppr)
                assert back is not None and back[0] == 3
    assert checked == 6 * 100  # p^2(p-1) extras per b
