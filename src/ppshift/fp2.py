"""The parametric permutation family over F_{p^2}.

For b a (p+1)-th root of unity and 2 <= m <= p-1, the polynomials

    f(x) = (x^p - b x)^m + alpha x^p + beta x

permute F_{p^2} whenever alpha^(p+1) != beta^(p+1) and
(beta + b alpha)^(p-1) = (-1)^m b^(mp-1), and then the compositional
inverse is itself parametric:

    h(x) = delta (x^p - d x)^m + gamma x^p + epsilon x

with d = (-1)^m b^(mp), gamma = -alpha / (beta^(p+1) - alpha^(p+1)),
epsilon = beta^p / (beta^(p+1) - alpha^(p+1)) and
delta = (-gamma d - epsilon) / (beta^p - alpha d)^m.

This module derives the parameters, checks the two existence
conditions, builds (f, h) pairs, sweeps the inverse formula and its
closure over the constructible (alpha, beta), enumerates censuses,
tests that unconditioned shape PPRs invert into the shape, and checks
the identity suite behind the inverse formula (appendix lemmas 20-25).
It alone builds, walks and decodes member tables: (alpha, beta) travels
as the code alpha * q + beta, and c P + alpha x^p + beta x is built by
_members (c = 1, over codes) or _member (one instance). The shape PPRs
of one (m, b) need no member table: f(x + k) = f(x) + M(k) on the
kernel K of x^p - bx, M = alpha x^p + beta x (the elementary case of
the criterion of Akbary, Ghioca and Wang for h(L(x)) + M(x)), so
shape_pprs decides the q^2 members from the permutation binomials
x^m + cx of F_p, found by one scan of its p values of c. The
identity suite walks (b, alpha, beta) once for every m, and both walks
are priced against a budget before they start.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import namedtuple
from dataclasses import dataclass

from .errors import (
    DegenerateParametersError,
    NotConstructibleError,
    OutOfRangeError,
)
from . import pp
from .gf import FieldContext, require_element, roots_of_unity
from .poly import (
    eval_table,
    gmb_poly,
    hmd_d,
    hmd_poly,
    neg_one_pow,
    normalize,
    poly_add,
    poly_pow,
    poly_scale,
    require_mb,
)


def _require_fp2(ctx: FieldContext) -> None:
    if ctx.n != 2:
        raise OutOfRangeError("family is defined over quadratic extensions only")


def family_b_values(ctx: FieldContext) -> list[int]:
    """All admissible b: the p+1 roots of unity of order dividing p+1."""
    _require_fp2(ctx)
    return roots_of_unity(ctx, ctx.p + 1)


@dataclass(frozen=True)
class FamilyInstance:
    ctx: FieldContext
    m: int
    b: int
    alpha: int
    beta: int
    gamma: int
    epsilon: int
    delta: int
    d: int


@dataclass(frozen=True)
class ConditionVerdict:
    cond1: bool  # alpha^(p+1) != beta^(p+1)
    cond2: bool  # (beta + b alpha)^(p-1) = (-1)^m b^(mp-1)

    @property
    def constructible(self) -> bool:
        return self.cond1 and self.cond2


def check_conditions(ctx: FieldContext, m: int, b: int, alpha: int, beta: int) -> ConditionVerdict:
    """Evaluate both existence conditions exactly.

    When beta + b*alpha = 0 the left side of the second condition is 0
    and can never equal the nonzero right side, so cond2 is false.
    """
    _require_fp2(ctx)
    require_mb(ctx, m, b)
    require_element(ctx, alpha)
    require_element(ctx, beta)
    p = ctx.p
    cond1 = ctx.pow(alpha, p + 1) != ctx.pow(beta, p + 1)
    lhs_base = ctx.add(beta, ctx.mul(b, alpha))
    if lhs_base == 0:
        cond2 = False
    else:
        cond2 = ctx.pow(lhs_base, p - 1) == ctx.mul(neg_one_pow(ctx, m), ctx.pow(b, m * p - 1))
    return ConditionVerdict(cond1=cond1, cond2=cond2)


def derive_params(ctx: FieldContext, m: int, b: int, alpha: int, beta: int) -> FamilyInstance:
    """Populate (gamma, epsilon, delta, d) for one (m, b, alpha, beta)."""
    _require_fp2(ctx)
    require_mb(ctx, m, b)
    require_element(ctx, alpha)
    require_element(ctx, beta)
    return _derive(ctx, m, b, hmd_d(ctx, m, b), alpha, beta)


def _derive(ctx: FieldContext, m: int, b: int, d: int, alpha: int, beta: int) -> FamilyInstance:
    """derive_params' arithmetic on validated arguments, with
    d = hmd_d(ctx, m, b) passed in so that a loop over many (alpha,
    beta) computes it once per (m, b)."""
    p = ctx.p
    norm_gap = ctx.sub(ctx.pow(beta, p + 1), ctx.pow(alpha, p + 1))
    if norm_gap == 0:
        raise DegenerateParametersError("alpha and beta have equal norms")
    gamma = ctx.div(ctx.neg(alpha), norm_gap)
    epsilon = ctx.div(ctx.pow(beta, p), norm_gap)
    denom = ctx.sub(ctx.pow(beta, p), ctx.mul(alpha, d))
    if denom == 0:
        raise DegenerateParametersError("beta^p equals alpha * d")
    delta = ctx.div(
        ctx.sub(ctx.neg(ctx.mul(gamma, d)), epsilon),
        ctx.pow(denom, m),
    )
    return FamilyInstance(
        ctx=ctx, m=m, b=b, alpha=alpha, beta=beta,
        gamma=gamma, epsilon=epsilon, delta=delta, d=d,
    )


def family_poly(ctx: FieldContext, m: int, b: int, alpha: int, beta: int) -> list[int]:
    """(x^p - b x)^m + alpha x^p + beta x, reduced."""
    _require_fp2(ctx)
    require_element(ctx, alpha)
    require_element(ctx, beta)
    f = list(gmb_poly(ctx, m, b))
    f[ctx.p] = ctx.add(f[ctx.p], alpha)
    f[1] = ctx.add(f[1], beta)
    return normalize(f)


def build_pair(inst: FamilyInstance) -> tuple[list[int], list[int]]:
    """The polynomial and its parametric inverse for a constructible
    instance; both reduced, f monic of degree m*p."""
    ctx = inst.ctx
    verdict = check_conditions(ctx, inst.m, inst.b, inst.alpha, inst.beta)
    if not verdict.constructible:
        raise NotConstructibleError(
            f"conditions fail for (m={inst.m}, b={inst.b}, alpha={inst.alpha}, beta={inst.beta}):"
            f" cond1={verdict.cond1} cond2={verdict.cond2}"
        )
    f = family_poly(ctx, inst.m, inst.b, inst.alpha, inst.beta)
    h = poly_scale(ctx, inst.delta, hmd_poly(ctx, inst.m, inst.b))
    lin = [0] * (ctx.p + 1)
    lin[1] = inst.epsilon
    lin[ctx.p] = inst.gamma
    h = poly_add(ctx, h, lin)
    return f, h


def constructible_pairs(ctx: FieldContext, m: int, b: int) -> list[tuple[int, int]]:
    """All (alpha, beta) passing both conditions, alpha outer, beta ascending.

    Closed form instead of a scan of F_q^2: the second condition says
    s = beta + b alpha lies in S = {s != 0 : s^(p-1) = (-1)^m b^(mp-1)},
    which has 0 or p-1 elements. So each alpha has the candidates
    beta = s - b alpha, s in S, and only the first condition is left to
    test: q(p-1) candidates instead of q^2.
    """
    _require_fp2(ctx)
    require_mb(ctx, m, b)
    p = ctx.p
    rhs = ctx.mul(neg_one_pow(ctx, m), ctx.pow(b, m * p - 1))
    solutions = [s for s in range(1, ctx.q) if ctx.pow(s, p - 1) == rhs]
    out = []
    for alpha in range(ctx.q):
        alpha_norm = ctx.pow(alpha, p + 1)
        shift = ctx.mul(b, alpha)
        betas = sorted(ctx.sub(s, shift) for s in solutions)
        out.extend((alpha, beta) for beta in betas if ctx.pow(beta, p + 1) != alpha_norm)
    return out


def _members(ctx: FieldContext, table, codes):
    """(alpha, beta, the table of P + alpha x^p + beta x) for each code
    alpha * q + beta in codes, given P's table. The P + alpha x^p row is
    built when alpha changes: once per alpha for ascending codes."""
    row_alpha = row = None
    for code in codes:
        alpha, beta = divmod(code, ctx.q)
        if alpha != row_alpha:
            row_alpha, row = alpha, ctx.axpy(table, alpha, ctx.frob_table)
        yield alpha, beta, ctx.axpy(row, beta, range(ctx.q))


def _member(ctx: FieldContext, c: int, table, alpha: int, beta: int) -> list[int]:
    """The table of c P + alpha x^p + beta x, given P's table."""
    scaled = ctx.axpy([0] * ctx.q, c, table)
    return ctx.axpy(ctx.axpy(scaled, alpha, ctx.frob_table), beta, range(ctx.q))


InverseSweep = namedtuple("InverseSweep", "pairs failures inverses")


def inverse_sweep(ctx: FieldContext, m: int, b: int) -> InverseSweep:
    """Theorem 15 on one (m, b): pairs holds the constructible (alpha,
    beta) as alpha * q + beta, ascending; failures the (tag, alpha,
    beta) of each pair whose parametric h is not the inverse of f; and
    inverses each pair's inverse instance (m, d, gamma/delta,
    epsilon/delta) as the code (gamma/delta) * q + epsilon/delta, or
    q * q (no code) when delta = 0.

    f and h are tables: the two binomial powers are evaluated once, f
    comes from _members and h from _member. Both are reduced
    (degree mp < q), so h inverts f iff h(f(x)) = x at every x; f's
    bijectivity is read only on a mismatch, to tell "not a PPR" from
    "inverse mismatch". f is monic and fixes 0 when (x^p - bx)^m, of degree
    above p, is and does. constructible_pairs validates (m, b) and
    yields only valid (alpha, beta), so _derive checks nothing."""
    p, q = ctx.p, ctx.q
    pairs = array("I", [alpha * q + beta for alpha, beta in constructible_pairs(ctx, m, b)])
    points = list(range(q))
    g = gmb_poly(ctx, m, b)
    monic = len(g) > p + 1 and g[-1] == 1 and g[0] == 0
    d = hmd_d(ctx, m, b)
    h_table = eval_table(ctx, gmb_poly(ctx, m, d))  # (x^p - dx)^m
    failures, inverses = [], array("I")
    for alpha, beta, f in _members(ctx, eval_table(ctx, g), pairs):
        inst = _derive(ctx, m, b, d, alpha, beta)
        h = _member(ctx, inst.delta, h_table, inst.gamma, inst.epsilon)
        if not monic:
            failures.append(("not a PPR", alpha, beta))
        elif [h[y] for y in f] != points:
            bijective = pp._invert(f)[0] is not None
            failures.append(("inverse mismatch" if bijective else "not a PPR", alpha, beta))
        inverses.append(ctx.div(inst.gamma, inst.delta) * q + ctx.div(inst.epsilon, inst.delta)
                        if inst.delta else q * q)
    return InverseSweep(pairs, failures, inverses)


def closure_failures(ctx: FieldContext, sweeps) -> list[tuple]:
    """The (tag, m, b, alpha, beta) of each instance of sweeps = {(m, b):
    inverse_sweep(ctx, m, b)}, every (m, b) of the family, whose inverse
    instance (m, d, gamma/delta, epsilon/delta) is not a pair of (m, d)."""
    q = ctx.q
    missing = sorted({(m, hmd_d(ctx, m, b)) for m, b in sweeps}.difference(sweeps))
    if missing:
        raise OutOfRangeError(f"sweeps lack the (m, d) partners {missing}")
    bad = []
    for (m, b), s in sweeps.items():
        targets = set(sweeps[m, hmd_d(ctx, m, b)].pairs)
        for code, inverse in zip(s.pairs, s.inverses):
            if inverse not in targets:  # nor is q * q, the code of delta = 0
                tag = "zero delta" if inverse == q * q else "inverse instance fails conditions"
                bad.append((tag, m, b, *divmod(code, q)))
    return bad


@dataclass(frozen=True)
class CensusReport:
    m: int
    b: int
    conditioned: int
    full: int | None
    excess: int | None


def census(ctx: FieldContext, m: int, b: int, mode: str = "conditioned") -> CensusReport:
    """Count family permutations for one (m, b).

    conditioned counts the (alpha, beta) passing both conditions;
    full counts every (alpha, beta) in F_q^2 whose member permutes F_q
    (shape_pprs) and also reports the excess over the conditioned count.
    """
    if mode not in ("conditioned", "full"):
        raise OutOfRangeError(f"unknown census mode {mode!r}")
    conditioned = len(constructible_pairs(ctx, m, b))
    if mode == "conditioned":
        return CensusReport(m=m, b=b, conditioned=conditioned, full=None, excess=None)
    full = len(shape_pprs(ctx, m, b))
    return CensusReport(m=m, b=b, conditioned=conditioned, full=full, excess=full - conditioned)


def shape_pprs(ctx: FieldContext, m: int, b: int, budget: int = pp.DEFAULT_BUDGET) -> array:
    """The (alpha, beta) of every PPR f = (x^p - bx)^m + alpha x^p + beta x,
    as alpha * q + beta, alpha outer and beta ascending.

    L = x^p - bx and M = alpha x^p + beta x are F_p-linear, and L has
    the kernel K = F_p r with r^(p-1) = b; t = r g (g primitive) is not
    in K, as t^(p-1) != b, so every x is lambda t + mu r with lambda, mu
    in F_p. With u = M(r), w = M(t) and G = L(t)^m != 0,

        f(lambda t + mu r) = G lambda^m + lambda w + mu u,

    so f is constant on the cosets of K when u = 0, and otherwise
    permutes F_q iff the p values (G lambda^m + lambda w)/u lie in
    distinct cosets of F_p. In gf's encoding z = z_0 + z_1 p, z // p is
    z's coordinate modulo F_p = {z_1 = 0}, and it is F_p-linear, so f
    permutes iff lambda -> s lambda^m + c lambda does on F_p, with
    s = (G/u) // p and c = (w/u) // p. For s = 0 that asks c != 0; a
    nonzero s only rescales c, into s C_m with C_m = {c : x^m + cx
    permutes F_p}, found once per call. Each hit c stands for the p
    values w = u (c p + e), e in F_p, and the p - 1 units u in G F_p^*
    have s = 0, so one (m, b) has p(p - 1)(p - 1 + p |C_m|) shape PPRs.
    Each (u, w) decodes to one code through the fixed inverse of the
    2x2 map (alpha, beta) -> (u, w), of determinant r^p t - r t^p =
    r t (b - t^(p-1)) != 0. The budget still prices all q^2 candidates;
    one array instead of a list of pairs keeps a run's shapes small."""
    _require_fp2(ctx)
    pp.require_budget(ctx.q**2, budget)
    require_mb(ctx, m, b)
    p, q = ctx.p, ctx.q
    mul, div, frob = ctx.mul, ctx.div, ctx.frob_table
    r = ctx.exp_table[ctx.log_table[b] // (p - 1)]  # b^(p+1) = 1: p - 1 divides log b
    t = mul(r, ctx.primitive)
    det = ctx.sub(mul(frob[r], t), mul(r, frob[t]))
    # alpha = (t u - r w)/det and beta = (r^p w - t^p u)/det
    alpha_u, alpha_w = div(t, det), div(ctx.neg(r), det)
    beta_u, beta_w = div(ctx.neg(frob[t]), det), div(frob[r], det)
    g = ctx.pow(ctx.sub(frob[t], mul(b, t)), m)  # G = L(t)^m
    binomials = [c for c in range(p)  # C_m; F_p is 0 .. p - 1, arithmetic mod p
                 if pp._invert([(lam**m + c * lam) % p for lam in range(p)])[1] is None]
    codes = []
    for u in range(1, q):
        s = div(g, u) // p
        hits = [s * c % p for c in binomials] if s else range(1, p)
        ws = ctx.axpy([0] * (p * len(hits)), u, [c * p + e for c in hits for e in range(p)])
        alphas = ctx.axpy([mul(alpha_u, u)] * len(ws), alpha_w, ws)
        betas = ctx.axpy([mul(beta_u, u)] * len(ws), beta_w, ws)
        codes.extend(alpha * q + beta for alpha, beta in zip(alphas, betas))
    codes.sort()
    return array("I", codes)


def _power_tables(ctx: FieldContext):
    """(m, b) -> the table of (x^p - bx)^m, each evaluated once."""
    return functools.cache(lambda m, b: eval_table(ctx, gmb_poly(ctx, m, b)))


def _inverse_table_keeps_shape(ctx: FieldContext, m_inv: int, inverse, power_table) -> bool:
    """Whether the inverse table is that of
    c (x^p - b'x)^m' + alpha' x^p + beta' x with c != 0 and
    b'^(p+1) = 1, m' = m_inv; power_table(m', b') is the table of
    (x^p - b'x)^m'.

    Four coefficients of the reduced interpolant h of the table, each
    one O(q) power sum, fix the candidate. (x^p - b'x)^m' has its terms
    at degrees m' + i(p-1), 0 <= i <= m', with coefficient -m' b' at
    i = m' - 1, and none at p or 1 when 2 <= m' <= p-2. So if h has
    the shape, c is its coefficient at m'p, -m' c b' the one at
    m'p - (p-1) (m' < p is a unit), and alpha', beta' those at p and
    1: the candidate built from them is h, and the tables agree.
    Conversely the candidate has degree m'p <= (p-2)p < q-1, so it is
    a reduced polynomial, and when its table equals the inverse table
    at every point it is h by uniqueness of the interpolant. The
    verdict is therefore that of scaling h monic and matching its
    coefficients against the family shape with exponent m', with no
    interpolation."""
    p = ctx.p
    lead, low, alpha, beta = pp._interpolant_coeffs(
        ctx, inverse, (m_inv * p, m_inv * p - (p - 1), p, 1))
    b = ctx.div(ctx.neg(low), ctx.mul(lead, m_inv)) if lead else 0  # 0: no candidate
    return (b != 0 and ctx.pow(b, p + 1) == 1
            and _member(ctx, lead, power_table(m_inv, b), alpha, beta) == inverse)


def shape_closure(ctx: FieldContext, shapes) -> list[tuple]:
    """The (m, b, alpha, beta) of each PPR (x^p - bx)^m + alpha x^p +
    beta x whose inverse leaves the shape with exponent m^-1 mod p-1,
    for shapes = {(m, b): list or array of PPR codes alpha * q + beta},
    m coprime to p - 1. _members builds each PPR's table,
    _inverse_table_keeps_shape tests its inverse, and one cache serves
    the call: each (x^p - b'x)^m' table is evaluated once, for an f or
    for an inverse."""
    _require_fp2(ctx)
    p, q = ctx.p, ctx.q
    power_table = _power_tables(ctx)
    bad = []
    for (m, b), codes in shapes.items():
        if math.gcd(m, p - 1) != 1 or not all(0 <= code < q * q for code in codes):
            raise OutOfRangeError(f"m = {m} not coprime to {p - 1}, or a code not below {q * q}")
        m_inv = pow(m, -1, p - 1)
        for alpha, beta, f in _members(ctx, power_table(m, b), codes):
            if not _inverse_table_keeps_shape(ctx, m_inv, pp._inverse(f), power_table):
                bad.append((m, b, alpha, beta))
    return bad


# -- the identity suite backing the inverse formula --


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    statement: str
    checked: int
    skipped: int
    counterexamples: tuple

    @property
    def passed(self) -> bool:
        return not self.counterexamples


@dataclass(frozen=True)
class LemmaSuiteReport:
    checks: tuple[LemmaCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def lemma_suite(ctx: FieldContext, budget: int = pp.DEFAULT_BUDGET) -> LemmaSuiteReport:
    """Check the six identities behind the inverse formula over their
    full hypothesis ranges; counterexamples are reported verbatim, in
    ascending order of their parameters. Lemma 22's (p + 1) q^2
    instances are priced against budget before any walk starts.

    Three passes:
    1. lemma 21 over every (alpha, beta), keeping nothing;
    2. one walk over (b, alpha, beta) for lemma 22 at every m at once:
       neither of its left sides depends on m, so the m are grouped by
       each right side once per b, and the lemma fails at the m in
       exactly one of the two groups that an instance meets; each
       instance counts once per m. An instance is constructible exactly
       when lemma 22's direct form holds and the norms differ, so
       lemmas 23 and 24 run at the m of the direct group, on delta =
       (-gamma d - epsilon)/(beta^p - alpha d)^m = -1/(gap (beta^p -
       alpha d)^(m-1)), gap = beta^(p+1) - alpha^(p+1), since gamma d +
       epsilon = (beta^p - alpha d)/gap; a zero denominator leaves
       delta undefined and counts against both;
    3. lemmas 20 and 25, one loop over (m, b).

    The loops read x^p, x^(p+1) and x^(p-1) from tables built once per
    call, divide through the log/exp tables (zero kept as a special
    case), and take what depends only on (m, b) or on alpha out of the
    beta loop. Additions by a fixed element are read from ctx.add_row.
    """
    _require_fp2(ctx)
    pp.require_budget((ctx.p + 1) * ctx.q**2, budget)
    p, q = ctx.p, ctx.q
    q1 = q - 1
    bs = family_b_values(ctx)
    ms = range(2, p)
    exp, log, neg = ctx.exp_table, ctx.log_table, ctx.neg_table
    frob = ctx.frob_table  # x^p
    norm = [ctx.pow(x, p + 1) for x in range(q)]  # x^(p+1)
    pm1 = [ctx.pow(x, p - 1) for x in range(q)]  # x^(p-1)
    add, sub, mul = ctx.add, ctx.sub, ctx.mul

    # parameter identities for every (alpha, beta) with distinct norms
    bad21, n21, skipped21 = [], 0, 0
    for alpha in range(q):
        alpha_norm, alpha_p = norm[alpha], frob[alpha]
        log_minus_alpha = log[neg[alpha]]
        for beta in range(q):
            norm_gap = sub(norm[beta], alpha_norm)
            if norm_gap == 0:
                skipped21 += 1
                continue
            n21 += 1
            beta_p = frob[beta]
            log_gap = log[norm_gap]
            gamma = exp[(log_minus_alpha - log_gap) % q1] if alpha else 0
            epsilon = exp[(log[beta_p] - log_gap) % q1] if beta else 0
            ok = (
                frob[norm_gap] == norm_gap
                and add(mul(gamma, beta_p), mul(alpha, epsilon)) == 0
                and add(mul(gamma, alpha_p), mul(beta, epsilon)) == 1
                and add(mul(alpha, frob[epsilon]), mul(beta, gamma)) == 0
                and add(mul(alpha, frob[gamma]), mul(beta, epsilon)) == 1
            )
            if not ok:
                bad21.append((alpha, beta))

    # lemma 22: the two forms of the second condition agree when both
    # are defined; both right sides are nonzero, so the ratio form
    # compares logs. Neither left side depends on m, so each b groups the
    # m by each right side, and the lemma fails at the m of one group
    # only. Lemmas 23 and 24 on the constructible instances, the m of the
    # direct group: the closed form delta = -(beta + b alpha)^(m-1) /
    # (beta^(p+1) - alpha^(p+1))^m -- the leading minus follows from
    # gamma*d + epsilon = 1/(beta + b alpha) -- and its Frobenius twist
    bad22, bad23, bad24, n22, skipped22, n23 = [], [], [], 0, 0, 0
    for b in bs:
        by_direct, by_ratio = {}, {}  # right side -> its m, ascending
        for m in ms:
            sign = neg_one_pow(ctx, m)
            rhs = mul(sign, ctx.pow(b, m * p - 1))
            by_direct[rhs] = by_direct.get(rhs, ()) + (m,)
            rhs = log[mul(sign, ctx.pow(b, m * p))]
            by_ratio[rhs] = by_ratio.get(rhs, ()) + (m,)
        ds = {m: hmd_d(ctx, m, b) for m in ms}
        b_m2 = {m: ctx.pow(b, m * m) for m in ms}
        b_beta_p = [mul(b, y) for y in frob]  # b beta^p
        for alpha in range(q):
            alpha_norm = norm[alpha]
            alpha_d = {m: mul(alpha, d) for m, d in ds.items()}
            base_row = ctx.add_row(mul(b, alpha))  # beta + b alpha
            num_row = ctx.add_row(frob[alpha])  # y + alpha^p
            for beta, base, beta_norm, num_index in zip(range(q), base_row, norm, b_beta_p):
                if base == 0 or alpha_norm == beta_norm:
                    skipped22 += 1
                    continue
                n22 += 1
                direct = by_direct.get(pm1[base], ())
                ratio_num = num_row[num_index]
                ratio = by_ratio.get((log[ratio_num] - log[base]) % q1, ()) if ratio_num else ()
                if direct != ratio:
                    bad22.extend((m, b, alpha, beta) for m in set(direct).symmetric_difference(ratio))
                if not direct:
                    continue
                n23 += len(direct)
                beta_p, log_gap = frob[beta], log[sub(beta_norm, alpha_norm)]
                for m in direct:
                    denom = sub(beta_p, alpha_d[m])
                    if denom == 0:  # delta undefined; not so on a constructible instance
                        bad23.append((m, b, alpha, beta))
                        bad24.append((m, b, alpha, beta))
                        continue
                    delta = neg[exp[(-log_gap - (m - 1) * log[denom]) % q1]]
                    if delta != neg[exp[((m - 1) * log[base] - m * log_gap) % q1]]:
                        bad23.append((m, b, alpha, beta))
                    # b^(m^2) delta^p = b delta: the ((-1)^m b^(mp-1))^(m-1)
                    # twist of delta kills the sign because m(m-1) is even
                    if mul(b_m2[m], frob[delta]) != mul(b, delta):
                        bad24.append((m, b, alpha, beta))
    # every instance stands for its p - 2 exponents; b ascends, so sorting
    # restores the (m, b, alpha, beta) order of a walk with m outermost
    n22, skipped22 = n22 * len(ms), skipped22 * len(ms)
    for bad in (bad22, bad23, bad24):
        bad.sort()

    # g^p = (-1)^m b^(mp) g, and h^p = b^(m^2) h as reduced polynomials:
    # h's prefactor is (-1)^m d^(mp) = (-1)^m (-1)^m b^(m^2) = b^(m^2)
    bad20, bad25 = [], []
    for m in ms:
        for b in bs:
            g = gmb_poly(ctx, m, b)
            g_scale = mul(neg_one_pow(ctx, m), ctx.pow(b, m * p))
            if poly_pow(ctx, g, p) != poly_scale(ctx, g_scale, g):
                bad20.append((m, b))
            h = hmd_poly(ctx, m, b)
            if poly_pow(ctx, h, p) != poly_scale(ctx, ctx.pow(b, m * m), h):
                bad25.append((m, b))
    n_mb = len(ms) * len(bs)

    return LemmaSuiteReport(checks=(
        LemmaCheck("lemma20", "g^p = (-1)^m b^(mp) g", n_mb, 0, tuple(bad20)),
        LemmaCheck(
            "lemma21",
            "beta^(p+1) - alpha^(p+1) in F_p; gamma beta^p + alpha epsilon = 0;"
            " gamma alpha^p + beta epsilon = 1; alpha epsilon^p + beta gamma = 0;"
            " alpha gamma^p + beta epsilon = 1",
            n21,
            skipped21,
            tuple(bad21),
        ),
        LemmaCheck(
            "lemma22",
            "(beta + b alpha)^(p-1) = (-1)^m b^(mp-1) iff"
            " (b beta^p + alpha^p)/(beta + alpha b) = (-1)^m b^(mp)",
            n22,
            skipped22,
            tuple(bad22),
        ),
        LemmaCheck(
            "lemma23",
            "delta = -(beta + b alpha)^(m-1) / (beta^(p+1) - alpha^(p+1))^m",
            n23,
            0,
            tuple(bad23),
        ),
        LemmaCheck("lemma24", "b^(m^2) delta^p = b delta", n23, 0, tuple(bad24)),
        LemmaCheck("lemma25", "h^p = b^(m^2) h", n_mb, 0, tuple(bad25)),
    ))
