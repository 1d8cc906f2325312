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
(alpha, beta) travels as the code alpha * q + beta, and no member table
is built: f(x + k) = f(x) + M(k) on the kernel K of x^p - bx, M = alpha
x^p + beta x (the elementary case of the criterion of Akbary, Ghioca
and Wang for h(L(x)) + M(x)), so in the frame x = lambda t + mu r of
_frame, r spanning K, each member is decided fibre by fibre.
shape_pprs takes the PPRs from the permutation binomials x^m + cx of
F_p; inverse_sweep checks Theorem 15 by three identities per instance,
which stand for its p points h(f(lambda t)); shape_closure reads each
verdict off the F_p inverse of one binomial (the index theory of
cyclotomic-mapping inverses, Q. Wang, FFA 2017, in its simplest case).
The identity suite walks (b, alpha, beta) once for every m, and both
q^2 walks are priced against a budget before they start.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from dataclasses import dataclass

from .errors import (
    DegenerateParametersError,
    NotAPermutationError,
    NotConstructibleError,
    OutOfRangeError,
)
from . import pp
from .gf import FieldContext, require_element, roots_of_unity
from .poly import (
    _binomial_power,
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


def _require_family(ctx: FieldContext, m: int, b: int, *elements) -> None:
    """A quadratic extension, a valid (m, b) and element indices."""
    _require_fp2(ctx)
    require_mb(ctx, m, b)
    for x in elements:
        require_element(ctx, x)


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
    _require_family(ctx, m, b, alpha, beta)
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
    _require_family(ctx, m, b, alpha, beta)
    d = hmd_d(ctx, m, b)
    return FamilyInstance(ctx, m, b, alpha, beta, *_derive(ctx, m, d, alpha, beta), d)


def _derive(ctx: FieldContext, m: int, d: int, alpha: int, beta: int) -> tuple[int, int, int]:
    """(gamma, epsilon, delta) on validated arguments, d = hmd_d(ctx, m,
    b) computed once per (m, b) by the caller; delta in the lemma suite's
    closed form -1/(gap (beta^p - alpha d)^(m-1)), gap = beta^(p+1) -
    alpha^(p+1), as gamma d + epsilon = (beta^p - alpha d)/gap."""
    q1 = ctx.q - 1
    exp, log, frob = ctx.exp_table, ctx.log_table, ctx.frob_table
    beta_p = frob[beta]
    norm_gap = ctx.sub(ctx.mul(beta_p, beta), ctx.mul(frob[alpha], alpha))
    if norm_gap == 0:
        raise DegenerateParametersError("alpha and beta have equal norms")
    denom = ctx.sub(beta_p, ctx.mul(alpha, d))
    if denom == 0:
        raise DegenerateParametersError("beta^p equals alpha * d")
    log_gap = log[norm_gap]
    gamma = exp[(log[ctx.neg(alpha)] - log_gap) % q1] if alpha else 0
    epsilon = exp[(log[beta_p] - log_gap) % q1] if beta else 0
    return gamma, epsilon, ctx.neg(exp[(-log_gap - (m - 1) * log[denom]) % q1])


def family_poly(ctx: FieldContext, m: int, b: int, alpha: int, beta: int) -> list[int]:
    """(x^p - b x)^m + alpha x^p + beta x, reduced."""
    _require_family(ctx, m, b, alpha, beta)
    f = _binomial_power(ctx, b, m)
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
    _require_family(ctx, m, b)
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


def _frame(ctx: FieldContext, m: int, b: int) -> tuple[int, int, int]:
    """(r, t, G): r = g^(log b / (p - 1)), g primitive, spans the kernel
    F_p r of L = x^p - bx (r^(p-1) = b, as b^(p+1) = 1), t = r g is not
    in it, and G = L(t)^m != 0. Every x is lambda t + mu r, lambda, mu in
    F_p, and f = L^m + M, M = alpha x^p + beta x, reads f(lambda t + mu r)
    = G lambda^m + lambda w + mu u, with u = M(r) and w = M(t)."""
    r = ctx.exp_table[ctx.log_table[b] // (ctx.p - 1)]
    t = ctx.mul(r, ctx.primitive)
    return r, t, ctx.pow(ctx.sub(ctx.frob_table[t], ctx.mul(b, t)), m)


InverseSweep = namedtuple("InverseSweep", "pairs failures inverses")


def inverse_sweep(ctx: FieldContext, m: int, b: int) -> InverseSweep:
    """Theorem 15 on one (m, b): pairs holds the constructible (alpha,
    beta) as alpha * q + beta, ascending; failures the (tag, alpha,
    beta) of each pair whose parametric h is not the inverse of f; and
    inverses each pair's inverse instance (m, d, gamma/delta,
    epsilon/delta) as the code (gamma/delta) * q + epsilon/delta, or
    q * q (no code) when delta = 0.

    No table is built. In the frame of _frame, with h = delta L_d^m + N,
    L_d = x^p - dx and N = gamma x^p + epsilon x, u and G lie in the
    kernel of L_d: r^p = b r gives u = r (beta + b alpha), so u^(p-1) = d
    is the second condition, and L(t)^p = t - b^p t^p = -b^p L(t) gives
    G^(p-1) = (-b^p)^m = d. There N(y) = kappa y, kappa = gamma d +
    epsilon, so with B = L_d(w)

        h(f(lambda t + mu r)) = lambda^m (delta B^m + kappa G)
                                + lambda N(w) + mu kappa u.

    That is lambda t + mu r everywhere iff kappa u = r and h(f(lambda t))
    = lambda t at the p points lambda of F_p, which (lambda^m and lambda
    are independent on F_p, 2 <= m <= p-1) is delta B^m + kappa G = 0 and
    N(w) = t. f and h are reduced, so these decide whether h inverts f.
    Off a kernel guard, or where an identity fails, the q-point
    pp.is_compositional_inverse on build_pair's polynomials decides:
    "not a PPR" when f does not permute, else "inverse mismatch".
    constructible_pairs validates (m, b) and yields only valid (alpha,
    beta), so _derive checks nothing."""
    q = ctx.q
    add, sub, mul, frob = ctx.add, ctx.sub, ctx.mul, ctx.frob_table
    pairs = array("I", [alpha * q + beta for alpha, beta in constructible_pairs(ctx, m, b)])
    d = hmd_d(ctx, m, b)
    r, t, g = _frame(ctx, m, b)
    r_p, t_p, g_in_kernel = frob[r], frob[t], frob[g] == mul(d, g)
    failures, inverses = [], array("I")
    for code in pairs:
        alpha, beta = divmod(code, q)
        gamma, epsilon, delta = _derive(ctx, m, d, alpha, beta)
        u = add(mul(alpha, r_p), mul(beta, r))
        w = add(mul(alpha, t_p), mul(beta, t))
        w_p, kappa = frob[w], add(mul(gamma, d), epsilon)
        exact = (g_in_kernel and u and frob[u] == mul(d, u) and mul(kappa, u) == r
                 and add(mul(gamma, w_p), mul(epsilon, w)) == t
                 and add(mul(delta, ctx.pow(sub(w_p, mul(d, w)), m)), mul(kappa, g)) == 0)
        if not exact:
            inst = FamilyInstance(ctx, m, b, alpha, beta, gamma, epsilon, delta, d)
            try:
                if not pp.is_compositional_inverse(ctx, *build_pair(inst)):
                    failures.append(("inverse mismatch", alpha, beta))
            except NotAPermutationError:
                failures.append(("not a PPR", alpha, beta))
        inverses.append(ctx.div(gamma, delta) * q + ctx.div(epsilon, delta) if delta else q * q)
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

    In the frame of _frame, f(lambda t + mu r) = G lambda^m + lambda w
    + mu u, so f is constant on the cosets of K = F_p r when u = 0, and
    otherwise permutes F_q iff the p values (G lambda^m + lambda w)/u lie in
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
    _require_family(ctx, m, b)
    pp.require_budget(ctx.q**2, budget)
    p, q = ctx.p, ctx.q
    mul, div, frob = ctx.mul, ctx.div, ctx.frob_table
    r, t, g = _frame(ctx, m, b)
    det = ctx.sub(mul(frob[r], t), mul(r, frob[t]))
    # alpha = (t u - r w)/det and beta = (r^p w - t^p u)/det
    alpha_u, alpha_w = div(t, det), div(ctx.neg(r), det)
    beta_u, beta_w = div(ctx.neg(frob[t]), det), div(frob[r], det)
    binomials = list(_binomial_inverses(p, m))  # C_m
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


def _binomial_inverses(p: int, m: int) -> dict:
    """{c: the inverse table of x^m + cx} for each c of C_m = {c in F_p :
    x^m + cx permutes F_p}, ascending; F_p is 0 .. p - 1, mod p."""
    inverses = {c: pp._invert([(lam**m + c * lam) % p for lam in range(p)])[0] for c in range(p)}
    return {c: inverse for c, inverse in inverses.items() if inverse is not None}


def _is_binomial(p: int, k: int, inverse) -> bool:
    """Whether the F_p interpolant of inverse (inverse[0] = 0) is a x^k +
    b x: its coefficient at 1 <= j <= p-1 is -sum_(z != 0) inverse[z] z^-j."""
    return all(sum(inverse[z] * pow(z, p - 1 - j, p) for z in range(1, p)) % p == 0
               for j in range(2, p) if j != k)


def shape_closure(ctx: FieldContext, shapes) -> list[tuple]:
    """The (tag, m, b, alpha, beta) of each unconditioned PPR (x^p -
    bx)^m + alpha x^p + beta x whose inverse leaves the shape with
    exponent m' = m^-1 mod p-1, for shapes = {(m, b): list or array of
    such codes alpha * q + beta}, m coprime to p - 1.

    In the frame of _frame write y/u = y_0 + y_1 theta (theta the
    element p, y_1 = y // p), G/u = sigma + s theta and w/u = c_0 + c
    theta, so f(lambda t + mu r) = u (sigma lambda^m + c_0 lambda + mu +
    theta phi(lambda)) with phi(lambda) = s lambda^m + c lambda. s = 0
    exactly when u^(p-1) = G^(p-1) = d, the second condition (see
    inverse_sweep), and f then permutes iff c != 0, iff M is invertible,
    the first. So an unconditioned PPR has s != 0 (a code with s = 0 is
    tagged "s = 0, a conditioned PPR"), it permutes iff kappa = c/s is in
    C_m, and solving for lambda and mu gives

        h(y) = phi^-1(y_1) (t - (c_0 - sigma kappa) r) + (y_0 - (sigma/s) y_1) r.

    y -> y_1 is F_p-linear with kernel u F_p, so it is zeta (y^p - b'y)
    with b' = u^(p-1): if the F_p inverse of x^m + kappa x is a x^m' +
    b'' x, so is phi^-1 up to scaling, and h is in the shape. Conversely
    h = c' (x^p - b'x)^m' + N' is linear on u F_p only if x^p - b'x
    vanishes there, and its values on u theta F_p then make phi^-1 a
    binomial in x^m' and x. So one verdict per (m, kappa), from the
    inverse table of x^m + kappa x, decides its whole fibre. A code whose
    f does not permute raises NotAPermutationError."""
    _require_fp2(ctx)
    p, q = ctx.p, ctx.q
    add, mul, div, frob = ctx.add, ctx.mul, ctx.div, ctx.frob_table
    keeps = {}  # m -> {kappa: whether the inverse of x^m + kappa x is a binomial}
    bad = []
    for (m, b), codes in shapes.items():
        require_mb(ctx, m, b)
        if math.gcd(m, p - 1) != 1 or not all(
                code.__class__ is int and 0 <= code < q * q for code in codes):
            raise OutOfRangeError(f"m = {m} not coprime to {p - 1}, or a code not an int < {q * q}")
        if m not in keeps:
            keeps[m] = {kappa: _is_binomial(p, pow(m, -1, p - 1), inverse)
                        for kappa, inverse in _binomial_inverses(p, m).items()}
        r, t, g = _frame(ctx, m, b)
        r_p, t_p = frob[r], frob[t]
        for code in codes:
            alpha, beta = divmod(code, q)
            u = add(mul(alpha, r_p), mul(beta, r))
            w = add(mul(alpha, t_p), mul(beta, t))
            s, c = (div(g, u) // p, div(w, u) // p) if u else (0, 0)
            kappa = c * pow(s, -1, p) % p if s else 0
            if (kappa not in keeps[m]) if s else not c:
                raise NotAPermutationError(f"(m, b, alpha, beta) = {(m, b, alpha, beta)} is no PPR")
            if not s:
                bad.append(("s = 0, a conditioned PPR", m, b, alpha, beta))
            elif not keeps[m][kappa]:
                bad.append(("inverse leaves the shape", m, b, alpha, beta))
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
