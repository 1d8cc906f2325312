"""Permutation testing, inversion and exhaustive enumeration.

The primary oracle is the direct bijectivity test on the full
evaluation table; the degree-based power test is kept as an
independent cross-check, not an optimization. inverse_table is the one
place an evaluation table is inverted. Compositional inverses come
from interpolating the inverted table through all q points with a
mixed-radix DFT over F_q^*: O((q-1) * sum of the prime factors of q-1,
with multiplicity), which falls back to (q-1)^2 when q-1 is prime
(F_128, F_8192). A claimed inverse h is checked pointwise instead,
O(q) per nonzero term: a reduced polynomial equals the interpolant of
a table iff it agrees with the table at every point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BudgetExceededError,
    NotAPermutationError,
    OutOfRangeError,
    TooLargeFieldError,
)
from .gf import FieldContext, prime_factors
from .poly import (
    eval_table,
    is_monic,
    normalize,
    poly_mul,
    reduce_poly,
)

DEFAULT_BUDGET = 10_000_000
LIST_LIMIT = 10_000
HERMITE_MAX_Q = 64


@dataclass(frozen=True)
class PermVerdict:
    is_pp: bool
    is_ppr: bool
    witness: tuple[int, int] | None  # colliding pair when not bijective


def is_permutation(ctx: FieldContext, f) -> PermVerdict:
    """Direct bijectivity test; a witness collision is reported on failure."""
    preimage = [-1] * ctx.q
    witness = None
    for x in range(ctx.q):
        y = 0
        for c in reversed(f):
            y = ctx.add(ctx.mul(y, x), c)
        if preimage[y] >= 0:
            witness = (preimage[y], x)
            break
        preimage[y] = x
    is_pp = witness is None
    is_ppr = is_pp and is_monic(f) and f[0] == 0
    return PermVerdict(is_pp=is_pp, is_ppr=is_ppr, witness=witness)


def hermite_test(ctx: FieldContext, f) -> bool:
    """Degree criterion on the reduced powers f^t mod x^q - x.

    True iff f^(q-1) reduces monic of degree q-1 and every f^t for
    1 <= t <= q-2 with t not a multiple of p reduces to degree <= q-2.
    Agrees with is_permutation on every input.
    """
    q, p = ctx.q, ctx.p
    if q <= 2:
        raise OutOfRangeError("degree criterion needs q > 2")
    if q > HERMITE_MAX_Q:
        raise TooLargeFieldError(f"q = {q} exceeds the cost cap {HERMITE_MAX_Q}")
    f = reduce_poly(ctx, f)
    power = [1]
    for t in range(1, q - 1):
        power = poly_mul(ctx, power, f)
        if t % p and len(power) - 1 > q - 2:
            return False
    power = poly_mul(ctx, power, f)
    return len(power) == q and power[-1] == 1


# DFT lengths up to this run the power-sum recurrence directly; of
# 4, 8, 16, 32 and 64, 16 was fastest per interpolation on F_49..F_625
DFT_LEAF = 16


def _dft_leaf(ctx: FieldContext, seq, stride: int) -> list[int]:
    """sum_n seq[n] * w^(n k) for every k, w = g^stride: the rows
    seq[n] * w^(n k) over k, added from their exponent runs
    log seq[n] + stride n k as eval_table adds its terms,
    O(len(seq)^2)."""
    log = ctx.log_table
    length = len(seq)
    s = [seq[0]] * length
    for n in range(1, length):
        c = seq[n]
        if c:
            step = stride * n
            s = ctx.add_powers(s, range(log[c], log[c] + step * length, step))
    return s


def _dft(ctx: FieldContext, seq, stride: int) -> list[int]:
    """sum_n seq[n] * w^(n k) for every k < L = len(seq), w = g^stride
    of order L: mixed-radix Cooley-Tukey, split at the smallest prime
    factor r of L.

    With n = r j + t and k = k1 + M k2 (M = L / r), the sum is
    sum_t u^(t k2) (w^(t k1) Y_t[k1]), where Y_t is the length-M DFT of
    seq[t::r] with root w^r and u = w^M = g^((q-1)/r): twiddles in the
    log domain, then one r-point DFT on the r-th roots of unity per k1,
    done as whole-vector passes over k1.
    """
    length = len(seq)
    if length <= DFT_LEAF:
        return _dft_leaf(ctx, seq, stride)
    r = prime_factors(length)[0]
    if r == length:
        return _dft_leaf(ctx, seq, stride)
    q1 = ctx.q - 1
    exp = ctx.exp_table
    log = ctx.log_table
    subs = [_dft(ctx, seq[t::r], stride * r) for t in range(r)]
    for t in range(1, r):
        step = stride * t
        subs[t] = [exp[(log[y] + step * k) % q1] if y else 0 for k, y in enumerate(subs[t])]
    root = q1 // r  # log of u
    out = []
    for k2 in range(r):
        acc = subs[0]
        for t in range(1, r):
            acc = ctx.axpy(acc, exp[root * (t * k2 % r)], subs[t])
        out += acc
    return out


def interpolate_table(ctx: FieldContext, values) -> list[int]:
    """The unique polynomial of degree <= q-1 through (a, values[a]).

    Interpolating over the whole field collapses to power sums: with
    S_j = sum over nonzero a of values[a] * a^j, the coefficient of
    x^k is -S_(q-1-k) for 1 <= k <= q-2, the constant term is
    values[0], and the top coefficient is -(S_0 + values[0]). With
    a = g^i for the primitive g, S_0 .. S_(q-2) are the length-(q-1)
    DFT of values in log order, computed by _dft in
    O((q-1) * sum of the prime factors of q-1) operations, counted with
    multiplicity; when q-1 is prime (F_128, F_8192) that is (q-1)^2.
    """
    q = ctx.q
    exp = ctx.exp_table
    s = _dft(ctx, [values[exp[i]] for i in range(q - 1)], 1)
    neg = ctx.neg_table
    out = [values[0]]
    out += [neg[s[q - 1 - k]] for k in range(1, q - 1)]
    out.append(neg[ctx.add(s[0], values[0])])
    return normalize(out)


def inverse_table(ctx: FieldContext, table) -> list[int]:
    """The table of the inverse permutation: inverse[table[x]] = x."""
    inverse = [-1] * ctx.q
    for x, y in enumerate(table):
        if inverse[y] >= 0:
            raise NotAPermutationError(
                f"not a permutation: collides at {inverse[y]} and {x}"
            )
        inverse[y] = x
    return inverse


def compositional_inverse(ctx: FieldContext, f) -> list[int]:
    """The unique reduced h with h(f(x)) = f(h(x)) = x."""
    return interpolate_table(ctx, inverse_table(ctx, eval_table(ctx, f)))


def is_compositional_inverse(ctx: FieldContext, f, h) -> bool:
    """Whether h == compositional_inverse(ctx, f), without interpolating.

    Exact: h must be reduced (degree <= q-1) and agree with the inverse
    table at every point. Raises NotAPermutationError when f is not a
    permutation.
    """
    inverse = inverse_table(ctx, eval_table(ctx, f))
    return len(h) <= ctx.q and eval_table(ctx, h) == inverse


# -- enumeration domains --


@dataclass(frozen=True)
class FamilyShape:
    """Candidates (x^p - b x)^m + alpha x^p + beta x over all (alpha, beta)."""

    m: int
    b: int


@dataclass(frozen=True)
class EnumReport:
    searched: int
    ppr_count: int
    ppr_list: tuple[tuple[int, ...], ...] | None


def _scan_subspace(ctx: FieldContext, basis):
    """Test every candidate in lexicographic coordinate order (first
    coordinate most significant)."""
    q = ctx.q
    dim = len(basis)
    width = q - 2
    # monomial evaluation tables power[j][x] = x^(j+1)
    power = [[ctx.pow(x, j + 1) for x in range(q)] for j in range(width)]
    add = ctx.add
    mul = ctx.mul
    q1 = q - 1

    digits = [0] * dim
    zero = [0] * width
    partial = [zero] * dim  # partial[i] = sum of digits[j] * basis[j], j <= i

    searched = 0
    count = 0
    found: list[tuple[int, ...]] | None = []
    stamp = [0] * q
    tick = 0
    for index in range(q**dim):
        if index:
            pos = dim - 1
            while digits[pos] == q1:
                digits[pos] = 0
                pos -= 1
            digits[pos] += 1
            base = partial[pos - 1] if pos else zero
            for i in range(pos, dim):
                base = ctx.axpy(base, digits[i], basis[i])
                partial[i] = base
        vec = partial[dim - 1] if dim else zero
        searched += 1
        # leading coefficient must be 1 (monic) before any evaluation
        deg_idx = width - 1
        while deg_idx >= 0 and not vec[deg_idx]:
            deg_idx -= 1
        if deg_idx < 0 or vec[deg_idx] != 1:
            continue
        d = deg_idx + 1
        if d > 1 and q1 % d == 0:
            continue  # no permutation of degree d when d divides q - 1
        support = [(j, c) for j, c in enumerate(vec[: deg_idx + 1]) if c]
        tick += 1
        ok = True
        stamp[0] = tick  # candidate fixes 0
        for x in range(1, q):
            y = 0
            for j, c in support:
                y = add(y, mul(c, power[j][x]))
            if stamp[y] == tick:
                ok = False
                break
            stamp[y] = tick
        if ok:
            count += 1
            if found is not None:
                found.append((0, *vec[: deg_idx + 1]))
                if len(found) > LIST_LIMIT:
                    found = None
    return searched, count, found


def _scan_shape(ctx: FieldContext, shape: FamilyShape):
    """Candidates in the order alpha * q + beta, alpha outer; each
    candidate stops at its first collision.

    g(x) + alpha x^p is tabulated once per alpha with ctx.axpy. With
    the flat tables it is kept as add-table row offsets and beta x is
    the mul-table row of beta, so a point costs one add-table lookup and
    the stamp test; above FLAT_TABLE_LIMIT each point calls ctx.add and
    ctx.mul.
    """
    from .poly import gmb_poly  # local import keeps module load light

    q = ctx.q
    g = gmb_poly(ctx, shape.m, shape.b)
    g_table = eval_table(ctx, g)
    add = ctx.add
    mul = ctx.mul
    # flat tables read directly, point by point: each candidate stops at its first collision
    at = ctx.add_table
    mt = ctx.mul_table
    if mt is not None:  # beta x for x = 1 .. q-1
        beta_rows = [mt[beta * q + 1 : beta * q + q] for beta in range(q)]
    searched = 0
    count = 0
    found: list[tuple[int, ...]] | None = []
    stamp = [0] * q
    tick = 0
    for alpha in range(q):
        # g(x) + alpha x^p at every x
        shape_alpha = ctx.axpy(g_table, alpha, ctx.frob_table)
        if mt is not None:
            offsets = [v * q for v in shape_alpha[1:]]
        for beta in range(q):
            searched += 1
            tick += 1
            stamp[0] = tick
            ok = True
            if mt is not None:
                for off, bx in zip(offsets, beta_rows[beta]):
                    y = at[off + bx]
                    if stamp[y] == tick:
                        ok = False
                        break
                    stamp[y] = tick
            else:
                for x in range(1, q):
                    y = add(shape_alpha[x], mul(beta, x))
                    if stamp[y] == tick:
                        ok = False
                        break
                    stamp[y] = tick
            if ok:
                count += 1
                if found is not None:
                    coeffs = list(g)
                    coeffs[ctx.p] = add(coeffs[ctx.p], alpha)
                    coeffs[1] = add(coeffs[1], beta)
                    found.append(tuple(coeffs))
                    if len(found) > LIST_LIMIT:
                        found = None
    return searched, count, found


def enumerate_pprs(
    ctx: FieldContext,
    domain,
    budget: int = DEFAULT_BUDGET,
) -> EnumReport:
    """Count (and up to LIST_LIMIT, list) the monic zero-fixing
    permutations in a subspace or parametric shape.

    The domain size must fit the budget; nothing is silently truncated.
    """
    from .eigen import Subspace

    if isinstance(domain, Subspace):
        if domain.ambient != ctx.q - 2:
            raise OutOfRangeError("subspace does not live over the monomial coordinates")
        total = ctx.q**domain.dim
        scan = lambda: _scan_subspace(ctx, domain.basis)
    elif isinstance(domain, FamilyShape):
        total = ctx.q**2
        scan = lambda: _scan_shape(ctx, domain)
    else:
        raise OutOfRangeError(f"unsupported enumeration domain {type(domain).__name__}")
    if total > budget:
        raise BudgetExceededError(f"{total} candidates exceed budget {budget}")
    searched, count, found = scan()
    ppr_list = None if found is None else tuple(sorted(found))
    return EnumReport(searched=searched, ppr_count=count, ppr_list=ppr_list)


# -- degree census over prime fields --


@dataclass(frozen=True)
class DegreeCensus:
    counts: dict[int, int]
    stage_violations: tuple[tuple[int, ...], ...]
    total: int


def degree_distribution(ctx: FieldContext, budget: int = DEFAULT_BUDGET) -> DegreeCensus:
    """Census of monic zero-fixing permutations of F_p by degree.

    The candidates of degree d = 1 .. p-2 number sum p^(d-1), which must
    fit the budget. Each hit is also checked to first appear in the
    kernel chain exactly at stage = degree: (A_1 - I)^d kills it and
    (A_1 - I)^(d-1) does not, with the shift applied by substitution.
    Offenders (none expected) are returned.
    """
    from itertools import product

    from .eigen import apply_shift

    if ctx.n != 1:
        raise OutOfRangeError("degree census applies to prime fields")
    p = ctx.q
    total = sum(p ** (d - 1) for d in range(1, p - 1))
    if total > budget:
        raise BudgetExceededError(f"{total} candidates exceed budget {budget}")
    counts = {d: 0 for d in range(1, p - 1)}
    violations = []
    for d in range(1, p - 1):
        for mid in product(range(p), repeat=d - 1):
            f = [0, *mid, 1]
            if not is_permutation(ctx, f).is_pp:
                continue
            counts[d] += 1
            g, stage = f, 0
            while g and stage <= d:  # g = (A_1 - I)^stage f
                # the shift keeps the degree and the lead, so the lengths agree
                g = normalize(ctx.axpy(apply_shift(ctx, 1, g), ctx.neg(1), g))
                stage += 1
            if stage != d:
                violations.append(tuple(f))
    return DegreeCensus(counts=counts, stage_violations=tuple(violations), total=sum(counts.values()))
