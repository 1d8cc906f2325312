"""Permutation testing, inversion and exhaustive enumeration.

The primary oracle is the direct bijectivity test on the full
evaluation table from poly.eval_table; the power-degree (Hermite)
criterion, read from power sums of the same table, is kept as an
independent cross-check, not an optimization. One loop,
_invert, reads a whole table once: it returns the inverse table or the
first colliding pair, and is_permutation, inverse_table and the
basis-less scan all take their verdict from it. Compositional inverses
come from interpolating the inverted table through all q points with
one mixed-radix DFT over F_q^*, its B sub-transforms side by side in
one list (element n of b at n B + b): (q-1) times the sum of the prime
factors of q-1, or (q-1) P for a largest one P >= sqrt(q-1), and fields
costlier than F_65536 are refused. A claimed inverse h is checked
pointwise instead, O(q) per nonzero term: a reduced polynomial equals
the interpolant of a table iff it agrees with the table at every point.

Every enumeration here is an affine scan of offset + span(basis): a
subspace's monic members (one scan per top degree), the degree census
and, with an empty offset, all polynomials of degree <= q-2, all
through FieldContext.bijective_scalars. fp2 runs no scan: _invert's
inverse tables of the p binomials x^m + cx of F_p decide the F_{p^2}
family shapes and their closure under inversion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eigen import Subspace, apply_shift, degree_echelon
from .errors import (
    BudgetExceededError,
    CapExceededError,
    DimensionMismatchError,
    NotAPermutationError,
    OutOfRangeError,
)
from .gf import DEFAULT_FIELD_CAP, FieldContext, prime_factors, require_int, require_same_field
from .poly import (
    eval_table,
    is_monic,
    monomial,
    normalize,
    require_poly,
)

DEFAULT_BUDGET = 10_000_000
LIST_LIMIT = 10_000
# hermite_test refuses fields above this. From the value table a
# verdict costs at most q-2 power-sum passes of O(q) each, so the cap no
# longer prices q-2 dense products; it fixes the fields on which
# hermite.agreement runs (skipped above it), and re-pricing it changes
# the reports of F_81, F_121 and F_125
HERMITE_MAX_Q = 64


@dataclass(frozen=True)
class PermVerdict:
    is_pp: bool
    is_ppr: bool
    witness: tuple[int, int] | None  # colliding pair when not bijective


def _invert(table):
    """One pass over an evaluation table indexed by element: (inverse,
    None) when it is a bijection, inverse[table[x]] = x, else (None,
    (x', x)) for the first x whose value the smaller x' already took."""
    inverse = [-1] * len(table)
    for x, y in enumerate(table):
        if inverse[y] >= 0:
            return None, (inverse[y], x)
        inverse[y] = x
    return inverse, None


def is_permutation(ctx: FieldContext, f) -> PermVerdict:
    """Direct bijectivity test; a witness collision is reported on failure."""
    witness = _invert(eval_table(ctx, f))[1]
    is_pp = witness is None
    is_ppr = is_pp and is_monic(f) and f[0] == 0
    return PermVerdict(is_pp=is_pp, is_ppr=is_ppr, witness=witness)


def hermite_test(ctx: FieldContext, f) -> bool:
    """Degree criterion on the reduced powers f^t mod x^q - x.

    True iff f^(q-1) reduces monic of degree q-1 and every f^t for
    1 <= t <= q-2 with t not a multiple of p reduces to degree <= q-2.
    Agrees with is_permutation on every input. No power is expanded:
    each condition is read off the value table of f by _hermite_table.
    """
    require_poly(ctx, f)
    q = ctx.q
    if q <= 2:
        raise OutOfRangeError("degree criterion needs q > 2")
    if q > HERMITE_MAX_Q:
        raise CapExceededError(f"q = {q} exceeds the cost cap {HERMITE_MAX_Q}")
    return _hermite_table(ctx, eval_table(ctx, f))


def _hermite_table(ctx: FieldContext, table) -> bool:
    """Hermite's criterion for the polynomial whose values, indexed by
    element, are table, from the power sums S_t = sum_x f(x)^t.

    A reduced g = sum_(k < q) g_k x^k has sum_x g(x) = -g_(q-1). With
    0^0 = 1, sum_x x^k is q = 0 for k = 0; for 0 < k < q-1 it is the
    geometric sum over x = a^i, a primitive, which is 0 as a^k != 1;
    for k = q-1 it is q - 1 = -1. Since any g agrees with its reduction
    mod x^q - x at every x, the x^(q-1) coefficient of f^t reduced is
    -S_t. So f^t reduces to degree <= q-2 iff S_t = 0, and f^(q-1)
    reduces monic of degree q-1 iff S_(q-1) = -1. S_(q-1) counts the
    nonzero values, q minus the number of roots, so that holds iff the
    number of roots is 1 mod p. The root count is checked first; then
    one O(q) pass per t, added by ctx.axpy_at into a one-entry row,
    stops at the first nonzero S_t.
    """
    q1, p = ctx.q - 1, ctx.p
    exp, log = ctx.exp_table, ctx.log_table
    logs = [log[y] for y in table if y]
    if (ctx.q - len(logs)) % p != 1:
        return False
    for t in range(1, q1):
        if t % p:
            s = [0]
            ctx.axpy_at(s, 1, [(0, exp[e * t % q1]) for e in logs])
            if s[0]:
                return False
    return True


# Transforms up to this length run as one leaf, which beat the split
# into prime factors at q-1 = 10, 12 and 15 and lost at 16
DFT_LEAF = 15
# the cost of F_65536's transform, q-1 times its largest prime factor
_DFT_COST_LIMIT = (DEFAULT_FIELD_CAP - 1) * prime_factors(DEFAULT_FIELD_CAP - 1)[-1]


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


def _dft(ctx: FieldContext, seq) -> list[int]:
    """sum_n seq[n] * g^(n k) for every k < N = len(seq) = q - 1, in
    whole-vector mixed-radix stages over all sub-transforms at once.

    Split at the prime factors of N, smallest first, to the largest P:
    sub-transform b of B = N / P reads seq[n B + b], so splits move no
    data. If B <= P each runs _dft_leaf on seq[b::B] (N P terms), else
    they make a bottom stage on length 1. A radix-r stage joins B = r B'
    results of length L, stored in turn, into B' of length r L: with
    b = t B' + b', X_b'[k1 + L k2] = sum_t u^(t k2) w^(t k1) Y_b[k1],
    w = g^B', u = g^(N/r). Block t holds the Y_b of that t: a log-domain
    twiddle pass, r(r - 1) ctx.axpy calls over blocks and min(B', L)
    slice assignments per sum, (r - 1) N terms in all.
    """
    q1 = len(seq)
    if q1 <= DFT_LEAF:
        return _dft_leaf(ctx, seq, 1)
    radices, length = [], q1
    for r in prime_factors(q1):
        while length % r == 0:
            radices.append(r)
            length //= r
    count = q1 // radices[-1]
    if count <= radices[-1]:
        y = []
        for b in range(count):
            y += _dft_leaf(ctx, seq[b::count], count)
        length = radices.pop()
    else:
        y, length = seq, 1
    exp, log = ctx.exp_table, ctx.log_table
    for r in reversed(radices):
        block = q1 // r
        count = block // length
        z = [y[:block]]
        for t in range(1, r):
            zt = y[t * block : (t + 1) * block]
            if length > 1:
                step = count * t
                twiddles = range(0, step * length, step)
                if count > 1:
                    twiddles = list(twiddles) * count
                zt = [exp[(log[v] + e) % q1] if v else 0 for v, e in zip(zt, twiddles)]
            z.append(zt)
        span = r * length
        y = [] if count == 1 else [0] * q1
        for k2 in range(r):
            acc = z[0]
            for t in range(1, r):
                acc = ctx.axpy(acc, exp[block * (t * k2 % r)], z[t])
            start = k2 * length
            if count == 1:
                y += acc
            elif count <= length:
                for b in range(count):
                    y[start : start + length] = acc[b * length : (b + 1) * length]
                    start += span
            else:
                for k1 in range(length):
                    y[start + k1 :: span] = acc[k1::length]
        length = span
    return y


def _require_table(ctx: FieldContext, table) -> None:
    """Refuse anything but one element index per element of F_q: O(q),
    once per public call, so that _invert and _dft index safely."""
    if len(table) != ctx.q:
        raise DimensionMismatchError(f"table of length {len(table)}, expected q = {ctx.q}")
    require_poly(ctx, table)


def interpolate_table(ctx: FieldContext, values) -> list[int]:
    """The unique polynomial of degree <= q-1 through (a, values[a]).

    Interpolating over the whole field collapses to power sums: with
    S_j = sum over nonzero a of values[a] * a^j, the coefficient of
    x^k is -S_(q-1-k) for 1 <= k <= q-2, the constant term is
    values[0], and the top coefficient is -(S_0 + values[0]). With
    a = g^i for the primitive g, S_0 .. S_(q-2) are the length-(q-1)
    DFT of values in log order: _dft, about (q-1) times the sum of the
    prime factors of q-1 with multiplicity, or (q-1) P when the largest
    P >= (q-1) / P. Before any transform, CapExceededError refuses a
    field whose (q-1) P exceeds F_65536's 1.7 * 10^7, as F_8192's
    6.7 * 10^7 (8191 is prime) and most prime fields above it.
    """
    q = ctx.q
    if (q - 1) ** 2 > _DFT_COST_LIMIT:  # else the cost, at most (q-1)^2, is below it
        cost = (q - 1) * prime_factors(q - 1)[-1]
        if cost > _DFT_COST_LIMIT:
            raise CapExceededError(f"interpolation over F_{q} costs {cost} terms, "
                                   f"above F_{DEFAULT_FIELD_CAP}'s {_DFT_COST_LIMIT}")
    _require_table(ctx, values)
    exp = ctx.exp_table
    s = _dft(ctx, [values[exp[i]] for i in range(q - 1)])
    neg = ctx.neg_table
    out = [values[0]]
    out += [neg[s[q - 1 - k]] for k in range(1, q - 1)]
    out.append(neg[ctx.add(s[0], values[0])])
    return normalize(out)


def inverse_table(ctx: FieldContext, table) -> list[int]:
    """The table of the inverse permutation: inverse[table[x]] = x."""
    _require_table(ctx, table)
    return _inverse(table)


def _inverse(table) -> list[int]:
    """inverse_table's body, for tables that are valid by construction."""
    inverse, witness = _invert(table)
    if inverse is None:
        raise NotAPermutationError(f"not a permutation: collides at {witness[0]} and {witness[1]}")
    return inverse


def compositional_inverse(ctx: FieldContext, f) -> list[int]:
    """The unique reduced h with h(f(x)) = f(h(x)) = x. eval_table
    checks f, so its table goes to _inverse unchecked."""
    return interpolate_table(ctx, _inverse(eval_table(ctx, f)))


def is_compositional_inverse(ctx: FieldContext, f, h) -> bool:
    """Whether h == compositional_inverse(ctx, f), without interpolating.

    Exact: h must be reduced (degree <= q-1) and agree with the inverse
    table at every point. Raises NotAPermutationError when f is not a
    permutation.
    """
    require_poly(ctx, h)  # eval_table checks f, and h too unless len(h) > q
    inverse = _inverse(eval_table(ctx, f))  # valid by construction
    return len(h) <= ctx.q and eval_table(ctx, h) == inverse


# -- enumeration domains --


def require_budget(total: int, budget: int) -> None:
    """Refuse a scan of total candidates before it starts; a negative
    budget refuses every scan."""
    require_int(budget, message="budget {x!r} is not an int")
    if total > budget:
        raise BudgetExceededError(f"{total} candidates exceed budget {budget}")


@dataclass(frozen=True)
class EnumReport:
    searched: int
    ppr_count: int
    ppr_list: tuple[tuple[int, ...], ...] | None


def _prefixes(ctx: FieldContext, start, rows):
    """start + sum c_i rows[i] for every (c_0, c_1, ...) in F_q^len(rows),
    in lexicographic order (c_0 most significant), each built from its
    parent with one ctx.axpy."""
    if not rows:
        yield start
        return
    for c in range(ctx.q):
        yield from _prefixes(ctx, ctx.axpy(start, c, rows[0]) if c else start, rows[1:])


def _scan(ctx: FieldContext, offset, basis):
    """The members of offset + span(basis) that permute F_q, as
    coefficient tuples in lexicographic order of their coordinates,
    padded to the longest of offset and basis.

    Each polynomial is evaluated once. _prefixes builds the tables and
    coefficient rows of all coordinates but the last in step, and
    ctx.bijective_scalars tests the last coordinate's q candidates."""
    width = max(map(len, (offset, *basis)))
    coeffs = [list(f) + [0] * (width - len(f)) for f in (offset, *basis)]
    tables = [eval_table(ctx, f) for f in (offset, *basis)]
    if not basis:
        if _invert(tables[0])[1] is None:
            yield tuple(offset)
        return
    last = [(j, v) for j, v in enumerate(basis[-1]) if v]
    heads = _prefixes(ctx, coeffs[0], coeffs[1:-1])
    prefix_tables = _prefixes(ctx, tables[0], tables[1:-1])
    for head, hits in zip(heads, ctx.bijective_scalars(prefix_tables, tables[-1])):
        for c in hits:
            row = list(head)
            ctx.axpy_at(row, c, last)
            yield tuple(row)


def _monic_blocks(ctx: FieldContext, space):
    """The monic members of a V[x] subspace as affine sets (offset, basis).

    Echelonized on top degrees, the rows B_0, B_1, ... are monic of
    falling degree, so sum c_i B_i has the degree and lead of its first
    nonzero c_t: the monic members are B_t + span(B_(t+1), ...) over t.
    Blocks of degree d > 1 with d | q - 1 hold no permutation."""
    rows = degree_echelon(ctx, space)
    q1 = ctx.q - 1
    return [(f, rows[t + 1 :]) for t, f in enumerate(rows) if len(f) == 2 or q1 % (len(f) - 1)]


def enumerate_pprs(
    ctx: FieldContext,
    domain,
    budget: int = DEFAULT_BUDGET,
) -> EnumReport:
    """Count (and up to LIST_LIMIT, list) the monic zero-fixing
    permutations in a V[x] subspace.

    The domain size must fit the budget; nothing is silently truncated.
    """
    if not isinstance(domain, Subspace):
        raise OutOfRangeError(f"unsupported enumeration domain {type(domain).__name__}")
    if domain.ambient != ctx.q - 2:
        raise OutOfRangeError("subspace does not live over the monomial coordinates")
    require_same_field(domain.ctx, ctx, "domain and ctx")
    total = ctx.q**domain.dim
    require_budget(total, budget)
    count = 0
    found: list[tuple[int, ...]] | None = []
    for offset, basis in _monic_blocks(ctx, domain):
        for f in _scan(ctx, offset, basis):
            count += 1
            if found is not None:
                found.append(f)
                if len(found) > LIST_LIMIT:
                    found = None
    ppr_list = None if found is None else tuple(sorted(found))
    return EnumReport(searched=total, ppr_count=count, ppr_list=ppr_list)


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
    if ctx.n != 1:
        raise OutOfRangeError("degree census applies to prime fields")
    p = ctx.q
    total = sum(p ** (d - 1) for d in range(1, p - 1))
    require_budget(total, budget)
    counts = {d: 0 for d in range(1, p - 1)}
    violations = []
    for d in range(1, p - 1):
        for f in _scan(ctx, monomial(d), [monomial(j) for j in range(1, d)]):
            counts[d] += 1
            g, stage = f, 0
            while g and stage <= d:  # g = (A_1 - I)^stage f
                # the shift keeps the degree and the lead, so the lengths agree
                g = normalize(ctx.axpy(apply_shift(ctx, 1, g), ctx.neg(1), g))
                stage += 1
            if stage != d:
                violations.append(f)
    return DegreeCensus(counts=counts, stage_violations=tuple(violations), total=sum(counts.values()))
