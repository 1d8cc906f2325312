"""Claim-by-claim reproduction driver.

Runs the complete catalog of checkable results for one field or for
the default desk-scale roster and emits one ClaimReport per claim:
status verified / refuted / measured / skipped, with the expected and
observed data side by side. Refutations carry a concrete
counterexample and are ordinary report content, not errors.

Everything is deterministic for a fixed RunConfig: sampled checks draw
from a generator seeded per (seed, claim, field), and wall-clock
timings are only included on request so default output is
byte-identical across runs.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass
from itertools import product

from . import eigen, fp2, pp
from .errors import BudgetExceededError, DimensionMismatchError, OutOfRangeError
from .gf import (FieldContext, build_field, line_count, line_decomposition, require_int,
                 roots_of_unity)
from .poly import (
    _binomial_power,
    coords,
    eval_table,
    from_coords,
    linearized_coeffs,
    linearized_poly,
    monomial,
    normalize,
)

DEFAULT_ROSTER = ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2))


@dataclass(frozen=True)
class RunConfig:
    p: int | None = None
    n: int | None = None
    modulus_override: tuple[int, ...] | None = None
    budget: int = pp.DEFAULT_BUDGET
    seed: int = 0
    timings: bool = False

    def __post_init__(self):
        require_int(self.budget, message="budget {x!r} is not an int")
        require_int(self.seed, message="seed {x!r} is not an int")


@dataclass
class ClaimReport:
    claim_id: str
    field: str
    status: str  # verified | refuted | measured | skipped
    expected: object
    observed: object
    runtime: float | None = None
    note: str = ""


SECTION_ORDER = ("preliminaries", "shift-map", "shift-family", "fp2", "appendix")


class _FieldRun:
    """Shared per-field state: context, claim list and one memo that
    keeps what several claims read (the Lemma 1 power flags, the kernels
    K_k of the unit shift, V_k, enumerations, the family shapes' PPRs,
    the degree census, the Theorem 15 sweep of each (m, b), the lemma
    suite) from the first claim that builds it to the end of the run.
    Each claim builds the operators A_r it reads and drops them; a
    kernel of A_r is rescaled from K_k on each read and not held."""

    def __init__(self, ctx: FieldContext, cfg: RunConfig):
        self.ctx = ctx
        self.cfg = cfg
        self.name = f"F_{ctx.q}"
        self.reports: list[ClaimReport] = []
        self._memo: dict = {}

    def rng(self, claim_id: str) -> random.Random:
        return random.Random(f"{self.cfg.seed}:{claim_id}:{self.ctx.p}:{self.ctx.n}")

    def memo(self, key, build):
        """The value under key, made by build() on first use."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def unit_kernel(self, k: int) -> eigen.Subspace:
        """K_k = ker((A_1 - I)^k) over F_p, the one elimination per k."""
        return self.memo(("K", k), lambda: eigen.unit_kernel(self.ctx, k))

    def kernel(self, r: int, k: int) -> eigen.Subspace:
        """ker((A_r - I)^k): K_k rescaled by D_r^-1, rebuilt on each call."""
        return eigen.rescale_kernel(self.ctx, self.unit_kernel(k), r)

    def vk(self, k: int, generators=None) -> eigen.Subspace:
        """V_k over the generators (default 1, a, ..., a^(n-1))."""
        gens = tuple(generators or eigen.default_generators(self.ctx))
        return self.memo(("V", k, gens), lambda: functools.reduce(
            eigen.Subspace.intersect, [self.kernel(r, k) for r in gens]))

    def enumeration(self, space: eigen.Subspace) -> pp.EnumReport:
        return self.memo(("enum", space),
                         lambda: pp.enumerate_pprs(self.ctx, space, budget=self.cfg.budget))

    def shape(self, m: int, b: int):
        """The PPRs (x^p - bx)^m + alpha x^p + beta x, one array of
        alpha * q + beta in scan order (fp2.shape_pprs). The shape
        censuses and sec5.extra_closure read it; held for the run as
        coefficient tuples, the PPRs raised the peak memory of the
        default roster by about a tenth."""
        return self.memo(("shape", m, b), lambda: fp2.shape_pprs(
            self.ctx, m, b, budget=self.cfg.budget))

    def sweeps(self) -> dict:
        """{(m, b): fp2.inverse_sweep(ctx, m, b)} over the family: each
        pairs array is the conditioned set every claim loop reads."""
        return self.memo("thm15", lambda: {
            (m, b): fp2.inverse_sweep(self.ctx, m, b)
            for m in range(2, self.ctx.p) for b in fp2.family_b_values(self.ctx)})

    def census(self) -> pp.DegreeCensus:
        return self.memo("census", lambda: pp.degree_distribution(self.ctx, self.cfg.budget))

    def run(self, claim_id: str, check, domain=None) -> None:
        """Run one claim and keep its report. A claim whose domain, a
        (predicate on the context, note) pair, excludes the field is
        reported as skipped with that note and its check is not called;
        a claim over the run's budget is reported as skipped with the
        budget message. Either way the claims after it still run."""
        started = time.perf_counter()
        try:
            if domain is not None and not domain[0](self.ctx):
                status, expected, observed, note = "skipped", None, None, domain[1]
            else:
                status, expected, observed, note = check(self)
        except BudgetExceededError as exc:
            status, expected, observed, note = "skipped", None, None, str(exc)
        self.reports.append(ClaimReport(
            claim_id=claim_id,
            field=self.name,
            status=status,
            expected=None if status == "measured" else expected,
            observed=observed,
            runtime=round(time.perf_counter() - started, 3) if self.cfg.timings else None,
            note=note,
        ))


def _verdict(bad, holds, note: str, shown: int | None = 3):
    """The report of a claim whose evidence is its failures bad: verified
    when there are none, and then observed reads holds; otherwise the
    first shown of them (all when shown is None)."""
    return ("verified" if not bad else "refuted", holds,
            (bad if shown is None else bad[:shown]) or holds, note)


# -- preliminaries --


def _frobenius_additivity(run: _FieldRun):
    ctx = run.ctx
    bad = [
        (x, y)
        for x in range(ctx.q)
        for y in range(ctx.q)
        if ctx.frobenius(ctx.add(x, y)) != ctx.add(ctx.frobenius(x), ctx.frobenius(y))
    ]
    return _verdict(bad, "additive", f"exhaustive over {ctx.q}^2 pairs")


def _max_degree(run: _FieldRun):
    ctx = run.ctx
    rng = run.rng("cor1.max_degree")
    samples = 30
    bad = []
    values = list(range(ctx.q))
    for _ in range(samples):
        rng.shuffle(values)
        h = pp.interpolate_table(ctx, values)
        if len(h) - 1 > ctx.q - 2:
            bad.append(tuple(h))
    return _verdict(bad, f"degree <= {ctx.q - 2}",
                    f"{samples} random permutations interpolated (seeded)", shown=2)


def _divisor_degrees(run: _FieldRun):
    """No polynomial whose degree d divides q - 1, 1 < d < q - 1,
    permutes F_q. Prime fields test every x^d + c_(d-1)x^(d-1) + ... +
    c_1 x, one pp._scan per d under one budget check on the total;
    extension fields test 60 seeded polynomials per d."""
    ctx = run.ctx
    q = ctx.q
    divisors = [d for d in range(2, q - 1) if (q - 1) % d == 0]
    bad = []
    if ctx.n == 1:
        checked = sum(q ** (d - 1) for d in divisors)
        pp.require_budget(checked, run.cfg.budget)
        for d in divisors:
            bad.extend(pp._scan(ctx, monomial(d), [monomial(j) for j in range(1, d)]))
    else:
        rng = run.rng("cor2.divisor_degrees")
        checked = 60 * len(divisors)
        for d in divisors:
            for _ in range(60):
                f = [rng.randrange(q) for _ in range(d + 1)]
                f[-1] = 1 + rng.randrange(q - 1)
                f = normalize(f)
                if pp.is_permutation(ctx, f).is_pp:
                    bad.append(tuple(f))
    note = f"degrees {divisors}, {checked} candidates" + ("" if ctx.n == 1 else " (sampled)")
    return _verdict(bad, "no permutations", note, shown=2)


def _hermite_agreement(run: _FieldRun):
    """Hermite's criterion against direct bijectivity on V[x]. Each
    candidate is evaluated once and both verdicts come from that one
    table: pp._hermite_table and pp._invert. On F_5 and F_7 the tables
    of all q^(q-2) members are pp._prefixes of the tables of x, ...,
    x^(q-2), in the order of product(range(q), repeat=q-2), so a
    disagreement is rebuilt from its coordinates."""
    ctx = run.ctx
    q = ctx.q

    def disagrees(table):
        return pp._hermite_table(ctx, table) != (pp._invert(table)[1] is None)

    disagree = []
    if q in (5, 7):
        rows = [eval_table(ctx, monomial(j)) for j in range(1, q - 1)]
        tables = pp._prefixes(ctx, [0] * q, rows)
        for vec, table in zip(product(range(q), repeat=q - 2), tables):
            if disagrees(table):
                disagree.append(tuple(normalize([0, *vec])))
        note = f"exhaustive over V[x], {q ** (q - 2)} polynomials"
    else:
        rng = run.rng("hermite.agreement")
        checked = 1000 if q <= 9 else 150
        for _ in range(checked):
            f = normalize([0] + [rng.randrange(q) for _ in range(q - 2)])
            if disagrees(eval_table(ctx, f)):
                disagree.append(tuple(f))
        note = f"{checked} random V[x] polynomials (seeded)"
    return _verdict(disagree, "agreement", note, shown=2)


def _orbit_identity(run: _FieldRun):
    ctx = run.ctx
    q = ctx.q
    pp.require_budget(q ** (q - 1), run.cfg.budget)
    pp_count = sum(1 for _ in pp._scan(ctx, [], [monomial(j) for j in range(q - 1)]))
    ppr_total = run.census().total
    expected = q * (q - 1) * ppr_total
    status = "verified" if pp_count == expected else "refuted"
    return status, expected, pp_count, f"all {q}^{q - 1} polynomials of degree <= q-2"


# -- the shift map --


def _identity_powers(run: _FieldRun) -> dict[int, tuple[bool, ...]]:
    """{r: whether A_r^j = I for j = 1..p} from mat_mul product chains,
    so that Lemma 1 does not lean on Lemma 9's A_r^j = A_(jr).

    The chain runs for A_1. Each other A_r is built in turn and dropped:
    one that equals D_r^-1 A_1 D_r entry for entry, D_r = diag(r^e), has
    A_r^j = D_r^-1 A_1^j D_r, which is I exactly when A_1^j is, so it
    takes A_1's flags; one that fails that check runs its own chain.
    """

    def build():
        ctx = run.ctx
        ident = eigen.mat_identity(ctx.q - 2)

        def chain(a):
            acc, flags = a, [a == ident]
            for _ in range(ctx.p - 1):
                acc = eigen.mat_mul(ctx, acc, a)
                flags.append(acc == ident)
            return tuple(flags)

        unit = eigen.shift_operator(ctx, 1)
        flags = {1: chain(unit)}
        for r in range(2, ctx.q):
            a = eigen.shift_operator(ctx, r)
            flags[r] = flags[1] if _conjugates_unit(ctx, r, a, unit) else chain(a)
        return flags

    return run.memo("powers", build)


def _conjugates_unit(ctx: FieldContext, r: int, a, unit) -> bool:
    """Whether a = D_r^-1 unit D_r: entry (i, j) is r^(j-i) unit[i][j],
    so a is zero wherever unit is, below the diagonal too."""
    d = len(unit)
    scale = [ctx.pow(r, s) for s in range(1 - d, d)]  # r^s at index s + d - 1
    return len(a) == d and all(
        row == tuple(map(ctx.mul, scale[d - 1 - i:2 * d - 1 - i], unit_row))
        for i, (row, unit_row) in enumerate(zip(a, unit)))


def _shift_order(run: _FieldRun, r: int) -> int | None:
    """The least j <= p with A_r^j = I, or None when there is none."""
    flags = _identity_powers(run)[r]
    return flags.index(True) + 1 if True in flags else None


def _operator_power(run: _FieldRun):
    ctx = run.ctx
    bad = [r for r, flags in _identity_powers(run).items() if not flags[-1]]
    return _verdict(bad, "identity at power p", f"all {ctx.q - 1} nonzero shifts", shown=None)


def _operator_order(run: _FieldRun):
    ctx = run.ctx
    orders = {r: _shift_order(run, r) for r in range(1, ctx.q)}
    distinct = sorted(set(orders.values()), key=lambda o: o or 0)  # None first
    if distinct == [ctx.p]:
        return "verified", ctx.p, distinct, "all nonzero shifts"
    witness = next(r for r, o in orders.items() if o != ctx.p)
    return "refuted", ctx.p, {"orders": distinct, "counterexample": {"r": witness, "order": orders[witness]}}, (
        "every shift acts as the identity on V[x] over F_4, so the order is 1"
        if ctx.q == 4
        else "unexpected orders"
    )


def _eigenvalue_only_one(run: _FieldRun):
    ctx = run.ctx
    d = ctx.q - 2
    rng = run.rng("lemma2.eigenvalue")
    lambdas = list(range(ctx.q)) if ctx.q <= 27 else sorted(
        {0, 1, *(rng.randrange(ctx.q) for _ in range(10))}
    )
    bad = []
    checked = 0
    for r in (1, ctx.primitive):
        matrix = eigen.shift_operator(ctx, r)
        for lam in lambdas:
            shifted = tuple(
                tuple(ctx.sub(v, lam) if i == j else v for j, v in enumerate(row))
                for i, row in enumerate(matrix)
            )
            full = eigen.mat_rank(ctx, shifted) == d
            checked += 1
            if full == (lam == 1):
                bad.append((r, lam))
    note = f"{checked} (r, lambda) pairs" + ("" if ctx.q <= 27 else " (lambda sampled)")
    return _verdict(bad, "singular only at 1", note)


def _monomial_fixed(run: _FieldRun):
    ctx = run.ctx
    bad = []
    for r in range(ctx.q):
        for k in range(ctx.n):
            mono = monomial(ctx.p**k)
            if eigen.apply_shift(ctx, r, mono) != mono:
                bad.append((r, k))
    return _verdict(bad, "fixed", f"all shifts, k < {ctx.n}")


def _fixed_degrees(run: _FieldRun):
    ctx = run.ctx
    powers = {ctx.p**k for k in range(ctx.n)}
    degrees = sorted(len(f) - 1 for f in eigen.degree_echelon(ctx, run.kernel(1, 1)))
    bad = [d for d in degrees if d not in powers and d % ctx.p]
    status = "verified" if not bad else "refuted"
    return status, "p-powers or p-multiples", degrees, "attainable degrees in the fixed space"


def _kernel_dims(run: _FieldRun):
    """dim ker((A_r - I)^k) = dim K_k for every r: the rescaling by
    D_r^-1 keeps the dimension, so K_k is read once per k and a
    mismatch is listed at every shift."""
    ctx = run.ctx
    expected = {k: min(k * ctx.p ** (ctx.n - 1), ctx.q - 2) for k in range(1, ctx.p + 1)}
    got = {k: run.unit_kernel(k).dim for k in expected}
    bad = [(r, k, got[k]) for r in range(1, ctx.q) for k in expected if got[k] != expected[k]]
    return _verdict(bad, expected, f"all nonzero shifts, k = 1..{ctx.p}")


def _kernel_chain(run: _FieldRun):
    ctx = run.ctx
    bad = []
    prev = None
    for k in range(1, ctx.p + 1):
        cur = run.kernel(1, k)
        if prev is not None:
            if not cur.contains(prev):
                bad.append(("containment", k))
            if prev.dim < ctx.q - 2 and cur.dim <= prev.dim:
                bad.append(("growth", k))
        prev = cur
    status = "verified" if not bad else "refuted"
    dims = [run.kernel(1, k).dim for k in range(1, ctx.p + 1)]
    return status, "strictly growing chain", dims, "unit shift, full chain"


def _span_equality(run: _FieldRun, cases, note: str):
    """span(basis) = ker((A_r - I)^k) for each (tag, basis, r, k) of
    cases; every failure is named by its tag."""
    bad = [tag for tag, basis, r, k in cases
           if eigen.span_of_polys(run.ctx, basis) != run.kernel(r, k)]
    return _verdict(bad, "span equality", note, shown=None)


def _kernel_basis(kind: str):
    """The check that predicted_basis(kind, m) spans ker((A_1 - I)^m)
    for m = 1..p."""
    return lambda run: _span_equality(run, (
        (m, eigen.predicted_basis(run.ctx, kind, m=m), 1, m) for m in range(1, run.ctx.p + 1)
    ), f"m = 1..{run.ctx.p}")


def _first_appearance(run: _FieldRun):
    census = run.census()
    return _verdict(list(census.stage_violations), "stage = degree",
                    f"{census.total} PPRs checked against the kernel chain", shown=2)


def _degree_distribution_claim(run: _FieldRun):
    ctx = run.ctx
    census = run.census()
    expected_total = math.factorial(ctx.q) // (ctx.q * (ctx.q - 1))
    status = "verified" if census.total == expected_total else "refuted"
    return status, {"total": expected_total}, {
        "total": census.total, "by_degree": census.counts
    }, "exhaustive census of monic zero-fixing polynomials"


# -- the shift family --


def _matrix_action(run: _FieldRun):
    ctx = run.ctx
    bad = []
    rs = range(ctx.q) if ctx.q <= 27 else sorted(
        {0, 1, ctx.primitive, *(run.rng("eq1.matrix_action").randrange(ctx.q) for _ in range(6))}
    )
    for r in rs:
        matrix = eigen.shift_operator(ctx, r)
        for e in range(1, ctx.q - 1):
            via_matrix = [row[e - 1] for row in matrix]
            direct = coords(ctx, eigen.apply_shift(ctx, r, monomial(e)))
            if via_matrix != direct:
                bad.append((r, e))
    return _verdict(bad, "columns agree", f"{len(list(rs))} shifts x {ctx.q - 2} monomials")


def _additivity(run: _FieldRun):
    ctx = run.ctx
    bad = []
    if ctx.q <= 27:
        pairs = [(r, s) for r in range(ctx.q) for s in range(ctx.q)]
        note = f"exhaustive over {ctx.q}^2 pairs"
    else:
        rng = run.rng("lemma9.additivity")
        pairs = [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(100)]
        note = "100 sampled pairs (seeded)"
    # each shift built at most once, and all freed when the claim returns
    operator = functools.cache(functools.partial(eigen.shift_operator, ctx))
    for r, s in pairs:
        if eigen.mat_mul(ctx, operator(r), operator(s)) != operator(ctx.add(r, s)):
            bad.append((r, s))
    return _verdict(bad, "A_r A_s = A_(r+s)", note)


def _line_kernels(run: _FieldRun):
    ctx = run.ctx
    lines = line_decomposition(ctx)
    bad = []
    covered = set()
    for line in lines:
        covered.update(line.members)
        if ctx.pow(line.b, line_count(ctx)) != 1:
            bad.append(("b order", line.representative))
        for s in line.members:
            if ctx.pow(s, ctx.p - 1) != line.b:
                bad.append(("member power", s))
        table = eval_table(ctx, _binomial_power(ctx, line.b, 1))  # x^p - bx
        kernel = {x for x, y in enumerate(table) if y == 0}
        if kernel != {0, *line.members}:
            bad.append(("kernel", line.representative))
    if len(lines) != line_count(ctx) or covered != set(range(1, ctx.q)):
        bad.append(("partition", len(lines)))
    return _verdict(bad, f"{line_count(ctx)} lines", "all lines")


def _kernel_invariance(run: _FieldRun):
    ctx = run.ctx
    bad = []
    checked = 0
    if ctx.q <= 27:
        reps = [line.representative for line in line_decomposition(ctx)]
        note = "exhaustive over all lines, multiples and k"
    else:
        rng = run.rng("lemma12.kernel_invariance")
        reps = sorted({1 + rng.randrange(ctx.q - 1) for _ in range(3)})
        note = "3 sampled lines (seeded), all multiples and k"
    for r in reps:
        for k in range(1, ctx.p + 1):
            base = run.kernel(r, k)
            for i in range(2, ctx.p):
                checked += 1
                if run.kernel(ctx.mul(i, r), k) != base:
                    bad.append((r, i, k))
    return _verdict(bad, "equal kernels", f"{note}; {checked} comparisons")


def _v1_dim(run: _FieldRun):
    ctx = run.ctx
    got = run.vk(1).dim
    status = "verified" if got == ctx.n else "refuted"
    return status, ctx.n, got, ""


def _v1_count(run: _FieldRun):
    ctx = run.ctx
    expected = 1
    for i in range(1, ctx.n):
        expected *= ctx.q - ctx.p**i
    report = run.enumeration(run.vk(1))
    status = "verified" if report.ppr_count == expected else "refuted"
    return status, expected, report.ppr_count, f"{report.searched} candidates enumerated"


def _v1_inverse_closure(run: _FieldRun):
    ctx = run.ctx
    report = run.enumeration(run.vk(1))
    if report.ppr_list is None:
        return "skipped", None, None, "PPR list above the reporting threshold"
    fp = build_field(ctx.p)
    bad = []
    for coeffs in report.ppr_list:
        inverse = pp.compositional_inverse(ctx, list(coeffs))
        d = linearized_coeffs(ctx, inverse)
        if d is None:
            bad.append(coeffs)
            continue
        # dual route: invert the F_p matrix avatar and compare
        src = linearized_coeffs(ctx, list(coeffs))
        via_matrix = matrix_to_linearized(ctx, _fp_matrix_inverse(fp, linearized_to_matrix(ctx, src)))
        if via_matrix != d:
            bad.append(("route mismatch", coeffs))
    return _verdict(bad, "closed", (
        f"{len(report.ppr_list)} inverses interpolated and cross-checked via the matrix route"
    ), shown=2)


def linearized_to_matrix(ctx: FieldContext, d) -> tuple[tuple[int, ...], ...]:
    """n x n matrix over F_p of the map's action on the power basis.

    Column j holds the base-p digits of the image of t^j, so the map is
    a permutation of the field exactly when the matrix is invertible.
    """
    n = ctx.n
    table = eval_table(ctx, linearized_poly(ctx, d))
    cols = [ctx.digits(table[ctx.p**j]) for j in range(n)]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def matrix_to_linearized(ctx: FieldContext, rows) -> list[int]:
    """Recover the coefficient vector d from an n x n matrix over F_p.

    Solves the Moore system sum_j d_j (t^i)^(p^j) = image of t^i; the
    system is nonsingular because (1, t, ..., t^(n-1)) is a basis.
    """
    n = ctx.n
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatchError("matrix must be n x n")
    aug = []
    for i in range(n):
        row = [ctx.p**i]  # t^i and its conjugates, then the image of t^i
        while len(row) < n:
            row.append(ctx.frobenius(row[-1]))
        aug.append(row + [ctx.from_digits([rows[k][i] % ctx.p for k in range(n)])])
    red, _ = eigen.rref(ctx, aug)
    return [row[n] for row in red]


def _fp_matrix_inverse(fp: FieldContext, rows):
    """Inverse over the prime field fp: the right half of rref([M | I])."""
    n = len(rows)
    aug = [[rows[i][j] % fp.p for j in range(n)] + [1 if k == i else 0 for k in range(n)]
           for i in range(n)]
    red, _ = eigen.rref(fp, aug)
    return tuple(row[n:] for row in red)


def _alt_generators(run: _FieldRun):
    ctx = run.ctx
    alt = _independent_set(ctx)
    kmax = min(ctx.p, 5 if ctx.n == 2 else 2)
    v1_equal = run.vk(1, alt) == run.vk(1)
    dims = []
    observed = {"generators": alt, "v1_equal": v1_equal, "dims": dims}
    for k in range(2, kmax + 1):
        dims.append((k, run.vk(k).dim, run.vk(k, alt).dim))
    if ctx.n == 2 and ctx.p >= 5:
        # the two V_3 bases may differ in the one non-monomial vector
        # only; record whether their monomial supports agree
        def support(space):
            rows = [r for r in space.basis if sum(1 for v in r if v) == 1]
            return sorted(next(i for i, v in enumerate(r) if v) + 1 for r in rows)

        observed["v3_monomial_support_equal"] = support(run.vk(3)) == support(run.vk(3, alt))
    ok = v1_equal and all(a == b for _, a, b in dims)
    status = "verified" if ok else "refuted"
    return status, "same V_1 and equal dims", observed, "alternative independent generator set"


def _independent_set(ctx: FieldContext) -> list[int]:
    """A deterministic F_p-independent set different from the default."""
    chosen: list[int] = []
    fp = eigen.Subspace.from_vectors(ctx, [], ctx.n)
    for x in range(2, ctx.q):
        vec = list(ctx.digits(x))
        if not fp.contains_vector(vec):
            chosen.append(x)
            fp = eigen.Subspace.from_vectors(ctx, list(fp.basis) + [vec], ctx.n)
            if len(chosen) == ctx.n:
                break
    return chosen


def _vk_dims(note: str):
    """The check that dim V_k = k^n + n - 1 for k < p and V_p is all of
    V[x], with note formatted by p: Lemma 19 at n = 2, where
    k^n + n - 1 = k^2 + 1, and the conjecture past it."""

    def check(run: _FieldRun):
        ctx = run.ctx
        expected = {k: k**ctx.n + ctx.n - 1 for k in range(1, ctx.p)}
        expected[ctx.p] = ctx.q - 2
        observed = {k: run.vk(k).dim for k in expected}
        status = "verified" if observed == expected else "refuted"
        return status, expected, observed, note.format(p=ctx.p)

    return check


def _thm11_line_eigenspaces(run: _FieldRun):
    ctx = run.ctx
    reps = [line.representative for line in line_decomposition(ctx)]
    return _span_equality(run, (
        (r, eigen.predicted_basis(ctx, "theorem11", r=r), r, 1) for r in reps
    ), f"all {line_count(ctx)} lines")


# -- the quadratic family --


def _v1_shapes(run: _FieldRun):
    ctx = run.ctx
    report = run.enumeration(run.vk(1))
    roots = set(roots_of_unity(ctx, ctx.p + 1))
    expected = {(0, 1)}
    for r in range(ctx.q):
        if r not in roots:
            expected.add(tuple(_binomial_power(ctx, r, 1)))  # x^p - rx
    if report.ppr_list is None:
        return "skipped", None, None, "PPR list above the reporting threshold"
    observed = set(report.ppr_list)
    status = "verified" if observed == expected else "refuted"
    return status, f"x and {ctx.q - ctx.p - 1} maps x^p - rx", len(observed), (
        "shape comparison of the enumerated V_1 PPRs"
    )


def _v2_span(run: _FieldRun):
    ctx = run.ctx
    p = ctx.p
    mono = eigen.span_of_polys(ctx, [monomial(e) for e in (1, 2, p, p + 1, 2 * p)])
    got = run.vk(2)
    status = "verified" if got == mono else "refuted"
    return status, "monomial span", {"dim": got.dim, "equal": got == mono}, ""


def _v2_count(run: _FieldRun):
    ctx = run.ctx
    p = ctx.p
    expected = p * (p + 1) * (p - 1) ** 2
    via_census = sum(len(run.shape(2, b)) for b in fp2.family_b_values(ctx))
    observed = {"shape_census": via_census}
    if ctx.q <= 9:
        report = run.enumeration(run.vk(2))
        linearized = sum(
            1 for c in report.ppr_list if linearized_coeffs(ctx, list(c)) is not None
        )
        observed["enumerated_total"] = report.ppr_count
        observed["enumerated_non_linearized"] = report.ppr_count - linearized
        ok = via_census == expected and report.ppr_count - linearized == expected
    else:
        ok = via_census == expected
    status = "verified" if ok else "refuted"
    return status, expected, observed, "summed full-shape census at m = 2 over all b"


def _v3_offspan(run: _FieldRun):
    ctx = run.ctx
    v3 = run.vk(3)
    monomial_rows = []
    extra_rows = []
    for row in v3.basis:
        support = [i for i, v in enumerate(row) if v]
        (monomial_rows if len(support) == 1 else extra_rows).append(row)
    top_degrees = sorted(
        max(i for i, v in enumerate(row) if v) + 1 for row in extra_rows
    )
    rng = run.rng("sec5.v3_offspan")
    hits = 0
    samples = 300
    for _ in range(samples):
        vec = [0] * (ctx.q - 2)
        for row in monomial_rows:
            vec = ctx.axpy(vec, rng.randrange(ctx.q), row)
        for row in extra_rows:
            vec = ctx.axpy(vec, 1 + rng.randrange(ctx.q - 1), row)
        if pp.is_permutation(ctx, from_coords(ctx, vec)).is_pp:
            hits += 1
    return "measured", None, {
        "extra_rows": len(extra_rows),
        "extra_top_degrees": top_degrees,
        "samples": samples,
        "permutations_off_span": hits,
    }, "seeded sampling with a nonzero off-monomial component"


def _inverse_failures(run: _FieldRun) -> list[tuple]:
    """The (tag, m, b, alpha, beta) of each failed parametric inverse."""
    return [(tag, *mb, alpha, beta)
            for mb, s in run.sweeps().items() for tag, alpha, beta in s.failures]


def _thm15(failures, holds: str, note: str):
    """The check of one Theorem 15 claim: failures(run) over the run's
    sweeps, and note with the number of instances swept."""

    def check(run: _FieldRun):
        return _verdict(failures(run), holds,
                        note.format(sum(len(s.pairs) for s in run.sweeps().values())))

    return check


def _conditioned_count(run: _FieldRun):
    ctx = run.ctx
    expected = ctx.p * (ctx.p - 1) ** 2
    counts = [len(s.pairs) for s in run.sweeps().values()]
    status = "verified" if all(got == expected for got in counts) else "refuted"
    return status, expected, sorted(set(counts)), f"all (m, b) pairs: {len(counts)} censuses"


def _coprime_count_exponents(p: int) -> list[int]:
    """The m in [2, p-1] coprime to p - 1 whose shape census the coprime
    claim predicts: all of them but m = (p+1)/2 when p > 5. That m is
    coprime to p - 1 exactly when p = 1 mod 4, and its count exceeds
    p(p-1)(2p-1) for p > 5, as sec5.full_count_half claims; at p = 5
    the two counts agree."""
    return [m for m in range(2, p)
            if math.gcd(m, p - 1) == 1 and not (p > 5 and 2 * m == p + 1)]


def _full_count_coprime(run: _FieldRun):
    ctx = run.ctx
    p = ctx.p
    ms = _coprime_count_exponents(p)
    if not ms:
        return "skipped", None, None, f"no m in [2, {p - 1}] coprime to p - 1"
    expected = p * (p - 1) * (2 * p - 1)
    counts = {len(run.shape(m, b)) for m in ms for b in fp2.family_b_values(ctx)}
    status = "verified" if counts == {expected} else "refuted"
    return status, expected, sorted(counts), f"m in {ms}, every b"


def _full_count_half(run: _FieldRun):
    ctx = run.ctx
    p = ctx.p
    m = (p + 1) // 2  # in [2, p - 1] for every odd p
    counts = sorted({len(run.shape(m, b)) for b in fp2.family_b_values(ctx)})
    floor = p * (p - 1) * (2 * p - 1)
    if p > 5:
        status = "verified" if all(c > floor for c in counts) else "refuted"
        return status, f"> {floor}", counts, f"m = {m}; strict excess claimed for p > 5"
    note = f"m = {m}; no closed form asserted"
    if math.gcd(m, p - 1) == 1:
        note += f"; m is also coprime to p - 1 and the count matches {floor}"
    return "measured", None, counts, note


def _extra_closure(run: _FieldRun):
    """The unconditioned shape PPRs, the run's shape scans less the
    pairs of its sweeps, invert into the shape with exponent m^-1 mod
    p-1 (fp2.shape_closure)."""
    ctx = run.ctx
    shapes = {(m, b): sorted(set(run.shape(m, b)).difference(run.sweeps()[m, b].pairs))
              for m in range(2, ctx.p) if math.gcd(m, ctx.p - 1) == 1
              for b in fp2.family_b_values(ctx)}
    return _verdict(fp2.shape_closure(ctx, shapes), "inverse PPRs keep the shape and m",
                    f"{sum(map(len, shapes.values()))} unconditioned shape PPRs inverted")


def _appendix(name: str):
    """The check of appendix.<name>: its row of fp2.lemma_suite, which
    runs once per field for all six appendix claims, under the run's
    budget."""

    def check(run: _FieldRun):
        suite = run.memo("suite", lambda: fp2.lemma_suite(run.ctx, budget=run.cfg.budget))
        c = next(c for c in suite.checks if c.name == name)
        skipped = f", {c.skipped} skipped" if c.skipped else ""
        return ("verified" if c.passed else "refuted", c.statement,
                list(c.counterexamples[:3]) or "no counterexamples",
                f"{c.checked} instances{skipped}")

    return check


# The fields a claim is stated for, as (predicate on the context, skip note):
# _FieldRun.run reports a field outside them as skipped with the note.
_FP2 = (lambda ctx: ctx.n == 2 and ctx.p >= 3, "quadratic extensions with p >= 3")
_ODD_QUADRATIC = (lambda ctx: ctx.n == 2 and ctx.p != 2, "odd-characteristic quadratic extensions")
_PRIME5 = (lambda ctx: ctx.n == 1 and ctx.q >= 5, "prime fields with q >= 5")

# (claim id, report section, check, one-line statement[, domain]) in run
# order, which the report keeps: lemma19.vk_dims runs before
# thm11.line_eigenspace
_CLAIMS = (
    ("prop2.frobenius_additivity", "preliminaries", _frobenius_additivity,
     "x -> x^p is additive"),
    ("cor1.max_degree", "preliminaries", _max_degree, "reduced permutations have degree <= q-2"),
    ("cor2.divisor_degrees", "preliminaries", _divisor_degrees,
     "no permutation of degree d > 1 dividing q-1"),
    ("hermite.agreement", "preliminaries", _hermite_agreement,
     "power-degree criterion agrees with direct bijectivity",
     (lambda ctx: ctx.q <= pp.HERMITE_MAX_Q,
      f"degree criterion is capped at q <= {pp.HERMITE_MAX_Q}")),
    ("def1.orbit_identity", "preliminaries", _orbit_identity, "#PP = q(q-1) * #PPR",
     (lambda ctx: ctx.n == 1 and ctx.q <= 7, "exhaustive count runs on F_5 and F_7 only")),
    ("lemma1.operator_power", "shift-map", _operator_power, "(A_r)^p = I for every nonzero r"),
    ("lemma1.operator_order", "shift-map", _operator_order,
     "the cyclic order of every nonzero shift is p"),
    ("lemma2.eigenvalue", "shift-map", _eigenvalue_only_one,
     "1 is the only eigenvalue of a shift operator"),
    ("lemma3.monomial_fixed", "shift-map", _monomial_fixed,
     "monomials x^(p^k) are fixed by every shift"),
    ("lemma4.fixed_degrees", "shift-map", _fixed_degrees,
     "fixed vectors have p-power or p-multiple degree"),
    ("sec3.kernel_dims", "shift-map", _kernel_dims, "dim ker(A_r - I)^k = min(k p^(n-1), q-2)"),
    ("lemma5.kernel_chain", "shift-map", _kernel_chain,
     "kernel chain strictly grows until saturation"),
    ("thm7.kernel_basis", "shift-map", _kernel_basis("theorem7"),
     "explicit spanning set of ker(A-I)^m",
     (lambda ctx: ctx.n != 1, "prime fields use the x..x^m basis claim")),
    ("cor3.prime_kernel_basis", "shift-map", _kernel_basis("corollary3"),
     "ker(A-I)^m = span(x..x^m) over prime fields",
     (lambda ctx: ctx.n == 1, "applies to prime fields")),
    ("cor3.first_appearance", "shift-map", _first_appearance,
     "prime-field PPRs first appear at stage = degree", _PRIME5),
    ("degree.distribution", "shift-map", _degree_distribution_claim,
     "degree census of prime-field PPRs", _PRIME5),
    ("eq1.matrix_action", "shift-family", _matrix_action,
     "operator matrix agrees with direct substitution"),
    ("lemma9.additivity", "shift-family", _additivity, "A_r A_s = A_(r+s)"),
    ("lemma10.line_kernels", "shift-family", _line_kernels,
     "ker(x^p - bx) is the line of r, b = r^(p-1)"),
    ("lemma12.kernel_invariance", "shift-family", _kernel_invariance,
     "kernels agree along each line"),
    ("lemma13.v1_dim", "shift-family", _v1_dim, "dim V_1 = n"),
    ("lemma13.count", "shift-family", _v1_count, "V_1 holds prod(q - p^i) PPRs"),
    ("lemma13.inverse_closure", "shift-family", _v1_inverse_closure,
     "V_1 permutations close under inversion"),
    ("eq3.alt_generators", "shift-family", _alt_generators,
     "V_k is stable under the generator choice",
     (lambda ctx: ctx.n != 1, "one generator suffices over prime fields")),
    ("vk.dim.conjecture", "shift-family", _vk_dims("conjecture instance, not a proved statement"),
     "dim V_k = k^n + n - 1",
     (lambda ctx: ctx.n >= 3, "the quadratic case is covered separately")),
    ("lemma19.vk_dims", "fp2", _vk_dims("k = 1..{p}"), "dim V_k = k^2 + 1 over quadratic fields",
     (lambda ctx: ctx.n == 2, "quadratic extensions only")),
    ("thm11.line_eigenspace", "shift-family", _thm11_line_eigenspaces,
     "eigenspace of A_r from the line of r"),
    ("sec5.v1_shapes", "fp2", _v1_shapes, "V_1 PPRs are x and the nonsingular x^p - rx",
     _ODD_QUADRATIC),
    ("sec5.v2_span", "fp2", _v2_span, "V_2 = span(x, x^2, x^p, x^(p+1), x^(2p))", _ODD_QUADRATIC),
    ("sec5.v2_count", "fp2", _v2_count, "V_2 holds p(p+1)(p-1)^2 non-linearized PPRs",
     _ODD_QUADRATIC),
    ("sec5.v3_offspan", "fp2", _v3_offspan,
     "no V_3 permutation uses the degree-4p basis vector",
     (lambda ctx: ctx.n == 2 and ctx.p >= 5, "needs p >= 5 over a quadratic extension")),
    ("thm15.inverse", "fp2",
     _thm15(_inverse_failures, "parametric inverse exact", "{} constructible instances swept"),
     "parametric inverse agrees with the inverse table at every point", _FP2),
    ("thm15.closure", "fp2",
     _thm15(lambda run: fp2.closure_failures(run.ctx, run.sweeps()),
            "inverse stays in the family",
            "{} instances; inverse parameters (m, d, gamma/delta, epsilon/delta)"),
     "the conditioned family closes under inversion", _FP2),
    ("sec5.conditioned_count", "fp2", _conditioned_count, "p(p-1)^2 conditioned pairs per (m, b)",
     _FP2),
    ("sec5.full_count_coprime", "fp2", _full_count_coprime,
     "p(p-1)(2p-1) shape PPRs per b for coprime m != (p+1)/2", _FP2),
    ("sec5.full_count_half", "fp2", _full_count_half, "shape census at m = (p+1)/2", _FP2),
    # the note understates the domain, every p >= 5; mending it moves the report
    ("sec5.extra_closure", "fp2", _extra_closure,
     "unconditioned shape PPRs close under inversion",
     (lambda ctx: ctx.n == 2 and ctx.p >= 5, "checked for p in {5, 7}")),
    ("appendix.lemma20", "appendix", _appendix("lemma20"), "g^p identity", _FP2),
    ("appendix.lemma21", "appendix", _appendix("lemma21"), "gamma/epsilon parameter identities",
     _FP2),
    ("appendix.lemma22", "appendix", _appendix("lemma22"),
     "the two condition forms are equivalent", _FP2),
    ("appendix.lemma23", "appendix", _appendix("lemma23"), "closed form of delta", _FP2),
    ("appendix.lemma24", "appendix", _appendix("lemma24"), "Frobenius twist of delta", _FP2),
    ("appendix.lemma25", "appendix", _appendix("lemma25"), "h^p identity", _FP2),
)

# claim id -> (report section, statement)
CLAIM_ANCHORS = {claim_id: (section, statement) for claim_id, section, _, statement, *_ in _CLAIMS}


def reproduce_field(ctx: FieldContext, cfg: RunConfig) -> list[ClaimReport]:
    """Every claim for one field, in table order. F_2 is refused up
    front: V[x] = span(x, ..., x^(q-2)) is empty there. So is a field
    past eigen.OPERATOR_MAX_Q, which the shift-map claims could not
    afford; every field under that cap also passes the interpolation
    cap, so no claim refuses a field after others have run."""
    if ctx.q == 2:
        raise OutOfRangeError("V[x] is empty over F_2; reproduce needs q > 2")
    eigen._require_dense_size(ctx)
    run = _FieldRun(ctx, cfg)
    for claim_id, _, check, _, *domain in _CLAIMS:
        run.run(claim_id, check, *domain)
    return run.reports


def reproduce(cfg: RunConfig) -> list[ClaimReport]:
    """Claims for the requested field, or the default desk-scale roster."""
    if cfg.p is not None:
        roster = [(cfg.p, cfg.n or 1)]
    else:
        roster = list(DEFAULT_ROSTER)
    reports = []
    for p, n in roster:
        ctx = build_field(p, n, modulus_override=cfg.modulus_override)
        reports.extend(reproduce_field(ctx, cfg))
    return reports
