"""Shift operators on V[x] and their generalized eigenspaces.

The operator for shift r sends f(x) to f(x+r) - f(r); it is linear on
V[x], preserves degree, and its matrix A_r over the monomial
coordinates is upper triangular with unit diagonal: entry (i, e) is
C(e, i) r^(e-i), the coefficient of x^i in (x+r)^e. All linear algebra
here is exact over F_q or its prime field, and _eliminate is its one
reduction: the first-nonzero pivot rule, a forward pass that clears the
rows below each pivot and, for RREF, a back-substitution pass from the
last pivot up. So every basis is canonical, subspace equality is plain
row comparison and membership is a rank test (mat_rank).

One builder, _lucas_matrix, writes both binomial matrices, entry (i, e)
= C(e, i) w[e - i] only where Lucas's theorem leaves C(e, i) nonzero
mod p (_lucas_columns): A_r with w[s] = r^s, and (A_1 - I)^k over F_p
with w = Delta_k (see _difference_power). As A_r = D_r^-1 A_1 D_r with
D_r = diag(r^e), ker((A_r - I)^k) = D_r^-1 ker((A_1 - I)^k), so the
kernel chain builds no operator: K_k = ker((A_1 - I)^k) is one
elimination over the prime field per k, each shift's kernel is K_k with
its coordinates rescaled, and V_k takes one K_k and n rescalings.
mat_mul, the product over the sparse rows of its right factor, serves
the claims that check Lemma 1 (one product chain A_1, ..., A_1^p, whose
flags every A_r shares by the same conjugation) and Lemma 9 (A_r A_s =
A_(r+s), on the operators as built).

The dense routes (shift_operator, kernel_power, kernel_dim,
intersection_space) refuse q > OPERATOR_MAX_Q with CapExceededError
before they allocate.

Operators and subspaces are immutable once built; kernel computations
for distinct (r, k) pairs are independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import CapExceededError, DimensionMismatchError, OutOfRangeError
from .gf import FieldContext, build_field, require_element, require_int, require_same_field
from .poly import (
    _binomial_power,
    coords,
    compose,
    from_coords,
    monomial,
    normalize,
    require_vpoly,
)

Matrix = tuple[tuple[int, ...], ...]

# Largest q for which the dense (q-2) x (q-2) operator and kernel
# routes run. Priced on a 2-CPU Xeon VM, one run each: at F_1024 an
# operator build takes 0.2 s, a kernel 0.4 s, V_1 (ten generators) 4.9 s
# at 48 MB peak RSS and V_2 8.1 s at 106 MB; at F_729, V_2 takes 2.9 s.
# The V_k intersections grow as q^3, so no size past the measured one is
# let in.
OPERATOR_MAX_Q = 1024


# -- exact linear algebra over F_q --


def mat_identity(d: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(ctx: FieldContext, a, b) -> Matrix:
    """Row-major product over sparse rows: the nonzero (column, value)
    pairs of each row of b are listed once, and each output row adds
    a[i][k] times row k of b over those pairs only, skipping zero
    a[i][k]. That pays off on the upper-triangular, Lucas-sparse
    operators this module produces (F_49: 687 nonzeros of 2209)."""
    cols = len(b[0]) if b else 0
    sparse = [[(j, v) for j, v in enumerate(row) if v] for row in b]
    out = []
    for row in a:
        acc = [0] * cols
        for k, aik in enumerate(row):
            if aik:
                ctx.axpy_at(acc, aik, sparse[k])
        out.append(tuple(acc))
    return tuple(out)


def _eliminate(ctx: FieldContext, rows: list[list[int]], reduced: bool) -> list[int]:
    """In-place elimination; returns pivot columns.

    Pivot rule: first nonzero entry scanning top to bottom, columns left
    to right. A forward pass scales each pivot row to a unit head, in
    place over its nonzeros, and clears the rows below it. With
    reduced=True a back pass then clears the rows above each pivot, from
    the last pivot up, and the result is canonical RREF. A cleared row
    gets -f times the pivot row added in place, over the pivot row's
    nonzero columns only; in the back pass the later pivot columns are
    already zero there. A pivot row's nonzeros are listed only when it
    has a head to scale or rows to clear.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    neg = ctx.neg_table
    pivots = []
    pr = 0
    for col in range(ncols):
        if pr == nrows:
            break
        hits = [r for r in range(pr, nrows) if rows[r][col]]
        if not hits:
            continue
        # rows pr .. hits[0] - 1 are zero at col, so the swap moves no other hit
        rows[pr], rows[hits[0]] = rows[hits[0]], rows[pr]
        prow = rows[pr]
        head = prow[col]
        if head != 1 or len(hits) > 1:
            # columns left of col are zero in every row from pr down
            nz = [(c, prow[c]) for c in range(col, ncols) if prow[c]]
            if head != 1:
                ctx.axpy_at(prow, ctx.sub(ctx.inv(head), 1), nz)  # v + (1/h - 1) v = v / h
                nz = [(c, prow[c]) for c, _ in nz]
            for r in hits[1:]:
                row = rows[r]
                ctx.axpy_at(row, neg[row[col]], nz)
        pivots.append(col)
        pr += 1
    if reduced:
        for pr in range(len(pivots) - 1, 0, -1):
            col = pivots[pr]
            above = [row for row in rows[:pr] if row[col]]
            if above:
                prow = rows[pr]
                nz = [(c, prow[c]) for c in range(col, ncols) if prow[c]]
                for row in above:
                    ctx.axpy_at(row, neg[row[col]], nz)
    return pivots


def rref(ctx: FieldContext, rows) -> tuple[Matrix, tuple[int, ...]]:
    """Canonical reduced row-echelon form (zero rows dropped)."""
    work = [list(r) for r in rows]
    pivots = _eliminate(ctx, work, reduced=True)
    del work[len(pivots):]
    for i, row in enumerate(work):  # each list is freed as its tuple is made
        work[i] = tuple(row)
    return tuple(work), tuple(pivots)


def mat_rank(ctx: FieldContext, rows) -> int:
    work = [list(r) for r in rows]
    return len(_eliminate(ctx, work, reduced=False))


def nullspace(ctx: FieldContext, rows, ncols: int | None = None) -> "Subspace":
    """Canonical basis of {v : rows . v = 0}."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    red, pivots = rref(ctx, rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    neg = ctx.neg_table
    basis = []
    for fc in free_cols:
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(red, pivots):
            if row[fc]:
                vec[pc] = neg[row[fc]]
        basis.append(vec)
    return Subspace.from_vectors(ctx, basis, ncols)


@dataclass(frozen=True, eq=False)
class Subspace:
    """Subspace of F_q^ambient held as a canonical RREF basis."""

    ctx: FieldContext
    basis: Matrix
    ambient: int

    @classmethod
    def from_vectors(cls, ctx: FieldContext, vectors, ambient: int) -> "Subspace":
        for v in vectors:
            if len(v) != ambient:
                raise DimensionMismatchError(f"vector length {len(v)} != ambient {ambient}")
        red, _ = rref(ctx, vectors) if vectors else ((), ())
        return cls(ctx=ctx, basis=red, ambient=ambient)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check_compatible(self, other: "Subspace") -> None:
        if self.ambient != other.ambient:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.ambient} != {other.ambient}"
            )
        require_same_field(self.ctx, other.ctx, "subspaces")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        self._check_compatible(other)
        return self.basis == other.basis

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.n, self.ambient, self.basis))

    def contains_vector(self, vec) -> bool:
        """Membership by rank: vec adds no rank to the basis."""
        if len(vec) != self.ambient:
            raise DimensionMismatchError(f"vector length {len(vec)} != ambient {self.ambient}")
        return mat_rank(self.ctx, [*self.basis, vec]) == self.dim

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return mat_rank(self.ctx, self.basis + other.basis) == self.dim

    def intersect(self, other: "Subspace") -> "Subspace":
        """Solve the stacked homogeneous system relating coordinates in
        both bases, then map solutions back to ambient vectors. No
        solution has a zero a-part, so the a-parts of the RREF solution
        rows are in RREF, and a's pivots carry each image sum c_i a_i to
        a unit head with zeros there in the other images: the images are
        the canonical basis."""
        self._check_compatible(other)
        ctx = self.ctx
        a, b = self.basis, other.basis
        if not a or not b:
            return Subspace(ctx=ctx, basis=(), ambient=self.ambient)
        na, nb = len(a), len(b)
        stacked = [
            [a[i][d] for i in range(na)] + [ctx.neg(b[j][d]) for j in range(nb)]
            for d in range(self.ambient)
        ]
        sol = nullspace(ctx, stacked, na + nb)
        images = []
        for srow in sol.basis:
            vec = [0] * self.ambient
            for i in range(na):
                c = srow[i]
                if c:
                    vec = ctx.axpy(vec, c, a[i])
            images.append(tuple(vec))
        return Subspace(ctx=ctx, basis=tuple(images), ambient=self.ambient)

    def polynomials(self) -> list[list[int]]:
        """Basis rows as V[x] polynomials (requires ambient q - 2)."""
        return [from_coords(self.ctx, row) for row in self.basis]


# -- the shift operators --


def _require_dense_size(ctx: FieldContext) -> None:
    """Refuse q > OPERATOR_MAX_Q before a dense (q-2)^2 matrix is made."""
    if ctx.q > OPERATOR_MAX_Q:
        raise CapExceededError(
            f"q = {ctx.q} exceeds the dense operator cap {OPERATOR_MAX_Q}")


def _lucas_columns(p: int, d: int):
    """For e = 1..d, the pairs (i, C(e, i) mod p) with C(e, i) nonzero
    mod p, i ascending from (0, 1). By Lucas's theorem C(e, i) is the
    product of the binomials of the base-p digits of e and i, so it is
    nonzero exactly where every digit of i is at most that of e."""
    digit_binoms = [[math.comb(a, b) % p for b in range(a + 1)] for a in range(p)]
    for e in range(1, d + 1):
        col = [(0, 1)]
        place, rest = 1, e
        while rest:
            rest, digit = divmod(rest, p)
            col = [(i + b * place, c * cb % p)
                   for b, cb in enumerate(digit_binoms[digit]) for i, c in col]
            place *= p
        yield col


def _lucas_matrix(p: int, w, mul) -> list[list[int]]:
    """The d x d rows, d = len(w), with rows[i - 1][e - 1] = C(e, i) w[e - i]
    for 1 <= i <= e <= d and 0 below the diagonal, products by mul. The
    products c * w[s], c < p, are tabulated once, and only the entries
    where C(e, i) is nonzero mod p are written, read from _lucas_columns."""
    d = len(w)
    times = [[mul(c, v) for v in w] for c in range(p)]
    rows = [[0] * d for _ in range(d)]
    for e, col in enumerate(_lucas_columns(p, d), start=1):
        for i, c in col[1:]:
            rows[i - 1][e - 1] = times[c][e - i]
    return rows


def shift_operator(ctx: FieldContext, r: int) -> Matrix:
    """Matrix of f(x) -> f(x+r) - f(r) over the monomial coordinates.

    Column e-1 holds the binomial expansion of (x+r)^e: entry (i, e) is
    C(e, i) r^(e-i), with r^0 = 1 on the diagonal. So this route is
    independent of apply_shift's Horner substitution.
    """
    require_element(ctx, r)
    _require_dense_size(ctx)
    rows = _lucas_matrix(ctx.p, [ctx.pow(r, s) for s in range(ctx.q - 2)], ctx.mul)
    for i, row in enumerate(rows):  # each list is freed as its tuple is made
        rows[i] = tuple(row)
    return tuple(rows)


def apply_shift(ctx: FieldContext, r: int, f) -> list[int]:
    """f(x+r) - f(r) by direct substitution, no matrix involved."""
    require_element(ctx, r)
    require_vpoly(ctx, f)
    shifted = compose(ctx, f, [r, 1])
    out = list(shifted)
    if out:
        out[0] = 0  # constant term of f(x+r) is exactly f(r)
    return normalize(out)


def _require_shift(ctx: FieldContext, r: int) -> None:
    require_element(ctx, r)
    if r == 0:
        raise OutOfRangeError("kernel chain needs a nonzero shift")


def _difference_power(ctx: FieldContext, k: int) -> list[list[int]]:
    """(A_1 - I)^k as rows over F_p (entries 0..p-1).

    Lemma 9 gives A_1^t = A_t, whose entry (i, e) is C(e, i) t^(e-i), so
    by the binomial theorem entry (i, e) of (A_1 - I)^k is
    C(e, i) * Delta_k(e - i), where Delta_k(s) = sum_{t=0..k} (-1)^(k-t)
    C(k, t) t^s mod p and Delta_k(0) = 0. For s >= 1, t^s has period
    p - 1 in s, so Delta_k is tabulated on s = 1..p-1.
    """
    require_int(k, 1, ctx.p, message="k = {x!r} outside [1, {hi}]")
    p = ctx.p
    signed = [(-1) ** (k - t) * math.comb(k, t) for t in range(k + 1)]
    period = [sum(c * pow(t, s, p) for t, c in enumerate(signed)) % p for s in range(1, p)]
    delta = [0] + [period[(s - 1) % (p - 1)] for s in range(1, ctx.q - 2)]
    return _lucas_matrix(p, delta, lambda c, v: c * v % p)


def _prime_field(ctx: FieldContext) -> FieldContext:
    """F_p, where (A_1 - I)^k is eliminated; ctx itself when n = 1."""
    return ctx if ctx.n == 1 else build_field(ctx.p)


def unit_kernel(ctx: FieldContext, k: int) -> Subspace:
    """K_k = ker((A_1 - I)^k) in canonical form, held over the prime
    field: one elimination that every shift's kernel rescales."""
    _require_dense_size(ctx)
    return nullspace(_prime_field(ctx), _difference_power(ctx, k), ctx.q - 2)


def rescale_kernel(ctx: FieldContext, unit: Subspace, r: int) -> Subspace:
    """ker((A_r - I)^k) from K_k = unit_kernel(ctx, k).

    A_r = D_r^-1 A_1 D_r with D_r = diag(r^e), so the kernel is
    D_r^-1 K_k: row u goes to u_e * r^(pivot - e). Column scaling keeps
    the zero pattern and the row scaling keeps unit pivots, so the rows
    stay the canonical basis with no further elimination.
    """
    _require_shift(ctx, r)
    require_same_field(unit.ctx, _prime_field(ctx), "unit kernel and F_p")
    d = unit.ambient
    if d != ctx.q - 2:
        raise DimensionMismatchError(f"unit kernel of ambient {d}, expected q - 2 = {ctx.q - 2}")
    inv_pows = [ctx.pow(r, -s) for s in range(d)]
    basis = []
    for row in unit.basis:
        pivot = next(j for j, v in enumerate(row) if v)
        basis.append(row[:pivot] + tuple(
            ctx.mul(v, inv_pows[j]) if v else 0 for j, v in enumerate(row[pivot:])))
    return Subspace(ctx=ctx, basis=tuple(basis), ambient=d)


def kernel_power(ctx: FieldContext, r: int, k: int) -> Subspace:
    """Canonical basis of ker((A_r - I)^k).

    The dimension is min(k * p^(n-1), q - 2): the generic step is
    p^(n-1) per power, saturating at the full space (for n = 1 the
    chain already saturates at k = p - 2).
    """
    _require_shift(ctx, r)
    return rescale_kernel(ctx, unit_kernel(ctx, k), r)


def kernel_dim(ctx: FieldContext, r: int, k: int) -> int:
    """dim ker((A_r - I)^k) without extracting a basis: the F_p rank of
    (A_1 - I)^k, which the conjugation by D_r leaves unchanged."""
    _require_shift(ctx, r)
    _require_dense_size(ctx)
    return (ctx.q - 2) - mat_rank(_prime_field(ctx), _difference_power(ctx, k))


def default_generators(ctx: FieldContext) -> list[int]:
    """1, a, a^2, ..., a^(n-1) for the primitive element a."""
    return [ctx.pow(ctx.primitive, i) for i in range(ctx.n)]


def intersection_space(ctx: FieldContext, k: int, generators=None) -> Subspace:
    """V_k: the intersection of ker((A_r - I)^k) over the generators,
    each a rescaling of the one K_k."""
    if generators is None:
        generators = default_generators(ctx)
    if not generators:
        raise OutOfRangeError("need at least one generator")
    for r in generators:
        _require_shift(ctx, r)
    unit = unit_kernel(ctx, k)
    # one rescaled kernel alive at a time
    return functools.reduce(Subspace.intersect, (rescale_kernel(ctx, unit, r) for r in generators))


# -- explicit bases predicted by the structure results --


def _not_p_power(ctx: FieldContext, i: int) -> bool:
    while i % ctx.p == 0:
        i //= ctx.p
    return i != 1


def predicted_basis(ctx: FieldContext, variant: str, m: int | None = None, r: int | None = None):
    """Explicit polynomial lists for the four structure statements.

    lemma6      eigenspace of the unit shift: monomials x^(p^k) plus
                (x^p - x)^i for non-p-power i in [2, p^(n-1) - 1].
    theorem7    ker^m of the unit shift: x^j (x^p - x)^i and x^k
                (j < m, 1 <= i <= p^(n-1) - 1, k <= m); products whose
                degree would leave V[x] (only possible at m = p) are
                omitted, which does not change the span.
    theorem11   eigenspace of the shift by r: monomials plus
                (x^p - bx)^i with b = r^(p-1).
    corollary3  prime fields: x, x^2, ..., x^m.

    lemma6 reads neither m nor r, theorem11 only r, the others only m;
    an argument the variant does not read is refused.
    """
    p, n, q = ctx.p, ctx.n, ctx.q
    reads = {"lemma6": "", "theorem11": "r", "theorem7": "m", "corollary3": "m"}
    if variant not in reads:
        raise OutOfRangeError(f"unknown basis variant {variant!r}")
    for name, value in (("m", m), ("r", r)):
        if value is not None and name not in reads[variant]:
            raise OutOfRangeError(f"{variant} does not read {name} = {value!r}")
    pn1 = p ** (n - 1)
    if variant == "lemma6":
        return predicted_basis(ctx, "theorem11", r=1)
    if variant == "theorem11":
        _require_shift(ctx, r)
        b = ctx.pow(r, p - 1)
        basis = [monomial(p**k) for k in range(n)]
        return basis + [_binomial_power(ctx, b, i) for i in range(2, pn1) if _not_p_power(ctx, i)]
    if variant == "corollary3" and n != 1:
        raise OutOfRangeError("corollary3 applies to prime fields only")
    require_int(m, 1, p, message=variant + " needs m in [1, {hi}], not {x!r}")
    if variant == "corollary3":
        return [monomial(k) for k in range(1, min(m, q - 2) + 1)]
    basis = []
    for i in range(1, pn1):
        power = _binomial_power(ctx, 1, i)  # (x^p - x)^i
        for j in range(m):
            if j + i * p <= q - 2:
                basis.append([0] * j + power)
    return basis + [monomial(k) for k in range(1, m + 1) if k <= q - 2]


def degree_echelon(ctx: FieldContext, space: Subspace) -> list[list[int]]:
    """A basis of a V[x] subspace as polynomials echelonized on their top
    degrees: monic, of strictly falling degree, and each zero at the
    others' degrees. Those degrees are the ones the space's nonzero
    members attain."""
    require_same_field(space.ctx, ctx, "space and ctx")
    red, _ = rref(ctx, [row[::-1] for row in space.basis])
    return [from_coords(ctx, row[::-1]) for row in red]


def span_of_polys(ctx: FieldContext, polys) -> Subspace:
    """Row-reduce a list of V[x] polynomials into a canonical subspace."""
    return Subspace.from_vectors(ctx, [coords(ctx, f) for f in polys], ctx.q - 2)
