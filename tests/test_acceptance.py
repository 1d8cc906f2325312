"""Acceptance suite: one test per exit criterion, exact tolerances.

Every test prints a single PASS/FAIL line (run with -s to see them on
success). All comparisons are exact integer/field-element equality;
the stated wall-clock budgets are asserted where a criterion carries
one.
"""

import time
from itertools import product


from ppshift import build_field
from ppshift.eigen import (
    intersection_space,
    kernel_dim,
    kernel_power,
    mat_identity,
    mat_mul,
    predicted_basis,
    shift_operator,
    span_of_polys,
)
from ppshift.fp2 import (
    build_pair,
    census,
    constructible_pairs,
    derive_params,
    family_b_values,
    lemma_suite,
)
from ppshift.gf import line_decomposition
from ppshift.poly import eval_table, linearized_coeffs, normalize
from ppshift.pp import (
    compositional_inverse,
    degree_distribution,
    enumerate_pprs,
    hermite_test,
    interpolate_table,
    is_permutation,
)

_CACHE = {}


def field(p, n=1):
    return _CACHE.setdefault((p, n), build_field(p, n))


OPERATOR_FIELDS = [(2, 2), (5, 1), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)]


def criterion(number, description):
    def deco(fn):
        def wrapped():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number:2d}: PASS - {description}")

        wrapped.__name__ = fn.__name__
        return wrapped

    return deco


@criterion(1, "(A_r)^p = I for every nonzero r, seven fields, < 30 s")
def test_c01_operator_power():
    started = time.monotonic()
    for p, n in OPERATOR_FIELDS:
        ctx = field(p, n)
        ident = mat_identity(ctx.q - 2)
        for r in range(1, ctx.q):
            op = shift_operator(ctx, r)
            acc = op
            for _ in range(p - 1):
                acc = mat_mul(ctx, acc, op)
            assert acc == ident, (p, n, r)
    assert time.monotonic() - started < 30.0


@criterion(2, "kernel dimensions min(k p^(n-1), q-2) for all r and k")
def test_c02_kernel_dimensions():
    for p, n in OPERATOR_FIELDS:
        ctx = field(p, n)
        for r in range(1, ctx.q):
            for k in range(1, p + 1):
                expected = min(k * p ** (n - 1), ctx.q - 2)
                assert kernel_dim(ctx, r, k) == expected, (p, n, r, k)


@criterion(3, "predicted bases span the computed kernels (RREF equality)")
def test_c03_predicted_bases():
    for p, n in ((3, 2), (5, 2), (3, 3)):
        ctx = field(p, n)
        assert span_of_polys(ctx, predicted_basis(ctx, "lemma6")) == kernel_power(ctx, 1, 1)
    for p, n, mmax in ((3, 2, 3), (5, 2, 4)):
        ctx = field(p, n)
        for m in range(1, mmax + 1):
            predicted = span_of_polys(ctx, predicted_basis(ctx, "theorem7", m=m))
            assert predicted == kernel_power(ctx, 1, m), (p, n, m)
    for p, n in ((3, 2), (5, 2)):
        ctx = field(p, n)
        for line in line_decomposition(ctx):
            predicted = span_of_polys(
                ctx, predicted_basis(ctx, "theorem11", r=line.representative)
            )
            assert predicted == kernel_power(ctx, line.representative, 1), (p, n, line)
    for p in (5, 7):
        ctx = field(p, 1)
        for m in range(1, p + 1):
            predicted = span_of_polys(ctx, predicted_basis(ctx, "corollary3", m=m))
            assert predicted == kernel_power(ctx, 1, min(m, p)), (p, m)


@criterion(4, "A_r A_s = A_(r+s) and line-invariant kernels, exhaustive on F_9 and F_25")
def test_c04_additivity_and_line_kernels():
    for p in (3, 5):
        ctx = field(p, 2)
        ops = {r: shift_operator(ctx, r) for r in range(ctx.q)}
        for r in range(ctx.q):
            for s in range(ctx.q):
                assert mat_mul(ctx, ops[r], ops[s]) == ops[ctx.add(r, s)], (p, r, s)
        kernels = {}
        for r in range(1, ctx.q):
            for k in range(1, p + 1):
                kernels[(r, k)] = kernel_power(ctx, r, k)
        for r in range(1, ctx.q):
            for i in range(2, p):
                for k in range(1, p + 1):
                    assert kernels[(ctx.mul(i, r), k)] == kernels[(r, k)], (p, r, i, k)


@criterion(5, "dim V_1 = n; 6 resp. 432 linearized PPRs; inverse closure")
def test_c05_v1_structure():
    for (p, n), expected in (((3, 2), 6), ((3, 3), 432)):
        ctx = field(p, n)
        v1 = intersection_space(ctx, 1)
        assert v1.dim == n
        report = enumerate_pprs(ctx, v1)
        assert report.ppr_count == expected, (p, n)
        for coeffs in report.ppr_list:
            inverse = compositional_inverse(ctx, list(coeffs))
            assert linearized_coeffs(ctx, inverse) is not None, coeffs


@criterion(6, "V_k dimensions: F_9 (2,5,7), F_25 (2,5,10,17,23), F_27 (3,10)")
def test_c06_vk_dimensions():
    assert [intersection_space(field(3, 2), k).dim for k in (1, 2, 3)] == [2, 5, 7]
    assert [intersection_space(field(5, 2), k).dim for k in range(1, 6)] == [2, 5, 10, 17, 23]
    f27 = field(3, 3)
    dims = [intersection_space(f27, k).dim for k in (1, 2)]
    assert dims == [3, 10]
    assert dims == [k**3 + 3 - 1 for k in (1, 2)]  # conjecture instance
    assert intersection_space(f27, 3).dim == 25


@criterion(7, "48 non-linearized PPRs in V_2 over F_9 by exhausting 9^5, < 10 s")
def test_c07_v2_census_f9():
    started = time.monotonic()
    ctx = field(3, 2)
    v2 = intersection_space(ctx, 2)
    report = enumerate_pprs(ctx, v2)
    assert report.searched == 9**5 == 59049
    linearized = sum(
        1 for c in report.ppr_list if linearized_coeffs(ctx, list(c)) is not None
    )
    assert report.ppr_count - linearized == 48
    assert time.monotonic() - started < 10.0


@criterion(8, "parametric inverse exact on every conditioned instance, counts 12/80/252, < 2 min")
def test_c08_family_end_to_end():
    started = time.monotonic()
    for p, per_pair in ((3, 12), (5, 80), (7, 252)):
        ctx = field(p, 2)
        assert per_pair == p * (p - 1) ** 2
        for m in range(2, p):
            for b in family_b_values(ctx):
                pairs = constructible_pairs(ctx, m, b)
                assert len(pairs) == per_pair, (p, m, b)
                for alpha, beta in pairs:
                    inst = derive_params(ctx, m, b, alpha, beta)
                    f, h = build_pair(inst)
                    table = eval_table(ctx, f)
                    inverse_perm = [0] * ctx.q
                    seen = [False] * ctx.q
                    for x, y in enumerate(table):
                        assert not seen[y], ("collision", p, m, b, alpha, beta)
                        seen[y] = True
                        inverse_perm[y] = x
                    assert f[0] == 0 and f[-1] == 1
                    assert h == interpolate_table(ctx, inverse_perm), (p, m, b, alpha, beta)
    assert time.monotonic() - started < 120.0


@criterion(9, "full-shape counts 180 and 546 per b; m=(p+1)/2 strictly exceeds, < 2 min")
def test_c09_full_shape_counts():
    started = time.monotonic()
    f25 = field(5, 2)
    for b in family_b_values(f25):
        assert census(f25, 3, b, "full").full == 180
    f49 = field(7, 2)
    for b in family_b_values(f49):
        assert census(f49, 5, b, "full").full == 546
    for b in family_b_values(f49):
        measured = census(f49, 4, b, "full").full
        assert measured > 546, (b, measured)
    assert time.monotonic() - started < 120.0


@criterion(10, "identity suite passes exhaustively for p in {3, 5, 7}")
def test_c10_lemma_suite():
    for p in (3, 5, 7):
        report = lemma_suite(field(p, 2))
        for check in report.checks:
            assert check.passed, (p, check.name, check.counterexamples[:3])


@criterion(11, "degree criterion == direct bijectivity: exhaustive F_5/F_7, 10^4 random each on F_8/F_9/F_13")
def test_c11_hermite_agreement():
    import random

    for p in (5, 7):
        ctx = field(p, 1)
        count = 0
        for vec in product(range(p), repeat=p - 2):
            f = normalize([0, *vec])
            assert hermite_test(ctx, f) == is_permutation(ctx, f).is_pp, f
            count += 1
        assert count == p ** (p - 2)
    for p, n in ((2, 3), (3, 2), (13, 1)):
        ctx = field(p, n)
        rng = random.Random(2024)
        for _ in range(10_000):
            f = normalize([0] + [rng.randrange(ctx.q) for _ in range(ctx.q - 2)])
            assert hermite_test(ctx, f) == is_permutation(ctx, f).is_pp, f


@criterion(12, "degree census: F_5 {1:1, 3:5} of 6; F_7 total 120; stage = degree")
def test_c12_degree_distribution():
    census5 = degree_distribution(field(5, 1))
    assert census5.counts == {1: 1, 2: 0, 3: 5}
    assert census5.total == 6 == 120 // (5 * 4)
    assert census5.stage_violations == ()
    census7 = degree_distribution(field(7, 1))
    assert census7.total == 120 == 5040 // (7 * 6)
    assert census7.stage_violations == ()
