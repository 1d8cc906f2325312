import itertools
import random

import pytest

from ppshift import (
    CapExceededError,
    NonPrimeError,
    NotADivisorError,
    NotIrreducibleError,
    build_field,
    line_count,
    line_decomposition,
    roots_of_unity,
)

FIELDS = [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1), (5, 2), (3, 3), (7, 2)]


class SchoolbookField:
    """Independent oracle: coefficient tuples with textbook reduction."""

    def __init__(self, ctx):
        self.p = ctx.p
        self.n = ctx.n
        self.modulus = ctx.modulus

    def to_digits(self, x):
        p, out = self.p, []
        for _ in range(self.n):
            out.append(x % p)
            x //= p
        return out

    def from_digits(self, digs):
        val = 0
        for d in reversed(digs):
            val = val * self.p + d % self.p
        return val

    def add(self, x, y):
        a, b = self.to_digits(x), self.to_digits(y)
        return self.from_digits([(u + v) % self.p for u, v in zip(a, b)])

    def neg(self, x):
        return self.from_digits([-u % self.p for u in self.to_digits(x)])

    def mul(self, x, y):
        p, n = self.p, self.n
        a, b = self.to_digits(x), self.to_digits(y)
        conv = [0] * (2 * n - 1)
        for i in range(n):
            for j in range(n):
                conv[i + j] = (conv[i + j] + a[i] * b[j]) % p
        # long division by the monic modulus
        for top in range(2 * n - 2, n - 1, -1):
            c = conv[top]
            if c:
                for j in range(n + 1):
                    conv[top - n + j] = (conv[top - n + j] - c * self.modulus[j]) % p
        return self.from_digits(conv[:n])

    def frob(self, x):
        acc = 1
        for bit in bin(self.p)[2:]:  # square and multiply, top bit first
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, x)
        return acc

    def mul_order(self, x):
        acc, k = x, 1
        while acc != 1:
            acc = self.mul(acc, x)
            k += 1
        return k


def test_smallest_modulus_examples(field):
    assert field(5, 1).modulus == (0, 1)
    assert field(3, 2).modulus == (1, 0, 1)  # t^2 + 1: no root in F_3
    assert field(2, 2).modulus == (1, 1, 1)


def test_f9_primitive_is_t_plus_1(field):
    assert field(3, 2).primitive == 4


def test_build_rejects_non_prime():
    with pytest.raises(NonPrimeError):
        build_field(4, 2)


def test_build_rejects_reducible_override():
    with pytest.raises(NotIrreducibleError):
        build_field(3, 2, modulus_override=[0, 0, 1])  # t^2
    with pytest.raises(NotIrreducibleError):
        build_field(3, 2, modulus_override=[1, 1])  # wrong degree


def test_build_rejects_oversized_field():
    with pytest.raises(CapExceededError):
        build_field(2, 17)


def test_modulus_override_changes_encoding_not_axioms():
    ctx = build_field(3, 2, modulus_override=[2, 1, 1])  # t^2 + t + 2
    assert ctx.mul(3, 3) == 7  # t^2 = -t - 2 = 2t + 1
    for x in range(9):
        assert ctx.add(x, ctx.neg(x)) == 0
        if x:
            assert ctx.mul(x, ctx.inv(x)) == 1


def test_f9_spec_values(field):
    f9 = field(3, 2)
    assert f9.mul(3, 3) == 2  # t * t = -1
    assert f9.frobenius(3) == 6  # t^3 = 2t
    assert f9.pow(3, 3) == 6


@pytest.mark.parametrize("p,n", FIELDS)
def test_additive_inverse_exhaustive(field, p, n):
    ctx = field(p, n)
    for x in range(ctx.q):
        assert ctx.add(x, ctx.neg(x)) == 0


@pytest.mark.parametrize("p,n", FIELDS)
def test_schoolbook_oracle_agreement(field, p, n):
    ctx = field(p, n)
    oracle = SchoolbookField(ctx)
    rng = random.Random(1234)
    for _ in range(10_000):
        x, y = rng.randrange(ctx.q), rng.randrange(ctx.q)
        assert ctx.add(x, y) == oracle.add(x, y)
        assert ctx.mul(x, y) == oracle.mul(x, y)
        if y:
            assert ctx.mul(ctx.div(x, y), y) == x


@pytest.mark.parametrize("p,n", FIELDS)
def test_frobenius_is_additive(field, p, n):
    ctx = field(p, n)
    for x in range(ctx.q):
        for y in range(ctx.q):
            assert ctx.frobenius(ctx.add(x, y)) == ctx.add(ctx.frobenius(x), ctx.frobenius(y))


@pytest.mark.parametrize("p,n", FIELDS)
def test_primitive_has_full_order(field, p, n):
    ctx = field(p, n)
    if ctx.q == 2:
        return
    assert SchoolbookField(ctx).mul_order(ctx.primitive) == ctx.q - 1
    assert ctx.exp_table[0] == 1
    for x in range(1, ctx.q):
        assert ctx.exp_table[ctx.log_table[x]] == x


def test_pow_edge_cases(field):
    ctx = field(5, 2)
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(0, 3) == 0
    assert ctx.pow(7, -1) == ctx.inv(7)
    with pytest.raises(ZeroDivisionError):
        ctx.div(3, 0)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_roots_of_unity_f9(field):
    assert roots_of_unity(field(3, 2), 4) == [1, 2, 3, 6]
    assert roots_of_unity(field(3, 2), 1) == [1]
    with pytest.raises(NotADivisorError):
        roots_of_unity(field(3, 2), 5)


def test_roots_of_unity_f25_brute_force(field):
    ctx = field(5, 2)
    got = roots_of_unity(ctx, 6)
    brute = sorted({x for x in range(1, 25) if ctx.pow(x, 6) == 1})
    powers = {ctx.pow(r, 4) for r in range(1, 25)}
    assert got == brute and len(got) == 6
    assert set(got) == powers


@pytest.mark.parametrize("p,n", FIELDS)
def test_line_decomposition(field, p, n):
    ctx = field(p, n)
    lines = line_decomposition(ctx)
    assert len(lines) == line_count(ctx) == (ctx.q - 1) // (ctx.p - 1)
    covered = set()
    for line in lines:
        assert len(line.members) == ctx.p - 1
        assert line.representative == min(line.members)
        assert ctx.pow(line.b, line_count(ctx)) == 1
        for s in line.members:
            assert ctx.pow(s, ctx.p - 1) == line.b
        kernel = {x for x in range(ctx.q)
                  if ctx.sub(ctx.frobenius(x), ctx.mul(line.b, x)) == 0}
        assert kernel == {0, *line.members}
        covered |= set(line.members)
    assert covered == set(range(1, ctx.q))


def test_line_counts_examples(field):
    assert len(line_decomposition(field(3, 2))) == 4
    assert len(line_decomposition(field(5, 1))) == 1
    f8_lines = line_decomposition(field(2, 3))
    assert len(f8_lines) == 7 and all(len(l.members) == 1 for l in f8_lines)


def _check_against_digit_addition(ctx, pairs):
    oracle = SchoolbookField(ctx)
    for x, y in pairs:
        assert ctx.add(x, y) == oracle.add(x, y), (x, y)
        assert ctx.sub(x, y) == oracle.add(x, oracle.neg(y)), (x, y)


def test_zech_addition_exhaustive_f625(field):
    ctx = field(5, 4)
    assert ctx.add_table is None and len(ctx.zech_table) == ctx.q - 1
    _check_against_digit_addition(ctx, ((x, y) for x in range(ctx.q) for y in range(ctx.q)))


@pytest.mark.parametrize("p,n", [(3, 6), (2, 10)])
def test_zech_addition_sampled(field, p, n):
    ctx = field(p, n)
    assert ctx.add_table is None
    rng = random.Random(4321)
    pairs = [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(50_000)]
    pairs += [(0, 0), (0, 1), (1, 0), (1, ctx.neg(1)), (ctx.q - 1, ctx.q - 1)]
    _check_against_digit_addition(ctx, pairs)


def test_flat_fields_have_no_zech_table(field):
    assert field(7, 3).zech_table is None


@pytest.mark.parametrize(
    "make,p,n,samples",
    [
        pytest.param("field", 5, 2, None, id="flat-F25"),
        pytest.param("field", 3, 3, None, id="flat-F27"),
        pytest.param("zech_field", 5, 2, None, id="zech-F25"),
        pytest.param("zech_field", 3, 3, None, id="zech-F27"),
        # above FLAT_TABLE_LIMIT: sampled scalars
        pytest.param("field", 5, 4, 40, id="zech-F625"),
        # the largest flat field: sampled scalars
        pytest.param("field", 2, 9, 40, id="flat-F512"),
    ],
)
def test_vector_operations_match_scalar(request, make, p, n, samples):
    ctx = request.getfixturevalue(make)(p, n)
    q = ctx.q
    rng = random.Random(q)
    scalars = range(q) if samples is None else [0, 1, q - 1, *rng.sample(range(2, q - 1), samples)]
    for c in scalars:
        # every element appears in both rows, zeros included
        acc = rng.sample(range(q), q)
        vec = rng.sample(range(q), q)
        want = [ctx.add(a, ctx.mul(c, v)) for a, v in zip(acc, vec)]
        before = list(acc)
        assert ctx.axpy(acc, c, vec) == want, c
        assert acc == before  # axpy leaves its input alone
        row = list(acc)
        ctx.axpy_at(row, c, [(j, v) for j, v in enumerate(vec) if v])
        assert row == want, c
        assert ctx.add_row(c) == [ctx.add(c, y) for y in range(q)], c
        # exponents run past q - 1, as term rows do
        logs = [rng.randrange(3 * q) for _ in range(q)]
        want = [ctx.add(a, ctx.pow(ctx.primitive, e)) for a, e in zip(acc, logs)]
        assert ctx.add_powers(acc, logs) == want, c
        assert acc == before
    if samples is None:  # the scalar reference itself, sub through add_table and neg
        _check_against_digit_addition(ctx, ((x, y) for x in range(q) for y in range(q)))


@pytest.mark.parametrize(
    "make,p,n",
    [
        pytest.param("field", 3, 2, id="flat-F9"),
        pytest.param("field", 5, 2, id="flat-F25"),
        pytest.param("field", 7, 2, id="flat-F49"),
        pytest.param("zech_field", 3, 2, id="zech-F9"),
        pytest.param("zech_field", 5, 2, id="zech-F25"),
        pytest.param("zech_field", 7, 2, id="zech-F49"),
    ],
)
def test_bijective_scalars_match_a_set_count(request, make, p, n):
    ctx = request.getfixturevalue(make)(p, n)
    q = ctx.q
    rng = random.Random(q)
    frob = [ctx.frobenius(x) for x in range(q)]
    # permutations plus a Frobenius multiple, so that most prefixes have hits
    prefixes = [rng.sample(range(q), q) for _ in range(3)]
    prefixes += [[ctx.add(x, ctx.mul(c, frob[x])) for x in range(q)] for c in (0, 1, 2)]
    prefixes.append([rng.randrange(q) for _ in range(q)])
    prefixes.append([prefixes[0][1], *prefixes[0][1:]])  # injective but for x = 0
    for w in (list(range(q)), frob, [0] * q, [rng.randrange(q) for _ in range(q)]):
        got = list(ctx.bijective_scalars(iter(prefixes), w))
        want = [[c for c in range(q) if len({ctx.add(a[x], ctx.mul(c, w[x])) for x in range(q)}) == q]
                for a in prefixes]
        assert got == want
    assert any(hits for hits in want)


@pytest.mark.parametrize("make", ["field", "zech_field"])
def test_add_row_hands_out_a_fresh_list(request, make):
    ctx = request.getfixturevalue(make)(5, 2)
    for c in (0, 1, 7):
        want = [ctx.add(c, y) for y in range(ctx.q)]
        row = ctx.add_row(c)
        row[:] = [0] * ctx.q
        assert [ctx.add(c, y) for y in range(ctx.q)] == want, c
        assert ctx.add_row(c) == want, c


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (3, 4),
                                 (5, 2), (5, 3), (7, 2), (11, 2), (13, 2)])
def test_default_modulus_is_the_smallest_irreducible(p, n):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def irreducible(low):
        coeffs = [1, *reversed(low)]  # sympy lists the top degree first
        return sympy.Poly(coeffs, x, modulus=p).is_irreducible

    modulus = build_field(p, n).modulus
    assert modulus[-1] == 1 and len(modulus) == n + 1
    assert irreducible(modulus[:-1])
    # the candidates before it, coefficients compared from degree 0 upward
    for low in itertools.product(range(p), repeat=n):
        if low == modulus[:-1]:
            break
        assert not irreducible(low), low


def _check_tables(ctx, elements, pairs):
    """Every table of ctx against the schoolbook oracle, on the given
    elements and (x, y) pairs; types as the kernels read them."""
    oracle = SchoolbookField(ctx)
    q, g = ctx.q, ctx.primitive
    exp, log = ctx.exp_table, ctx.log_table
    for table in (exp, log, ctx.neg_table, ctx.frob_table):
        assert type(table) is list
    assert len(exp) == q - 1 and exp[0] == 1 and log[0] == -1
    assert sorted(exp) == list(range(1, q))
    for x in elements:
        if x:
            i = log[x]
            assert exp[i] == x and oracle.mul(exp[i - 1], g) == x, x  # exp[-1] = g^(q-2)
            if ctx.zech_table is not None:
                z = ctx.zech_table[i]
                assert (0 if z < 0 else exp[z]) == oracle.add(1, x), x
        assert ctx.neg_table[x] == oracle.neg(x), x
        assert ctx.frob_table[x] == oracle.frob(x), x
    if ctx.add_table is None:
        assert ctx.mul_table is None and type(ctx.zech_table) is list
        assert len(ctx.zech_table) == q - 1
        return
    assert ctx.zech_table is None
    for table in (ctx.add_table, ctx.mul_table):
        assert type(table) is tuple and len(table) == q
        assert all(type(row) is tuple and len(row) == q for row in table)
    for x, y in pairs:
        assert ctx.add_table[x][y] == oracle.add(x, y), (x, y)
        assert ctx.mul_table[x][y] == oracle.mul(x, y), (x, y)


@pytest.mark.parametrize("p,n,override", [
    (2, 2, None), (2, 3, None), (3, 5, None), (7, 3, None), (13, 2, None), (257, 1, None),
    (5, 3, (2, 3, 0, 1)),  # t^3 + 3t + 2, not the default modulus
])
def test_tables_match_schoolbook_everywhere(field, p, n, override):
    if override is None:
        ctx = field(p, n)
    else:
        ctx = build_field(p, n, modulus_override=override)
        assert ctx.modulus != field(p, n).modulus
    q = ctx.q
    _check_tables(ctx, range(q), itertools.product(range(q), repeat=2))


@pytest.mark.parametrize("p,n", [(2, 8), (2, 9), (509, 1), (5, 4), (3, 6), (2, 10), (2, 16),
                                 (3, 10), (37, 3)])
def test_tables_match_schoolbook_sampled(field, p, n):
    ctx = field(p, n)
    rng = random.Random(2000 + ctx.q)
    elements = [rng.randrange(ctx.q) for _ in range(2000)]
    pairs = [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(2000)]
    _check_tables(ctx, elements, pairs)


@pytest.mark.parametrize("p,n,digitwise_peak_mib", [(2, 16, 8.7), (37, 3, 6.6)])
def test_construction_work_and_memory(monkeypatch, p, n, digitwise_peak_mib):
    """The tables come from O(p^ceil(n/2)) raw products, and the build
    peaks near the per-element construction it replaced (whose peak is
    digitwise_peak_mib, at 65,751 and 51,991 raw products)."""
    import tracemalloc

    from ppshift import gf

    calls = 0
    mul_raw = gf.FieldContext._mul_raw

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return mul_raw(self, x, y)

    monkeypatch.setattr(gf.FieldContext, "_mul_raw", counted)
    tracemalloc.start()
    try:
        build_field(p, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls < 5000
    assert peak <= 1.25 * digitwise_peak_mib * 2**20


@pytest.mark.parametrize("p,n,error", [
    (True, 2, NonPrimeError), (2, True, NotIrreducibleError), (1, 10**8, NonPrimeError),
    (2, 0, NotIrreducibleError), (2.0, 2, NonPrimeError),
])
def test_build_rejects_bad_arguments(p, n, error):
    with pytest.raises(error):
        build_field(p, n)


@pytest.mark.parametrize("p,n", [(2**61 - 1, 1), (2, 10**8), (65537, 1), (257, 2), (4, 9)])
def test_cap_refuses_before_any_work(p, n):
    # neither p^n nor a primality test of p is computed above the cap
    with pytest.raises(CapExceededError, match=rf"^p = {p}, n = {n}: p\^n exceeds cap 65536$"):
        build_field(p, n)
