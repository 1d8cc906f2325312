"""Property tests: the field axioms on both arithmetic routes,
interpolation and evaluation as inverse maps, the text format's round
trip, the conjugation A_r = D_r^-1 A_1 D_r of the shift operators and
their action on V[x] as the substitution f(x+r) - f(r)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ppshift import build_field, gf  # noqa: E402
from ppshift.claims import DEFAULT_ROSTER  # noqa: E402
from ppshift.eigen import apply_shift, shift_operator  # noqa: E402
from ppshift.poly import (  # noqa: E402
    coords,
    eval_table,
    format_poly,
    from_coords,
    parse_poly,
    reduce_poly,
)
from ppshift.pp import interpolate_table  # noqa: E402


def _zech(p, n):
    """F_{p^n} without the flat tables: the arithmetic of q > FLAT_TABLE_LIMIT."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf, "FLAT_TABLE_LIMIT", 0)
        return build_field(p, n)


# flat tables with q - 1 = 6, 7, 8, 24, 26 and 48, then the Zech route
FIELDS = [build_field(7), build_field(2, 3), build_field(3, 2), build_field(5, 2),
          build_field(3, 3), build_field(7, 2), _zech(7, 2)]


@st.composite
def tables(draw):
    ctx = draw(st.sampled_from(FIELDS))
    elem = st.integers(0, ctx.q - 1)
    return ctx, draw(st.lists(elem, min_size=ctx.q, max_size=ctx.q))


@st.composite
def polys(draw):
    """A coefficient list of degree up to 2q, so that reduction folds."""
    ctx = draw(st.sampled_from(FIELDS))
    return ctx, draw(st.lists(st.integers(0, ctx.q - 1), max_size=2 * ctx.q + 1))


@settings(max_examples=150, deadline=None)
@given(polys())
def test_interpolating_an_evaluation_gives_the_reduced_poly(case):
    ctx, f = case
    assert interpolate_table(ctx, eval_table(ctx, f)) == reduce_poly(ctx, f)


@settings(max_examples=150, deadline=None)
@given(tables())
def test_evaluating_an_interpolant_gives_the_table(case):
    ctx, values = case
    h = interpolate_table(ctx, values)
    assert len(h) <= ctx.q
    assert eval_table(ctx, h) == values


# a flat field and its Zech twin per size: q - 1 = 8, 24 and 48
AXIOM_FIELDS = [build_field(3, 2), _zech(3, 2), build_field(5, 2), _zech(5, 2),
                build_field(7, 2), FIELDS[-1]]


@st.composite
def triples(draw):
    ctx = draw(st.sampled_from(AXIOM_FIELDS))
    elem = st.integers(0, ctx.q - 1)
    return ctx, draw(elem), draw(elem), draw(elem)


@settings(max_examples=300, deadline=None)
@given(triples())
def test_field_axioms(case):
    ctx, x, y, z = case
    add, mul = ctx.add, ctx.mul
    assert add(x, y) == add(y, x) and mul(x, y) == mul(y, x)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert add(x, 0) == x and mul(x, 1) == x and mul(x, 0) == 0
    assert add(x, ctx.neg(x)) == 0 and ctx.sub(add(x, y), y) == x
    if x:
        assert mul(x, ctx.inv(x)) == 1 and ctx.div(mul(x, y), x) == y


@settings(max_examples=150, deadline=None)
@given(polys())
def test_format_parse_round_trip(case):
    ctx, f = case
    f = reduce_poly(ctx, f)
    text = format_poly(ctx, f)
    assert parse_poly(ctx, text) == f
    assert format_poly(ctx, parse_poly(ctx, text)) == text


@st.composite
def shifts(draw):
    ctx = draw(st.sampled_from(FIELDS))
    return ctx, draw(st.integers(1, ctx.q - 1))


@settings(max_examples=100, deadline=None)
@given(shifts())
def test_shift_operator_is_a_diagonal_conjugate_of_the_unit_shift(case):
    # entry (i, j) of A_r is C(j, i) r^(j - i): A_r = D_r^-1 A_1 D_r
    ctx, r = case
    unit = shift_operator(ctx, 1)
    for i, row in enumerate(shift_operator(ctx, r)):
        assert row == tuple(ctx.mul(ctx.pow(r, j - i), v) for j, v in enumerate(unit[i]))


# the default roster, then F_25 on the Zech route
ROSTER_FIELDS = [build_field(p, n) for p, n in DEFAULT_ROSTER] + [_zech(5, 2)]


@st.composite
def shifted_polys(draw):
    ctx = draw(st.sampled_from(ROSTER_FIELDS))
    vec = draw(st.lists(st.integers(0, ctx.q - 1), min_size=ctx.q - 2, max_size=ctx.q - 2))
    return ctx, draw(st.integers(0, ctx.q - 1)), from_coords(ctx, vec)


@settings(max_examples=100, deadline=None)
@given(shifted_polys())
def test_shift_matrix_acts_as_the_substitution(case):
    # A_r coords(f) = coords(f(x+r) - f(r)), summed entry by entry
    ctx, r, f = case
    vec = coords(ctx, f)
    image = []
    for row in shift_operator(ctx, r):
        acc = 0
        for a, v in zip(row, vec):
            acc = ctx.add(acc, ctx.mul(a, v))
        image.append(acc)
    assert image == coords(ctx, apply_shift(ctx, r, f))
