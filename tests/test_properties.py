"""Property tests: interpolation and evaluation are inverse maps."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ppshift import build_field, gf  # noqa: E402
from ppshift.poly import eval_table, reduce_poly  # noqa: E402
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
