import pytest

from ppshift import build_field

_CACHE = {}


@pytest.fixture(scope="session")
def field():
    """Shared field factory; contexts are immutable so caching is safe."""

    def get(p, n=1):
        key = (p, n)
        if key not in _CACHE:
            _CACHE[key] = build_field(p, n)
        return _CACHE[key]

    return get


@pytest.fixture(scope="session")
def zech_field():
    """Field factory without the flat add/mul rows, so that small fields
    take the Zech-log route of fields above FLAT_TABLE_LIMIT."""
    from ppshift import gf

    def get(p, n=1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf, "FLAT_TABLE_LIMIT", 0)
            ctx = build_field(p, n)
        assert ctx.add_table is None
        return ctx

    return get
