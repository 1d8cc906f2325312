"""Polynomials over F_q as evaluation maps.

A polynomial is a plain list of element indices by ascending degree
with no trailing zeros; [] is the zero polynomial. Exponent folding
x^e -> x^(1 + (e-1) mod (q-1)) for e >= 1 keeps every representative
inside degree q-1 without changing the evaluation map, and the space
V[x] is the slice with zero constant term and degree <= q-2.

Coordinates of a V[x] polynomial are taken over the ordered monomial
basis (x, x^2, ..., x^(q-2)); this ordering fixes every matrix
representation downstream.
"""

from __future__ import annotations

import re
from math import comb

from .errors import (
    BadExponentError,
    DimensionMismatchError,
    NotRootOfUnityError,
    OutOfRangeError,
)
from .gf import FieldContext, require_element, require_int


def require_poly(ctx: FieldContext, f) -> None:
    """Refuse a coefficient list with an entry that is not an element
    index: require_element's rule, tested inline, one O(1) test per
    coefficient, with require_element raising for the first offender."""
    q = ctx.q
    for c in f:
        if c.__class__ is not int or not 0 <= c < q:
            require_element(ctx, c)  # raises


def normalize(coeffs) -> list[int]:
    """Strip trailing zeros; the zero polynomial is []."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def degree(f) -> int | None:
    """Degree of f, or None for the zero polynomial."""
    return len(f) - 1 if f else None


def is_monic(f) -> bool:
    return bool(f) and f[-1] == 1


def reduce_poly(ctx: FieldContext, coeffs) -> list[int]:
    """Fold a raw coefficient list modulo x^q - x.

    Exponent e >= 1 folds to 1 + (e-1) mod (q-1); exponent 0 stays.
    The evaluation map is unchanged.
    """
    q = ctx.q
    if len(coeffs) <= q:
        return normalize(coeffs)
    out = [0] * q
    add = ctx.add
    for e, c in enumerate(coeffs):
        if c:
            ee = 1 + (e - 1) % (q - 1) if e else 0
            out[ee] = add(out[ee], c)
    return normalize(out)


def poly_add(ctx: FieldContext, f, g) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    add = ctx.add
    out = list(f)
    for i, c in enumerate(g):
        if c:
            out[i] = add(out[i], c)
    return normalize(out)


def poly_scale(ctx: FieldContext, c: int, f) -> list[int]:
    if c == 0:
        return []
    mul = ctx.mul
    return normalize([mul(c, a) for a in f])


def poly_mul(ctx: FieldContext, f, g) -> list[int]:
    """Product reduced mod x^q - x, keeping every intermediate below 2q."""
    if not f or not g:
        return []
    mul = ctx.mul
    add = ctx.add
    conv = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    conv[i + j] = add(conv[i + j], mul(a, b))
    return reduce_poly(ctx, conv)


def poly_pow(ctx: FieldContext, f, e: int) -> list[int]:
    """f**e by repeated squaring, reduced after every multiplication."""
    require_poly(ctx, f)
    require_int(e, 0, message="polynomial power {x!r} is not an int >= 0")
    result = [1]
    base = reduce_poly(ctx, f)
    while e:
        if e & 1:
            result = poly_mul(ctx, result, base)
        e >>= 1
        if e:
            base = poly_mul(ctx, base, base)
    return result


def eval_table(ctx: FieldContext, f) -> list[int]:
    """Evaluation at every element, indexed by element: the one
    evaluator of the library.

    Sparse: one pass over F_q^* per nonzero term. With x = a^i for the
    primitive element a, the term c x^j (j >= 1) is a^(log c + j i), so
    a pass is ctx.add_powers over that exponent run in log order, on top
    of the constant term. Cost is O(q) per nonzero term against O(q) per
    coefficient for a Horner route. A coefficient that is not an
    element index raises OutOfRangeError.
    """
    require_poly(ctx, f)
    q1 = ctx.q - 1
    log = ctx.log_table
    const = f[0] if f else 0
    acc = [const] * q1  # values at a^0, ..., a^(q-2)
    for j in range(1, len(f)):
        c = f[j]
        if c:
            acc = ctx.add_powers(acc, range(log[c], log[c] + j * q1, j))
    exp = ctx.exp_table
    out = [const] * ctx.q
    for i, v in enumerate(acc):
        out[exp[i]] = v
    return out


def compose(ctx: FieldContext, f, g) -> list[int]:
    """f(g(x)) reduced mod x^q - x (Horner in g)."""
    require_poly(ctx, f)
    require_poly(ctx, g)
    acc: list[int] = []
    for c in reversed(f):
        acc = poly_mul(ctx, acc, g)
        if c:
            if acc:
                acc[0] = ctx.add(acc[0], c)
            else:
                acc = [c]
    return normalize(acc)


def monomial(e: int, c: int = 1) -> list[int]:
    require_int(e, 0, message="monomial exponent {x!r} is not an int >= 0")
    out = [0] * (e + 1)
    out[e] = c
    return normalize(out)


# -- the space V[x] --


def is_vpoly(ctx: FieldContext, f) -> bool:
    """Zero constant term and degree <= q - 2."""
    return len(f) <= ctx.q - 1 and (not f or f[0] == 0)


def require_vpoly(ctx: FieldContext, f) -> None:
    if not is_vpoly(ctx, f):
        raise OutOfRangeError(f"polynomial of degree {degree(f)} is not in V[x]")


def coords(ctx: FieldContext, f) -> list[int]:
    """Coordinates over the monomial basis (x, x^2, ..., x^(q-2))."""
    require_vpoly(ctx, f)
    require_poly(ctx, f)
    vec = list(f[1:])
    vec.extend([0] * (ctx.q - 2 - len(vec)))
    return vec


def from_coords(ctx: FieldContext, vec) -> list[int]:
    if len(vec) != ctx.q - 2:
        raise DimensionMismatchError(f"coordinate vector length {len(vec)} != q - 2")
    return normalize([0, *vec])


# -- the (x^p - bx)^m building blocks --


def _binomial_power(ctx: FieldContext, b: int, m: int) -> list[int]:
    """(x^p - b x)^m = sum_k C(m, k) (-b)^(m-k) x^(m + k(p-1)), reduced."""
    p = ctx.p
    out = [0] * (m * p + 1)
    minus_b = ctx.neg(b)
    for k in range(m + 1):
        out[m + k * (p - 1)] = ctx.mul(comb(m, k) % p, ctx.pow(minus_b, m - k))
    return reduce_poly(ctx, out)


def require_mb(ctx: FieldContext, m: int, b: int) -> None:
    """2 <= m <= p-1 and b an ell_q-th root of unity, ell_q = (q-1)/(p-1)."""
    require_int(m, 2, ctx.p - 1, BadExponentError, "m = {x!r} outside [2, {hi}]")
    require_element(ctx, b)
    ell = (ctx.q - 1) // (ctx.p - 1)
    if b == 0 or ctx.pow(b, ell) != 1:
        raise NotRootOfUnityError(f"b = {b} is not an order-{ell} root of unity")


def gmb_poly(ctx: FieldContext, m: int, b: int) -> list[int]:
    """(x^p - b x)^m for 2 <= m <= p-1 and b an ell_q-th root of unity."""
    require_mb(ctx, m, b)
    return _binomial_power(ctx, b, m)


def neg_one_pow(ctx: FieldContext, m: int) -> int:
    """(-1)^m as an element index."""
    return 1 if m % 2 == 0 else ctx.neg(1)


def hmd_d(ctx: FieldContext, m: int, b: int) -> int:
    """d = (-1)^m b^(m p)."""
    return ctx.mul(neg_one_pow(ctx, m), ctx.pow(b, m * ctx.p))


def hmd_poly(ctx: FieldContext, m: int, b: int) -> list[int]:
    """(x^p - d x)^m with d derived from (m, b)."""
    require_mb(ctx, m, b)
    return _binomial_power(ctx, hmd_d(ctx, m, b), m)


# -- linearized polynomials sum d_j x^(p^j) and their F_p matrices --


def linearized_poly(ctx: FieldContext, d) -> list[int]:
    """Coefficient list of sum_j d_j x^(p^j) from the length-n vector d."""
    if len(d) != ctx.n:
        raise DimensionMismatchError(f"expected {ctx.n} coefficients, got {len(d)}")
    out = [0] * (ctx.p ** (ctx.n - 1) + 1)
    for j, c in enumerate(d):
        out[ctx.p**j] = c
    return normalize(out)


def linearized_coeffs(ctx: FieldContext, f) -> list[int] | None:
    """Inverse of linearized_poly, or None if f has other monomials."""
    powers = {ctx.p**j: j for j in range(ctx.n)}
    d = [0] * ctx.n
    for e, c in enumerate(f):
        if not c:
            continue
        if e not in powers:
            return None
        d[powers[e]] = c
    return d


# -- textual format: element-index coefficients, `c*x^e` terms --

_TERM_RE = re.compile(r"^(?:(\d+)\*)?x(?:\^(\d+))?$|^(\d+)$")
# int() of a longer digit string may hit Python's int_max_str_digits
# limit, whose smallest admissible setting is 640
MAX_DIGITS = 640


def format_poly(ctx: FieldContext, f) -> str:
    """Render with descending exponents, e.g. '1*x^6 + 1*x^4 + 1*x^2'."""
    if not f:
        return "0"
    terms = [f"{c}*x^{e}" for e, c in reversed(list(enumerate(f))) if c]
    return " + ".join(terms)


def parse_poly(ctx: FieldContext, text: str) -> list[int]:
    """Parse the textual format; terms may appear in any order."""
    text = text.strip()
    if text in ("", "0"):
        return []
    raw: dict[int, int] = {}
    for chunk in text.split("+"):
        term = chunk.strip().replace(" ", "")
        mt = _TERM_RE.match(term)
        if not mt:
            raise OutOfRangeError(f"cannot parse term {chunk.strip()!r}")
        if any(len(g) > MAX_DIGITS for g in mt.groups() if g):
            raise OutOfRangeError(f"term {chunk.strip()[:20]!r}... has over {MAX_DIGITS} digits")
        if mt.group(3) is not None:
            c, e = int(mt.group(3)), 0
        else:
            c = int(mt.group(1)) if mt.group(1) else 1
            e = int(mt.group(2)) if mt.group(2) else 1
        require_element(ctx, c)
        if e:
            e = 1 + (e - 1) % (ctx.q - 1)  # fold mod x^q - x before allocating
        raw[e] = ctx.add(raw.get(e, 0), c)
    out = [0] * (max(raw) + 1)
    for e, c in raw.items():
        out[e] = c
    return normalize(out)
