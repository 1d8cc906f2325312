"""Exact arithmetic in small finite fields F_q, q = p^n.

An element is its index: the integer whose base-p digits are the
coefficients (c_0, ..., c_{n-1}) of the residue c_0 + c_1*t + ... +
c_{n-1}*t^(n-1) modulo a fixed monic irreducible of degree n. Index 0
is the additive identity and index 1 the multiplicative identity; for
n = 1 the index is simply the residue mod p.

Construction is deterministic so element encodings are reproducible:
the modulus is the lexicographically smallest monic irreducible of
degree n (coefficients compared from degree 0 upward, with an override
hook for cross-checking), and the primitive element is the smallest
index of multiplicative order q - 1. Multiplication and division run
on discrete exp/log tables; fields up to FLAT_TABLE_LIMIT additionally
get flat add/mul tables, stored as q rows of q entries each
(add_table[x][y] = x + y, mul_table[c][v] = c * v), and larger fields
add through a table of q - 1 Zech logarithms.

The tables are built from O(p^ceil(n/2)) raw products and index
arithmetic. Multiplication by the primitive element g is F_p-linear on
the digits, so the exp walk cuts them into blocks of h = floor(n/2), h
and n - 2h digits, takes the image of each block value once from a raw
product, and steps x -> x * g by adding three block images, block by
block, through one table of h-digit sums (p^(2h) <= q entries; no table
but the flat ones has more than q). Prime fields step x * g mod p. neg
is composed digit by digit, frob reads exp at p * log x, and zech needs
no addition at all: adding 1 changes digit 0 alone. The flat add table
is composed one digit at a time from the F_p rows, which are rotations
of range(p), and row c of the flat mul table is exp rotated to start at
log c.

Kernels elsewhere do not see that choice. Besides the scalar
operations, the context offers five vector operations: axpy (acc +
c * vec), axpy_at (the same over the (column, value) pairs of a sparse
row, in place), add_powers (acc + g^e for a row given by its exponents
e), add_row ([c + y for y in F_q]) and bijective_scalars (the c for
which a + c * w permutes F_q, each candidate stopped at its first
collision). Each has a flat branch that indexes the rows, with no index
arithmetic and no zero test (mul_table[c][0] = 0 and add_table[a][0] =
a), and a Zech branch that stays in the log domain, with no method call
per entry, so every kernel runs one code path.

Contexts are immutable after construction and safe to share between
threads; every operation is a pure read. The flat tables are tuples of
row tuples, and add_row hands out a fresh list.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    NonPrimeError,
    NotADivisorError,
    NotIrreducibleError,
    OutOfRangeError,
)

DEFAULT_FIELD_CAP = 1 << 16

# Largest q for which the flat add/mul tables (q rows of q entries) are built.
FLAT_TABLE_LIMIT = 512


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, ascending."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def _poly_rem(f: list[int], g: tuple[int, ...], p: int) -> list[int]:
    # remainder of f modulo monic g, coefficients mod p
    f = [c % p for c in f]
    dg = len(g) - 1
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i]
        if c:
            for j in range(dg + 1):
                f[i - dg + j] = (f[i - dg + j] - c * g[j]) % p
    while f and f[-1] == 0:
        f.pop()
    return f


def _is_irreducible(candidate: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    n = len(candidate) - 1
    if n == 1:
        return True
    if candidate[0] == 0:  # divisible by t
        return False
    for d in range(1, n // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            divisor = (*low, 1)
            if not _poly_rem(list(candidate), divisor, p):
                return False
    return True


def _smallest_modulus(p: int, n: int) -> tuple[int, ...]:
    for low in itertools.product(range(p), repeat=n):
        candidate = (*low, 1)
        if _is_irreducible(candidate, p):
            return candidate
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _digit_sums(p: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Addition of k-digit indices, digit by digit mod p, as p^k row
    tuples: rows[x][y] = x + y.

    Composed one digit at a time from the F_p rows, which are rotations
    of range(p): with m = p^j, row x + m*d of the (j+1)-digit table
    chains p copies of row x of the j-digit table, copy e shifted by
    m*((d + e) mod p). Every entry is read from one list of the p^k
    values, so the rows share their int objects.
    """
    values = list(range(p**k))
    base = values[:p]
    rows = [tuple(base[x:] + base[:x]) for x in range(p)]
    m = p
    for _ in range(k - 1):
        shifts = [values[m * c:m * c + m] for c in range(p)]
        wider = [()] * (m * p)
        for x, row in enumerate(rows):
            copies = [tuple(map(shift.__getitem__, row)) for shift in shifts]
            for d in range(p):
                wider[x + m * d] = tuple(itertools.chain(*copies[d:], *copies[:d]))
        rows, m = wider, m * p
    return tuple(rows)


class FieldContext:
    """Immutable arithmetic context for F_{p^n}."""

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.q = q = p**n
        self.modulus = modulus
        self._pows = [p**i for i in range(n + 1)]

        # primitive element: smallest index of multiplicative order q - 1,
        # verified against the prime factorization of q - 1
        if q == 2:
            self.primitive = 1
        else:
            checks = [(q - 1) // f for f in prime_factors(q - 1)]
            for g in range(2, q):
                if all(self._pow_raw(g, e) != 1 for e in checks):
                    self.primitive = g
                    break
            else:
                raise AssertionError("no primitive element found")

        q1 = q - 1
        g = self.primitive
        exp = [1] * q1
        if n == 1:
            x = 1
            for i in range(1, q1):
                x = x * g % p
                exp[i] = x
        else:
            # x -> x * g is F_p-linear on the digits. Cut them into blocks a,
            # b, c of h, h and n - 2h <= 1 digits; the image of each block
            # value is one raw product, split into the same three blocks:
            # a1[v] is block b of (v * g), c0[v] block a of (v * P^2 * g).
            h = n // 2
            P = p**h
            PP = P * P
            images = []
            for j, w in enumerate((h, h, n - 2 * h)):
                ys = [self._mul_raw(v * P**j, g) for v in range(p**w)]
                images.append(([y % P for y in ys], [y // P % P for y in ys],
                               [y // PP for y in ys]))
            (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = images
            sums = _digit_sums(p, h)
            a, b, c = 1, 0, 0  # the blocks of g^i
            for i in range(1, q1):
                a, b, c = (
                    sums[sums[a0[a]][b0[b]]][c0[c]],
                    sums[sums[a1[a]][b1[b]]][c1[c]],
                    sums[sums[a2[a]][b2[b]]][c2[c]],
                )
                exp[i] = a + b * P + c * PP
        self.exp_table = exp
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        log[0] = -1  # sentinel, never valid
        self.log_table = log

        # -x digit by digit: the top digit d of x + m*d negates to m*(-d)
        neg, m = [-x % p for x in range(p)], p
        for _ in range(n - 1):
            neg = [v + m * (-d % p) for d in range(p) for v in neg]
            m *= p
        self.neg_table = neg
        frob = [exp[lx * p % q1] for lx in log]
        frob[0] = 0
        self.frob_table = frob

        if q <= FLAT_TABLE_LIMIT:
            self.add_table = _digit_sums(p, n)
            # row 0 and column 0 are zero; elsewhere c * v = g^(log c + log v),
            # read from exp rotated to start at log c
            ring, logs = exp + exp, log[1:]
            mul_rows = [(0,) * q]
            for lc in logs:
                rot = ring[lc:lc + q1]
                mul_rows.append((0, *map(rot.__getitem__, logs)))
            self.mul_table = tuple(mul_rows)
            self.zech_table = None
        else:
            self.add_table = None
            self.mul_table = None
            # Zech logarithms: 1 + g^i = g^zech[i], -1 where the sum is 0;
            # adding 1 changes digit 0 alone
            self.zech_table = [log[v - v % p + (v + 1) % p] for v in exp]

    # -- raw digit arithmetic (used before tables exist) --

    def digits(self, x: int) -> tuple[int, ...]:
        p = self.p
        return tuple((x // self._pows[i]) % p for i in range(self.n))

    def from_digits(self, digs) -> int:
        return sum(d % self.p * self._pows[i] for i, d in enumerate(digs))

    def _mul_raw(self, x: int, y: int) -> int:
        p, n = self.p, self.n
        if n == 1:
            return (x * y) % p
        a = self.digits(x)
        b = self.digits(y)
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        g = self.modulus
        for i in range(2 * n - 2, n - 1, -1):
            c = conv[i] % p
            if c:
                for j in range(n):
                    conv[i - n + j] = (conv[i - n + j] - c * g[j]) % p
        return self.from_digits(conv[:n])

    def _pow_raw(self, x: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, x)
            x = self._mul_raw(x, x)
            e >>= 1
        return r

    # -- element operations --

    def add(self, x: int, y: int) -> int:
        t = self.add_table
        if t is not None:
            return t[x][y]
        if not x:
            return y
        if not y:
            return x
        # g^a + g^b = g^a (1 + g^(b-a))
        log = self.log_table
        a = log[x]
        z = self.zech_table[(log[y] - a) % (self.q - 1)]
        return 0 if z < 0 else self.exp_table[(a + z) % (self.q - 1)]

    def sub(self, x: int, y: int) -> int:
        t = self.add_table
        if t is not None:
            return t[x][self.neg_table[y]]
        return self.add(x, self.neg_table[y])

    def neg(self, x: int) -> int:
        return self.neg_table[x]

    def mul(self, x: int, y: int) -> int:
        t = self.mul_table
        if t is not None:
            return t[x][y]
        if x == 0 or y == 0:
            return 0
        return self.exp_table[(self.log_table[x] + self.log_table[y]) % (self.q - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.exp_table[-self.log_table[x] % (self.q - 1)]

    def div(self, x: int, y: int) -> int:
        if y == 0:
            raise ZeroDivisionError("division by zero")
        if x == 0:
            return 0
        return self.exp_table[(self.log_table[x] - self.log_table[y]) % (self.q - 1)]

    def pow(self, x: int, e: int) -> int:
        """x**e with the exponent reduced mod q - 1 for nonzero x."""
        if x == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 1 if e == 0 else 0
        return self.exp_table[(self.log_table[x] * e) % (self.q - 1)]

    # -- vector operations: a flat branch on the table rows and a Zech branch each --

    def axpy(self, acc, c: int, vec) -> list[int]:
        """acc + c * vec, entrywise, for rows of equal length."""
        at = self.add_table
        if at is None:
            out = list(acc)
            self.axpy_at(out, c, [(j, v) for j, v in enumerate(vec) if v])
            return out
        mrow = self.mul_table[c]
        return [at[a][mrow[v]] for a, v in zip(acc, vec)]

    def axpy_at(self, row: list[int], c: int, pairs) -> None:
        """row[j] += c * v in place for each (j, v) of a sparse row; every
        v is nonzero."""
        at = self.add_table
        if at is not None:
            mrow = self.mul_table[c]
            for j, v in pairs:
                row[j] = at[mrow[v]][row[j]]
            return
        if not c:
            return
        # with a = g^la and c v = g^t: a + c v = g^la (1 + g^(t - la))
        q1 = self.q - 1
        exp, log, zech = self.exp_table, self.log_table, self.zech_table
        lc = log[c]
        for j, v in pairs:
            t = lc + log[v]
            a = row[j]
            if a:
                la = log[a]
                z = zech[(t - la) % q1]
                row[j] = 0 if z < 0 else exp[(la + z) % q1]
            else:
                row[j] = exp[t % q1]

    def add_powers(self, acc, logs) -> list[int]:
        """[a + g^e for a, e in zip(acc, logs)], g the primitive element:
        a row given by its exponents, added without a multiplication."""
        q1 = self.q - 1
        exp = self.exp_table
        at = self.add_table
        if at is None:
            out = list(acc)
            self.axpy_at(out, 1, [(j, exp[e % q1]) for j, e in enumerate(logs)])
            return out
        return [at[a][exp[e % q1]] for a, e in zip(acc, logs)]

    def add_row(self, c: int) -> list[int]:
        """[c + y for y in F_q]."""
        at = self.add_table
        if at is not None:
            return list(at[c])
        return self.axpy(range(self.q), c, [1] * self.q)

    def bijective_scalars(self, prefixes, w):
        """For each table a of prefixes, in turn, the ascending c in F_q
        for which a + c * w is a bijection of F_q; tables are indexed by
        element. Each candidate stops at its first repeated value."""
        q = self.q
        stamp = [0] * q
        tick = 0
        at = self.add_table
        if at is not None:
            multiples = [[mrow[v] for v in w] for mrow in self.mul_table]
            for a in prefixes:
                rows = [at[v] for v in a]
                hits = []
                for c, cw in enumerate(multiples):
                    tick += 1
                    for row, y in zip(rows, cw):
                        s = row[y]
                        if stamp[s] == tick:
                            break
                        stamp[s] = tick
                    else:
                        hits.append(c)
                yield hits
            return
        # with a = g^la, c = g^lc and w = g^t: a + c w = g^la (1 + g^(lc + t - la))
        q1 = q - 1
        exp, log, zech = self.exp_table, self.log_table, self.zech_table
        lw = [log[v] for v in w]  # -1 where w vanishes
        unmoved = [-1] * q  # the logs of 0 * w
        for a in prefixes:
            pairs = [(v, log[v]) for v in a]
            hits = []
            for c in range(q):
                tick += 1
                lc = log[c]
                for (v, la), t in zip(pairs, lw if c else unmoved):
                    if t < 0:
                        s = v
                    elif v:
                        z = zech[(lc + t - la) % q1]
                        s = 0 if z < 0 else exp[(la + z) % q1]
                    else:
                        s = exp[(lc + t) % q1]
                    if stamp[s] == tick:
                        break
                    stamp[s] = tick
                else:
                    hits.append(c)
            yield hits

    def frobenius(self, x: int) -> int:
        return self.frob_table[x]

    def __repr__(self):
        return f"FieldContext(p={self.p}, n={self.n})"


def build_field(
    p: int,
    n: int = 1,
    modulus_override=None,
) -> FieldContext:
    """Construct F_{p^n} with deterministic modulus and primitive element.

    modulus_override, when given, is a coefficient list (degree 0 first,
    each in [0, p - 1]) of a monic irreducible of degree n and replaces
    the default lexicographically smallest choice.
    """
    # the cap is checked from p and n, before p**n or primality is computed
    require_int(p, 2, math.inf, NonPrimeError, "p = {x!r} is not prime")
    require_int(n, 1, math.inf, NotIrreducibleError, "extension degree {x!r} is not an int >= 1")
    q = 1
    for _ in range(n):  # at most 17 steps, since p >= 2
        q *= p
        if q > DEFAULT_FIELD_CAP:
            raise CapExceededError(f"p = {p}, n = {n}: p^n exceeds cap {DEFAULT_FIELD_CAP}")
    if not is_prime(p):
        raise NonPrimeError(f"p = {p} is not prime")
    if modulus_override is not None:
        mod = tuple(modulus_override)
        for c in mod:
            require_int(c, 0, p - 1, NotIrreducibleError, "override coefficient {x!r} not in F_p")
        if len(mod) != n + 1 or mod[-1] != 1:
            raise NotIrreducibleError(f"override {modulus_override!r} is not monic of degree {n}")
        if not _is_irreducible(mod, p):
            raise NotIrreducibleError(f"override {modulus_override!r} is reducible over F_{p}")
    else:
        mod = _smallest_modulus(p, n)
    return FieldContext(p, n, mod)


def require_int(x, lo=-math.inf, hi=math.inf, error=OutOfRangeError,
                message="{x!r} is not an int in [{lo}, {hi}]") -> None:
    """The one integer rule of the public entry points: x is an int, not
    a bool, with lo <= x <= hi; else error(message formatted from x, lo
    and hi), so each caller keeps its typed error and wording."""
    if x.__class__ is not int or not lo <= x <= hi:
        raise error(message.format(x=x, lo=lo, hi=hi))


def require_element(ctx: FieldContext, x) -> None:
    """Refuse anything but an element index 0 <= x < q.

    The arithmetic indexes tables by element, so an index out of range
    would fail with an IndexError or, when negative, silently alias.
    """
    require_int(x, 0, ctx.q - 1, message="{x!r} is not an element index of F_" + str(ctx.q))


def require_same_field(a: FieldContext, b: FieldContext, what: str) -> None:
    """The one operand rule: a and b are one field by (p, n, modulus)."""
    if (a.p, a.n, a.modulus) != (b.p, b.n, b.modulus):
        raise DimensionMismatchError(f"{what} built over different fields")


@dataclass(frozen=True)
class Line:
    """The nonzero F_p-multiples of one element, with b = r^(p-1)."""

    representative: int
    members: tuple[int, ...]
    b: int


def line_count(ctx: FieldContext) -> int:
    return (ctx.q - 1) // (ctx.p - 1)


def line_decomposition(ctx: FieldContext) -> list[Line]:
    """Partition F_q^* into its (q-1)/(p-1) lines, smallest member first."""
    seen = [False] * ctx.q
    lines = []
    for r in range(1, ctx.q):
        if seen[r]:
            continue
        members = tuple(sorted(ctx.mul(i, r) for i in range(1, ctx.p)))
        for m in members:
            seen[m] = True
        lines.append(Line(representative=r, members=members, b=ctx.pow(r, ctx.p - 1)))
    return lines


def roots_of_unity(ctx: FieldContext, d: int) -> list[int]:
    """All x with x^d = 1, sorted by index. Requires d | q - 1."""
    require_int(d, 1, ctx.q - 1, NotADivisorError, "{x!r} does not divide q - 1 = {hi}")
    if (ctx.q - 1) % d != 0:
        raise NotADivisorError(f"{d} does not divide q - 1 = {ctx.q - 1}")
    step = (ctx.q - 1) // d
    return sorted(ctx.exp_table[(i * step) % (ctx.q - 1)] for i in range(d))
