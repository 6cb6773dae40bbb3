"""Exact scalars, monomials, monomial orders, gradings, and sparse polynomials.

Coefficients are exact: arbitrary-precision rationals (stdlib ``Fraction``)
or a prime field F_p with residues stored as plain ints in ``[0, p)``.
Variables live in a fixed :class:`VariableTable`; position 0 is the
*greatest* variable under every order defined here, so a row-major table
``x[1,1], x[1,2], ...`` puts ``x[1,1]`` on top.  Monomials are sparse,
canonically encoded exponent vectors; polynomials are term sequences kept
strictly descending under the ring's monomial order.  Every sort in the
package keys a monomial by one int, the dot product of its exponents with
:meth:`MonomialOrder.weights`, which the order makes once per base and
keeps.  :meth:`PolyRing.from_terms` is the canonicalizer of sums and
products: they hand it their raw terms, and it merges like monomials, drops
zeros and sorts.  The generator builds of :mod:`detkit.detideals` and the
Groebner engine (:mod:`detkit.groebner`) read the same weights, and the
engine packs monomials into ints, so no engine path calls
:func:`mono_divides`, :func:`mono_div` or :func:`mono_lcm`: each is the
plain form, one dict per call, that the packed ones are tested against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable

__all__ = [
    "PrimeField",
    "RationalField",
    "QQ",
    "field_from_name",
    "VariableTable",
    "Monomial",
    "MONOMIAL_ONE",
    "mono_mul",
    "mono_divides",
    "mono_div",
    "mono_lcm",
    "MonomialOrder",
    "LexOrder",
    "GrevlexOrder",
    "order_from_name",
    "GradingSpec",
    "MINUS_INFINITY",
    "weighted_degree",
    "PolyRing",
    "Polynomial",
    "format_polynomial",
]


# ---------------------------------------------------------------------------
# coefficient fields


# Miller-Rabin with these bases is exact for every p < 3.3 * 10**24
# (Sorenson and Webster, 2015); above that it is a strong probable-prime test.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic modulo a prime ``p``; elements are ints reduced to [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    @property
    def name(self) -> str:
        return f"fp:{self.p}"

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def of_int(self, n: int) -> int:
        return n % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def is_negative(self, a: int) -> bool:
        # residues carry no sign; formatting treats them all as non-negative
        return False

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class RationalField:
    """The rationals, with elements held as ``Fraction`` (always reduced)."""

    __slots__ = ()

    name = "qq"
    zero = Fraction(0)
    one = Fraction(1)

    def of_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def inv(self, a: Fraction) -> Fraction:
        return 1 / a

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        return a / b

    def is_negative(self, a: Fraction) -> bool:
        return a < 0

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")

    def __repr__(self) -> str:
        return "RationalField()"


QQ = RationalField()


def field_from_name(name: str):
    """Parse a field tag: ``qq`` or ``fp:<prime>``."""
    if name == "qq":
        return QQ
    if name.startswith("fp:"):
        return PrimeField(int(name[3:]))
    raise ValueError(f"unknown field {name!r} (expected 'qq' or 'fp:<prime>')")


# ---------------------------------------------------------------------------
# variable tables


class VariableTable:
    """An ordered tuple of distinct variable names.

    Position 0 holds the greatest variable.  Monomials refer to variables by
    position, so two tables of equal names are interchangeable.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self._index = {s: i for i, s in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def position(self, name: str) -> int:
        return self._index[name]

    def name(self, pos: int) -> str:
        return self.names[pos]

    def __eq__(self, other) -> bool:
        return isinstance(other, VariableTable) and other.names == self.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VariableTable({list(self.names)!r})"


# ---------------------------------------------------------------------------
# monomials
#
# Canonical encoding: tuple of (position, exponent) pairs, strictly
# increasing positions, all exponents > 0.  The empty tuple is 1.


def _mk(exps: tuple, deg: int) -> "Monomial":
    m = Monomial.__new__(Monomial)
    m.exps = exps
    m.deg = deg
    return m


@lru_cache(maxsize=None)
def _unit_pairs(n: int) -> tuple:
    """The ``(position, 1)`` pair of each of ``n`` positions, shared."""
    return tuple((p, 1) for p in range(n))


class Monomial:
    __slots__ = ("exps", "deg")

    def __init__(self, pairs: Iterable[tuple] = ()):
        acc: dict = {}
        for pos, e in pairs:
            if e < 0:
                raise ValueError("negative exponent")
            if pos < 0:
                raise ValueError("negative variable position")
            if e:
                acc[pos] = acc.get(pos, 0) + e
        self.exps = tuple(sorted(acc.items()))
        self.deg = sum(acc.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and other.exps == self.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __bool__(self) -> bool:
        return bool(self.exps)

    def __repr__(self) -> str:
        return f"Monomial({list(self.exps)!r})"


MONOMIAL_ONE = Monomial()


def mono_mul(u: Monomial, v: Monomial) -> Monomial:
    ue, ve = u.exps, v.exps
    if not ue:
        return v
    if not ve:
        return u
    out = []
    i = j = 0
    nu, nv = len(ue), len(ve)
    while i < nu and j < nv:
        pu, eu = ue[i]
        pv, ev = ve[j]
        if pu < pv:
            out.append(ue[i])
            i += 1
        elif pu > pv:
            out.append(ve[j])
            j += 1
        else:
            out.append((pu, eu + ev))
            i += 1
            j += 1
    out.extend(ue[i:])
    out.extend(ve[j:])
    return _mk(tuple(out), u.deg + v.deg)


def mono_divides(d: Monomial, m: Monomial) -> bool:
    """True when ``d`` divides ``m``."""
    me = dict(m.exps)
    return all(me.get(pos, 0) >= e for pos, e in d.exps)


def mono_div(m: Monomial, d: Monomial) -> Monomial:
    """The quotient m/d; ``ValueError`` unless d | m."""
    q = dict(m.exps)
    for pos, e in d.exps:
        q[pos] = q.get(pos, 0) - e
    # the constructor refuses the negative exponent a non-divisor leaves
    return Monomial(q.items())


def mono_lcm(u: Monomial, v: Monomial) -> Monomial:
    lcm = dict(u.exps)
    for pos, e in v.exps:
        lcm[pos] = max(lcm.get(pos, 0), e)
    return Monomial(lcm.items())


# ---------------------------------------------------------------------------
# monomial orders
#
# Each order sorts by int keys: the dot product of the exponents with
# per-position weights at a base above every exponent (:meth:`weights`),
# made once per base and kept by the order.  ``key`` is a flat tuple of
# small ints read off the pairs, with positions as ``n - pos`` so the
# greatest variable carries the largest entry; no package path reads it.


class MonomialOrder:
    kind = "?"
    __slots__ = ("table", "_weights")

    def __init__(self, table: VariableTable):
        self.table = table
        self._weights: dict = {}

    def key(self, m: Monomial) -> tuple:
        return self._key(m)

    def _key(self, m: Monomial) -> tuple:
        raise NotImplementedError

    def weights(self, base: int) -> tuple:
        """Per-position int weights whose dot product with an exponent
        vector sorts like this order, for every exponent below ``base``."""
        w = self._weights.get(base)
        if w is None:
            w = self._weights[base] = self._weigh(base)
        return w

    def descending(self, monos) -> list:
        """``monos``, distinct, greatest first; each is keyed at a base past
        every degree, so keys tell them apart, and a lone one needs no key."""
        if len(monos) < 2:
            return list(monos)
        w = self.weights(1 + max([m.deg for m in monos]))
        return sorted(monos, key=lambda m: sum([w[p] * e for p, e in m.exps]), reverse=True)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.table == self.table

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.table))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.table!r})"


class LexOrder(MonomialOrder):
    kind = "lex"
    __slots__ = ()

    def _key(self, m: Monomial) -> tuple:
        # the first variable where two monomials differ decides; a variable
        # one of them lacks shows up as a smaller ``n - pos`` in the other
        n = len(self.table)
        key = []
        for pos, e in m.exps:
            key.append(n - pos)
            key.append(e)
        return tuple(key)

    def _weigh(self, base: int) -> tuple:
        n = len(self.table)
        return tuple(base ** (n - 1 - p) for p in range(n))


class GrevlexOrder(MonomialOrder):
    kind = "grevlex"
    __slots__ = ()

    def _key(self, m: Monomial) -> tuple:
        # degree first, then the pairs from the last variable back as
        # (n - pos, -e): the last variable where two equal-degree monomials
        # differ decides, and the smaller exponent there wins
        n = len(self.table)
        key = [m.deg]
        for pos, e in reversed(m.exps):
            key.append(n - pos)
            key.append(-e)
        return tuple(key)

    def _weigh(self, base: int) -> tuple:
        # deg * base**n - sum(e_p * base**p): degree first, then the last
        # variable where two monomials differ, the smaller exponent winning
        n = len(self.table)
        return tuple(base**n - base**p for p in range(n))


def order_from_name(name: str, table: VariableTable) -> MonomialOrder:
    if name == "lex":
        return LexOrder(table)
    if name == "grevlex":
        return GrevlexOrder(table)
    raise ValueError(f"unknown order {name!r} (expected 'lex' or 'grevlex')")


# ---------------------------------------------------------------------------
# gradings

MINUS_INFINITY = float("-inf")


class GradingSpec:
    """Positive integer weight per variable; degree of a monomial is the
    weighted exponent sum."""

    __slots__ = ("table", "weights")

    def __init__(self, table: VariableTable, weights: Iterable[int]):
        weights = tuple(weights)
        if len(weights) != len(table):
            raise ValueError("one weight per variable required")
        if any((not isinstance(w, int)) or w < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        self.table = table
        self.weights = weights

    def monomial_degree(self, m: Monomial) -> int:
        w = self.weights
        return sum(w[pos] * e for pos, e in m.exps)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradingSpec)
            and other.table == self.table
            and other.weights == self.weights
        )

    def __hash__(self) -> int:
        return hash((self.table, self.weights))


def weighted_degree(grading: GradingSpec, f: "Polynomial"):
    """Weighted degree of a homogeneous polynomial.

    Returns ``MINUS_INFINITY`` for the zero polynomial and ``None`` when the
    terms do not share one weighted degree.
    """
    if not f.terms:
        return MINUS_INFINITY
    degs = {grading.monomial_degree(m) for m, _ in f.terms}
    if len(degs) != 1:
        return None
    return degs.pop()


# ---------------------------------------------------------------------------
# polynomials


class PolyRing:
    """A polynomial ring: variable table + monomial order + coefficient field.

    Its ``generators`` table lives and dies with the ring, so nothing in it
    outlives a case: it maps a matrix shape to the terms of each minor or
    Pfaffian built in the ring, by index."""

    __slots__ = ("table", "order", "field", "generators")

    def __init__(self, table: VariableTable, order: MonomialOrder, field):
        if order.table != table:
            raise ValueError("order is defined over a different table")
        self.table = table
        self.order = order
        self.field = field
        self.generators: dict = {}

    # -- constructors ------------------------------------------------------

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    @property
    def one(self) -> "Polynomial":
        return self.monomial_poly(MONOMIAL_ONE)

    def const(self, c) -> "Polynomial":
        return self.monomial_poly(MONOMIAL_ONE, c)

    def var(self, pos: int) -> "Polynomial":
        if not 0 <= pos < len(self.table):
            raise ValueError("variable position out of range")
        return self.monomial_poly(_mk(((pos, 1),), 1))

    def monomial_poly(self, m: Monomial, c=None) -> "Polynomial":
        if c is None:
            c = self.field.one
        elif isinstance(c, int):
            c = self.field.of_int(c)
        if c == 0:
            return self.zero
        return Polynomial(self, ((m, c),))

    def from_terms(self, pairs: Iterable[tuple]) -> "Polynomial":
        """Canonicalize an arbitrary (Monomial, coefficient) stream; int
        coefficients are coerced into the field, like monomials merge, and
        the nonzero ones are sorted by :meth:`MonomialOrder.descending`."""
        acc, wrap = {}, {}
        add, of_int = self.field.add, self.field.of_int
        n = len(self.table)
        for m, c in pairs:
            e = m.exps
            if e in acc:
                acc[e] = add(acc[e], c)
            else:
                if e and e[-1][0] >= n:
                    raise ValueError("monomial position outside variable table")
                acc[e] = of_int(c)
                wrap[e] = m
        desc = self.order.descending([m for e, m in wrap.items() if acc[e] != 0])
        return Polynomial(self, tuple([(m, acc[m.exps]) for m in desc]))

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, PolyRing)
            and other.table == self.table
            and other.order == self.order
            and other.field == self.field
        )

    def __hash__(self) -> int:
        return hash((self.table, self.order, self.field))

    def __repr__(self) -> str:
        return f"PolyRing({len(self.table)} vars, {self.order.kind}, {self.field.name})"


class Polynomial:
    """Immutable sparse polynomial; ``terms`` is a tuple of (Monomial, coeff)
    pairs, strictly descending under the ring's order, no zero coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms

    # -- inspection --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not self.terms[0][0].exps)

    @property
    def lm(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    @property
    def lc(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def degree(self):
        if not self.terms:
            return MINUS_INFINITY
        return max(m.deg for m, _ in self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _same_ring(self, other: "Polynomial") -> PolyRing:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("polynomials belong to different rings")
        return self.ring

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return self._same_ring(other).from_terms(self.terms + other.terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(self.ring.field.of_int(-1))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.ring.field.of_int(other))
        mul = self.ring.field.mul
        return self._same_ring(other).from_terms(
            (mono_mul(ma, mb), mul(ca, cb)) for ma, ca in self.terms for mb, cb in other.terms
        )

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = self.ring.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        if c == 0:
            return self.ring.zero
        mul = self.ring.field.mul
        return Polynomial(self.ring, tuple((m, mul(cc, c)) for m, cc in self.terms))

    def term_mul(self, m: Monomial) -> "Polynomial":
        """Multiply by a monomial; order is preserved by multiplicativity."""
        return Polynomial(self.ring, tuple((mono_mul(mm, m), c) for mm, c in self.terms))

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(lc))

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.terms == self.terms
            and other.ring == self.ring
        )

    def __hash__(self) -> int:
        return hash(self.terms)

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<{format_polynomial(self)}>"


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form: terms descending, ``c*x[i,j]^e`` factors joined
    by ``*``, terms joined by `` + `` / `` - ``."""
    if not f.terms:
        return "0"
    fld = f.ring.field
    names = f.ring.table.names
    parts = []
    for idx, (m, c) in enumerate(f.terms):
        neg = fld.is_negative(c)
        mag = -c if neg else c
        factors = [
            names[pos] if e == 1 else f"{names[pos]}^{e}" for pos, e in m.exps
        ]
        if not factors:
            body = str(mag)
        elif mag == fld.one:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if idx == 0:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f" - {body}" if neg else f" + {body}")
    return "".join(parts)
