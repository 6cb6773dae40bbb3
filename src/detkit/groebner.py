"""Buchberger engine, normal forms, and ideal-level operations.

The engine packs every monomial into one int: position ``p`` owns the bits
``[p*width, (p+1)*width)``, an exponent under a guard bit that stays clear
(Monagan and Pearce, *Polynomial division using dynamic arrays, heaps, and
packed exponent vectors*, CASC 2007).  A product is one ``+``, ``d``
divides ``m`` when ``m - d`` sets no guard bit, and the lcm is a fieldwise
max.  Lex and grevlex each have a sort key that is a dot product of the
exponents with fixed int weights (``MonomialOrder.weights``), so the key of
a product is the sum of the keys.  An intersection packs its auxiliary
``w`` as one more field past the ring's variables, weighted above every
``w``-free key, so it eliminates ``w`` in the same engine without a second
ring.

Polynomials enter the engine as lists of ``(key, packed, coeff, support)``
rows in strictly descending key order; ``support`` has bit ``pos`` set for
each variable present.  A basis is the packing and the rows its run left
(:class:`_Basis`), never packed again, and unpacks into :class:`Polynomial`
only when a caller reads polynomials.  Bases are kept monic.  Pair
selection uses the sugar strategy.  Each new basis element runs the
Gebauer-Moller pair update (criteria M and F plus the product criterion)
once the run leaves its sugar degree, and criterion B is applied to a pair
when it is popped.  A squarefree lead's packed int is its support spread
over the fields, so on squarefree leads an lcm is an OR, criterion M
compares lcms as sets, and criterion B and the minimal leads test no
guard bits (see :func:`_update`).  A divisibility test runs only on the
divisors whose lead support lies inside the term's support, which an index
of the divisors by variable yields without a scan; the same index gives
the elements that may drop a popped pair by criterion B, and the minimal
leads that a new lead divides.  A run builds one index, narrows it to the
reduced basis as it interreduces, and hands it to the basis.  All choices
are deterministic, so a given generator list always yields the same
reduced basis.  One loop, :func:`_remainder`, reduces a polynomial by a
basis's index or by a list of divisors, and one past the run's width
against a throwaway wider packing, so membership, the size, the leads and
the comparison of two bases read rows and unpack no polynomial.

Two invariants of every row let a reduction step skip unpacking its
quotient: a row's stored support is exactly the support of its packed
monomial, and a row's sugar is at least the degree of every term.  So the
quotient's support follows from the term's and from which lead variables
cancel (:meth:`_BasisElem.quotient_support`; an S-pair's two quotients
start from the support of the pair's lcm), and its degree is the packed
int modulo ``2**width - 1``.  The sugar bounds every exponent too: the
engine forms no product whose sugar reaches ``top = 2**(width-1)``, the
guard bit, and tests no product for overflow.  A generator term of degree
``top``, or a reduction step or S-pair of sugar ``top``, aborts the
computation, which reruns with fields twice as wide.  Coefficients combine
as one sum ``c + gc*nqc``, reduced modulo ``p`` over ``fp:p``, in one loop
for both fields.

Lead ideals have one form for monomial work: polarized, ``x_p^e`` is the
lowest ``e`` bits of field ``p`` of a bit mask, so divisibility is
inclusion and the lcm an OR (:func:`_lead_masks`; on squarefree leads a
mask is the support).  :func:`hilbert_numerator` gives the numerator
``N(t)`` of the Hilbert series ``HS(S/I) = N(t)/(1-t)^n`` by Bigatti's
pivot recursion on the polarized leads of the reduced basis, which keeps
the numerator, and :func:`krull_dimension` reads the dimension off it.  The
recursion drops a generator that a cut generator divides by walking the
generator's ``2**deg`` subsets against a set of the cut's masks, but only
when ``2**deg`` is at most the number of masks; otherwise it scans them
(:func:`_holds_subset`).  :func:`_minimal_lcms` takes the same masks, and
criterion M the same walk on squarefree lcms.

:func:`intersect_all` is the one way to intersect a list of ideals.  It
keeps an expected result ``L`` for the intersection of ``k`` ideals when
membership puts it inside each and every minimal lcm of a lead of each
basis is a lead of ``L``: those lcms generate the intersection of their
lead ideals, which then equals ``in(L)``.  The last claim is tried against
every handle, then against the intersection of the others, found the same
way, and the last handle; only then does :func:`ideal_intersect`
eliminate.  The lcms stay a cover of polarized masks, ``(width,
masks)``, keyed at ``L``'s packing to check its leads
(:meth:`_Basis.has_leads`) and to stop its basis run, which drops or cuts
short a pair once no cover monomial below its degree is left and its head
lies below the least one left at it, a floor kept per degree, and ends
once all are leads.  An :class:`IdealHandle` may also carry a ``series``,
the numerator over the rationals that a closed form gives a plain
determinantal or Pfaffian ideal
(:func:`~detkit.combinat.determinantal_numerator`).  Its basis run reads
the series once, off the leads of the generators reduced against each
other, before any pair: a reading equal to it ends the run with the
generators as the basis, and a miss leaves the run as it would be without
a series.

Inside :func:`deadline_scope` blocks, a clock reading past the earliest of
their deadlines raises :class:`BudgetExceeded`; outside them none raises.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from functools import partial
from heapq import heappop, heappush
from itertools import accumulate, islice
from operator import mul
from time import monotonic
from typing import Iterable, Optional, Sequence

from .poly import PolyRing, Polynomial, PrimeField, _mk, _unit_pairs

__all__ = [
    "BudgetExceeded",
    "UnitIdealError",
    "deadline_scope",
    "buchberger",
    "normal_form",
    "IdealHandle",
    "hilbert_numerator",
    "ideal_member",
    "ideal_equal",
    "ideal_intersect",
    "intersect_all",
    "krull_dimension",
    "ideal_height",
]


class BudgetExceeded(RuntimeError):
    """A computation ran past its deadline."""


class UnitIdealError(ValueError):
    """Raised where the unit ideal has no meaningful answer (dimension)."""


_deadline: ContextVar[float] = ContextVar("deadline", default=float("inf"))


@contextmanager
def deadline_scope(until: float):
    """Bound the engine work in the block by ``until``, a ``time.monotonic`` value."""
    token = _deadline.set(min(until, _deadline.get()))
    try:
        yield
    finally:
        _deadline.reset(token)


def _check_deadline() -> None:
    if monotonic() > _deadline.get():
        raise BudgetExceeded("computation exceeded its time budget")


# ---------------------------------------------------------------------------
# packed monomials


class _Overflow(Exception):
    """A degree would reach the guard bit; the caller reruns with wider fields."""


class _Packing:
    """The field layout and the key weights for one order at one width.

    With ``elim`` the layout carries one field past the order's variables,
    at position ``len(order.table)``, for an intersection's auxiliary ``w``.  Its weight
    exceeds the key of every ``w``-free monomial, so monomials compare by
    their ``w`` exponent first and then by ``order``: the elimination order.

    Every packed monomial has degree below ``2**(width - 1)``, so no field
    reaches its guard bit, and :meth:`rows` refuses a term that would.  An
    elimination packing refuses one degree lower, for the ``w`` that its
    generators are multiplied by.
    """

    __slots__ = ("order", "elim", "n", "width", "ones", "guards", "weights", "fields")

    def __init__(self, order, width: int, elim: bool = False):
        self.order = order
        self.elim = elim
        base = 1 << (width - 1)
        self.weights = weights = order.weights(base)
        if elim:
            # w-free keys lie in [0, span)
            self.weights = weights = weights + (sum(weights) * (base - 1) + 1,)
        self.n = n = len(weights)
        self.width = width
        self.ones = sum(1 << (p * width) for p in range(n))
        self.guards = self.ones << (width - 1)
        # fields(packed): the exponent of each position, in position order;
        # at the starting width each byte is one exponent
        if width == 8:
            self.fields = partial(int.to_bytes, length=n, byteorder="little")
        else:
            self.fields = self._split

    def wider(self) -> "_Packing":
        return _Packing(self.order, 2 * self.width, self.elim)

    def rows(self, f: Polynomial) -> list:
        out = []
        width, weights = self.width, self.weights
        top = (1 << (width - 1)) - self.elim
        for m, c in f.terms:
            if m.deg >= top:
                raise _Overflow
            packed = key = mask = 0
            for pos, e in m.exps:
                packed |= e << (pos * width)
                key += e * weights[pos]
                mask |= 1 << pos
            out.append((key, packed, c, mask))
        return out

    def keys_by_degree(self, width: int, masks: Iterable) -> dict:
        """``{degree: keys}`` of a cover ``(width, masks)``: bit counts, and
        sums of the bits' field weights; one at the guard bit raises
        ``_Overflow``.  A cover may be as long as a basis, so the clock is
        read every 256 masks."""
        out: dict = {}
        top = 1 << (self.width - 1)
        bit_weights = [w for w in self.weights for _ in range(width)].__getitem__
        for k, u in enumerate(masks):
            if not k & 255:
                _check_deadline()
            deg = u.bit_count()
            if deg >= top:
                raise _Overflow
            out.setdefault(deg, set()).add(sum(map(bit_weights, _positions(u))))
        return out

    def poly(self, ring: PolyRing, rows: Sequence) -> Polynomial:
        return Polynomial(ring, tuple((self.monomial(p), c) for _, p, c, _ in rows))

    def _split(self, packed: int) -> list:
        low = (1 << self.width) - 1
        return [(packed >> (p * self.width)) & low for p in range(self.n)]

    def monomial(self, packed: int):
        pairs = _unit_pairs(self.n)
        exps = tuple(pairs[p] if e == 1 else (p, e) for p, e in enumerate(self.fields(packed)) if e)
        return _mk(exps, sum(e for _, e in exps))

    def degree(self, packed: int) -> int:
        # each field weighs a power of 2**width, which is 1 modulo
        # 2**width - 1, and the degree lies below that
        return packed % ((1 << self.width) - 1)

    def key(self, packed: int) -> int:
        return sum(map(mul, self.fields(packed), self.weights))

    def support(self, packed: int) -> int:
        # a field's guard bit survives subtracting one exactly when the
        # field is nonzero
        nz = ((packed | self.guards) - self.ones) & self.guards
        mask = 0
        while nz:
            low = nz & -nz
            mask |= 1 << (low.bit_length() // self.width - 1)
            nz ^= low
        return mask

    def lcm(self, u: int, v: int) -> int:
        g = self.guards
        # guard bit kept where u's field is at least v's; spread it over
        # that field's exponent bits
        ge = ((u | g) - v) & g
        pick = ge - (ge >> (self.width - 1))
        return v ^ ((u ^ v) & pick)


class _BasisElem:
    """A monic divisor: its rows, its sugar, and its lead read off ``rows[0]``.

    ``sqf`` tells whether the lead is squarefree, so that its packed int
    is its support's bits spread over the fields.  ``lguard`` holds the
    guard bit of each field the lead uses, and ``fill`` every exponent bit
    of those fields.  For a quotient ``q`` of a monomial by the lead, ``(q +
    fill) & lguard`` keeps the guard of each lead variable that ``q`` still
    uses: adding ``fill`` to a field below its guard sets the guard exactly
    when the field is nonzero.
    """

    __slots__ = ("lm", "lmkey", "rows", "sugar", "mask", "deg", "sqf", "lguard", "fill")

    def __init__(self, rows, sugar, pk: _Packing):
        self.lmkey, self.lm, _, self.mask = rows[0]
        self.rows = rows
        self.sugar = sugar
        self.deg = pk.degree(self.lm)
        self.sqf = self.mask.bit_count() == self.deg
        guards = pk.guards
        self.lguard = lguard = ((self.lm | guards) - pk.ones) & guards
        self.fill = lguard - (lguard >> (pk.width - 1))

    def quotient_support(self, q: int, ms: int, pk: _Packing) -> int:
        """The support of ``q``, a monomial of exact support ``ms`` over the
        lead: ``ms`` less the lead variables that cancel, which the guards
        tell when all or none do; otherwise ``q`` is unpacked."""
        kept = (q + self.fill) & self.lguard
        if not kept:
            return ms & ~self.mask
        if kept == self.lguard:
            return ms
        return pk.support(q)


def _shift_rows(rows: Sequence, qk, qp, qs) -> list:
    # multiplying by one monomial preserves the descending order
    return [(k + qk, p + qp, c, s | qs) for k, p, c, s in rows]


def _modulus(field) -> int:
    """The modulus of a prime field; 0 for the rationals, whose sums need no
    reduction."""
    return field.p if isinstance(field, PrimeField) else 0


def _scaled_sub(work: Sequence, start: int, grows: Sequence, qk, qp, qs, qc, p) -> list:
    """work[start:] - qc * q * grows[1:], with q the monomial of key ``qk``,
    packing ``qp`` and support ``qs``; the caller has dropped the term that
    cancels the divisor's head.  ``p`` is the field's modulus (see
    :func:`_modulus`): each coefficient is one sum ``c + gc*nqc``, reduced
    modulo ``p`` when ``p`` is set.  ``qs`` must be the exact support of
    ``q``: a new term's support is ``gs | qs``, and a cancelled variable
    left in ``qs`` would be kept there."""
    out = []
    i, na = start, len(work)
    nqc = -qc % p if p else -qc
    for gk, gp, gc, gs in islice(grows, 1, None):
        ck = gk + qk
        cp = gp + qp
        while i < na and work[i][0] > ck:
            out.append(work[i])
            i += 1
        if i < na and work[i][0] == ck:
            c = work[i][2] + gc * nqc
            if p:
                c %= p
            if c:
                out.append((ck, cp, c, work[i][3]))
            i += 1
        else:
            c = gc * nqc
            out.append((ck, cp, c % p if p else c, gs | qs))
    out.extend(work[i:])
    return out


# _MISSING[v]: the nibble values b that the nibble v is not a subset of
_MISSING = tuple(tuple(b for b in range(16) if v & ~b) for v in range(16))


class _Divisors:
    """Monic divisors in a fixed order, indexed by lead support.

    ``tables[c][b]`` has bit ``k`` set when the lead of divisor ``k`` uses a
    variable of nibble ``c`` (positions ``4c`` to ``4c+3``) that the nibble
    value ``b`` lacks, and ``every`` has the bit of every divisor.  The
    divisors whose lead support lies inside a given support are then the
    bits of ``every`` that no table hit sets, one lookup per four variables
    in place of a scan over every divisor (:func:`_reduce_rows` does the
    lookups).  A new divisor sets its bit at the values ``_MISSING`` lists
    for each nibble of its lead.  A run's interreduction clears the bits of
    every element outside its reduced basis.
    """

    __slots__ = ("elems", "tables", "every")

    def __init__(self, n: int, elems: Iterable = ()):
        self.elems: list = []
        self.tables = [[0] * 16 for _ in range((n + 3) // 4)]
        self.every = 0
        for e in elems:
            self.add(e)

    def add(self, e: _BasisElem) -> None:
        bit = 1 << len(self.elems)
        self.elems.append(e)
        self.every |= bit
        mask = e.mask
        for table in self.tables:
            if not mask:
                break
            for b in _MISSING[mask & 15]:
                table[b] |= bit
            mask >>= 4


def _reduce_rows(rows, sugar, divs: _Divisors, field, pk: _Packing, floor: int = -1):
    """Fully reduce ``rows`` against ``divs``; returns (rows, sugar).

    Every monomial of the result is divisible by no divisor's lead.  The
    divisor tried first is always the earliest in ``divs``.  A nonzero
    result's lead reaches the key ``floor`` (see :func:`buchberger`'s
    cover), so a head below it before any term is kept gives zero.

    A step reads its quotient's support and degree off the row invariants
    of the module docstring, and one whose sugar reaches ``2**(width - 1)``
    raises :class:`_Overflow` before it forms a product.
    """
    out = []
    work = rows
    idx = 0
    steps = 0
    guards = pk.guards
    mod = (1 << pk.width) - 1
    top = 1 << (pk.width - 1)
    p = _modulus(field)
    # the divisors whose lead support lies inside a term's support are the
    # bits that no nibble table sets (see _Divisors)
    elems, tables, every = divs.elems, divs.tables, divs.every
    while idx < len(work):
        mk, m, mc, ms = work[idx]
        if mk < floor:
            return [], sugar
        outside = 0
        sup = ms
        for table in tables:
            outside |= table[sup & 15]
            sup >>= 4
        cand = every ^ outside
        while cand:
            low = cand & -cand
            hit = elems[low.bit_length() - 1]
            q = m - hit.lm
            if not q & guards:
                break
            cand ^= low
        else:
            idx += 1
            floor = -1
            continue
        steps += 1
        if (steps & 0xFF) == 0:
            _check_deadline()
        if idx:
            out.extend(work[:idx])
        s = q % mod + hit.sugar
        if s >= top:
            raise _Overflow
        qs = hit.quotient_support(q, ms, pk)
        work = _scaled_sub(work, idx + 1, hit.rows, mk - hit.lmkey, q, qs, mc, p)
        idx = 0
        if s > sugar:
            sugar = s
    out.extend(work)
    return out, sugar


def _positions(mask: int) -> list:
    """The positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _join(minimal: dict, divs: _Divisors, hi: int, guards: int) -> None:
    """Make ``divs.elems[hi]``, whose lead no member's lead divides, a
    member of ``minimal`` and drop the members whose leads it divides.

    Those leads use every variable of the new lead, and the divisors whose
    lead uses variable ``v`` are the bits of ``tables[v >> 2][15 ^ (1 <<
    (v & 3))]`` (see :class:`_Divisors`), so they are one AND per variable
    away in place of a scan.  A squarefree new lead divides every one of
    them, so only a lead with a square is tested on each.
    """
    elems, tables = divs.elems, divs.tables
    h = elems[hi]
    hits = (1 << hi) - 1
    for v in _positions(h.mask):
        hits &= tables[v >> 2][15 ^ (1 << (v & 3))]
    for k in _positions(hits):
        if k in minimal and (h.sqf or not (elems[k].lm - h.lm) & guards):
            del minimal[k]
    minimal[hi] = None


def _update(divs: _Divisors, hi: int, minimal: dict, heap: list, pk: _Packing) -> None:
    """Gebauer-Moller pair update for ``h = divs.elems[hi]`` (Becker-Weispfenning,
    *Groebner Bases*, UPDATE), but for criterion B, which :func:`_buchberger`
    applies to a pair when it pops it.

    ``minimal`` holds the earlier elements whose lead no later lead
    divides: new pairs form only with them, and ``h`` joins them.  A pair
    goes on ``heap`` as ``(sugar, key, j, i, lcm, support)``, ``i < j =
    hi``, with the lcm's support.  Equal keys are equal lcms, of which one
    update keeps one, so the heap pops equal sugars and keys in the order
    the pairs came: by update, then by ``i``.  The clock is read first:
    criterion M is quadratic in the new pairs.

    The lcm of two squarefree leads is the OR of their packed ints, its
    degree the bit count of its support and its key ``h``'s plus the
    weights of the variables it adds to ``h``'s lead, so nothing is
    unpacked.  When every new lcm is squarefree, each holds ``h``'s lead,
    and criterion M compares the parts outside it as sets: a kept part
    inside a new one is found by :func:`_holds_subset`, which walks the new
    part's subsets or scans the kept ones.  Otherwise the kept lcms are
    tested one by one, and a squarefree one divides when its support lies
    inside.
    """
    _check_deadline()
    elems = divs.elems
    h = elems[hi]
    hlm, hmask, hsq = h.lm, h.mask, h.sqf
    guards = pk.guards
    # criteria M and F: among the new pairs keep one per minimal lcm, taken
    # in increasing degree.  A pair with coprime leads is dropped (product
    # criterion) and covers nothing either: its lcm g*h would divide another
    # new lcm lcm(k, h) only if g divided k, and no minimal lead divides
    # another.  The lcm of a lead with a square, :meth:`_Packing.lcm`
    # inlined, has degree at most ``g.deg + h.deg < 2**width - 1``, so it
    # is the lcm modulo that
    mod = (1 << pk.width) - 1
    spread = pk.width - 1
    hg = hlm | guards
    walk = hsq
    cands = []
    for j in minimal:
        g = elems[j]
        if g.mask & hmask:
            pmask = g.mask | hmask
            if hsq and g.sqf:
                cands.append((pmask.bit_count(), j, g.lm | hlm, pmask))
            else:
                walk = False
                glm = g.lm
                ge = (hg - glm) & guards
                lcm = glm ^ ((hlm ^ glm) & (ge - (ge >> spread)))
                cands.append((lcm % mod, j, lcm, pmask))
    cands.sort()  # by (degree, j); j is unique
    kept = []
    if walk:
        parts: set = set()
        for c in cands:
            q = c[3] ^ hmask
            if not _holds_subset(q, c[0] - h.deg, parts):
                parts.add(q)
                kept.append(c)
    else:
        held = []
        for c in cands:
            deg, _, lcm, pmask = c
            outside = ~pmask
            for klcm, kmask, ksq in held:
                if not kmask & outside and (ksq or not (lcm - klcm) & guards):
                    break
            else:
                held.append((lcm, pmask, deg == pmask.bit_count()))
                kept.append(c)
    weights = pk.weights
    for deg, j, lcm, pmask in kept:
        g = elems[j]
        s = max(g.sugar + deg - g.deg, h.sugar + deg - h.deg)
        if deg == pmask.bit_count():
            key = h.lmkey + sum(map(weights.__getitem__, _positions(pmask ^ hmask)))
        else:
            key = pk.key(lcm)
        heappush(heap, (s, key, hi, j, lcm, pmask))
    _join(minimal, divs, hi, guards)


class _Basis:
    """The reduced basis a run, :func:`buchberger` or :func:`ideal_intersect`,
    hands back: its ring, packing and elements, greatest lead first, the
    numerator its series check read, if any, and the run's divisor index,
    narrowed to the basis; the zero ideal's has none of these.  None is
    ever replaced.  The polynomials unpack at the first iteration, index or
    ``repr``; ``len``, :meth:`numerator`, membership, :meth:`has_leads` and
    :meth:`lead_masks` (the leads alone, as a cover) read the rows, and so
    does ``==`` on two bases in one ring at one width: a row's key and
    support follow from its packed monomial."""

    __slots__ = ("_polys", "_ring", "_pk", "_elems", "_divs", "_num")

    def __init__(self, ring, pk, elems, num, divs):
        self._ring, self._pk, self._elems, self._num, self._divs = ring, pk, elems, num, divs
        self._polys = None

    def _unpacked(self) -> tuple:
        if self._polys is None:
            self._polys = tuple(self._pk.poly(self._ring, e.rows) for e in self._elems)
        return self._polys

    def __iter__(self):
        return iter(self._unpacked())

    def __getitem__(self, i):
        return self._unpacked()[i]

    def __len__(self) -> int:
        return len(self._elems)

    def __repr__(self) -> str:
        return repr(self._unpacked())

    def __eq__(self, other) -> bool:
        if isinstance(other, _Basis):
            if self._ring == other._ring is not None and self._pk.width == other._pk.width:
                return [e.rows for e in self._elems] == [e.rows for e in other._elems]
            other = other._unpacked()
        return self._unpacked() == other

    def lead_masks(self) -> tuple:
        """The leads as a cover, ``(width, masks)`` (:func:`_lead_masks`)."""
        return _lead_masks((self._elems, self._pk))

    def has_leads(self, cover: tuple) -> bool:
        """Whether every mask of the cover ``(width, masks)`` is a lead, as
        packed keys; one past the guard bit is no lead.  Nothing is unpacked."""
        if not self._elems:
            return not cover[1]
        try:
            want = self._pk.keys_by_degree(*cover)
        except _Overflow:
            return False
        return set().union(*want.values()) <= {e.lmkey for e in self._elems}

    def numerator(self) -> list:
        if self._num is None:
            self._num = _lead_numerator(self._elems, self._pk)
        return self._num


def _remainder(f: Polynomial, G: Sequence[Polynomial], pk=None, divs=None) -> tuple:
    """``(pk, rows)``: ``f`` fully reduced by the monic ``G``, the earliest
    first, against ``divs``, the index a basis kept from its run, ``G``
    packed at ``pk``, or else against ``G`` indexed afresh at ``pk`` (by
    default 8-bit fields); a sugar at the guard bit reruns against ``G``
    packed afresh at fields twice as wide, then thrown away."""
    if pk is None:
        pk = _Packing(f.ring.order, 8)
    while True:
        try:
            if divs is None:
                divs = _Divisors(pk.n, [_BasisElem(pk.rows(g), g.degree(), pk) for g in G])
            return pk, _reduce_rows(pk.rows(f), f.degree(), divs, f.ring.field, pk)[0]
        except _Overflow:
            pk, divs = pk.wider(), None


def buchberger(
    gens: Iterable[Polynomial],
    cover: Optional[tuple] = None,
    series: Optional[Sequence[int]] = None,
) -> _Basis:
    """Reduced Groebner basis of the ideal generated by ``gens``, under
    their ring's order.

    Returns the monic polynomials, greatest lead first, as a
    :class:`_Basis` that equals their tuple; the zero ideal gives ``()``.

    A new element's pair update waits until the run leaves its sugar degree
    ``d``; the waiting updates then run in the order the elements came.
    Every pair a new element forms has sugar above ``d``, since its lcm is
    a proper multiple of the new lead, which no earlier lead divides, so
    the heap pops the same pairs in the same order as if each update ran at
    its insert.  Criterion B (Gebauer and Moller, JSC 1988) is applied when
    a pair is popped, by the elements whose updates ran while it waited, so
    it drops the pairs that a pass at each update would.  On homogeneous
    input a waiting update's element could drop no pair of degree ``d``:
    such a pair's lcm would be the new lead itself, the lcm of that lead
    with either member of the pair.  On other input such a pair may be
    reduced instead of dropped; the reduced basis is the same.

    ``cover``, when given, is ``(width, masks)``: the minimal generators,
    polarized (:func:`_lead_masks`), of a monomial ideal ``M`` that the
    caller has shown to contain the lead ideal ``in(I)`` of the generators'
    ideal.  A lead lies in ``M``, so it divides a minimal generator only by
    being it: an insert strikes its own lead's key off the cover's keys
    (:meth:`_Packing.keys_by_degree`), and no divisibility is tested.  Once
    every cover monomial of degree ``d`` or lower is struck off, the leads'
    ideal, inside ``in(I) ⊆ M``, equals both up to degree ``d``, so on
    homogeneous generators the remaining pairs of degree ``d`` reduce to
    zero and are dropped unreduced (the argument of Traverso, *Hilbert
    functions and the Buchberger algorithm*, JSC 1997, run on ``M`` in
    place of a Hilbert function).  Once all are, the partial basis is a
    Groebner basis, and the run ends before the updates that wait.  While
    none below ``d`` is left, a nonzero remainder of a pair of degree ``d``
    has a cover monomial left at ``d`` as its lead, so the least key left
    there is a floor: a pair whose head lies below it is dropped, and a
    reduction sinking below it ends at zero.  Keys are only struck, so the
    floor is kept until its key is no longer left.  The result is the same
    reduced basis, and a cover never struck off changes nothing.

    ``series``, when given, is the Hilbert numerator of the ideal of
    ``gens`` over the rationals, from a closed form that holds over every
    field (see :class:`IdealHandle`).  It is read once, off the reduced
    generators' leads before any pair, unless those leads meet the cover.
    A reading equal to ``series`` ends the run there, and the reading is
    the basis's numerator.  Over ``fp:p`` the Hilbert function is never
    below the one over ``qq``, and the leads' is never below either, so a
    reading equal to the series forces ``in(gens) = in(I)``.  A reading
    that differs leaves the run as a run without a series: the series
    never drops a pair.
    """
    gens = [g for g in gens if g]
    if not gens:
        return _Basis(None, None, (), None, None)
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators belong to different rings")
    series = None if series is None else list(series)

    def pack(pk):
        return ((pk.rows(g), g.degree()) for g in gens)

    return _Basis(ring, *_basis_rows(_Packing(ring.order, 8), pack, ring.field, cover, series))


def _basis_rows(pk: _Packing, pack, fld, cover=None, series=None) -> tuple:
    """``(packing, elems, num, divs)``: the reduced basis of the ``(rows,
    sugar)`` generators that ``pack(pk)`` returns, as :class:`_BasisElem`
    with the greatest lead first, the Hilbert numerator of its leads when
    the one reading met ``series``, else ``None``, and the run's divisor
    index, narrowed to the basis.  A run that would form a product whose
    sugar reaches the guard bit starts over with fields twice as wide, so
    the packing returned may be wider than ``pk``.  ``cover`` and
    ``series`` are :func:`buchberger`'s, kept across reruns.
    """
    while True:
        try:
            return (pk, *_buchberger(pack(pk), fld, pk, cover, series))
        except _Overflow:
            pk = pk.wider()


def _lead_masks(*runs) -> tuple:
    """``(width, masks)``: the polarized leads of the elements of each
    ``(elems, pk)`` of ``runs``, in order.  A lead's mask turns ``x_p^e``
    into the lowest ``e`` bits of field ``p``, ``width`` bits wide, the
    largest exponent.  Divisibility is then inclusion, the lcm an OR and
    the degree a bit count, and the graded Betti numbers, so the Hilbert
    numerator, are kept (Herzog and Hibi, *Monomial Ideals*, GTM 260, 2011,
    1.6).  When every lead is squarefree, ``width`` is 1 and a mask is the
    lead's support, ``e.mask``; otherwise the packed fields, in position
    order, give the exponents.  No monomial is unpacked."""
    elems = [e for es, _ in runs for e in es]
    if all(e.sqf for e in elems):
        return 1, [e.mask for e in elems]
    leads = [pk.fields(e.lm) for es, pk in runs for e in es]
    width = max(map(max, leads))
    return width, [sum(((1 << e) - 1) << (p * width) for p, e in enumerate(fs)) for fs in leads]


def _minimal_lcms(*bases: _Basis) -> tuple:
    """The minimal generators of ``in(B_1) ∩ ... ∩ in(B_k)`` for run bases
    ``bases``, as a cover ``(width, masks)`` (:func:`_lead_masks`): the lcms
    of a lead of each that no other such lcm divides.

    The fold runs left: the lcms of the minimal masks so far with the
    polarized leads of the next basis go in by degree, and one is minimal
    when no drop of one bit gives an lcm and no minimal one before it is a
    subset (:func:`_holds_subset`)."""
    width, masks = _lead_masks(*((B._elems, B._pk) for B in bases))
    ends = [0, *accumulate(len(B._elems) for B in bases)]
    found = set(masks[: ends[1]])
    for lo, hi in zip(ends[1:], ends[2:]):
        # the lcms are quadratic in the leads and no reduction runs here to
        # read the clock, so it is read once per minimal mask and every 256 lcms
        lcms: set = set()
        for a in found:
            _check_deadline()
            lcms.update([a | b for b in masks[lo:hi]])
        found = set()
        for k, u in enumerate(sorted(lcms, key=int.bit_count)):
            if not k & 255:
                _check_deadline()
            rest = u
            while rest and u ^ (rest & -rest) not in lcms:
                rest &= rest - 1
            if rest or _holds_subset(u, u.bit_count(), found):
                continue
            found.add(u)
    return width, found


def _buchberger(gens: list, fld, pk: _Packing, cover=None, series=None) -> tuple:
    """``(elems, num, divs)`` for :func:`_basis_rows`."""
    guards = pk.guards
    p = _modulus(fld)
    lcm_of = pk.lcm
    divs = _Divisors(pk.n)
    elems, tables = divs.elems, divs.tables
    # the minimal leads, by index, and the pairs not yet taken (see _update)
    minimal: dict = {}
    heap: list = []

    # ``left[d]``: the keys of the cover monomials of degree d that are no
    # lead yet, ``{}`` once the cover is met; one that no lead can reach
    # needs wider fields
    left = None if cover is None else pk.keys_by_degree(*cover)
    top = 1 << (pk.width - 1)
    # a new element joins the divisors at once, so that the reductions of
    # its own degree see it, but its pair update waits in ``queued``
    queued: list = []

    def insert(rows, sugar) -> bool:
        """Take ``rows`` as a monic element; whether its lead is 1."""
        c0 = rows[0][2]
        if c0 != fld.one:
            inv = fld.inv(c0)
            rows = [(k, q, c * inv % p if p else c * inv, s) for k, q, c, s in rows]
        e = _BasisElem(rows, sugar, pk)
        divs.add(e)
        queued.append(len(elems) - 1)
        if left is not None and e.deg in left:
            same = left[e.deg]
            same.discard(e.lmkey)
            if not same:
                del left[e.deg]
        return not e.lm

    def reduced(num) -> tuple:
        # the leads whose updates wait join the minimal leads, and the run's
        # index narrows to them, the tables too, so a lookup stays one XOR
        # with ``every``.  One interreduction pass gives the reduced basis:
        # leads are fixed, and full tail reduction against the others' leads
        # pins each element.  Elements go from the smallest lead up, each
        # reduced by the ones already done and the ones still to come; no
        # lead divides a term of its own tail, so each can stay in the index.
        # Each keeps the sugar of its reduced tail, which still bounds every
        # term.  The greatest lead comes first.  The clock is read before
        # each join and each tail, since a tail takes too few steps for
        # _reduce_rows to read it
        for hi in queued:
            _check_deadline()
            _join(minimal, divs, hi, guards)
        divs.every -= sum(1 << k for k in range(len(elems)) if k not in minimal)
        for table in tables:
            table[:] = [b & divs.every for b in table]
        kept = sorted(map(elems.__getitem__, minimal), key=lambda e: e.lmkey)
        for e in kept:
            _check_deadline()
            tail, e.sugar = _reduce_rows(e.rows[1:], e.sugar, divs, fld, pk)
            e.rows = [e.rows[0]] + tail
        return kept[::-1], num, divs

    # the generators, each reduced by the ones before it; a constant is the
    # unit basis.  The clock is read before each generator, since a
    # reduction here rarely takes the 256 steps after which _reduce_rows
    # reads it; ``gens`` may pack each one only as it is taken, so the read
    # bounds the packing too
    for rows, sugar in gens:
        _check_deadline()
        rows, sugar = _reduce_rows(rows, sugar, divs, fld, pk)
        if rows and insert(rows, sugar):
            return reduced(None)

    # the one series reading, off every generator's lead, unless the cover
    # is met already: a match makes the generators a Groebner basis
    if series is not None and left != {} and _lead_numerator(elems, pk) == series:
        return reduced(series)

    # the pairs by sugar.  Whenever the next pair's sugar passes the current
    # degree, or no pair is left, the waiting updates run in order
    degree, least = -1, None
    while left != {}:
        if not heap or heap[0][0] > degree:
            for hi in queued:
                _update(divs, hi, minimal, heap, pk)
            queued.clear()
            if not heap:
                break
            degree = heap[0][0]
        _check_deadline()
        s, lk, j, i, lcm, pmask = heappop(heap)
        ei, ej = elems[i], elems[j]
        # criterion B (Gebauer and Moller, JSC 1988): the pair is dropped
        # when the lead of an element k divides its lcm, which equals
        # neither lcm(i, k) nor lcm(j, k).  k is one whose update ran while
        # the pair waited: past j, before the first element still queued.
        # Its lead support lies inside the lcm's, so it is among the bits
        # that _reduce_rows's lookup leaves, taken from that range without
        # a complement as wide as the run.  When i, j and k are squarefree,
        # that inclusion is the division and the lcms are ORs of supports
        outside = 0
        sup = pmask
        for table in tables:
            outside |= table[sup & 15]
            sup >>= 4
        cand = (1 << (queued[0] if queued else len(elems))) - (2 << j)
        cand ^= cand & outside
        sq = ei.sqf and ej.sqf
        while cand:
            low = cand & -cand
            k = elems[low.bit_length() - 1]
            if sq and k.sqf:
                if ei.mask | k.mask != pmask != ej.mask | k.mask:
                    break
            elif not (lcm - k.lm) & guards and lcm_of(ei.lm, k.lm) != lcm != lcm_of(ej.lm, k.lm):
                break
            cand ^= low
        if cand:
            continue
        # with no cover key left below the degree, the least one left at it
        # is a floor, infinite when none is (see buchberger): a pair whose
        # greater shifted tail head lies below it is dropped.  The floor is
        # kept until its key is no longer left at the degree
        floor = -1
        if left is not None and min(left) >= degree:
            at = left.get(degree, ())
            if least not in at:
                least = min(at, default=float("inf"))
            floor = least
            heads = [lk - e.lmkey + e.rows[1][0] for e in (ei, ej) if len(e.rows) > 1]
            if max(heads, default=-1) < floor:
                continue
        # the sugar bounds every term the pair forms
        if s >= top:
            raise _Overflow
        qi = lcm - ei.lm
        qj = lcm - ej.lm
        # both elements are monic, so their heads cancel at the lcm and only
        # the tails are shifted
        rows = _scaled_sub(
            _shift_rows(ei.rows[1:], lk - ei.lmkey, qi, ei.quotient_support(qi, pmask, pk)),
            0, ej.rows, lk - ej.lmkey, qj, ej.quotient_support(qj, pmask, pk), fld.one, p,
        )
        rows, sugar = _reduce_rows(rows, s, divs, fld, pk, floor)
        if rows and insert(rows, sugar):
            return reduced(None)
    return reduced(None)


# ---------------------------------------------------------------------------
# Hilbert numerators of monomial ideals


def _lead_numerator(elems: Sequence, pk: _Packing) -> list:
    """Coefficients of ``N(t)`` with ``HS(S/M) = N(t)/(1-t)^n``, for the
    monomial ideal ``M`` that the leads of ``elems``, basis elements packed
    by ``pk``, generate, minimally or not.  Trailing zero coefficients are
    dropped, but ``M = S`` keeps its ``[0]``.  The leads are polarized
    (:func:`_lead_masks`).
    """
    num = _pivot_numerator(_lead_masks((elems, pk))[1])
    while len(num) > 1 and not num[-1]:
        num.pop()
    return num


def _holds_subset(s: int, deg: int, masks: set) -> bool:
    """Whether some mask of ``masks`` is a subset of ``s``, a mask of
    ``deg`` bits.  Walking the ``2**deg`` subsets of ``s`` against the set
    beats scanning the set once ``2**deg`` is at most its size.  The pivot
    recursion, :func:`_minimal_lcms` and criterion M of :func:`_update`
    share it."""
    if 1 << deg <= len(masks):
        sub = s
        while sub not in masks:
            if not sub:
                return False
            sub = (sub - 1) & s
        return True
    return any(not m & ~s for m in masks)


def _pivot_numerator(gens: list) -> list:
    """Bigatti's pivot recursion (*Computation of Hilbert-Poincare series*,
    JPAA 1997) on generators ``gens``, minimal or not: ``N(M) = N(M + (x))
    + t*N(M : x)`` with ``x`` the bit, a variable of the polarized ring, in
    the most generators, down to pairwise-coprime generators, where ``N =
    prod(1 - t^deg)``.

    ``M + (x)`` is ``(x)`` plus the generators free of ``x``, so its
    numerator is ``(1 - t)`` times theirs.  ``M : x`` is generated by the
    cut, the generators that ``x`` divides with ``x`` taken out, and by the
    generators free of ``x`` that no cut generator divides.

    Each generator is a squarefree mask (:func:`_lead_masks`), its degree the
    bit count, and a cut generator divides ``s`` exactly when its mask is a
    subset of ``s``, which :func:`_holds_subset` finds by walking the
    subsets of ``s`` or by scanning the cut masks.
    """
    seen = overlap = 0
    for s in gens:
        overlap |= seen & s
        seen |= s
    if not overlap:
        out = [1]
        for d in map(int.bit_count, gens):
            # out * (1 - t^d)
            nxt = out + [0] * d
            for i, c in enumerate(out):
                nxt[i + d] -= c
            out = nxt
        return out
    _check_deadline()
    counts: dict = {}
    for s in gens:
        s &= overlap
        while s:
            low = s & -s
            counts[low] = counts.get(low, 0) + 1
            s ^= low
    x = max(counts, key=counts.__getitem__)
    free = [s for s in gens if not s & x]
    cut = [s ^ x for s in gens if s & x]
    masks = set(cut)
    quotient = cut + [s for s in free if not _holds_subset(s, s.bit_count(), masks)]
    a = _pivot_numerator(free)
    b = _pivot_numerator(quotient)
    out = [0] * (max(len(a), len(b)) + 1)
    for i, c in enumerate(a):
        out[i] += c
        out[i + 1] -= c
    for i, c in enumerate(b):
        out[i + 1] += c
    return out


def normal_form(f: Polynomial, G: Sequence[Polynomial]) -> Polynomial:
    """Remainder of full reduction of ``f`` by ``G`` (in G's listed order).

    ``G`` need not be a Groebner basis; the remainder is only canonical when
    it is.  Membership in the zero ideal (empty ``G``) returns ``f``.  The
    loop is membership's, :func:`_remainder`, on the monic divisors packed
    afresh.  The clock is read on entry, so a loop of short reductions is
    bounded.
    """
    ring = f.ring
    for g in G:
        if not g:
            raise ValueError("zero polynomial in divisor list")
        if g.ring != ring:
            raise ValueError("divisor in a different ring")
    if not f:
        return f
    _check_deadline()
    # a monic divisor leaves the same remainder
    pk, rows = _remainder(f, [g.monic() for g in G])
    return pk.poly(ring, rows)


# ---------------------------------------------------------------------------
# ideals


class IdealHandle:
    """An ideal given by generators, with a lazily cached reduced basis.

    ``series``, when given, is the Hilbert numerator of ``S/I`` over the
    rationals, known in closed form: :mod:`detkit.detideals` gives it to a
    plain determinantal or Pfaffian ideal.  The basis run reads it once,
    before any pair (see :func:`buchberger`): a reading that equals it
    certifies the generators as a Groebner basis and ends the run, and one
    that differs leaves the run as it would be without a series.
    """

    __slots__ = ("ring", "gens", "series", "_gb")

    def __init__(
        self,
        ring: PolyRing,
        gens: Iterable[Polynomial],
        series: Optional[Sequence[int]] = None,
    ):
        gens = tuple(g for g in gens if g)
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator in a different ring")
        self.ring = ring
        self.gens = gens
        self.series = series
        self._gb = None

    def groebner(self, cover: Optional[tuple] = None) -> _Basis:
        """The reduced basis; the first call computes it, with
        :func:`buchberger`'s ``cover`` stop, ``(width, masks)``, when one is
        given and its check of ``series``."""
        if self._gb is None:
            self._gb = buchberger(self.gens, cover, series=self.series)
        return self._gb

    def __repr__(self) -> str:
        return f"IdealHandle({len(self.gens)} gens over {self.ring!r})"


def hilbert_numerator(I: IdealHandle) -> list:
    """Coefficients of ``N(t)``, where ``HS(S/I) = N(t)/(1-t)^n`` and ``n``
    is the number of variables, read off the leads of the reduced basis
    (for a homogeneous ``I``, ``S/I`` and ``S/in(I)`` share the series).
    The zero ideal gives ``[1]`` and the unit ideal ``[0]``.  Computed
    once per basis (see :meth:`_Basis.numerator`); the clock is read at
    every pivot."""
    return list(I.groebner().numerator())


def ideal_member(f: Polynomial, I: IdealHandle) -> bool:
    """Whether ``f`` lies in ``I``: its remainder by ``I``'s reduced basis,
    against the index that the basis's run built, has no row; nothing is
    unpacked, and one past the run's width leaves the index as it is (see
    :func:`_remainder`).  The first test computes the basis; the clock is
    read before each reduction."""
    if not f:
        return True
    if f.ring != I.ring:
        raise ValueError("polynomial and ideal live in different rings")
    G = I.groebner()
    _check_deadline()
    return not _remainder(f, G, G._pk, G._divs)[1]


def _inside(I: IdealHandle, J: IdealHandle) -> bool:
    """Whether ``I`` lies in ``J``, by membership of each generator; one
    that is also a generator of ``J`` needs no reduction."""
    own = set(J.gens)
    return all(g in own or ideal_member(g, J) for g in I.gens)


def ideal_equal(I: IdealHandle, J: IdealHandle) -> bool:
    """Whether ``I`` and ``J`` are the same ideal: reduced bases are unique
    for the ring's order, so they are equal exactly when the ideals are."""
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    return I.groebner() == J.groebner()


def _gens_have_unit(I: IdealHandle) -> bool:
    return any(g.is_constant() and g for g in I.gens)


def ideal_intersect(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """Intersection via one auxiliary elimination variable ``w``.

    Computes the reduced basis of ``w*I + (w-1)*J`` under the order that
    compares the ``w`` exponent first and breaks ties by the ring's own
    order, and keeps the ``w``-free part.  ``w`` is one packed field past
    the ring's variables (see :class:`_Packing`), so no second ring is
    built.  The ``w``-free part is the reduced basis of the intersection
    under the ring's order and is cached on the returned handle, with the
    elimination's index, whose leads with ``w`` divide no ``w``-free term.
    When one side is the unit ideal, the other handle itself is returned.
    """
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    ring = I.ring
    if not I.gens or not J.gens:
        return IdealHandle(ring, ())
    if _gens_have_unit(I):
        return J
    if _gens_have_unit(J):
        return I

    n = len(ring.table)
    wbit = 1 << n

    def pack(pk):
        # w is the field at position n
        wk, wp = pk.weights[n], 1 << (n * pk.width)
        neg = ring.field.neg
        gens = [(_shift_rows(pk.rows(f), wk, wp, wbit), f.degree() + 1) for f in I.gens]
        for g in J.gens:
            rows = pk.rows(g)
            # w*g - g: every term of w*g beats every w-free term
            tail = [(k, p, neg(c), s) for k, p, c, s in rows]
            gens.append((_shift_rows(rows, wk, wp, wbit) + tail, g.degree() + 1))
        return gens

    pk, basis, _, divs = _basis_rows(_Packing(ring.order, 8, elim=True), pack, ring.field)
    kept = [e for e in basis if not e.mask & wbit]  # leads free of w
    # elimination order: a w-free lead forces every term w-free
    if any(s & wbit for e in kept for _, _, _, s in e.rows):
        raise RuntimeError("elimination basis has a w-free lead over a w term")
    basis = _Basis(ring, pk, kept, None, divs)
    result = IdealHandle(ring, basis)
    result._gb = basis
    return result


def _certified(step: IdealHandle, handles: Sequence[IdealHandle]) -> bool:
    """Whether ``step`` is certified as ``handles``' intersection (see :func:`intersect_all`)."""
    # the cover is sound only once step lies inside every handle
    if not all(_inside(step, H) for H in handles):
        return False
    cover = _minimal_lcms(*(H.groebner() for H in handles))
    return step.groebner(cover).has_leads(cover)


def intersect_all(
    ring: PolyRing, handles: Sequence[IdealHandle], expect: Sequence[IdealHandle] = ()
) -> IdealHandle:
    """The intersection of ``handles``, folded left from ``handles[0]``; no
    handles give the unit ideal.

    ``expect[i-1]``, when given, is a homogeneous ideal ``L`` claimed to
    equal ``K_i = K_{i-1} ∩ handles[i]``, with ``K_0 = handles[0]``.  It
    is certified on lead ideals against ideals ``H_1..H_k`` claimed to
    intersect to it: ``handles[:i+1]``, or ``K_{i-1}`` and ``handles[i]``.
    Every generator of ``L`` lies in each ``H_j`` by membership, so
    ``in(L) ⊆ in(∩H_j) ⊆ M = ∩in(H_j)``, which the lcms of a lead of each
    basis generate.  Then a lead of ``L`` lies in ``M`` and divides a minimal
    generator of ``M`` only by being it, so "every lcm is divisible by a
    lead of ``L``" comes down to "every minimal lcm is a lead of ``L``"
    (:func:`_minimal_lcms`).  When that holds the three ideals are equal,
    and ``L``, inside ``∩H_j`` with the same lead ideal, is ``∩H_j``.  The
    minimal lcms also cover ``L``'s basis run (see :func:`buchberger`), but
    the check reads the final basis, however it was computed.

    The last claim is tried against all the handles first; certified, it
    reads no prefix claim.  Refused, it is tried again as the step
    ``(K_{i-1}, handles[i])``, with ``K_{i-1}`` found the same way over
    ``handles[:i]``; with two handles the tries are one.  A step without a
    certified claim eliminates with :func:`ideal_intersect`.
    """
    if len(handles) < 2:
        return handles[0] if handles else IdealHandle(ring, (ring.one,))
    claim = expect[len(handles) - 2] if len(expect) >= len(handles) - 1 else None
    if claim is not None and _certified(claim, handles):
        return claim
    K = intersect_all(ring, handles[:-1], expect)
    if claim is not None and len(handles) > 2 and _certified(claim, (K, handles[-1])):
        return claim
    return ideal_intersect(K, handles[-1])


def krull_dimension(I: IdealHandle) -> int:
    """Dimension of the quotient by ``I``, read off :func:`hilbert_numerator`.

    ``S/I`` and ``S/in(I)`` have the same dimension, and with
    ``HS(S/in(I)) = N(t)/(1-t)^n`` that dimension is the order of the pole
    at ``t = 1``: ``n`` minus the number of times ``1 - t`` divides
    ``N(t)``.  Each division is exact when the coefficients sum to zero,
    and the quotient's coefficients are the prefix sums of ``N``'s, the
    last one (the zero sum) dropped.

    Raises :class:`UnitIdealError` for the unit ideal.  A deadline scope
    bounds the basis and the numerator alike.
    """
    num = hilbert_numerator(I)
    if num == [0]:
        raise UnitIdealError("unit ideal has no dimension")
    height = 0
    while not sum(num):
        num = list(accumulate(num))[:-1]
        height += 1
    return len(I.ring.table) - height


def ideal_height(I: IdealHandle) -> int:
    """Codimension: number of variables minus the dimension."""
    return len(I.ring.table) - krull_dimension(I)
