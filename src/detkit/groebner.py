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
each variable present.  They leave it as :class:`Polynomial` again.  Bases
are kept monic.  Pair selection uses the sugar strategy.  Each new basis
element runs the Gebauer-Moller pair update (criteria B, M and F plus the
product criterion), so popping a pair does no scan; criterion B finds the
pending pairs it may drop through an index of their lcms by variable, and
the minimal leads that a new lead divides come out of an index of their
variables.  A reduced basis already known can seed a run: its elements go
in unpaired, since their S-pairs reduce to zero.  A divisibility test
runs only on the divisors whose lead support lies inside the term's
support, which an index by variable yields without a scan.  All
choices are deterministic, so a given generator list always yields the same
reduced basis.  A product whose exponent reaches a guard bit aborts the
computation, which reruns with fields twice as wide.

:func:`hilbert_numerator` gives the numerator ``N(t)`` of the Hilbert
series ``HS(S/I) = N(t)/(1-t)^n`` from the leads of the reduced basis, by
Bigatti's pivot recursion on packed leads (plain support masks when every
lead is squarefree), and :func:`krull_dimension` reads the dimension off
it.  :func:`buchberger` can take such a numerator as a ``target``: it then
drops the S-pairs of each degree in which the leads of its partial basis
meet the target's Hilbert function, and ends once they have the whole
series.  Each new element's pair update waits until the run leaves its
degree, so a run that ends there never forms those pairs.  This is sound
for a homogeneous ideal already known to lie inside an ideal with that
series (Traverso, *Hilbert functions and the Buchberger algorithm*, JSC
1997).

:func:`intersect_all` is the one way to intersect a list of ideals.  It
folds from the first, and each step either keeps an expected result that
membership and the series of the intersection certify, with the basis
stopped at that series, or eliminates with :func:`ideal_intersect`.  The
series of a sum ``K + J`` comes from ``K``'s reduced basis extended by
``J``'s generators.

Inside :func:`deadline_scope` blocks, a clock reading past the earliest of
their deadlines raises :class:`BudgetExceeded`; outside them none raises.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from functools import partial
from heapq import heappop, heappush
from itertools import accumulate, islice
from math import comb
from operator import mul
from time import monotonic
from typing import Iterable, Optional, Sequence

from .poly import PolyRing, Polynomial, _mk, mono_div, mono_lcm

__all__ = [
    "BudgetExceeded",
    "UnitIdealError",
    "deadline_scope",
    "buchberger",
    "normal_form",
    "s_polynomial",
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


def _support(m) -> int:
    """Bit ``pos`` set for each variable of ``m``.  A monomial divides
    another only if its support lies inside the other's."""
    mask = 0
    for pos, _ in m.exps:
        mask |= 1 << pos
    return mask


# ---------------------------------------------------------------------------
# packed monomials


class _Overflow(Exception):
    """An exponent outgrew its field; the caller reruns with wider fields."""


class _Packing:
    """The field layout and the key weights for one order at one width.

    With ``elim`` the layout carries one field past the order's variables,
    at position ``len(order.table)``, for an intersection's auxiliary ``w``.  Its weight
    exceeds the key of every ``w``-free monomial, so monomials compare by
    their ``w`` exponent first and then by ``order``: the elimination order.
    """

    __slots__ = ("order", "elim", "n", "width", "ones", "guards", "weights", "fields", "_monos")

    def __init__(self, order, width: int, elim: bool = False):
        self.order = order
        self.elim = elim
        base = 1 << (width - 1)
        self.weights = weights = order.weights(base)
        if elim:
            # w-free keys lie in [0, span)
            weights.append(sum(weights) * (base - 1) + 1)
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
        self._monos: dict = {}

    def wider(self) -> "_Packing":
        return _Packing(self.order, 2 * self.width, self.elim)

    def rows(self, f: Polynomial) -> list:
        out = []
        width, weights = self.width, self.weights
        top = 1 << (width - 1)
        for m, c in f.terms:
            packed = key = mask = 0
            for pos, e in m.exps:
                if e >= top:
                    raise _Overflow
                packed |= e << (pos * width)
                key += e * weights[pos]
                mask |= 1 << pos
            out.append((key, packed, c, mask))
        return out

    def poly(self, ring: PolyRing, rows: Sequence) -> Polynomial:
        return Polynomial(ring, tuple((self.monomial(p), c) for _, p, c, _ in rows))

    def _split(self, packed: int) -> list:
        low = (1 << self.width) - 1
        return [(packed >> (p * self.width)) & low for p in range(self.n)]

    def monomial(self, packed: int):
        m = self._monos.get(packed)
        if m is None:
            exps = tuple((p, e) for p, e in enumerate(self.fields(packed)) if e)
            m = self._monos[packed] = _mk(exps, sum(e for _, e in exps))
        return m

    def degree(self, packed: int) -> int:
        return sum(self.fields(packed))

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
    """A monic divisor: its rows, its sugar, and its lead read off ``rows[0]``."""

    __slots__ = ("lm", "lmkey", "rows", "sugar", "mask", "deg")

    def __init__(self, rows, sugar, pk: _Packing):
        self.lmkey, self.lm, _, self.mask = rows[0]
        self.rows = rows
        self.sugar = sugar
        self.deg = pk.degree(self.lm)


def _shift_rows(rows: Sequence, qk, qp, qs, guards) -> list:
    # multiplying by one monomial preserves the descending order
    out = [(k + qk, p + qp, c, s | qs) for k, p, c, s in rows]
    for row in out:
        if row[1] & guards:
            raise _Overflow
    return out


def _scaled_sub(work: Sequence, start: int, grows: Sequence, qk, qp, qs, qc, field, guards) -> list:
    """work[start:] - qc * q * grows[1:], with q the monomial of key ``qk``,
    packing ``qp`` and support ``qs``; the caller has dropped the term that
    cancels the divisor's head."""
    out = []
    i, na = start, len(work)
    add, mul_ = field.add, field.mul
    nqc = field.neg(qc)
    for gk, gp, gc, gs in islice(grows, 1, None):
        ck = gk + qk
        cp = gp + qp
        if cp & guards:
            raise _Overflow
        while i < na and work[i][0] > ck:
            out.append(work[i])
            i += 1
        if i < na and work[i][0] == ck:
            c = add(work[i][2], mul_(gc, nqc))
            if c:
                out.append((ck, cp, c, work[i][3]))
            i += 1
        else:
            out.append((ck, cp, mul_(gc, nqc), gs | qs))
    out.extend(work[i:])
    return out


class _Divisors:
    """Monic divisors in a fixed order, indexed by lead support.

    ``_tables[c][b]`` has bit ``k`` set when the lead of divisor ``k`` uses a
    variable of nibble ``c`` (positions ``4c`` to ``4c+3``) that the nibble
    value ``b`` lacks.  The divisors whose lead support lies inside a given
    support are then the bits that no table hit sets, one lookup per four
    variables in place of a scan over every divisor.
    """

    __slots__ = ("elems", "_tables", "_all")

    def __init__(self, n: int):
        self.elems: list = []
        self._tables = [[0] * 16 for _ in range((n + 3) // 4)]
        self._all = 0

    def add(self, e: _BasisElem) -> None:
        bit = 1 << len(self.elems)
        self.elems.append(e)
        self._all |= bit
        mask = e.mask
        for table in self._tables:
            nib = mask & 15
            if nib:
                for b in range(16):
                    if nib & ~b:
                        table[b] |= bit
            mask >>= 4

    def candidates(self, support: int) -> int:
        """Bit ``k`` set for each divisor whose lead support lies inside
        ``support``; a lead divides a monomial only then."""
        outside = 0
        for table in self._tables:
            outside |= table[support & 15]
            support >>= 4
        return self._all ^ outside


def _reduce_rows(rows, sugar, divs: _Divisors, field, pk: _Packing):
    """Fully reduce ``rows`` against ``divs``; returns (rows, sugar).

    Every monomial of the result is divisible by no divisor's lead.  The
    divisor tried first is always the earliest in ``divs``.
    """
    out = []
    work = rows
    idx = 0
    steps = 0
    guards = pk.guards
    elems, candidates = divs.elems, divs.candidates
    while idx < len(work):
        mk, m, mc, ms = work[idx]
        cand = candidates(ms)
        while cand:
            low = cand & -cand
            hit = elems[low.bit_length() - 1]
            q = m - hit.lm
            if not q & guards:
                break
            cand ^= low
        else:
            idx += 1
            continue
        steps += 1
        if (steps & 0xFF) == 0:
            _check_deadline()
        if idx:
            out.extend(work[:idx])
        work = _scaled_sub(
            work, idx + 1, hit.rows, mk - hit.lmkey, q, pk.support(q), mc, field, guards
        )
        idx = 0
        s = pk.degree(q) + hit.sugar
        if s > sugar:
            sugar = s
    out.extend(work)
    return out, sugar


class _Pending:
    """The pairs not yet reduced, each under a tick that also orders it in
    the heap.

    ``pairs`` maps a tick to ``(i, j, lcm, support)``, ``i < j``, with the
    lcm's support.  ``_byvar[v]`` has bit ``tick`` set for each pair whose
    lcm uses variable ``v``, so the pairs whose lcm uses a given set of
    variables are one AND per variable in place of a scan.  A pair leaves
    ``pairs`` when it is reduced or dropped, and its bits stay set: the
    lookup in ``pairs`` skips them.
    """

    __slots__ = ("pairs", "_byvar", "_ticks")

    def __init__(self, n: int):
        self.pairs: dict = {}
        self._byvar = [0] * n
        self._ticks = 0

    def add(self, hmask: int, new: list) -> int:
        """Take ``new``, the pairs that one new element forms, whose lead
        has support ``hmask``, under consecutive ticks; returns the first."""
        first = self._ticks
        self._ticks += len(new)
        bits = ((1 << len(new)) - 1) << first
        byvar, pairs = self._byvar, self.pairs
        # every lcm here uses the new lead's variables; only the other
        # member's remaining ones are set pair by pair
        for v in _positions(hmask):
            byvar[v] |= bits
        for t, pair in enumerate(new, first):
            pairs[t] = pair
            for v in _positions(pair[3] & ~hmask):
                byvar[v] |= 1 << t
        return first

    def using(self, support: int) -> list:
        """Ticks of the pending pairs whose lcm uses every variable of
        ``support``; an lcm divisible by a monomial of that support can only
        be among them."""
        hits = (1 << self._ticks) - 1
        for v in _positions(support):
            hits &= self._byvar[v]
        return [t for t in _positions(hits) if t in self.pairs]


def _positions(mask: int) -> list:
    """The positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _Minimal:
    """The elements whose lead no later lead divides, by index in insertion
    order: a minimal basis of the leads taken so far.

    ``_byvar[v]`` has bit ``k`` set for each member whose lead uses
    variable ``v``.  A new lead divides only leads that use all of its
    variables, so the members it displaces are one AND per variable away
    in place of a scan.
    """

    __slots__ = ("members", "_byvar")

    def __init__(self, n: int):
        self.members: dict = {}
        self._byvar = [0] * n

    def copy(self) -> "_Minimal":
        out = _Minimal(0)
        out.members = dict(self.members)
        out._byvar = list(self._byvar)
        return out

    def add(self, elems, hi: int, guards: int) -> None:
        """Take ``elems[hi]``, whose lead no member's lead divides, and drop
        the members whose leads it divides."""
        hlm = elems[hi].lm
        hvars = _positions(elems[hi].mask)
        byvar, members = self._byvar, self.members
        # a constant lead uses no variable and divides every member
        hits = (1 << hi) - 1
        for v in hvars:
            hits &= byvar[v]
        for k in _positions(hits):
            if k in members and not (elems[k].lm - hlm) & guards:
                del members[k]
                for v in _positions(elems[k].mask):
                    byvar[v] ^= 1 << k
        members[hi] = None
        for v in hvars:
            byvar[v] |= 1 << hi


def _update(elems, hi: int, active: _Minimal, pending: _Pending, heap, pk: _Packing) -> None:
    """Gebauer-Moller pair update for ``h = elems[hi]`` (Becker-Weispfenning,
    *Groebner Bases*, UPDATE).

    ``pending`` holds the pairs not yet reduced; ``heap`` orders them by
    sugar.  ``active`` holds the earlier elements whose lead no later lead
    divides: new pairs form only with them, and ``h`` joins them.
    """
    _check_deadline()
    h = elems[hi]
    hlm, hmask = h.lm, h.mask
    guards, lcm_of = pk.guards, pk.lcm
    # criterion B: a pending pair whose lcm the new lead divides, and equals
    # neither of its members' lcms with the new lead, is covered by those
    # two pairs
    pairs = pending.pairs
    for t in pending.using(hmask):
        i, j, lcm, _ = pairs[t]
        if (
            not (lcm - hlm) & guards
            and lcm_of(elems[i].lm, hlm) != lcm
            and lcm_of(elems[j].lm, hlm) != lcm
        ):
            del pairs[t]

    # criteria M and F: among the new pairs keep one per minimal lcm, taken
    # in increasing degree.  A pair with coprime leads is dropped (product
    # criterion) and covers nothing either: its lcm g*h would divide another
    # new lcm lcm(k, h) only if g divided k, and no active lead divides
    # another.  Each field of a packed monomial weighs a power of
    # ``2**width``, which is 1 modulo ``2**width - 1``, so the lcm modulo
    # that is its degree whenever the degree, at most ``g.deg + h.deg``,
    # lies below it
    mod = (1 << pk.width) - 1
    cap = mod - h.deg
    cands = []
    for j in active.members:
        g = elems[j]
        if g.mask & hmask:
            lcm = lcm_of(g.lm, hlm)
            deg = lcm % mod if g.deg < cap else pk.degree(lcm)
            cands.append((deg, j, lcm, g.mask | hmask))
    cands.sort()  # by (degree, j); j is unique
    minimal, new = [], []
    for deg, j, lcm, pmask in cands:
        outside = ~pmask
        for klcm, kmask in minimal:
            if not kmask & outside and not (lcm - klcm) & guards:
                break
        else:
            minimal.append((lcm, pmask))
            g = elems[j]
            s = max(g.sugar + deg - g.deg, h.sugar + deg - h.deg)
            new.append((s, pk.key(lcm), j, lcm, pmask))
    first = pending.add(hmask, [(j, hi, lcm, pmask) for _, _, j, lcm, pmask in new])
    for t, (s, key, j, lcm, _) in enumerate(new, first):
        heappush(heap, (s, key, t, j, hi, lcm))
    active.add(elems, hi, guards)


class _Basis(tuple):
    """A reduced basis that :func:`buchberger` returns.  ``numerator`` is
    its Hilbert numerator when a target run read its leads, whether or not
    the reading met the target, and ``None`` otherwise."""

    numerator = None


def buchberger(
    gens: Iterable[Polynomial],
    target: Optional[Sequence[int]] = None,
    known: Sequence[Polynomial] = (),
) -> tuple:
    """Reduced Groebner basis of the ideal generated by ``gens``, under
    their ring's order.

    Returns a tuple of monic polynomials sorted with the greatest lead
    first; the zero ideal gives ``()``.

    ``known``, when given, must be a reduced Groebner basis in the same
    ring and order, and the result is then the reduced basis of ``known``
    and ``gens`` together.  Its elements enter the basis as they are, and
    no S-pair between two of them is formed: each already reduces to zero
    (Gebauer and Moller, *On an installation of Buchberger's algorithm*,
    JSC 1988).  Only ``gens`` are reduced and paired.

    ``target``, when given, is a Hilbert numerator (see
    :func:`hilbert_numerator`) that the run may stop at.  This is sound
    only when the generators are homogeneous and the caller has shown that
    their ideal ``L`` lies inside an ideal whose quotient has series
    ``target``.  Then the partial lead ideal lies inside ``in(L)``, so
    ``HF(S/in(G)) >= HF(S/L) >= target`` in every degree (Traverso,
    *Hilbert functions and the Buchberger algorithm*, JSC 1997).  So in
    degree ``d``, once ``HF(S/in(G))(d)`` meets ``target``'s, every element
    of ``L`` of degree ``d`` already has its lead in ``in(G)``: the
    remaining pairs of degree ``d`` reduce to zero and are dropped
    unreduced.  Once the leads have exactly the numerator ``target``, every
    later degree is met, and the run ends.  The result is the same reduced
    basis, and a target the run never meets changes nothing.

    Under a target, each new element's pair update waits until the run
    leaves the element's degree ``d``; the numerator of the leads is read
    there, and the waiting updates run, in the order the elements came,
    only if it misses the target.  The run then reduces the same pairs in
    the same order.  Every new pair has degree above ``d``, since its lcm
    is a proper multiple of the new lead, which no earlier lead divides.
    And criterion B of the new element drops no pending pair of degree
    ``d``: such a pair's lcm would be the new lead itself, which equals the
    lcm of that lead with either member of the pair.  The last reading
    comes after the last insert, so it is the numerator of the final
    leads, met or not: the run returns it as the basis's ``numerator``,
    which :meth:`IdealHandle.groebner` keeps for :func:`hilbert_numerator`.
    """
    gens = [g for g in gens if g]
    if not gens and not known:
        return _Basis()
    ring = (gens or known)[0].ring
    for g in [*gens, *known]:
        if g.ring != ring:
            raise ValueError("generators belong to different rings")
    target = None if target is None else list(target)
    pk, basis, num = _basis_rows(
        _Packing(ring.order, 8),
        lambda pk: [(pk.rows(g), g.degree()) for g in gens],
        ring.field,
        target,
        known,
    )
    out = _Basis(pk.poly(ring, rows) for rows in basis)
    out.numerator = num
    return out


def _basis_rows(pk: _Packing, pack, fld, target=None, known=()) -> tuple:
    """``(packing, rows, num)``: the reduced basis of the ``(rows, sugar)``
    generators that ``pack(pk)`` returns, as row lists with the greatest
    lead first, and the Hilbert numerator of its leads when a ``target``
    run read it, else ``None``.  A run whose exponents outgrow the fields
    starts over with fields twice as wide, so the packing returned may be
    wider than ``pk``.
    ``target`` and ``known`` are :func:`buchberger`'s, kept across reruns.
    """
    while True:
        try:
            prefix = [(pk.rows(g), g.degree()) for g in known]
            return (pk, *_buchberger(pack(pk), fld, pk, target, prefix))
        except _Overflow:
            pk = pk.wider()


def _hilbert_function(num: Sequence[int], n: int, d: int) -> int:
    """``HF(d)`` of the series ``N(t)/(1-t)^n``: the coefficient of ``t^d``."""
    return sum(c * comb(n - 1 + d - i, n - 1) for i, c in enumerate(num[: d + 1]))


def _buchberger(gens: list, fld, pk: _Packing, target=None, known=()) -> tuple:
    """``(rows, num)`` for :func:`_basis_rows`."""
    guards = pk.guards
    divs = _Divisors(pk.n)
    elems = divs.elems
    active = _Minimal(pk.n)
    heap: list = []
    pending = _Pending(pk.n)

    # a reduced basis is a minimal one whose pairs all reduce to zero, so
    # its elements go in unpaired and all active
    for rows, sugar in known:
        divs.add(_BasisElem(rows, sugar, pk))
        active.add(elems, len(elems) - 1, guards)
    # with a target, a new element joins the divisors at once, so that the
    # reductions of its own degree see it, but its pair update waits in
    # ``queued``; ``minimal`` runs ahead of ``active`` by the queued leads.
    # Whenever the next pair's sugar passes the current degree, or no pair
    # is left, the numerator of the minimal leads is read if any element
    # waits.  Meeting the target ends the run; otherwise the waiting
    # updates run in order.  ``deficit`` is then how far the leads' Hilbert
    # function lies above the target's in the new degree; each new element
    # of that degree lowers it by one, and at zero the degree's remaining
    # pairs are dropped
    minimal = active if target is None else active.copy()
    queued: list = []
    degree = -1
    deficit = num = None

    def insert(rows, sugar):
        c0 = rows[0][2]
        if c0 != fld.one:
            inv = fld.inv(c0)
            rows = [(k, p, fld.mul(c, inv), s) for k, p, c, s in rows]
        e = _BasisElem(rows, sugar, pk)
        divs.add(e)
        hi = len(elems) - 1
        if target is None:
            _update(elems, hi, active, pending, heap, pk)
        else:
            queued.append(hi)
            minimal.add(elems, hi, guards)
        return e

    unit = any(not e.lm for e in elems)
    if not unit:
        for rows, sugar in gens:
            rows, sugar = _reduce_rows(rows, sugar, divs, fld, pk)
            if rows:
                e = insert(rows, sugar)
                if not e.lm:
                    unit = True
                    break

    while not unit:
        _check_deadline()
        if target is not None and (not heap or heap[0][0] > degree):
            if queued:
                leads = [(e.lm, e.mask, e.deg) for e in map(elems.__getitem__, minimal.members)]
                num = _lead_numerator(leads, pk.width, guards)
                if num == target:
                    break
                for hi in queued:
                    _update(elems, hi, active, pending, heap, pk)
                queued.clear()
            if heap:
                degree = heap[0][0]
                deficit = _hilbert_function(num, pk.n, degree) - _hilbert_function(
                    target, pk.n, degree
                )
        if not heap:
            break
        s, lk, t, i, j, lcm = heappop(heap)
        if pending.pairs.pop(t, None) is None or deficit == 0:
            continue
        ei, ej = elems[i], elems[j]
        qi = lcm - ei.lm
        qj = lcm - ej.lm
        # both elements are monic, so their heads cancel at the lcm and only
        # the tails are shifted
        rows = _scaled_sub(
            _shift_rows(ei.rows[1:], lk - ei.lmkey, qi, pk.support(qi), guards),
            0, ej.rows, lk - ej.lmkey, qj, pk.support(qj), fld.one, fld, guards,
        )
        rows, sugar = _reduce_rows(rows, s, divs, fld, pk)
        if rows:
            e = insert(rows, sugar)
            if not e.lm:
                unit = True
            if deficit:
                deficit -= 1

    if unit:
        return [[(0, 0, fld.one, 0)]], None

    # one interreduction pass over the minimal basis gives the reduced basis:
    # leads are fixed, and full tail reduction against the others' leads pins
    # each element.  Elements go from the smallest lead up, each reduced by
    # the ones already done and the ones still to come; no lead divides a
    # term of its own tail, so every element can sit in one index.
    kept = sorted(map(elems.__getitem__, minimal.members), key=lambda e: e.lmkey)
    others = _Divisors(pk.n)
    for e in kept:
        others.add(e)
    for e in kept:
        tail, _ = _reduce_rows(e.rows[1:], e.sugar, others, fld, pk)
        e.rows = [e.rows[0]] + tail
    # under a target the last reading follows the last insert, so ``num``
    # is the series of these leads
    return [e.rows for e in reversed(kept)], num


# ---------------------------------------------------------------------------
# Hilbert numerators of monomial ideals


def _lead_numerator(leads: list, width: int, guards: int) -> list:
    """Coefficients of ``N(t)`` with ``HS(S/M) = N(t)/(1-t)^n``, for the
    monomial ideal ``M`` minimally generated by ``leads``: ``(packed,
    support, degree)`` triples packed ``width`` bits per field under
    ``guards``.  Trailing zero coefficients are dropped, but ``M = S``
    keeps its ``[0]``.  Squarefree leads are worked as bare support masks.
    """
    if all(s.bit_count() == d for _, s, d in leads):
        leads = [(s, s, d) for _, s, d in leads]
        width, guards = 1, 0
    num = _pivot_numerator(leads, width, guards)
    while len(num) > 1 and not num[-1]:
        num.pop()
    return num


def _pivot_numerator(gens: list, width: int, guards: int) -> list:
    """Bigatti's pivot recursion (*Computation of Hilbert-Poincare series*,
    JPAA 1997) on the minimal generators ``gens``: ``N(M) = N(M + (x)) +
    t*N(M : x)`` with ``x`` the variable in the most generators, down to
    pairwise-coprime generators, where ``N = prod(1 - t^deg)``.

    ``M + (x)`` is ``(x)`` plus the generators free of ``x``, so its
    numerator is ``(1 - t)`` times theirs.  ``M : x`` divides the
    generators that ``x`` divides by ``x``; those quotients stay minimal,
    and only they can divide a generator free of ``x``.
    """
    seen = overlap = 0
    for _, s, _ in gens:
        overlap |= seen & s
        seen |= s
    if not overlap:
        out = [1]
        for _, _, d in gens:
            # out * (1 - t^d)
            nxt = out + [0] * d
            for i, c in enumerate(out):
                nxt[i + d] -= c
            out = nxt
        return out
    _check_deadline()
    counts: dict = {}
    for _, s, _ in gens:
        s &= overlap
        while s:
            low = s & -s
            counts[low] = counts.get(low, 0) + 1
            s ^= low
    x = max(counts, key=counts.__getitem__)
    shift = (x.bit_length() - 1) * width
    one, field = 1 << shift, ((1 << width) - 1) << shift
    free, cut = [], []
    for g in gens:
        p, s, d = g
        if s & x:
            p -= one
            cut.append((p, s if p & field else s ^ x, d - 1))
        else:
            free.append(g)
    quotient = cut + [
        (p, s, d)
        for p, s, d in free
        if not any(not cs & ~s and not (p - cp) & guards for cp, cs, _ in cut)
    ]
    a = _pivot_numerator(free, width, guards)
    b = _pivot_numerator(quotient, width, guards)
    out = [0] * (max(len(a), len(b)) + 1)
    for i, c in enumerate(a):
        out[i] += c
        out[i + 1] -= c
    for i, c in enumerate(b):
        out[i + 1] += c
    return out


class _Reducer:
    """Monic polynomials packed once as divisors, for repeated reductions;
    a reduction that outgrows the fields repacks them wider."""

    __slots__ = ("polys", "pk", "divs")

    def __init__(self, ring: PolyRing, polys: Sequence[Polynomial]):
        self.polys = polys
        self.pk = _Packing(ring.order, 8)
        self.divs = None

    def remainder(self, f: Polynomial) -> Polynomial:
        while True:
            pk = self.pk
            try:
                if self.divs is None:
                    divs = _Divisors(pk.n)
                    for g in self.polys:
                        divs.add(_BasisElem(pk.rows(g), g.degree(), pk))
                    self.divs = divs
                rows, _ = _reduce_rows(pk.rows(f), f.degree(), self.divs, f.ring.field, pk)
                return pk.poly(f.ring, rows)
            except _Overflow:
                self.pk = pk.wider()
                self.divs = None


def normal_form(f: Polynomial, G: Sequence[Polynomial]) -> Polynomial:
    """Remainder of full reduction of ``f`` by ``G`` (in G's listed order).

    ``G`` need not be a Groebner basis; the remainder is only canonical when
    it is.  Membership in the zero ideal (empty ``G``) returns ``f``.  The
    clock is read on entry, so a loop of short reductions is bounded.
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
    return _Reducer(ring, [g.monic() for g in G]).remainder(f)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lcm = mono_lcm(f.lm, g.lm)
    fld = f.ring.field
    a = f.term_mul(mono_div(lcm, f.lm), fld.inv(f.lc))
    b = g.term_mul(mono_div(lcm, g.lm), fld.inv(g.lc))
    return a - b


# ---------------------------------------------------------------------------
# ideals


class IdealHandle:
    """An ideal given by generators, with a lazily cached reduced basis."""

    __slots__ = ("ring", "gens", "_gb", "_packed", "_hilbert")

    def __init__(self, ring: PolyRing, gens: Iterable[Polynomial]):
        gens = tuple(g for g in gens if g)
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator in a different ring")
        self.ring = ring
        self.gens = gens
        self._gb = None
        self._packed = None
        self._hilbert = None

    def groebner(self, target: Optional[Sequence[int]] = None) -> tuple:
        """The reduced basis; the first call computes it, with
        :func:`buchberger`'s ``target`` stop when one is given."""
        if self._gb is None:
            self._gb = buchberger(self.gens, target)
            # a target run has read the numerator off the final leads
            self._hilbert = self._gb.numerator
        return self._gb

    def _reducer(self) -> _Reducer:
        """The reduced basis packed as divisors, kept next to it so that
        repeated membership tests pack it once."""
        if self._packed is None:
            self._packed = _Reducer(self.ring, self.groebner())
        return self._packed

    def __repr__(self) -> str:
        return f"IdealHandle({len(self.gens)} gens over {self.ring!r})"


def hilbert_numerator(I: IdealHandle) -> list:
    """Coefficients of ``N(t)``, where ``HS(S/I) = N(t)/(1-t)^n`` and ``n``
    is the number of variables, read off the leads of the reduced basis
    (for a homogeneous ``I``, ``S/I`` and ``S/in(I)`` share the series).
    The zero ideal gives ``[1]`` and the unit ideal ``[0]``.  Computed
    once per handle, unless a target run of its basis has read it already;
    the clock is read at every pivot."""
    if I._hilbert is None:
        leads = [g.lm for g in I.groebner()]
        width = max((e for m in leads for _, e in m.exps), default=1).bit_length() + 1
        guards = sum(1 << (p * width + width - 1) for p in range(len(I.ring.table)))
        I._hilbert = _lead_numerator(
            [(sum(e << (p * width) for p, e in m.exps), _support(m), m.deg) for m in leads],
            width,
            guards,
        )
    return list(I._hilbert)


def ideal_member(f: Polynomial, I: IdealHandle) -> bool:
    if not f:
        return True
    if f.ring != I.ring:
        raise ValueError("polynomial and ideal live in different rings")
    reducer = I._reducer()
    _check_deadline()
    return not reducer.remainder(f)


def _inside(I: IdealHandle, J: IdealHandle) -> bool:
    """Whether ``I`` lies in ``J``, by membership of each generator; one
    that is also a generator of ``J`` needs no reduction."""
    own = set(J.gens)
    return all(g in own or ideal_member(g, J) for g in I.gens)


def _intersection_numerator(K: IdealHandle, J: IdealHandle) -> list:
    """Hilbert numerator of ``S/(K ∩ J)`` for homogeneous ``K`` and ``J``,
    from the exact sequence ``0 -> S/(K∩J) -> S/K ⊕ S/J -> S/(K+J) -> 0``.
    When ``K`` lies in ``J`` the intersection is ``K``, and no basis of
    ``K + J`` is needed.  When ``J`` lies in ``K``, each generator of ``J``
    reduces to zero against ``K``'s basis, the one the basis of ``K + J``
    starts from, and the formula gives ``J``'s series."""
    if _inside(K, J):
        return hilbert_numerator(K)
    # K's reduced basis seeds the basis of K + J: only J's generators are
    # reduced and paired
    total = IdealHandle(K.ring, K.groebner() + J.gens)
    total._gb = buchberger(J.gens, known=K.groebner())
    out: list = []
    for sign, I in ((1, K), (1, J), (-1, total)):
        num = hilbert_numerator(I)
        out += [0] * (len(num) - len(out))
        for d, c in enumerate(num):
            out[d] += sign * c
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


def ideal_equal(I: IdealHandle, J: IdealHandle) -> bool:
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
    under the ring's order and is cached on the returned handle.  When one
    side is the unit ideal, the other handle itself is returned.
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
        guards, neg = pk.guards, ring.field.neg
        gens = [(_shift_rows(pk.rows(f), wk, wp, wbit, guards), f.degree() + 1) for f in I.gens]
        for g in J.gens:
            rows = pk.rows(g)
            # w*g - g: every term of w*g beats every w-free term
            tail = [(k, p, neg(c), s) for k, p, c, s in rows]
            gens.append((_shift_rows(rows, wk, wp, wbit, guards) + tail, g.degree() + 1))
        return gens

    pk, basis, _ = _basis_rows(_Packing(ring.order, 8, elim=True), pack, ring.field)
    kept = []
    for rows in basis:
        if rows[0][3] & wbit:
            continue  # lead involves w
        # elimination order: a w-free lead forces every term w-free
        if any(s & wbit for _, _, _, s in rows):
            raise RuntimeError("elimination basis has a w-free lead over a w term")
        kept.append(pk.poly(ring, rows))
    result = IdealHandle(ring, kept)
    result._gb = tuple(kept)
    return result


def intersect_all(
    ring: PolyRing, handles: Sequence[IdealHandle], expect: Sequence[IdealHandle] = ()
) -> IdealHandle:
    """The intersection of ``handles``, folded left from ``handles[0]``; no
    handles give the unit ideal.

    ``expect[i-1]``, when given, is a homogeneous ideal claimed to equal
    ``K_i = K_{i-1} ∩ handles[i]``.  Step ``i`` keeps it when that is
    certified: every generator lies in ``K_{i-1}`` and in ``handles[i]`` by
    membership, and ``S/expect[i-1]`` has the series of ``S/K_i``, whose
    numerator comes from ``K_{i-1}`` and ``handles[i]`` alone
    (:func:`_intersection_numerator`).  That numerator is also the target
    that lets the basis of ``expect[i-1]`` stop early.  A step without a
    certified expectation eliminates with :func:`ideal_intersect`; the steps
    before it are not redone.
    """
    if not handles:
        return IdealHandle(ring, (ring.one,))
    K = handles[0]
    for i, J in enumerate(handles[1:]):
        if i < len(expect):
            step = expect[i]
            # the stop is sound only once step lies inside K ∩ J
            if _inside(step, K) and _inside(step, J):
                target = _intersection_numerator(K, J)
                step.groebner(target)
                if hilbert_numerator(step) == target:
                    K = step
                    continue
        K = ideal_intersect(K, J)
    return K


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
