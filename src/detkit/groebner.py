"""Buchberger engine, normal forms, and ideal-level operations.

The engine keeps polynomials as lists of ``(sort_key, Monomial, coeff)``
rows in strictly descending key order, so merges compare precomputed keys
instead of re-deriving them.  Bases are kept monic.  Pair selection uses the
sugar strategy.  Each new basis element runs the Gebauer-Moller pair update
(criteria B, M and F plus the product criterion), so popping a pair does no
scan.  Every basis element and pending pair carries the support of its lead
or lcm as an int bit mask, and a divisibility test runs only when the
divisor's support lies inside the other support.  All choices are
deterministic, so a given generator list always yields the same reduced
basis.

Long-running entry points accept a ``deadline`` (a ``time.monotonic`` value);
crossing it raises :class:`BudgetExceeded`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from time import monotonic
from typing import Iterable, Optional, Sequence

from .poly import (
    BlockElimOrder,
    PolyRing,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_shift,
    order_from_name,
)

__all__ = [
    "BudgetExceeded",
    "UnitIdealError",
    "buchberger",
    "normal_form",
    "s_polynomial",
    "IdealHandle",
    "ideal_member",
    "ideal_equal",
    "ideal_intersect",
    "intersect_all",
    "ideal_sum",
    "krull_dimension",
    "ideal_height",
]


class BudgetExceeded(RuntimeError):
    """A computation ran past its deadline."""


class UnitIdealError(ValueError):
    """Raised where the unit ideal has no meaningful answer (dimension)."""


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and monotonic() > deadline:
        raise BudgetExceeded("computation exceeded its time budget")


def _support(m) -> int:
    """Bit ``pos`` set for each variable of ``m``.  A monomial divides
    another only if its support lies inside the other's."""
    mask = 0
    for pos, _ in m.exps:
        mask |= 1 << pos
    return mask


class _BasisElem:
    """A monic divisor: its rows, its sugar, and its lead read off ``rows[0]``."""

    __slots__ = ("lm", "lmkey", "rows", "sugar", "mask")

    def __init__(self, rows, sugar):
        self.lmkey, self.lm, _ = rows[0]
        self.rows = rows
        self.sugar = sugar
        self.mask = _support(self.lm)


def _rows_of(f: Polynomial, key) -> list:
    return [(key(m), m, c) for m, c in f.terms]


def _poly_of(ring: PolyRing, rows: Sequence) -> Polynomial:
    return Polynomial(ring, tuple((m, c) for _, m, c in rows))


def _shift_rows(rows: Sequence, qmono, key) -> list:
    # multiplying by one monomial preserves the descending order
    out = []
    for _, m, c in rows:
        m2 = mono_mul(m, qmono)
        out.append((key(m2), m2, c))
    return out


def _scaled_sub(work: Sequence, start: int, grows: Sequence, qmono, qc, field, key) -> list:
    """work[start:] - qc * qmono * grows[1:]; the caller has dropped the term
    that cancels the divisor's head.

    The scaled divisor term is materialized lazily and cached, so a long
    irreducible stretch of ``work`` costs one key comparison per term.
    """
    out = []
    i = start
    j = 1
    na, ng = len(work), len(grows)
    mul, sub, neg = field.mul, field.sub, field.neg
    cur = None
    while i < na and j < ng:
        if cur is None:
            _, gm, gc = grows[j]
            gm2 = mono_mul(gm, qmono)
            cur = (key(gm2), gm2, mul(gc, qc))
        ak = work[i][0]
        if ak > cur[0]:
            out.append(work[i])
            i += 1
        elif ak < cur[0]:
            out.append((cur[0], cur[1], neg(cur[2])))
            j += 1
            cur = None
        else:
            c = sub(work[i][2], cur[2])
            if c != 0:
                out.append((ak, work[i][1], c))
            i += 1
            j += 1
            cur = None
    out.extend(work[i:])
    if cur is not None:
        out.append((cur[0], cur[1], neg(cur[2])))
        j += 1
    while j < ng:
        _, gm, gc = grows[j]
        gm2 = mono_mul(gm, qmono)
        out.append((key(gm2), gm2, neg(mul(gc, qc))))
        j += 1
    return out


def _reduce_rows(rows, sugar, elems, field, key, deadline):
    """Fully reduce ``rows`` against ``elems``; returns (rows, sugar).

    Every monomial of the result is divisible by no element's lead.  The
    divisor tried first is always the earliest in ``elems``.
    """
    out = []
    work = list(rows)
    idx = 0
    steps = 0
    while idx < len(work):
        m = work[idx][1]
        outside = ~_support(m)
        hit = None
        for e in elems:
            if not e.mask & outside and mono_divides(e.lm, m):
                hit = e
                break
        if hit is None:
            idx += 1
            continue
        steps += 1
        if (steps & 0xFF) == 0:
            _check_deadline(deadline)
        qmono = mono_div(m, hit.lm)
        if idx:
            out.extend(work[:idx])
        work = _scaled_sub(work, idx + 1, hit.rows, qmono, work[idx][2], field, key)
        idx = 0
        s = qmono.deg + hit.sugar
        if s > sugar:
            sugar = s
    out.extend(work)
    return out, sugar


def _update(elems, active, pending, heap, h, key, tick, deadline) -> None:
    """Gebauer-Moller pair update for ``h``, the element about to be
    appended to ``elems`` (Becker-Weispfenning, *Groebner Bases*, UPDATE).

    ``pending`` maps each pair ``(i, j)``, ``i < j``, to its lcm and the
    lcm's support; ``heap`` orders the same pairs by sugar.  ``active`` lists
    the elements whose lead no later lead divides: new pairs form only with
    them, and in the end they are the minimal basis.
    """
    _check_deadline(deadline)
    hi = len(elems)
    hlm, hmask = h.lm, h.mask
    # criterion B: a pending pair whose lcm the new lead divides, and equals
    # neither of its members' lcms with the new lead, is covered by those
    # two pairs
    dropped = []
    for pair, (lcm, pmask) in pending.items():
        if not hmask & ~pmask and mono_divides(hlm, lcm):
            i, j = pair
            if (
                mono_lcm(elems[i].lm, hlm).deg != lcm.deg
                and mono_lcm(elems[j].lm, hlm).deg != lcm.deg
            ):
                dropped.append(pair)
    for pair in dropped:
        del pending[pair]

    # criteria M and F: among the new pairs keep one per minimal lcm, taken
    # in increasing degree with coprime leads first; a coprime pair then
    # drops everything its lcm divides and itself (product criterion)
    cands = []
    for j in active:
        g = elems[j]
        lcm = mono_lcm(g.lm, hlm)
        coprime = lcm.deg == g.lm.deg + hlm.deg
        cands.append((lcm.deg, not coprime, j, lcm, g.mask | hmask))
    cands.sort(key=lambda c: c[:3])
    minimal = []
    for _, plain, j, lcm, pmask in cands:
        if plain and any(
            not kmask & ~pmask and mono_divides(klcm, lcm) for klcm, kmask in minimal
        ):
            continue
        minimal.append((lcm, pmask))
        if plain:
            g = elems[j]
            s = max(g.sugar + lcm.deg - g.lm.deg, h.sugar + lcm.deg - hlm.deg)
            heappush(heap, (s, key(lcm), next(tick), j, hi, lcm))
            pending[(j, hi)] = (lcm, pmask)

    active[:] = [
        j
        for j in active
        if hmask & ~elems[j].mask or not mono_divides(hlm, elems[j].lm)
    ]
    active.append(hi)


def buchberger(gens: Iterable[Polynomial], deadline=None) -> tuple:
    """Reduced Groebner basis of the ideal generated by ``gens``, under
    their ring's order.

    Returns a tuple of monic polynomials sorted with the greatest lead
    first; the zero ideal gives ``()``.
    """
    gens = [g for g in gens if g]
    if not gens:
        return ()
    ring = gens[0].ring
    for g in gens[1:]:
        if g.ring != ring:
            raise ValueError("generators belong to different rings")
    fld = ring.field
    key = ring.order.key

    elems: list = []
    active: list = []
    heap: list = []
    pending: dict = {}
    tick = count()

    def insert(rows, sugar):
        c0 = rows[0][2]
        if c0 != fld.one:
            inv = fld.inv(c0)
            rows = [(k, m, fld.mul(c, inv)) for k, m, c in rows]
        e = _BasisElem(rows, sugar)
        _update(elems, active, pending, heap, e, key, tick, deadline)
        elems.append(e)
        return e

    unit = False
    for g in gens:
        rows, sugar = _reduce_rows(_rows_of(g, key), g.degree(), elems, fld, key, deadline)
        if rows:
            e = insert(rows, sugar)
            if not e.lm.exps:
                unit = True
                break

    while heap and not unit:
        _check_deadline(deadline)
        s, _, _, i, j, lcm = heappop(heap)
        if pending.pop((i, j), None) is None:
            continue
        ei, ej = elems[i], elems[j]
        qi = mono_div(lcm, ei.lm)
        qj = mono_div(lcm, ej.lm)
        # both elements are monic, so their heads cancel at the lcm and only
        # the tails are shifted
        rows = _scaled_sub(_shift_rows(ei.rows[1:], qi, key), 0, ej.rows, qj, fld.one, fld, key)
        rows, sugar = _reduce_rows(rows, s, elems, fld, key, deadline)
        if rows:
            e = insert(rows, sugar)
            if not e.lm.exps:
                unit = True

    if unit:
        return (ring.one,)

    # one interreduction pass over the minimal basis gives the reduced basis:
    # leads are fixed, and full tail reduction against the others' leads pins
    # each element
    kept = sorted((elems[i] for i in active), key=lambda e: e.lmkey)
    final: list = []
    for i, e in enumerate(kept):
        others = final + kept[i + 1 :]
        rows, _ = _reduce_rows(e.rows, e.sugar, others, fld, key, deadline)
        final.append(_BasisElem(rows, e.sugar))
    final.sort(key=lambda e: e.lmkey, reverse=True)
    return tuple(_poly_of(ring, e.rows) for e in final)


def normal_form(f: Polynomial, G: Sequence[Polynomial], deadline=None) -> Polynomial:
    """Remainder of full reduction of ``f`` by ``G`` (in G's listed order).

    ``G`` need not be a Groebner basis; the remainder is only canonical when
    it is.  Membership in the zero ideal (empty ``G``) returns ``f``.  The
    deadline is checked on entry, so a loop of short reductions is bounded.
    """
    ring = f.ring
    key = ring.order.key
    elems = []
    for g in G:
        if not g:
            raise ValueError("zero polynomial in divisor list")
        if g.ring != ring:
            raise ValueError("divisor in a different ring")
        # a monic divisor leaves the same remainder
        elems.append(_BasisElem(_rows_of(g.monic(), key), g.degree()))
    if not f:
        return f
    _check_deadline(deadline)
    rows, _ = _reduce_rows(_rows_of(f, key), f.degree(), elems, ring.field, key, deadline)
    return _poly_of(ring, rows)


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

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring: PolyRing, gens: Iterable[Polynomial]):
        gens = tuple(g for g in gens if g)
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator in a different ring")
        self.ring = ring
        self.gens = gens
        self._gb = None

    def groebner(self, deadline=None) -> tuple:
        if self._gb is None:
            self._gb = buchberger(self.gens, deadline=deadline)
        return self._gb

    def is_zero(self, deadline=None) -> bool:
        if not self.gens:
            return True
        return not self.groebner(deadline)

    def is_unit(self, deadline=None) -> bool:
        gb = self.groebner(deadline)
        return len(gb) == 1 and gb[0].is_constant() and bool(gb[0])

    def __repr__(self) -> str:
        return f"IdealHandle({len(self.gens)} gens over {self.ring!r})"


def ideal_member(f: Polynomial, I: IdealHandle, deadline=None) -> bool:
    if not f:
        return True
    return not normal_form(f, I.groebner(deadline), deadline=deadline)


def ideal_equal(I: IdealHandle, J: IdealHandle, deadline=None) -> bool:
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    return I.groebner(deadline) == J.groebner(deadline)


def ideal_sum(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    return IdealHandle(I.ring, I.gens + J.gens)


def _gens_have_unit(I: IdealHandle) -> bool:
    return any(g.is_constant() and g for g in I.gens)


def ideal_intersect(I: IdealHandle, J: IdealHandle, deadline=None) -> IdealHandle:
    """Intersection via one auxiliary elimination variable.

    Computes the reduced basis of ``w*I + (1-w)*J`` under an order that
    eliminates ``w`` and breaks ties by the ring's own order, and keeps the
    ``w``-free part.  That part is the reduced basis of the intersection
    under the ring's order and is cached on the returned handle.
    """
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    ring = I.ring
    if not I.gens or not J.gens:
        return IdealHandle(ring, ())
    if _gens_have_unit(I):
        return IdealHandle(ring, J.gens)
    if _gens_have_unit(J):
        return IdealHandle(ring, I.gens)

    wname = "w"
    while wname in ring.table.names:
        wname += "_"
    table2 = ring.table.prepend(wname)
    ring2 = PolyRing(
        table2, BlockElimOrder(order_from_name(ring.order.kind, table2), 1), ring.field
    )

    # moving every variable up by one keeps the term order: on w-free
    # monomials the block order is the ring's order
    def lift(f: Polynomial) -> Polynomial:
        return Polynomial(ring2, tuple((mono_shift(m, 1), c) for m, c in f.terms))

    w = ring2.var(0).lm
    gens_ext = [lift(f).term_mul(w) for f in I.gens]
    for g in J.gens:
        h = lift(g)
        # every term of w*h beats every w-free term of h
        gens_ext.append(Polynomial(ring2, (-h.term_mul(w)).terms + h.terms))
    G = buchberger(gens_ext, deadline=deadline)

    kept = []
    for g in G:
        if g.lm.exps and g.lm.exps[0][0] == 0:
            continue  # lead involves w
        # elimination order: a w-free lead forces every term w-free
        if any(m.exps and m.exps[0][0] == 0 for m, _ in g.terms):
            raise RuntimeError("elimination basis has a w-free lead over a w term")
        kept.append(Polynomial(ring, tuple((mono_shift(m, -1), c) for m, c in g.terms)))
    result = IdealHandle(ring, kept)
    result._gb = tuple(kept)
    return result


def intersect_all(ring: PolyRing, handles: Sequence[IdealHandle], deadline=None) -> IdealHandle:
    result = IdealHandle(ring, (ring.one,))
    for h in handles:
        result = ideal_intersect(result, h, deadline=deadline)
    return result


def _min_transversal(supports, n: int, deadline=None) -> int:
    """Size of the smallest variable set that meets every mask in
    ``supports`` (each non-empty), by exact branch and bound.

    Only the minimal supports matter.  A node branches on a smallest
    support not yet met, taking each of its variables in turn; a later
    branch excludes the variables already tried there, since a set using
    one of them was searched under that earlier branch.  A node is pruned
    when its size plus a greedy packing of pairwise-disjoint supports, each
    of which needs a variable of its own, cannot beat the best set found.
    The deadline is checked at every node.
    """
    minimal: list = []
    for s in sorted(set(supports), key=int.bit_count):
        if all(s & k != k for k in minimal):
            minimal.append(s)
    best = n  # every variable: meets every non-empty support

    def search(sets, size):
        nonlocal best
        _check_deadline(deadline)
        if not sets:
            best = size  # the parent's bound let this node through: size < best
            return
        sets.sort(key=int.bit_count)
        used = 0
        bound = size
        for s in sets:
            if not s & used:
                used |= s
                bound += 1
        if bound >= best:
            return
        pick = sets[0]
        tried = 0
        while pick:
            bit = pick & -pick
            pick ^= bit
            rest = []
            for s in sets:
                if not s & bit:
                    s &= ~tried
                    if not s:
                        break
                    rest.append(s)
            else:
                search(rest, size + 1)
            tried |= bit

    search(minimal, 0)
    return best


def krull_dimension(I: IdealHandle, deadline=None) -> int:
    """Dimension of the quotient by ``I``: ``n`` minus the size of the
    smallest variable set that meets the support of every lead monomial of
    the reduced basis.  The variables outside such a set form a largest set
    that no lead monomial lives entirely inside.

    Raises :class:`UnitIdealError` for the unit ideal.  The deadline bounds
    the basis and the transversal search alike.
    """
    gb = I.groebner(deadline)
    n = len(I.ring.table)
    if not gb:
        return n
    if len(gb) == 1 and gb[0].is_constant():
        raise UnitIdealError("unit ideal has no dimension")
    return n - _min_transversal([_support(g.lm) for g in gb], n, deadline)


def ideal_height(I: IdealHandle, deadline=None) -> int:
    """Codimension: number of variables minus the dimension."""
    return len(I.ring.table) - krull_dimension(I, deadline)
