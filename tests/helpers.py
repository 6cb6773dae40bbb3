"""Independent reference implementations used to pin expected values.

Everything here is written the slow, obvious way on dense exponent vectors
and coefficient dicts, so the package's sparse fast paths have something
honest to disagree with.
"""

from fractions import Fraction
from heapq import heappush
from itertools import combinations, combinations_with_replacement, permutations
from math import comb

from detkit.groebner import normal_form
from detkit.poly import Monomial, Polynomial, mono_div, mono_divides, mono_lcm


# -- dense monomial order comparators ---------------------------------------


def lex_greater(u, v):
    return tuple(u) > tuple(v)


def grevlex_greater(u, v):
    du, dv = sum(u), sum(v)
    if du != dv:
        return du > dv
    if tuple(u) == tuple(v):
        return False
    # walk from the right; the first difference decides, smaller entry wins
    for a, b in zip(reversed(u), reversed(v)):
        if a != b:
            return a < b
    return False


def order_compare(order, u, v):
    """-1, 0 or 1 as ``u`` <, =, > ``v`` under ``order``, by its sort key."""
    if u.exps == v.exps:
        return 0
    return -1 if order.key(u) < order.key(v) else 1


def dense(m, n):
    vec = [0] * n
    for pos, e in m.exps:
        vec[pos] = e
    return vec


def all_monomials(nvars, maxexp):
    """Every exponent vector with entries in 0..maxexp, as Monomials."""
    vecs = [[]]
    for _ in range(nvars):
        vecs = [v + [e] for v in vecs for e in range(maxexp + 1)]
    return [Monomial([(i, e) for i, e in enumerate(v) if e]) for v in vecs]


# -- naive polynomial arithmetic on dicts ------------------------------------


def naive_mul(a, b, field):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            n = max(len(ea), len(eb))
            ea_, eb_ = list(ea) + [0] * (n - len(ea)), list(eb) + [0] * (n - len(eb))
            key = tuple(x + y for x, y in zip(ea_, eb_))
            while key and key[-1] == 0:
                key = key[:-1]
            out[key] = field.add(out.get(key, field.zero), field.mul(ca, cb))
    return {k: c for k, c in out.items() if c != 0}


def poly_to_dict(f):
    out = {}
    for m, c in f.terms:
        if not m.exps:
            out[()] = c
            continue
        n = m.exps[-1][0] + 1
        vec = [0] * n
        for pos, e in m.exps:
            vec[pos] = e
        out[tuple(vec)] = c
    return out


def evaluate(f, point):
    """``f`` at a point given as one field element per variable."""
    fld = f.ring.field
    total = fld.zero
    for m, c in f.terms:
        for pos, e in m.exps:
            for _ in range(e):
                c = fld.mul(c, point[pos])
        total = fld.add(total, c)
    return total


def random_monomial(rng, nvars, maxdeg):
    pairs = []
    budget = rng.randint(0, maxdeg)
    while budget > 0:
        pos = rng.randrange(nvars)
        e = rng.randint(1, budget)
        pairs.append((pos, e))
        budget -= e
    return Monomial(pairs)


def random_poly(ring, rng, nterms, maxdeg):
    n = len(ring.table)
    pairs = []
    for _ in range(nterms):
        m = random_monomial(rng, n, maxdeg)
        c = ring.field.of_int(rng.randint(-50, 50))
        pairs.append((m, c))
    return ring.from_terms(pairs)


# -- Buchberger the textbook way -----------------------------------------------


def s_polynomial(f, g):
    """``f`` and ``g`` made monic and shifted to the lcm of their leads, the
    second subtracted from the first."""
    lcm = mono_lcm(f.lm, g.lm)
    fld = f.ring.field
    a = f.term_mul(mono_div(lcm, f.lm)).scale(fld.inv(f.lc))
    b = g.term_mul(mono_div(lcm, g.lm)).scale(fld.inv(g.lc))
    return a - b


def textbook_remainder(f, G):
    """Full reduction of ``f``: the leading term of what is left is divided
    by the first element of ``G`` whose lead divides it, or else moved to
    the remainder."""
    ring = f.ring
    fld = ring.field
    rem = []
    while f:
        m, c = f.terms[0]
        for g in G:
            if mono_divides(g.lm, m):
                f = f - g.term_mul(mono_div(m, g.lm)).scale(fld.div(c, g.lc))
                break
        else:
            rem.append((m, c))
            f = Polynomial(ring, f.terms[1:])
    return ring.from_terms(rem)


def textbook_buchberger(gens, max_pairs=None):
    """Reduced Groebner basis, in the layout ``buchberger`` returns: every
    S-pair is reduced (no criterion drops any), then the minimal and the
    interreduction passes.

    With no criteria the pair count can explode; past ``max_pairs`` formed
    S-pairs the run gives up and returns ``None``.
    """
    G = [g.monic() for g in gens if g]
    if not G:
        return ()
    order = G[0].ring.order
    pairs = list(combinations(range(len(G)), 2))
    formed = len(pairs)
    while pairs:
        if max_pairs is not None and formed > max_pairs:
            return None
        i, j = pairs.pop()
        r = textbook_remainder(s_polynomial(G[i], G[j]), G)
        if r:
            pairs += [(k, len(G)) for k in range(len(G))]
            formed += len(G)
            G.append(r.monic())
    minimal = []
    for g in sorted(G, key=lambda g: order.key(g.lm)):
        if not any(mono_divides(h.lm, g.lm) for h in minimal):
            minimal.append(g)
    reduced = [
        textbook_remainder(g, [h for h in minimal if h is not g]).monic() for g in minimal
    ]
    return tuple(sorted(reduced, key=lambda g: order.key(g.lm), reverse=True))


# -- dimension the slow way ------------------------------------------------------


def brute_force_dimension(supports, n):
    """Largest number of the ``n`` variables that contains no support
    entirely, by trying every variable subset, largest first.

    ``supports`` lists the variable positions of each generator of a
    monomial ideal (or of each lead monomial of a Groebner basis).
    """
    supports = [frozenset(s) for s in supports]
    if frozenset() in supports:
        raise ValueError("an empty support generates the unit ideal")
    for size in range(n, -1, -1):
        for combo in combinations(range(n), size):
            chosen = set(combo)
            if not any(s <= chosen for s in supports):
                return size
    raise AssertionError("unreachable: the empty subset contains no support")


# -- Hilbert functions the slow way ----------------------------------------------


def brute_force_hilbert_function(gens, n, top):
    """Number of monomials in ``n`` variables outside the monomial ideal of
    ``gens`` (dicts position -> exponent), in each degree ``0..top``, by
    listing every monomial of that degree."""
    out = []
    for d in range(top + 1):
        count = 0
        for combo in combinations_with_replacement(range(n), d):
            exps = [0] * n
            for pos in combo:
                exps[pos] += 1
            if not any(all(exps[p] >= e for p, e in g.items()) for g in gens):
                count += 1
        out.append(count)
    return out


def reference_lead_numerator(elems, pk):
    """``groebner._lead_numerator`` with the quotient filter as one scan of
    the cut generators for every free generator: the pivot recursion as it
    stood before the squarefree subset walk.  On squarefree leads it picks
    the engine's pivots.  Packed leads it works as packed monomials,
    dividing a pivot variable's exponent by one, where the engine works
    their polarization (``groebner._lead_masks``) one bit at a time; the
    numerators agree because polarization keeps the numerator."""
    leads = [(e.lm, e.mask, e.deg) for e in elems]
    if all(s.bit_count() == d for _, s, d in leads):
        num = _reference_pivot_numerator([(s, s, d) for _, s, d in leads], 1, 0)
    else:
        num = _reference_pivot_numerator(leads, pk.width, pk.guards)
    while len(num) > 1 and not num[-1]:
        num.pop()
    return num


def _reference_pivot_numerator(gens, width, guards):
    seen = overlap = 0
    for _, s, _ in gens:
        overlap |= seen & s
        seen |= s
    if not overlap:
        out = [1]
        for _, _, d in gens:
            nxt = out + [0] * d
            for i, c in enumerate(out):
                nxt[i + d] -= c
            out = nxt
        return out
    counts = {}
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
    a = _reference_pivot_numerator(free, width, guards)
    b = _reference_pivot_numerator(quotient, width, guards)
    out = [0] * (max(len(a), len(b)) + 1)
    for i, c in enumerate(a):
        out[i] += c
        out[i + 1] -= c
    for i, c in enumerate(b):
        out[i + 1] += c
    return out


def reference_update(divs, hi, minimal, heap, pk):
    """``groebner._update`` as it stood before the squarefree mask path:
    every lcm is the packed fieldwise max, unpacked for its key, criterion M
    tests each new lcm against every kept one with the support test and
    the guard test, and the new lead drops the minimal leads it divides by
    the guard test on each."""
    elems, guards = divs.elems, pk.guards
    h = elems[hi]
    cands = []
    for j in minimal:
        g = elems[j]
        if g.mask & h.mask:
            lcm = pk.lcm(g.lm, h.lm)
            cands.append((pk.degree(lcm), j, lcm, g.mask | h.mask))
    cands.sort()
    kept = []
    for deg, j, lcm, pmask in cands:
        if any(not kmask & ~pmask and not (lcm - klcm) & guards for klcm, kmask in kept):
            continue
        kept.append((lcm, pmask))
        g = elems[j]
        s = max(g.sugar + deg - g.deg, h.sugar + deg - h.deg)
        heappush(heap, (s, pk.key(lcm), hi, j, lcm, pmask))
    for k in list(minimal):
        if not (elems[k].lm - h.lm) & guards:
            del minimal[k]
    minimal[hi] = None


def series_from_numerator(num, n, top):
    """Coefficients of ``num(t) / (1 - t)^n`` in degrees ``0..top``."""
    return [
        sum(c * comb(d - i + n - 1, n - 1) for i, c in enumerate(num) if i <= d)
        for d in range(top + 1)
    ]


# -- determinants and Pfaffians the textbook way -----------------------------


def perm_sign(p):
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def det_by_permanents(entries):
    """entries: square list-of-lists of Polynomials (same ring)."""
    n = len(entries)
    ring = None
    for row in entries:
        for f in row:
            ring = f.ring
            break
        if ring:
            break
    total = ring.zero
    for p in permutations(range(n)):
        prod = ring.one
        for i in range(n):
            prod = prod * entries[i][p[i]]
        total = total + prod.scale(ring.field.of_int(perm_sign(p)))
    return total


def reference_signed_sum(ring, products):
    """The polynomial of ``(sign, positions)`` products, canonicalized by
    ``PolyRing.from_terms``, which sorts by ``MonomialOrder.key`` tuples: the
    reference for the generator builds' sort by int weights."""
    return ring.from_terms((Monomial([(p, 1) for p in ps]), sign) for sign, ps in products)


def pfaffian_by_matchings(rows, entry):
    """Sum over perfect matchings of rows with crossing-count signs.

    ``entry(i, j)`` with i < j gives the Polynomial for that slot; the ring
    is taken from the first entry.
    """
    rows = tuple(rows)
    assert len(rows) % 2 == 0
    ring = entry(rows[0], rows[1]).ring if rows else None

    def matchings(rest):
        if not rest:
            yield []
            return
        a = rest[0]
        for k in range(1, len(rest)):
            b = rest[k]
            for tail in matchings(rest[1:k] + rest[k + 1 :]):
                yield [(a, b)] + tail

    if not rows:
        raise ValueError("empty Pfaffian handled by caller")
    total = ring.zero
    for match in matchings(list(rows)):
        # sign = parity of crossings between the chords
        crossings = 0
        for (a, b), (c, d) in combinations(match, 2):
            if a < c < b < d or c < a < d < b:
                crossings += 1
        prod = ring.one
        for a, b in match:
            prod = prod * entry(a, b)
        sign = -1 if crossings % 2 else 1
        total = total + prod.scale(ring.field.of_int(sign))
    return total


# -- dense Gauss-Jordan ------------------------------------------------------------


def dense_row_reduce(rows, field):
    """Reduced row echelon form of a dense matrix (a list of row lists), by
    Gauss-Jordan elimination column by column.  Returns (nonzero rows,
    pivot column indices)."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    for r in mat:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    pivots = []
    zero, one = field.zero, field.one
    lead = 0
    for col in range(ncols):
        piv = next((i for i in range(lead, len(mat)) if mat[i][col] != zero), None)
        if piv is None:
            continue
        mat[lead], mat[piv] = mat[piv], mat[lead]
        row = mat[lead]
        if row[col] != one:
            inv = field.inv(row[col])
            mat[lead] = row = [field.mul(inv, v) for v in row]
        for i in range(len(mat)):
            if i != lead and mat[i][col] != zero:
                c = mat[i][col]
                mat[i] = [field.sub(a, field.mul(c, b)) for a, b in zip(mat[i], row)]
        pivots.append(col)
        lead += 1
        if lead == len(mat):
            break
    return mat[:lead], pivots


def dense_solve_columns(columns, targets, field):
    """``linalg.solve_columns`` on dense columns of one length, through
    :func:`dense_row_reduce` of ``[columns | targets]``."""
    vectors = list(columns) + list(targets)
    k = len(columns)
    reduced, pivots = dense_row_reduce([list(r) for r in zip(*vectors)], field)
    r = sum(1 for p in pivots if p < k)
    solutions = []
    for col in range(k, len(vectors)):
        if col in pivots[r:] or any(row[col] != field.zero for row in reduced[r:]):
            solutions.append(None)
            continue
        x = [field.zero] * k
        for row, p in zip(reduced, pivots[:r]):
            x[p] = row[col]
        solutions.append(x)
    return r, solutions


# -- misc ---------------------------------------------------------------------


def expire_after_basis(monkeypatch):
    """Make ``groebner``'s clock pass every deadline once a ``buchberger``
    call has returned.  Returns the list that gains one entry per call."""
    from detkit import groebner

    real_clock, real_buchberger = groebner.monotonic, groebner.buchberger
    done = []

    def buchberger_then_expire(*args, **kwargs):
        result = real_buchberger(*args, **kwargs)
        done.append(None)
        return result

    monkeypatch.setattr(groebner, "buchberger", buchberger_then_expire)
    monkeypatch.setattr(groebner, "monotonic", lambda: float("inf") if done else real_clock())
    return done


def expire_in_elimination(monkeypatch):
    """Make ``groebner``'s clock pass every deadline once a
    ``linalg.row_reduce`` call has started, patching it in every detkit
    namespace that binds it.  Returns the list that gains one entry per
    call started."""
    import sys

    from detkit import groebner, linalg

    real_clock, real_row_reduce = groebner.monotonic, linalg.row_reduce
    started = []

    def row_reduce_after_expiry(rows, field):
        started.append(None)
        return real_row_reduce(rows, field)

    for name, module in list(sys.modules.items()):
        if name.startswith("detkit.") and getattr(module, "row_reduce", None) is real_row_reduce:
            monkeypatch.setattr(module, "row_reduce", row_reduce_after_expiry)
    monkeypatch.setattr(groebner, "monotonic", lambda: float("inf") if started else real_clock())
    return started


def frac(n, d=1):
    return Fraction(n, d)


def assert_reduced_basis(G):
    """The definitional checks: monic, pairwise lead-minimal, fully
    interreduced, and every S-polynomial drops to zero."""
    if not G:
        return
    ring = G[0].ring
    for g in G:
        assert g.lc == ring.field.one
    for i, g in enumerate(G):
        for j, h in enumerate(G):
            if i != j:
                assert not mono_divides(h.lm, g.lm), (g, h)
                for m, _ in g.terms:
                    assert not mono_divides(h.lm, m), (g, h)
    for g, h in combinations(G, 2):
        assert not normal_form(s_polynomial(g, h), G)
    keys = [ring.order.key(g.lm) for g in G]
    assert keys == sorted(keys, reverse=True)
