"""Sums-of-squares machinery for order lattices: square enumeration,
minimal-length search by depth-first search (which also decides
n-square representability), level sets of all bounded sums of squares,
and the fixed-point lower-bound iteration.

Squares come from one integer walk over the order's lower-triangular
walk basis, the HNF of its lattice with the power coordinates reversed, so
every visited point lies in the order, bounded by the ellipsoid
abs_trace(x*x/alpha) <= 1 of one form builder (Fincke-Pohst).  The walk
fixes the coordinate of the largest radicand first, where the ellipsoid
is thinnest, and the rational coordinate last, so few of its slices are
empty.  At a
totally positive alpha it holds every square dominated by alpha, since
x*x <= alpha gives sigma(x)**2/sigma(alpha) <= 1 at each embedding
sigma, and one filter keeps the dominated ones; at a rational
alpha = cap it is the trace ball.  The filter builds each square's
vector of integer fixed-point conjugates and its slack
(`fixed_conjugates`, see bqsos.fields), decides alpha - square from
those bounds, and runs the exact test (`tnn_test`) only where a bound
straddles 0.  The search reads the vectors the filter kept: each
residual carries its own, a candidate costs one vector difference and
one minimum, and again only a straddle runs the exact test.  One
exhaustive search at depth min(ceil(abs_trace), d + 3), past which no
length lies (Mordell-Ko), decides whether alpha is a sum of squares;
shallower searches then shorten what it found to the minimum (see
length).  The form is scaled to integers once per walk, and each
coordinate's range comes from an integer square root, so no float
decides anything.  Hot paths work on the order's scaled coordinates,
integer tuples over its common denominator (see bqsos.orders); every
comparison is exact.  Both enumerators return one tuple of scaled
(root, square) pairs sorted by descending trace, which
length(..., square_set=) and level_sets read as it is.  One engine,
level_sets, extends the level sets on those tuples packed into single
ints, and one loop turns its levels into rows.
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import floor, isqrt, lcm
from operator import mul, neg, sub

from .fields import Element, FieldError, UsageError


class DecompositionError(FieldError):
    pass


class NotTotallyNonnegative(DecompositionError):
    pass


class CapTooSmall(DecompositionError):
    pass


EXACT = "exact"
NOT_SUM_OF_SQUARES = "not_sum_of_squares"
UNDETERMINED = "undetermined"

CACHE_VERSION = 1


def _reverse_ldl(gram):
    """(e, lam) with v^T gram v = sum_i e[i]*(v[i] + sum_{j<i} lam[i][j]*v[j])**2
    for a positive-definite integer Gram matrix, found by splitting off the
    last coordinate first.

    Fraction-free (Bareiss): the remaining form is g/prev with g integer,
    and the division by prev in each update is exact."""
    g = [list(row) for row in gram]
    e, lam = [], []
    prev = 1
    for i in reversed(range(len(g))):
        p, gi = g[i][i], g[i]
        e.append(Fraction(p, prev))
        lam.append([Fraction(gi[j], p) for j in range(i)])
        for j in range(i):
            gj = g[j]
            for k in range(j + 1):
                gj[k] = (p * gj[k] - gi[j] * gi[k]) // prev
        prev = p
    return e[::-1], lam[::-1]


def _dominance_form(order, alpha):
    """abs_trace(x*x/alpha) for totally positive alpha, in the shape
    _enumerate_roots takes: in the walk's coordinates, the power-basis
    coordinates reversed.

    x*x <= alpha gives sigma_k(x)**2/sigma_k(alpha) <= 1 at each of the d
    embeddings, so every dominated square has Tr(x*x/alpha) <= d, that is
    abs_trace(x*x/alpha) <= 1.  With adj the product of the other
    conjugates, 1/alpha = adj/N(alpha), and the Gram entry of power-basis
    coordinates i, j is abs_trace(e_i*e_j*adj)/N(alpha) =
    w_i*(e_j*adj)_i/N(alpha), w = (1, radicands).  At a rational alpha = c
    the form is the trace ball abs_trace(x*x)/c, diagonal with weights w/c."""
    field, dim = order.field, order.field.degree
    mul_coords = field.mul_coords
    adj = field.conjugate(alpha.num, 1)
    for k in range(2, dim):
        adj = mul_coords(adj, field.conjugate(alpha.num, k))
    # adj is over den**(dim-1), so N(alpha) = norm/den**dim and
    # 1/alpha = adj*den/norm
    norm = mul_coords(alpha.num, adj)[0]
    weights = (1,) + field.radicands
    cols = [mul_coords(tuple(int(i == j) for i in range(dim)), adj) for j in range(dim)]
    gram = [[w * col[i] for col in cols] for i, w in enumerate(weights)]
    e, lam = _reverse_ldl([row[::-1] for row in reversed(gram)])
    return [c * Fraction(alpha.den, norm) for c in e], lam


def _enumerate_roots(order, e, lam):
    """Scaled power-basis coordinate tuples of all nonzero x in the order
    with Q(x) = sum_i e[i]*(x_i + sum_{j<i} lam[i][j]*x_j)**2 <= 1, the x_i
    being the power-basis coordinates in reverse order (largest radicand
    first), for rational e[i] > 0 and rational lam; one root per {x, -x}
    pair (first nonzero power coordinate positive).

    The walk runs down the rows of order.walk_basis, lower triangular in
    the reversed coordinates: once the multipliers y_k of the earlier
    columns are fixed, row i's scaled coordinate is v_i = off + y*pivot
    for the next multiplier y, so every visited point lies in the order.
    Its half-space cut (y >= 0 while every earlier multiplier is 0) makes
    the last nonzero power coordinate positive, so each root is reversed
    into power order and negated where its first nonzero coordinate is
    negative.  Level i needs
    e[i]*(v_i + c_i)**2 <= rem, with c_i the centre fixed by the earlier
    coordinates; the remaining terms can all be made zero by the later
    coordinates, so no point of the ellipsoid is missed (Fincke-Pohst).

    Everything is scaled to integers once: with L_i the common denominator
    of lam[i], term i is f_i*(L_i*v_i + C_i)**2 over one common
    denominator S, with C_i = sum_j l_ij*v_j and integers f_i, l_ij, and
    the bound is the integer S*D**2.  The inner value is A + y*M with
    A = L_i*off + C_i and M = L_i*pivot > 0, so the exact y-range is
    -(b + A)//M <= y <= (b - A)//M with b = isqrt(rem // f_i)."""
    D, basis = order.den, order.walk_basis
    dim, last = len(basis), len(basis) - 1
    L = [lcm(*(c.denominator for c in row)) for row in lam]
    ed = [ei.denominator * Li * Li for ei, Li in zip(e, L)]
    S = lcm(*ed)
    f = [S // d * ei.numerator for ei, d in zip(e, ed)]
    l = [[c.numerator * (Li // c.denominator) for c in row] for row, Li in zip(lam, L)]
    piv = [basis[i][i] for i in range(dim)]
    M = [Li * p for Li, p in zip(L, piv)]
    # row i of the earlier columns
    cols = [[basis[k][i] for k in range(i)] for i in range(dim)]
    roots = []
    ys, vec = [0] * dim, [0] * dim
    zero = (0,) * last

    def walk(i, rem, leading_zero):
        off = sum(map(mul, ys, cols[i]))
        A = L[i] * off + sum(map(mul, vec, l[i]))
        b, Mi, p, fi = isqrt(rem // f[i]), M[i], piv[i], f[i]
        lo = 0 if leading_zero else -((b + A) // Mi)
        hi = (b - A) // Mi
        if i < last - 1:
            for y in range(lo, hi + 1):
                ys[i] = y
                vec[i] = off + y * p
                t = A + y * Mi
                walk(i + 1, rem - fi * t * t, leading_zero and y == 0)
            return
        # the last level inline: its offset and centre move linearly with y
        head = tuple(vec[:i])
        rhead = head[::-1]
        off_n = sum(map(mul, ys[:i], cols[last]))
        C_n = sum(map(mul, head, l[last]))
        c_n, l_n, L_n = cols[last][i], l[last][i], L[last]
        f_n, M_n, p_n = f[last], M[last], piv[last]
        for y in range(lo, hi + 1):
            t = A + y * Mi
            b_n = isqrt((rem - fi * t * t) // f_n)
            v, off_y = off + y * p, off_n + y * c_n
            A_y = L_n * off_y + C_n + l_n * v
            lo_n = 1 if leading_zero and y == 0 else -((b_n + A_y) // M_n)
            # (w,) + tail is the root in power order, kept as it is when its
            # first nonzero coordinate is positive (w >= cut), else negated;
            # tail > zero when tail's first nonzero entry is positive
            tail = (v,) + rhead
            neg_tail, cut = tuple(map(neg, tail)), 0 if tail > zero else 1
            roots.extend([(w,) + tail if w >= cut else (-w,) + neg_tail
                          for w in range(off_y + lo_n * p_n,
                                         off_y + (b_n - A_y) // M_n * p_n + 1, p_n)])

    walk(0, S * D * D, True)
    return roots


def _root_squares(order, e, lam):
    """(root, square) scaled pairs of the walk, squared one at a time so
    that a filter never holds the squares of the whole walk."""
    mul = order.mul_scaled
    return ((root, mul(root, root)) for root in _enumerate_roots(order, e, lam))


def _dominated(pairs, av, k, field):
    """(root, square, conj, slack) for each (root, square) pair with
    av - k*square totally nonnegative, where (conj, slack) are the
    square's fixed-point conjugates and slack (field.fixed_conjugates(sq)),
    kept for the search.

    A pair is decided as the search decides a candidate (see _dfs_search),
    on av's conjugates minus k times the square's with slack
    slack(av) + k*slack(square); only a straddle runs the exact tnn_test
    on av - k*square."""
    fixed, tnn = field.fixed_conjugates, field.tnn_test
    top = av[0]
    av_conj, av_slack = fixed(av)
    kept = []
    for root, sq in pairs:
        if k * sq[0] > top:
            continue
        conj, slack = fixed(sq)
        lo = min(map(sub, av_conj, conj if k == 1 else [k * c for c in conj]))
        bound = av_slack + k * slack
        if lo >= bound or (lo >= -bound
                           and tnn(tuple(a - k * c for a, c in zip(av, sq)))):
            kept.append((root, sq, conj, slack))
    return kept


def _by_trace(pairs):
    """The (root, square, ...) entries as a tuple, by descending square
    trace."""
    return tuple(sorted(pairs, key=lambda p: (-p[1][0], p[1])))


def enumerate_squares_traced(order, atr_cap):
    """All nonzero squares x*x of order elements with abs_trace <= atr_cap:
    the walk over the ellipsoid abs_trace(x*x/atr_cap) <= 1, unfiltered,
    as scaled (root, square) pairs with sign-canonical roots, by _by_trace."""
    atr_cap = Fraction(atr_cap)
    if atr_cap <= 0:
        return ()
    form = _dominance_form(order, order.field.from_rational(atr_cap))
    return _by_trace(_root_squares(order, *form))


def enumerate_squares_dominated(order, alpha):
    """The nonzero squares x*x with alpha - x*x totally nonnegative, as
    scaled (root, square) pairs by _by_trace.

    The walk covers the ellipsoid abs_trace(x*x/alpha) <= 1, which holds
    every dominated square (see _dominance_form), and _dominated keeps
    the dominated ones.  alpha need not lie in the order: both
    sides are compared over the common denominator of alpha and the
    order."""
    if not alpha.is_totally_nonnegative():
        raise NotTotallyNonnegative(f"{alpha} is not totally nonnegative")
    if alpha.is_zero():
        return ()
    L = lcm(order.den, alpha.den)
    av = tuple(c * (L // alpha.den) for c in alpha.num)
    return tuple(p[:2] for p in _dominated_squares(order, alpha, av, L // order.den))


def _dominated_squares(order, alpha, av, k):
    """_dominated over the walk of the ellipsoid abs_trace(x*x/alpha) <= 1,
    by _by_trace."""
    pairs = _root_squares(order, *_dominance_form(order, alpha))
    return _by_trace(_dominated(pairs, av, k, order.field))


@dataclass
class LengthResult:
    status: str
    k: int = None
    witness: tuple = None
    nodes: int = 0
    millis: float = 0.0

    @property
    def is_exact(self):
        return self.status == EXACT


def _dfs_search(av, squares, k, field, counter):
    """The first representation of alpha, with scaled coordinates av, as a
    sum of at most k squares, or None; representations are tried as
    nondecreasing index sequences into squares, the (root, square, conj,
    slack) entries of _dominated by descending trace, in lexicographic
    order.

    Every residual res carries its fixed-point conjugates and a slack (see
    field.fixed_conjugates(res)): alpha's own, then the parent's minus the
    square's, with the parent's slack plus the square's.  The conjugates
    are linear in the coordinates, so they are exactly those of res, and
    the summed slack is at least the sum of |res_j| that bounds their
    error.  A candidate square is then decided from lo, the least
    conjugate of res - square, and its slack: lo >= slack accepts,
    lo < -slack rejects, and only a straddle runs the exact tnn_test on
    res - square.  An accepted residual is totally nonnegative, so it is
    zero exactly when its trace is."""
    fixed, tnn = field.fixed_conjugates, field.tnn_test
    roots = [p[0] for p in squares]
    sqs = [p[1] for p in squares]
    atrs = [sq[0] for sq in sqs]
    conjs = [p[2] for p in squares]
    slacks = [p[3] for p in squares]
    n = len(squares)
    chosen = []

    def rec(res, conj, slack, start, remaining):
        counter[0] += 1
        t = res[0]
        if not t:
            return True
        for i in range(start, n):
            a = atrs[i]
            if a * remaining < t:
                return False
            if a > t:
                continue
            sq_conj = conjs[i]
            lo, bound = min(map(sub, conj, sq_conj)), slack + slacks[i]
            if lo < bound and (lo < -bound or not tnn(tuple(map(sub, res, sqs[i])))):
                continue
            chosen.append(roots[i])
            if rec(tuple(map(sub, res, sqs[i])), tuple(map(sub, conj, sq_conj)),
                   bound, i, remaining - 1):
                return True
            chosen.pop()
        return False

    if rec(av, *fixed(av), 0, k):
        return tuple(chosen)
    return None


def length(order, alpha, max_n=None, square_set=None):
    """Minimal number of squares of order elements summing to alpha.

    Decide, then shorten.  Each depth-first search for at most k squares
    is exhaustive: it returns a representation with at most k squares
    whenever one exists.  The first search runs at the cutoff
    L = min(ceil(abs_trace(alpha)), d + 3), d the degree, and decides
    whether alpha is a sum of squares at all.  If it finds j squares, the
    next search runs at j - 1, then at one less than the length just
    found, until a search fails; that failure at m - 1 shows that no
    representation has fewer than m squares, so the last length found, m,
    is the minimum.

    The witness is the one that searches at depths 1, 2, ..., m in turn
    would return, even when it came from a search at a depth k > m.  A
    search tries representations, as nondecreasing index sequences into
    the trace-sorted squares, in lexicographic order, and its cuts drop
    only branches that cannot finish within the depth left; so at depth k
    it returns the first representation with at most k squares.  When
    that one has m squares, it is also the first with at most m, which
    is what the search at depth m returns.

    When alpha is totally nonnegative but the search at L finds nothing,
    the status is NotSumOfSquares, for two reasons:

    - every nonzero square in an order has abs_trace at least 1;
    - every sum of squares in an order of degree d <= 5 is a sum of d + 3
      squares.  By Mordell (1930) and Ko (1937), an integral quadratic
      form in n <= 5 variables that is a sum of squares of integral linear
      forms is a sum of n + 3 of them.  If alpha = sum_i x_i**2 with
      x_i = sum_j a_ij*w_j over a Z-basis w of the order, the form
      y^T (A^T A) y = sum_i (sum_j a_ij*y_j)**2 in d variables is such a
      form; it is then a sum of d + 3 squares l_k(y)**2, and y = w gives
      alpha = sum_k l_k(w)**2 with every l_k(w) in the order.

    A max_n below L replaces it as the first depth, and a failure there
    yields Undetermined; a negative max_n raises UsageError.  A square_set
    given as the enumerators return it is cut to the squares dominated by
    alpha.
    """
    if max_n is not None and max_n < 0:
        raise UsageError(f"max_n must be nonnegative, got {max_n}")
    start = time.monotonic()
    counter = [0]

    def done(status, k=None, witness=None):
        return LengthResult(
            status=status,
            k=k,
            witness=witness,
            nodes=counter[0],
            millis=(time.monotonic() - start) * 1000.0,
        )

    if alpha.is_zero():
        return done(EXACT, 0, ())
    if not alpha.is_totally_nonnegative():
        return done(NOT_SUM_OF_SQUARES)
    av = order.scaled(alpha)
    if av is None:
        return done(NOT_SUM_OF_SQUARES)

    field = order.field
    if square_set is None:
        squares = _dominated_squares(order, alpha, av, 1)
    else:
        squares = _dominated(square_set, av, 1, field)
    if not squares:
        return done(NOT_SUM_OF_SQUARES)

    cutoff = min(-(-av[0] // order.den), field.degree + 3)
    limit = cutoff if max_n is None else min(max_n, cutoff)
    depth, found = limit, None
    while depth > 0:
        roots = _dfs_search(av, squares, depth, field, counter)
        if roots is None:
            break
        found, depth = roots, len(roots) - 1
    if found is not None:
        witness = tuple(map(order.unscale, found))
        return done(EXACT, len(witness), witness)

    if max_n is not None and max_n < cutoff:
        return done(UNDETERMINED)
    return done(NOT_SUM_OF_SQUARES)


def _packer(dim, cap):
    """(pack, unpack) between coordinate tuples and ints in balanced base
    M = 2**(2*cap+1).bit_length(), valid for tuples whose coordinates all
    have absolute value at most cap.

    Packing is linear, so the pack of a sum is the sum of the packs.
    Every sum formed by the level extension is a sum of squares under the
    scaled cap, so 0 <= w[0] <= cap; and it is totally nonnegative, so
    |w[i]| <= w[0]: w[0] is the plain average of w's conjugates, w[i]
    times sqrt(r) (r > 1 the i-th radicand) is a signed average of them,
    and a signed average of nonnegative numbers is at most their plain
    average.  Since
    2*cap + 1 < M, every digit lies strictly between -M/2 and M/2, so
    distinct tuples have distinct packs."""
    shift = (2 * cap + 1).bit_length()
    mask, half = (1 << shift) - 1, 1 << (shift - 1)

    def pack(v):
        x = 0
        for c in reversed(v):
            x = (x << shift) + c
        return x

    def unpack(x):
        out = []
        for _ in range(dim):
            c = ((x + half) & mask) - half
            out.append(c)
            x = (x - c) >> shift
        return tuple(out)

    return pack, unpack


def level_sets(order, atr_cap, cache_dir=None):
    """Level sets of sums of at most k squares with abs_trace <= atr_cap.

    Returns the list of levels: levels[k] maps each value first seen at
    level k+1 to a witness tuple of scaled roots.  The list ends at the
    fixed point, so its length is the largest length under the cap.  A
    cache hit is returned before any enumeration.

    Each level is extended on packed ints (see _packer): a value plus a
    square is one int add, and `seen` is a set of ints.  The base squares
    are sorted by descending trace, so the squares that fit under the cap
    next to a value v are a suffix of them, found by one bisection; they
    are tried in base order, and the first witness found for a value is
    kept, as a plain scan of every (value, square) pair would keep it."""
    atr_cap = Fraction(atr_cap)
    if atr_cap < 1:
        raise CapTooSmall(f"cap {atr_cap} admits no squares")
    if cache_dir:
        cached = load_level_cache(cache_dir, order, atr_cap)
        if cached is not None:
            return cached[0]
    base = enumerate_squares_traced(order, atr_cap)
    # traces are integers, so v[0] + sq[0] <= cap*den iff it is <= floor
    cap = floor(atr_cap * order.den)
    pack, unpack = _packer(len(order.basis), cap)
    neg_traces = [-sq[0] for _, sq in base]
    squares = [(pack(sq), sq[0], root) for root, sq in base]

    levels = [{sq: (root,) for root, sq in reversed(base)}]
    frontier = [(pack(v), v[0], roots) for v, roots in levels[0].items()]
    seen = {p for p, _, _ in frontier}
    while True:
        new = []
        for v, t, roots in frontier:
            for p, a, root in squares[bisect_left(neg_traces, t - cap):]:
                # sums of squares are automatically totally nonnegative
                w = v + p
                if w not in seen:
                    seen.add(w)
                    new.append((w, t + a, (root,) + roots))
        if not new:
            break
        levels.append({unpack(w): roots for w, _, roots in new})
        frontier = new
    if cache_dir:
        save_level_cache(cache_dir, order, atr_cap, levels, True)
    return levels


@dataclass
class ProfileRow:
    element: Element
    length: int
    witness: tuple


def _level_rows(order, levels, first):
    """A ProfileRow for every value of levels[first:], by level and then
    by value; the length of a value is its level's place in the list."""
    # roots recur across rows; each is built once, and rows share them
    roots_of = cache(order.unscale)
    return [
        ProfileRow(order.unscale(v), k, tuple(map(roots_of, roots)))
        for k, level in enumerate(levels[first:], start=first + 1)
        for v, roots in sorted(level.items())
    ]


def pythagoras_lower_bound(order, atr_cap, cache_dir=None):
    """Fixed-point iteration: grow sums of squares under the trace cap until
    no new values appear.  Returns (n, witnesses): the stabilization level
    and the (element, roots) pairs first realized there, each of exact
    length n."""
    levels = level_sets(order, atr_cap, cache_dir=cache_dir)
    n = len(levels)
    return n, [(row.element, row.witness) for row in _level_rows(order, levels, n - 1)]


def length_profile(order, atr_cap, cache_dir=None):
    """Exact lengths of every sum of squares with abs_trace <= atr_cap.

    The level of first appearance equals the true length: any
    representation of such a value has all partial sums dominated by it,
    hence within the cap."""
    return _level_rows(order, level_sets(order, atr_cap, cache_dir=cache_dir), 0)


def _cache_path(cache_dir, order, atr_cap):
    atr_cap = Fraction(atr_cap)
    name = f"levels_{order.basis_hash()}_{atr_cap.numerator}_{atr_cap.denominator}.json"
    return os.path.join(cache_dir, name)


def save_level_cache(cache_dir, order, atr_cap, levels, stabilized):
    os.makedirs(cache_dir, exist_ok=True)
    atr_cap = Fraction(atr_cap)
    payload = {
        "version": CACHE_VERSION,
        "radicands": list(order.field.radicands),
        "order_label": order.label,
        "basis_hash": order.basis_hash(),
        "den": order.den,
        "cap": [atr_cap.numerator, atr_cap.denominator],
        "stabilized": stabilized,
        "levels": [
            [[list(v), [list(r) for r in roots]] for v, roots in sorted(level.items())]
            for level in levels
        ],
    }
    path = _cache_path(cache_dir, order, atr_cap)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(json.dumps(payload))
    os.replace(tmp, path)
    return path


def load_level_cache(cache_dir, order, atr_cap):
    """The cached (levels, True) pair, or None when the file is missing,
    unreadable, written for another version, order or cap, or holds
    levels short of the fixed point."""
    cap = Fraction(atr_cap)
    try:
        with open(_cache_path(cache_dir, order, cap)) as fh:
            payload = json.load(fh)
        if (payload["version"] != CACHE_VERSION
                or payload["basis_hash"] != order.basis_hash()
                or payload["cap"] != [cap.numerator, cap.denominator]
                or payload["stabilized"] is not True):
            return None
        levels = [
            {tuple(v): tuple(tuple(r) for r in roots) for v, roots in level}
            for level in payload["levels"]
        ]
        return levels, True
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        return None
