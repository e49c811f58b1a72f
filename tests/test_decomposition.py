import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest

from bqsos.fields import Element, classify_field
from bqsos.orders import (
    maximal_order,
    parse_order_description,
    quadratic_maximal_order,
    quadratic_order,
    quadratic_order_half,
)
from bqsos.parser import parse_element
from bqsos.decomposition import (
    CapTooSmall,
    EXACT,
    NOT_SUM_OF_SQUARES,
    NotTotallyNonnegative,
    UNDETERMINED,
    _dfs_search,
    _dominated,
    enumerate_squares_dominated,
    enumerate_squares_traced,
    length,
    length_profile,
    level_sets,
    load_level_cache,
    pythagoras_lower_bound,
)


BQ23 = maximal_order(classify_field(2, 3))
F23 = BQ23.field

# one order per basis type, B1, B2, B3, B4a and B4b, and two quadratic
# conductor orders
GALOIS_ORDERS = (
    *(maximal_order(classify_field(p, q))
      for p, q in ((2, 3), (2, 5), (3, 5), (5, 13), (21, 33))),
    quadratic_order(12),
    quadratic_order_half(13),
)


def replay(alpha, witness):
    total = alpha.field.zero()
    for w in witness:
        total = total + w * w
    return total == alpha


def box_walk_squares(order, cap):
    """Reference enumeration: (root, square) scaled pairs for every point of
    the power-basis box under the cap that lies in the order, one root per
    {x, -x} pair with its first nonzero coordinate positive."""
    D, field = order.den, order.field
    budget = Fraction(cap) * D * D
    weights = (1,) + field.radicands
    box = [range(-isqrt(int(budget / w)), isqrt(int(budget / w)) + 1) for w in weights]
    out = set()
    for v in itertools.product(*box):
        if sum(w * c * c for w, c in zip(weights, v)) > budget:
            continue
        if not any(v) or next(c for c in v if c) < 0 or not order.contains_scaled(v):
            continue
        root = Element.make(field, v, D)
        out.add((v, order.scaled(root * root)))
    return out


def unscaled(order, pairs):
    """The scaled (root, square) pairs of an enumeration as Elements."""
    return [(order.unscale(root), order.unscale(sq)) for root, sq in pairs]


def trace_ball_dominated(order, alpha):
    """Reference for the dominated squares: the trace-ball walk under the
    cap abs_trace(alpha), kept where alpha - square is totally nonnegative."""
    field, D = order.field, order.den
    return [
        (root, sq) for root, sq in enumerate_squares_traced(order, alpha.abs_trace())
        if (alpha - Element.make(field, sq, D)).is_totally_nonnegative()
    ]


def reference_search(alpha_scaled, squares, k, tnn, counter):
    """Reference search kernel: the first representation of alpha as a
    sum of at most k of the (root, square) pairs, tried as nondecreasing
    index sequences in lexicographic order, each candidate residual built
    as a coordinate tuple and decided by tnn alone."""
    atrs = [sq[0] for _, sq in squares]
    n = len(squares)
    chosen = []

    def rec(res, start, remaining):
        counter[0] += 1
        if not any(res):
            return True
        for i in range(start, n):
            a = atrs[i]
            if a * remaining < res[0]:
                return False
            if a > res[0]:
                continue
            diff = tuple(x - y for x, y in zip(res, squares[i][1]))
            if tnn(diff):
                chosen.append(squares[i][0])
                if rec(diff, i, remaining - 1):
                    return True
                chosen.pop()
        return False

    if rec(alpha_scaled, 0, k):
        return tuple(chosen)
    return None


def deepening_length(order, alpha, max_n=None):
    """Reference search: (status, k, witness) by iterative deepening, one
    exhaustive search at each depth 1, 2, ... up to
    min(ceil(abs_trace), d + 3), for a totally positive alpha in the
    order."""
    av = order.scaled(alpha)
    squares = enumerate_squares_dominated(order, alpha)
    if not squares:
        return NOT_SUM_OF_SQUARES, None, None
    cutoff = min(-(-av[0] // order.den), order.field.degree + 3)
    limit = cutoff if max_n is None else min(max_n, cutoff)
    tnn = order.field.tnn_test
    for k in range(1, limit + 1):
        roots = reference_search(av, squares, k, tnn, [0])
        if roots is not None:
            return EXACT, len(roots), tuple(map(order.unscale, roots))
    if max_n is not None and max_n < cutoff:
        return UNDETERMINED, None, None
    return NOT_SUM_OF_SQUARES, None, None


def reference_length(order, alpha, square_set=None):
    """Reference for length's searches: (status, k, witness, nodes) from
    decide-then-shorten on reference_search, for a totally positive alpha
    in the order, over its dominated squares or the dominated part of
    square_set."""
    av = order.scaled(alpha)
    if square_set is None:
        squares = enumerate_squares_dominated(order, alpha)
    else:
        squares = reference_dominated(order, alpha, square_set)
    counter = [0]
    depth = min(-(-av[0] // order.den), order.field.degree + 3)
    found = None
    while squares and depth > 0:
        roots = reference_search(av, squares, depth, order.field.tnn_test, counter)
        if roots is None:
            break
        found, depth = roots, len(roots) - 1
    if found is None:
        return NOT_SUM_OF_SQUARES, None, None, counter[0]
    return EXACT, len(found), tuple(map(order.unscale, found)), counter[0]


def reference_dominated(order, alpha, pairs):
    """The (root, square) pairs with alpha - square totally nonnegative, by
    the exact sign at each embedding."""
    field, av = order.field, order.scaled(alpha)
    return [(root, sq) for root, sq in pairs
            if all(field.embedding_sign(tuple(map(int.__sub__, av, sq)), k) >= 0
                   for k in range(field.degree))]


def totally_positive_samples(order, count, lo, hi, seed):
    """count seeded totally positive elements of the order with abs_trace
    in [lo, hi)."""
    rng = random.Random(seed)
    field, den = order.field, order.den
    out = []
    while len(out) < count:
        a = rng.randrange(lo * den, hi * den)
        coords = [a] + [rng.randint(-isqrt(a * a // r), isqrt(a * a // r))
                        for r in field.radicands]
        alpha = Element.make(field, coords, den)
        if order.contains(alpha) and alpha.is_totally_positive():
            out.append(alpha)
    return out


# one unit per order, for elements with unbalanced conjugates
UNITS = {
    (2, 3): "1+sqrt(2)",
    (2, 5): "1+sqrt(2)",
    (3, 5): "2+sqrt(3)",
    (5, 13): "(1+sqrt(5))/2",
    (21, 33): "(5+sqrt(21))/2",
    "gen:sqrt(2);sqrt(3)": "1+sqrt(2)",
    "gen:sqrt(8);sqrt(12)": "3+sqrt(8)",
    "quad:12": "7+4*sqrt(3)",
    "quad-half:13": "(3+sqrt(13))/2",
    (5, 443): "(1+sqrt(5))/2",
    (5, 1003): "(1+sqrt(5))/2",
}

# Two Lemma 4.3 item-15 fields Q(sqrt(5), sqrt(s)) at large s, whose
# ellipsoids are thinnest along sqrt(t), t = 5*s, the coordinate the walk
# fixes first; each with an order element that has a sqrt(t) coordinate.
THIN = {
    (5, 443): "(sqrt(443)+sqrt(2215))/2",
    (5, 1003): "(sqrt(1003)+sqrt(5015))/2",
}


def unit_orders():
    """(order, unit) for one order of each basis type, two gen: orders, two
    quadratic conductor orders and the THIN fields."""
    out = []
    for key, unit in UNITS.items():
        if isinstance(key, tuple):
            order = maximal_order(classify_field(*key))
        elif key.startswith("gen:"):
            order = parse_order_description(key, F23)
        elif key.startswith("quad-half:"):
            order = quadratic_order_half(int(key[10:]))
        else:
            order = quadratic_order(int(key[5:]))
        out.append((order, parse_element(unit, order.field)))
    return out


def thin_roots(order):
    """[w] for an order of a THIN field, w its THIN element; else []."""
    text = THIN.get(order.field.radicands[:2])
    return [parse_element(text, order.field)] if text else []


def thin_caps(order):
    """The abs-traces of the squares of thin_roots(order): caps whose trace
    balls reach the sqrt(t) coordinate."""
    return [(w * w).abs_trace() for w in thin_roots(order)]


def nested_loop_levels(order, cap):
    """Reference level sets: try every (value, square) pair of the last
    level, in base order, and keep the first witness of each new value."""
    cap = Fraction(cap)
    base = enumerate_squares_traced(order, cap)
    cap_scaled = cap * order.den
    levels = [{sq: (root,) for root, sq in reversed(base)}]
    seen = dict(levels[0])
    while True:
        new = {}
        for v, roots in levels[-1].items():
            for root, sq in base:
                if v[0] + sq[0] > cap_scaled:
                    continue
                w = tuple(a + b for a, b in zip(v, sq))
                if w not in seen and w not in new:
                    new[w] = (root,) + roots
        if not new:
            return levels
        levels.append(new)
        seen.update(new)


class TestSquareEnumeration:
    def test_small_cap(self):
        squares = unscaled(BQ23, enumerate_squares_traced(BQ23, 2))
        values = {sq for _, sq in squares}
        r3 = F23.sqrt_of(3)
        assert values == {F23.one(), F23.from_rational(2), 2 + r3, 2 - r3}
        for root, sq in squares:
            assert root * root == sq
            assert BQ23.contains(root)

    def test_monotone_in_cap(self):
        small = {sq for _, sq in unscaled(BQ23, enumerate_squares_traced(BQ23, 3))}
        large = {sq for _, sq in unscaled(BQ23, enumerate_squares_traced(BQ23, 5))}
        assert small <= large

    def test_cap_soundness(self):
        for _, sq in unscaled(BQ23, enumerate_squares_traced(BQ23, 5)):
            assert sq.abs_trace() <= 5

    def test_roots_are_sign_canonical(self):
        # the walk's half-space cut makes its first walked coordinate, the
        # last power coordinate, positive; the enumerators flip each root
        # so that its first nonzero power coordinate is positive
        for order, unit in unit_orders():
            u2 = unit * unit
            caps = [4, 6, *thin_caps(order)]
            alphas = [5 * u2, u2 * (3 + unit), *(u2 + w * w for w in thin_roots(order))]
            enumerations = [enumerate_squares_traced(order, cap) for cap in caps]
            enumerations += [enumerate_squares_dominated(order, a) for a in alphas]
            for pairs in enumerations:
                assert pairs
                for root, _ in pairs:
                    assert next(c for c in root if c) > 0, (order, root)

    def test_dominated(self):
        alpha = 6 + F23.sqrt_of(2) + F23.sqrt_of(6)
        for _, sq in unscaled(BQ23, enumerate_squares_dominated(BQ23, alpha)):
            assert (alpha - sq).is_totally_nonnegative()
        with pytest.raises(NotTotallyNonnegative):
            enumerate_squares_dominated(BQ23, 1 + F23.sqrt_of(2))

    def test_dominated_outside_order(self):
        # alpha need not lie in the order for domination queries
        alpha = F23.from_rational(Fraction(9, 4))
        squares = unscaled(BQ23, enumerate_squares_dominated(BQ23, alpha))
        assert {sq for _, sq in squares} == {
            F23.one(), F23.from_rational(2)
        }

    def test_matches_box_walk(self):
        # the HNF walk against the power-basis box, filtered by membership
        orders = [maximal_order(classify_field(p, q))
                  for p, q in ((2, 3), (2, 5), (3, 5), (5, 13), (21, 33))]
        orders += [parse_order_description(desc, F23)
                   for desc in ("gen:sqrt(2);sqrt(3)", "gen:sqrt(8);sqrt(12)")]
        orders += [quadratic_order(12), quadratic_order_half(13)]
        orders += [maximal_order(classify_field(*key)) for key in THIN]
        for order in orders:
            for cap in (Fraction(1, 2), 1, Fraction(7, 2), 6, *thin_caps(order)):
                scaled = enumerate_squares_traced(order, cap)
                assert len(set(scaled)) == len(scaled)
                assert set(scaled) == box_walk_squares(order, cap), (order, cap)
            for cap in thin_caps(order):
                # the cap reaches the sqrt(t) coordinate
                assert any(root[-1] for root, _ in enumerate_squares_traced(order, cap))

    def test_dominated_matches_trace_ball(self):
        # the walk over the ellipsoid abs_trace(x*x/alpha) <= 1 against the
        # trace ball under abs_trace(alpha) with the exact domination test
        for order, unit in unit_orders():
            field = order.field
            assert order.contains(unit)
            u2 = unit * unit
            outside = 3 + field.sqrt_of(field.radicands[0]) / 2
            assert order.scaled(outside) is None
            alphas = [
                field.from_rational(Fraction(9, 4)),
                outside,
                field.zero(),
                2 * u2,
                5 * u2,
                u2 + 2,
                u2 * (3 + unit),
                *(u2 + w * w for w in thin_roots(order)),
            ]
            for alpha in alphas:
                assert alpha.is_totally_nonnegative()
                got = enumerate_squares_dominated(order, alpha)
                assert list(got) == trace_ball_dominated(order, alpha), (order, alpha)
            for w in thin_roots(order):
                # a dominated square has a sqrt(t) coordinate
                got = enumerate_squares_dominated(order, u2 + w * w)
                assert any(root[-1] for root, _ in got)

    def test_scaled_coords(self):
        x = (F23.sqrt_of(2) + F23.sqrt_of(6)) / 2
        assert BQ23.scaled(x) == (0, 1, 0, 1)
        assert BQ23.scaled(F23.sqrt_of(2) / 2) is None


class TestLength:
    def test_zero_and_units(self):
        assert length(BQ23, F23.zero()).k == 0
        assert length(BQ23, F23.one()).k == 1
        assert length(BQ23, F23.from_rational(4)).k == 1

    def test_known_biquadratic(self):
        alpha = 6 + F23.sqrt_of(2) + F23.sqrt_of(6)
        result = length(BQ23, alpha)
        assert result.status == EXACT and result.k == 3
        assert replay(alpha, result.witness)

    def test_known_quadratic(self):
        o = quadratic_maximal_order(3)
        f = o.field
        result = length(o, 2 + (2 + f.sqrt_of(3)) ** 2)
        assert result.k == 3
        o13 = quadratic_order_half(13)
        f13 = o13.field
        result = length(o13, 12 + 2 * f13.sqrt_of(13))
        assert result.k == 5

    def test_conductor_matters(self):
        f = quadratic_order(5).field
        alpha = 3 + (1 + f.sqrt_of(5)) ** 2
        assert length(quadratic_order(5), alpha).k == 4
        # in the maximal order the same element needs only 2 squares
        assert length(quadratic_maximal_order(5), alpha).k == 2

    def test_not_sum_of_squares(self):
        result = length(BQ23, 1 + F23.sqrt_of(2))
        assert result.status == NOT_SUM_OF_SQUARES
        # totally positive but trace too small for its nonzero part
        result = length(BQ23, F23.from_rational(Fraction(1, 2)))
        assert result.status == NOT_SUM_OF_SQUARES

    def test_outside_order(self):
        assert length(BQ23, F23.sqrt_of(2) / 2).status == NOT_SUM_OF_SQUARES

    def test_undetermined(self):
        alpha = 6 + F23.sqrt_of(2) + F23.sqrt_of(6)
        result = length(BQ23, alpha, max_n=2)
        assert result.status == UNDETERMINED

    def test_cut_at_degree_plus_three(self):
        # 8 + sqrt(6) is totally positive and no level of the profile at
        # cap 8 holds it; its abs_trace 8 exceeds degree + 3 = 7, so a
        # search to 7 squares decides it, and one to 6 does not
        alpha = 8 + F23.sqrt_of(6)
        assert alpha.is_totally_positive()
        assert alpha not in {row.element for row in length_profile(BQ23, 8)}
        assert length(BQ23, alpha, max_n=7).status == NOT_SUM_OF_SQUARES
        assert length(BQ23, alpha, max_n=6).status == UNDETERMINED

    @pytest.mark.parametrize("order", GALOIS_ORDERS, ids=repr)
    def test_galois_invariance(self, order):
        # these orders are stable under the Galois group, so every
        # conjugate of alpha lies in the order and has alpha's length
        for alpha in totally_positive_samples(order, 10, 2, 12, repr(order)):
            results = []
            for beta in alpha.conjugates():
                assert order.contains(beta)
                result = length(order, beta)
                if result.is_exact:
                    assert replay(beta, result.witness)
                    assert all(order.contains(root) for root in result.witness)
                results.append((result.status, result.k))
            assert len(set(results)) == 1, (str(alpha), results)

    def test_methods_agree(self):
        # the search against the level-set profile, a different algorithm
        profile = {row.element: row.length for row in length_profile(BQ23, 7)}
        samples = [
            6 + F23.sqrt_of(2) + F23.sqrt_of(6),
            F23.from_rational(7),
            2 + F23.sqrt_of(3),
            4 + 2 * F23.sqrt_of(2),
        ]
        for alpha in samples:
            result = length(BQ23, alpha)
            assert result.is_exact and result.k == profile[alpha]
            assert replay(alpha, result.witness)


class TestDecideThenShorten:
    @pytest.mark.parametrize("order", GALOIS_ORDERS, ids=repr)
    def test_matches_iterative_deepening(self, order):
        # same status, length and witness as one search per depth, under
        # every max_n from 0 to past the d + 3 cutoff
        verdicts = set()
        for alpha in totally_positive_samples(order, 12, 8, 14, repr(order)):
            for max_n in (None, *range(order.field.degree + 4)):
                result = length(order, alpha, max_n=max_n)
                want = deepening_length(order, alpha, max_n)
                assert (result.status, result.k, result.witness) == want, (
                    str(alpha), max_n)
                verdicts.add(result.status)
        assert {EXACT, NOT_SUM_OF_SQUARES} <= verdicts

    def test_negative_verdict_is_one_search(self):
        # NotSumOfSquares costs only the search at the cutoff
        # min(ceil(abs_trace), d + 3) = 6, none at depths 1 to 5
        alpha = 5 + F23.sqrt_of(6)
        result = length(BQ23, alpha)
        assert result.status == NOT_SUM_OF_SQUARES
        counter = [0]
        av = BQ23.scaled(alpha)
        squares = _dominated(enumerate_squares_dominated(BQ23, alpha), av, 1, F23)
        assert _dfs_search(av, squares, 6, F23, counter) is None
        assert result.nodes == counter[0] == 4


class TestSearchKernel:
    @pytest.mark.parametrize("order", GALOIS_ORDERS, ids=repr)
    def test_matches_reference_kernel(self, order):
        # the fixed-point kernel makes the same searches as the reference
        # kernel: same status, length, witness and node count, on the
        # orders and abs-trace band of the search-random workload
        verdicts = set()
        for alpha in totally_positive_samples(order, 16, 12, 16, repr(order)):
            result = length(order, alpha)
            assert (result.status, result.k, result.witness, result.nodes) == (
                reference_length(order, alpha)), str(alpha)
            verdicts.add(result.status)
        assert verdicts == {EXACT, NOT_SUM_OF_SQUARES}

    @pytest.mark.parametrize("order", (quadratic_maximal_order(2), BQ23), ids=repr)
    def test_straddle_falls_back_to_exact_test(self, order):
        # alpha = 3*u**2 with u = (1 + sqrt(2))**13 is 2*u**2 + u**2.  Both
        # residuals, u**2 and 2*u**2, have a conjugate below 2**-32, far
        # closer to 0 than the slack of their fixed-point bounds allows to
        # decide, so only the exact test accepts them: a reject in its
        # place leaves no representation
        field = order.field
        u = parse_element("1+sqrt(2)", field) ** 13
        roots = (field.sqrt_of(2) * u, u)
        alpha = 3 * u * u
        fixed = field.fixed_conjugates
        av = order.scaled(alpha)
        alpha_conj, alpha_slack = fixed(av)
        square_set = []
        for root in roots:
            sq = order.scaled(root * root)
            conj, slack = fixed(sq)
            lo, bound = min(map(int.__sub__, alpha_conj, conj)), alpha_slack + slack
            assert -bound <= lo < bound
            square_set.append((order.scaled(root), sq))
        result = length(order, alpha, square_set=tuple(square_set))
        assert (result.status, result.k, result.witness) == (EXACT, 2, roots)

    @pytest.mark.parametrize("order", (quadratic_maximal_order(2), BQ23), ids=repr)
    def test_unit_multiples_match_reference(self, order):
        # times u**2, u = (1 + sqrt(2))**13, every value is tiny at the
        # embeddings that send sqrt(2) to -sqrt(2), within the slack of its
        # fixed-point bound, so the filter and the search decide most
        # squares and candidates by the exact test: the filter must keep
        # exactly the dominated squares, and the search must agree with the
        # reference kernel, node count included
        field = order.field
        u = parse_element("1+sqrt(2)", field) ** 13
        uu = order.scaled(u * u)
        verdicts = set()
        for beta in totally_positive_samples(order, 6, 4, 7, repr(order)):
            alpha = u * u * beta
            pool = tuple(sorted(
                ((order.scaled(u * order.unscale(root)), order.mul_scaled(uu, sq))
                 for root, sq in enumerate_squares_traced(order, beta.abs_trace())),
                key=lambda p: (-p[1][0], p[1])))
            kept = _dominated(pool, order.scaled(alpha), 1, field)
            assert [p[:2] for p in kept] == reference_dominated(order, alpha, pool)
            result = length(order, alpha, square_set=pool)
            assert (result.status, result.k, result.witness, result.nodes) == (
                reference_length(order, alpha, pool)), str(beta)
            verdicts.add(result.status)
        assert EXACT in verdicts


class TestMaxN:
    """length(..., max_n=n) decides whether alpha is a sum of at most n
    squares: Exact when it is."""

    def test_at_most_semantics(self):
        alpha = F23.from_rational(4)
        result = length(BQ23, alpha, max_n=3)
        assert result.is_exact and len(result.witness) <= 3
        assert replay(alpha, result.witness)

    def test_threshold(self):
        alpha = 6 + F23.sqrt_of(2) + F23.sqrt_of(6)
        assert not length(BQ23, alpha, max_n=2).is_exact
        result = length(BQ23, alpha, max_n=3)
        assert result.is_exact and replay(alpha, result.witness)

    def test_zero_and_negatives(self):
        result = length(BQ23, F23.zero(), max_n=0)
        assert (result.is_exact, result.witness) == (True, ())
        assert length(BQ23, 1 + F23.sqrt_of(2), max_n=4).is_exact is False
        with pytest.raises(ValueError):
            length(BQ23, F23.one(), max_n=-1)
        # a negative bound is rejected before the zero shortcut
        with pytest.raises(ValueError):
            length(BQ23, F23.zero(), max_n=-1)


class TestLowerBound:
    def test_biquadratic(self):
        n, witnesses = pythagoras_lower_bound(BQ23, 8)
        assert n == 3
        elements = {alpha for alpha, _ in witnesses}
        assert 6 + F23.sqrt_of(2) + F23.sqrt_of(6) in elements
        for alpha, roots in witnesses:
            assert replay(alpha, roots)
            assert length(BQ23, alpha).k == n

    def test_quadratic(self):
        o = quadratic_maximal_order(3)
        f = o.field
        n, witnesses = pythagoras_lower_bound(o, 10)
        assert n == 3
        assert 9 + 4 * f.sqrt_of(3) in {alpha for alpha, _ in witnesses}

    def test_cap_too_small(self):
        with pytest.raises(CapTooSmall):
            pythagoras_lower_bound(BQ23, Fraction(1, 2))


class TestProfile:
    def test_levels_are_lengths(self):
        rows = length_profile(BQ23, 6)
        by_element = {row.element: row for row in rows}
        alpha = 2 + F23.sqrt_of(3)
        assert by_element[alpha].length == 1
        for row in rows:
            assert replay(row.element, row.witness)
            assert len(row.witness) == row.length
        # spot check against the search on a sample
        for row in rows[::17]:
            assert length(BQ23, row.element).k == row.length

    def test_profile_respects_cap(self):
        for row in length_profile(BQ23, 5):
            assert row.element.abs_trace() <= 5


class TestLevelSets:
    def test_matches_nested_loop(self):
        # values, dict order and witnesses all equal the plain double loop;
        # at den 2 the caps 15/2 and 8 put the scaled cap at 15 and 16, on
        # both sides of a power of two, where the packing base doubles
        orders = [maximal_order(classify_field(p, q))
                  for p, q in ((2, 3), (2, 5), (3, 5), (5, 13), (21, 33))]
        orders.append(parse_order_description("gen:sqrt(8);sqrt(12)", F23))
        orders += [quadratic_order(12), quadratic_order_half(13)]
        for order in orders:
            for cap in (1, Fraction(7, 2), Fraction(15, 2), 8):
                levels = level_sets(order, cap)
                want = nested_loop_levels(order, cap)
                assert [list(lv.items()) for lv in levels] == [
                    list(lv.items()) for lv in want
                ], (order, cap)


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = str(tmp_path)
        first = pythagoras_lower_bound(BQ23, 6, cache_dir=cache)
        assert load_level_cache(cache, BQ23, 6) is not None
        second = pythagoras_lower_bound(BQ23, 6, cache_dir=cache)
        assert first == second

    def test_cap_mismatch_misses(self, tmp_path):
        cache = str(tmp_path)
        pythagoras_lower_bound(BQ23, 6, cache_dir=cache)
        assert load_level_cache(cache, BQ23, 7) is None

    def test_order_mismatch_misses(self, tmp_path):
        cache = str(tmp_path)
        pythagoras_lower_bound(BQ23, 6, cache_dir=cache)
        other = maximal_order(classify_field(2, 5))
        assert load_level_cache(cache, other, 6) is None

    def test_saved_file_is_compact_json(self, tmp_path):
        # one json.dumps of the payload, as json.dump writes it
        import json
        from bqsos.decomposition import _cache_path

        cache = str(tmp_path)
        pythagoras_lower_bound(BQ23, 6, cache_dir=cache)
        with open(_cache_path(cache, BQ23, 6)) as fh:
            text = fh.read()
        assert text == json.dumps(json.loads(text))

    def test_version_check(self, tmp_path):
        import json
        from bqsos.decomposition import _cache_path

        cache = str(tmp_path)
        pythagoras_lower_bound(BQ23, 6, cache_dir=cache)
        path = _cache_path(cache, BQ23, 6)
        with open(path) as fh:
            payload = json.load(fh)
        payload["version"] = -1
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert load_level_cache(cache, BQ23, 6) is None

    def test_missing_keys_miss(self, tmp_path):
        import json
        from bqsos.decomposition import _cache_path

        cache = str(tmp_path)
        first = pythagoras_lower_bound(BQ23, 6, cache_dir=cache)
        path = _cache_path(cache, BQ23, 6)
        with open(path) as fh:
            payload = json.load(fh)
        del payload["levels"]
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert load_level_cache(cache, BQ23, 6) is None
        # a miss is recomputed and the file rewritten
        assert pythagoras_lower_bound(BQ23, 6, cache_dir=cache) == first
        assert load_level_cache(cache, BQ23, 6) is not None
