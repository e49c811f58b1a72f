"""Acceptance gate: one test per criterion, each printing a single
pass/fail line."""

import itertools
import random
from fractions import Fraction
from math import isqrt

import mpmath

from bqsos.fields import Element, QuadraticField, classify_field
from bqsos.orders import (
    maximal_order,
    parse_order_description,
    quadratic_maximal_order,
    quadratic_order,
    quadratic_order_half,
)
from bqsos.decomposition import (
    enumerate_squares_dominated,
    enumerate_squares_traced,
    length,
    length_profile,
    pythagoras_lower_bound,
)
from bqsos.verification import (
    PROP44_ENTRIES,
    construct_witness,
    near_shift_identity,
    quadratic_baseline_entries,
)


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def replay(alpha, witness):
    total = alpha.field.zero()
    for w in witness:
        total = total + w * w
    return total == alpha


def exact_length(order, alpha, expected):
    result = length(order, alpha)
    return result.is_exact and result.k == expected and replay(alpha, result.witness)


def test_criterion_1_quadratic_baseline():
    entries = quadratic_baseline_entries()
    ok = len(entries) == 7 and all(
        exact_length(order, alpha, expected)
        for order, alpha, expected in entries
    )
    lengths = [expected for _, _, expected in entries]
    report(1, ok and lengths == [3, 3, 3, 4, 4, 4, 5],
           "seven quadratic orders attain lengths 3,3,3,4,4,4,5")


def test_criterion_2_conductor_families():
    checks = []
    for N in (17, 21, 33):
        order = quadratic_order_half(N)
        alpha = construct_witness("QuadraticObs32", order)
        checks.append(exact_length(order, alpha, 5))
    for N in (8, 10, 12):
        order = quadratic_order(N)
        alpha = construct_witness("QuadraticObs32", order)
        checks.append(exact_length(order, alpha, 5))
    report(2, all(checks), "length 5 in Z[(1+sqrt(N))/2] for N=17,21,33 "
           "and in Z[sqrt(N)] for N=8,10,12")


def test_criterion_3_catalog_spot_suite():
    spots = [
        ("MIs1", (17, 19), 5),
        ("MIs1", (17, 21), 5),
        ("MNot1", (10, 11), 5),
        ("MNot1", (14, 15), 5),
        ("MNot1", (10, 13), 5),
        ("MNot1", (30, 35), 5),
        ("Sqrt7", (7, 10), 5),
        ("Sqrt13", (6, 13), 6),
    ]
    checks = []
    for family, (p, q), expected in spots:
        field = classify_field(p, q)
        alpha = construct_witness(family, field)
        order = maximal_order(field)
        checks.append(exact_length(order, alpha, expected))
    report(3, all(checks), "catalog spot suite: eight known lengths recomputed")


def test_criterion_4_length_seven_element():
    field = classify_field(10, 11)
    order = maximal_order(field)
    alpha = construct_witness("B1CoprimeLen7", field)
    not_six = not length(order, alpha, max_n=6).is_exact
    result = length(order, alpha)
    ok = (not_six and result.is_exact and result.k == 7
          and replay(alpha, result.witness))
    report(4, ok, "7+(1+sqrt(10))^2+(1+sqrt(11))^2+((sqrt(10)+sqrt(110))/2)^2 "
           "is not a sum of 6 squares and has length 7")


def test_criterion_5_length_six_element():
    field = classify_field(10, 11)
    order = maximal_order(field)
    alpha = construct_witness("B1CoprimeLen6", field)
    report(5, exact_length(order, alpha, 6),
           "7+(1+sqrt(10))^2+(1+sqrt(11))^2 has length 6 in BQ(10,11)")


def test_criterion_6_profile_maxima():
    checks = []
    for (p, q), expected_max, coords, den, _ in PROP44_ENTRIES:
        field = classify_field(p, q)
        order = maximal_order(field)
        alpha = Element.make(field, coords, den)
        rows = length_profile(order, 30)
        table_max = max(row.length for row in rows)
        attained = any(row.element == alpha and row.length == expected_max
                       for row in rows)
        checks.append(table_max == expected_max and attained)
    report(6, all(checks), "profiles at atr-cap 30 for the seven exceptional "
           "fields reach max lengths 3,3,3,4,4,4,4 at the listed elements")


def test_criterion_7_identity_replay():
    checks = []
    for pq, count in [((19, 23), 3), ((15, 23), 4), ((11, 23), 2)]:
        field = classify_field(*pq)
        alpha0, parts = near_shift_identity(field)
        total = field.zero()
        for x in parts:
            total = total + x * x
        checks.append(len(parts) == count and total == alpha0
                      and alpha0 == 7 + (1 + field.sqrt_of(field.m)) ** 2)
    report(7, all(checks), "four-or-fewer-square identities replay exactly "
           "for s-m = 4, 8, 12")


def _random_element(rng, field, span=50, dens=(1, 2, 4)):
    num = tuple(rng.randint(-span, span) for _ in range(field.degree))
    return Element.make(field, num, rng.choice(dens))


def _embedding_signs(field, i):
    """Signs that the i-th real embedding puts on the power basis, from
    the definition: sqrt(n) goes to (-1)**i*sqrt(n) in Q(sqrt(n)); in a
    biquadratic field sqrt(m) goes to (-1)**(i & 1)*sqrt(m), sqrt(s) to
    (-1)**(i >> 1)*sqrt(s), and so sqrt(t) = sqrt(m)*sqrt(s)/t0 to the
    product of the two."""
    em, es = (-1) ** (i & 1), (-1) ** (i >> 1)
    return (1, em, es, em * es)[:field.degree]


def _interval_sign(x, i):
    """Sign of the i-th conjugate via 128-bit floating evaluation."""
    with mpmath.workprec(128):
        total = mpmath.mpf(0)
        weights = (1,) + x.field.radicands
        for c, w, e in zip(x.coords(), weights, _embedding_signs(x.field, i)):
            total += e * mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(w)
        if abs(total) < mpmath.mpf(2) ** -64:
            return None
        return 1 if total > 0 else -1


def _tnn_lattice_points(order, cap, tnn):
    """Scaled coordinates of every totally nonnegative order element with
    abs_trace <= cap.  Averaging conjugates gives a >= |b| sqrt(w) for the
    coefficient b of each sqrt(w), which bounds the walk."""
    weights = order.field.radicands
    for a in range(cap * order.den + 1):
        ranges = [range(-isqrt(a * a // w), isqrt(a * a // w) + 1) for w in weights]
        for rest in itertools.product(*ranges):
            v = (a,) + rest
            if order.contains_scaled(v) and tnn(v):
                yield v


def test_criterion_8_property_suite():
    rng = random.Random(20260823)
    field = classify_field(10, 13)

    for _ in range(1000):
        x, y, z = (_random_element(rng, field) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    fields = [classify_field(2, 3), classify_field(17, 19), classify_field(5, 13),
              QuadraticField(2), QuadraticField(5), QuadraticField(13)]
    for _ in range(1000):
        x = _random_element(rng, rng.choice(fields))
        i = rng.randrange(x.field.degree)
        signs = _embedding_signs(x.field, i)
        assert x.conjugate(i).num == tuple(e * c for e, c in zip(signs, x.num))
        expected = _interval_sign(x, i)
        if expected is not None:
            assert x.sign_at_embedding(i) == expected

    # squaring an element of a quadratic subfield stays there; conversely a
    # square landing in the subfield forces two coordinates to vanish
    f23 = classify_field(2, 3)
    for _ in range(500):
        z, w = rng.randint(-20, 20), rng.randint(-20, 20)
        beta = Element.make(f23, (0, 0, z, w), rng.choice((1, 2)))
        assert (beta * beta).coords()[2] == (beta * beta).coords()[3] == 0
        x, y = rng.randint(1, 20), rng.randint(1, 20)
        mixed = Element.make(f23, (x, y, z if z else 1, w), rng.choice((1, 2)))
        sq = mixed * mixed
        assert sq.coords()[2] != 0 or sq.coords()[3] != 0

    # quarter-coordinate algebraic integers in B4 fields square to the
    # same shape: all four numerators odd over denominator 4
    b4 = maximal_order(classify_field(5, 13))
    quarter = next(x for x in b4.basis_elements() if x.den == 4)
    half_units = [x for x in b4.basis_elements() if x.den == 2]
    for _ in range(500):
        gamma = quarter * (2 * rng.randint(0, 4) + 1)
        for h in half_units:
            gamma = gamma + h * (2 * rng.randint(-4, 4))
        gamma = gamma + rng.randint(-4, 4)
        assert gamma.den == 4 and all(v % 2 for v in gamma.num)
        sq = gamma * gamma
        assert sq.den == 4 and all(v % 2 for v in sq.num)

    # oracle equivalence: on one order of each basis type, plus a custom
    # order and two quadratic conductor orders, the search agrees with the
    # level-set profile (no tnn pruning) on every totally nonnegative
    # element with abs_trace at most `low`, and past degree + 3 up to
    # `cap`, both over the trace-ball pool and over the squares enumerated
    # for the element alone; every length is at most degree + 3.  Past
    # degree + 3 only the Mordell-Ko cut ends the search for a non-sum.
    oracle_cases = [
        (maximal_order(classify_field(2, 3)), 6, 8),
        (maximal_order(classify_field(2, 5)), 6, 8),
        (maximal_order(classify_field(3, 5)), 6, 8),
        (maximal_order(classify_field(5, 13)), 6, 9),
        (maximal_order(classify_field(21, 33)), 6, 9),
        (parse_order_description("gen:sqrt(2);sqrt(3)", f23), 6, 6),
        (quadratic_order(12), 12, 12),
        (quadratic_order_half(13), 12, 12),
    ]
    checked = past_cut = 0
    for order, low, cap in oracle_cases:
        tnn = order.field.tnn_test()
        cut = order.field.degree + 3
        zero = (0,) * order.field.degree
        oracle = {zero: 0}
        for row in length_profile(order, cap):
            oracle[order.scaled(row.element)] = row.length
        pool = enumerate_squares_traced(order, cap)
        for v in _tnn_lattice_points(order, cap, tnn):
            if low * order.den < v[0] <= cut * order.den:
                continue
            alpha = order.unscale(v)
            result = length(order, alpha, square_set=pool)
            alone = length(order, alpha)
            assert (alone.status, alone.k) == (result.status, result.k), (order.label, str(alpha))
            if result.is_exact:
                assert oracle.get(v) == result.k, (order.label, str(alpha))
                assert result.k <= cut, (order.label, str(alpha))
                assert replay(alpha, result.witness) and replay(alpha, alone.witness)
            else:
                assert v not in oracle, (order.label, str(alpha))
            checked += 1
            past_cut += v[0] > cut * order.den

    order = maximal_order(f23)
    # square-set monotonicity in the cap, and per-element domination subsets
    previous = set()
    for cap in range(1, 9):
        current = {sq for _, sq in enumerate_squares_traced(order, cap)}
        assert previous <= current
        assert all(Fraction(sq[0], order.den) <= cap for sq in current)
        previous = current
    alpha = 6 + f23.sqrt_of(2) + f23.sqrt_of(6)
    dominated = {sq for _, sq in enumerate_squares_dominated(order, alpha)}
    assert dominated <= previous

    report(8, True, "ring axioms, sign cross-checks, subfield and "
           "quarter-square invariants, oracle equivalence on "
           f"{checked} elements of {len(oracle_cases)} orders ({past_cut} past "
           "degree + 3), square-set monotonicity")


def test_criterion_9_fixed_point_lower_bounds():
    f23 = classify_field(2, 3)
    order = maximal_order(f23)
    n, witnesses = pythagoras_lower_bound(order, 8)
    target = 6 + f23.sqrt_of(2) + f23.sqrt_of(6)
    first = n >= 3 and target in {alpha for alpha, _ in witnesses}
    first = first and all(replay(alpha, roots) for alpha, roots in witnesses)

    quad = quadratic_maximal_order(3)
    n2, witnesses2 = pythagoras_lower_bound(quad, 10)
    root3 = quad.field.sqrt_of(3)
    second = n2 == 3 and (9 + 4 * root3) in {alpha for alpha, _ in witnesses2}

    report(9, first and second, "fixed-point runs give 3 with 6+sqrt(2)+sqrt(6) "
           "in BQ(2,3) and exactly 3 with 9+4*sqrt(3) in Z[sqrt(3)]")
