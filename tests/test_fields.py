import pickle
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from bqsos.fields import (
    FIX,
    BiquadraticField,
    Element,
    EqualGenerators,
    ForeignRadical,
    NotSquarefree,
    OutOfRange,
    FieldMismatch,
    QuadraticField,
    classify_field,
    fraction_str,
    is_squarefree,
    quad_sign,
    squarefree_part,
)
from bqsos.orders import maximal_order, parse_order_description
from bqsos.parser import parse_element


# quadratic and biquadratic fields for the sign and predicate checks
SIGN_FIELDS = (QuadraticField(2), QuadraticField(5), QuadraticField(13),
               classify_field(2, 3), classify_field(5, 13), classify_field(17, 19))


def is_tnn_by_signs(field, v):
    return all(field.embedding_sign(v, i) >= 0 for i in range(field.degree))


def least_tnn_shift(field, rest):
    """The least integer a with (a, *rest) totally nonnegative, by
    bisection on the embedding signs.  For a quadratic field this is the
    least a with a*a >= b*b*n; equality holds only at 0, as n is not a
    square."""
    lo = -1  # the conjugates average to a, so a < 0 is never tnn
    hi = sum(abs(c) * r for c, r in zip(rest, field.radicands))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if is_tnn_by_signs(field, (mid, *rest)):
            hi = mid
        else:
            lo = mid
    return hi


def pell_unit(r):
    """The least unit x + y*sqrt(r) of Z[sqrt(r)] with y > 0, as (x, y)."""
    y = 1
    while True:
        for target in (r * y * y - 1, r * y * y + 1):
            x = isqrt(target)
            if x * x == target:
                return x, y
        y += 1


def unit_power_cases(field):
    """The powers 1..60 of a unit of each quadratic subring Z[sqrt(r)]
    and their shifts by -1 and +1.  A conjugate of a high power lies near
    0, or near -1 or +1 once shifted, closer than the filter's slack (the
    radical coordinates' absolute sum over 2**64), so only the exact test
    decides it."""
    d = field.degree
    cases = []
    for i, r in enumerate(field.radicands, start=1):
        x, y = pell_unit(r)
        unit = tuple(x if j == 0 else y if j == i else 0 for j in range(d))
        v = (1,) + (0,) * (d - 1)
        for _ in range(60):
            v = field.mul_coords(v, unit)
            cases += [(v[0] + e, *v[1:]) for e in (-1, 0, 1)]
    return cases


def sign_cases(field):
    """0, squares, random tuples, the boundary: the least totally
    nonnegative shift of random radical coordinates and its neighbours,
    and the unit_power_cases, whose near-zero conjugates only the exact
    test decides."""
    rng = random.Random(field.radicands[-1])
    d = field.degree
    cases = [(0,) * d]
    for _ in range(100):
        x = tuple(rng.randint(-9, 9) for _ in range(d))
        rest = tuple(rng.randint(-30, 30) for _ in range(d - 1))
        a = least_tnn_shift(field, rest)
        cases += [field.mul_coords(x, x), (rng.randint(-60, 60), *rest),
                  (a - 1, *rest), (a, *rest), (a + 1, *rest)]
    return cases + unit_power_cases(field)


def det4(cols):
    rows = [[Fraction(cols[j][i]) for j in range(4)] for i in range(4)]
    det = Fraction(1)
    for k in range(4):
        piv = next((r for r in range(k, 4) if rows[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        det *= rows[k][k]
        for r in range(k + 1, 4):
            factor = rows[r][k] / rows[k][k]
            for c in range(k, 4):
                rows[r][c] -= factor * rows[k][c]
    return det


class TestSquarefree:
    def test_is_squarefree(self):
        assert is_squarefree(1)
        assert is_squarefree(30)
        assert not is_squarefree(4)
        assert not is_squarefree(18)

    def test_squarefree_part(self):
        assert squarefree_part(8) == (2, 2)
        assert squarefree_part(9) == (3, 1)
        assert squarefree_part(6) == (1, 6)

    @given(st.integers(1, 10_000))
    def test_squarefree_part_reconstructs(self, k):
        f, k0 = squarefree_part(k)
        assert f * f * k0 == k
        assert is_squarefree(k0)


class TestClassify:
    def test_b1(self):
        f = classify_field(2, 3)
        assert (f.m, f.s, f.t) == (2, 3, 6)
        assert f.basis_type == "B1"
        assert f.roles == (2, 3, 6)

    def test_b2(self):
        f = classify_field(10, 17)
        assert f.basis_type == "B2"
        assert f.roles == (10, 17, 170)

    def test_b3(self):
        f = classify_field(17, 19)
        assert f.basis_type == "B3"
        assert f.roles == (19, 17, 323)

    def test_b4(self):
        f = classify_field(5, 13)
        assert f.basis_type == "B4a"
        assert (f.m0, f.s0, f.t0) == (13, 5, 1)
        g = classify_field(17, 21)
        assert g.basis_type in ("B4a", "B4b")

    def test_shared_factor(self):
        f = classify_field(6, 15)
        assert (f.m, f.s, f.t) == (6, 10, 15)

    def test_generator_order_irrelevant(self):
        a, b = classify_field(3, 2), classify_field(2, 3)
        assert a.radicands == b.radicands and a.basis_type == b.basis_type

    def test_same_field_from_other_generators_is_equal(self):
        # equality and hash use the canonical data; p and q are for reporting
        a, b, c = classify_field(2, 3), classify_field(3, 2), classify_field(2, 6)
        assert a == b == c and len({a, b, c}) == 1
        assert a != classify_field(2, 5)
        assert (b.p, b.q) == (3, 2) and b.to_json()["p"] == 3
        x, y = (parse_element("1+sqrt(2)", f) for f in (b, c))
        assert x + y == 2 + 2 * a.sqrt_of(2)
        assert maximal_order(b) == maximal_order(c)
        copy = pickle.loads(pickle.dumps(b))
        assert copy == a and hash(copy) == hash(a) and (copy.p, copy.q) == (3, 2)

    def test_gcd_identities(self):
        for p, q in [(2, 3), (6, 15), (17, 21), (10, 13), (30, 42)]:
            f = classify_field(p, q)
            assert f.m == f.s0 * f.t0
            assert f.s == f.m0 * f.t0
            assert f.t == f.m0 * f.s0

    def test_errors(self):
        with pytest.raises(NotSquarefree):
            classify_field(4, 5)
        with pytest.raises(EqualGenerators):
            classify_field(7, 7)
        with pytest.raises(OutOfRange):
            classify_field(1, 5)

    def test_basis_matrix_determinant(self):
        # index of Z[sqrt(m), sqrt(s)] in the maximal order per basis type
        expected = {"B1": Fraction(1, 2), "B2": Fraction(1, 4),
                    "B3": Fraction(1, 4), "B4a": Fraction(1, 16),
                    "B4b": Fraction(1, 16)}
        for p, q in [(2, 3), (10, 17), (17, 19), (5, 13), (17, 21), (3, 7)]:
            f = classify_field(p, q)
            assert abs(det4(f.basis_matrix())) == expected[f.basis_type]


class TestSigns:
    @given(st.integers(-50, 50), st.integers(-50, 50),
           st.sampled_from([2, 3, 5, 7, 11, 13]))
    def test_quad_sign_matches_float(self, a, b, n):
        value = a + b * n ** 0.5
        if abs(value) > 1e-6:
            assert quad_sign(a, b, n) == (1 if value > 0 else -1)

    @pytest.mark.parametrize("field", SIGN_FIELDS, ids=repr)
    def test_tnn_test_matches_embedding_signs(self, field):
        tnn = field.tnn_test
        for v in sign_cases(field):
            assert tnn(v) == is_tnn_by_signs(field, v), v

    @pytest.mark.parametrize("field", SIGN_FIELDS, ids=repr)
    def test_fixed_conjugates_bracket_conjugates(self, field):
        # F_k - slack < 2**FIX * sigma_k(v) < F_k + slack, or equality
        # when slack = 0, by the exact sign of 2**FIX * v - (F_k -+ slack)
        # at embedding k
        fixed = field.fixed_conjugates
        for v in sign_cases(field):
            conj, slack = fixed(v)
            assert len(conj) == field.degree
            scaled = [c << FIX for c in v]
            for k, f in enumerate(conj):
                below = field.embedding_sign((scaled[0] - f + slack, *scaled[1:]), k)
                above = field.embedding_sign((scaled[0] - f - slack, *scaled[1:]), k)
                assert (below, above) == ((1, -1) if slack else (0, 0)), (v, k)

    def test_fields_pickle_after_tnn_test(self):
        # sweep --jobs ships fields to worker processes, used or not
        for field in (QuadraticField(13), classify_field(5, 13)):
            before = pickle.loads(pickle.dumps(field))
            cases = sign_cases(field)
            assert all(field.tnn_test(v) == is_tnn_by_signs(field, v) for v in cases)
            after = pickle.loads(pickle.dumps(field))
            for copy in (before, after):
                assert copy == field and hash(copy) == hash(field)
                assert copy.fixed_roots == field.fixed_roots
                for v in cases:
                    assert copy.fixed_conjugates(v) == field.fixed_conjugates(v)
                    assert copy.tnn_test(v) == field.tnn_test(v)

    def test_embedding_signs_of_square(self):
        f = classify_field(2, 3)
        x = f.element((1, 3, -2, 1), 2)
        sq = x * x
        for i in range(4):
            assert sq.sign_at_embedding(i) >= 0


class TestElement:
    def test_known_square(self):
        f = classify_field(2, 3)
        x = (f.sqrt_of(2) + f.sqrt_of(6)) / 2
        assert x * x == 2 + f.sqrt_of(3)

    def test_normalization(self):
        f = classify_field(2, 3)
        assert Element.make(f, (2, 4, 0, 0), 2) == Element.make(f, (1, 2, 0, 0), 1)

    def test_sqrt_reduction(self):
        f = classify_field(2, 3)
        assert f.sqrt_of(8) == 2 * f.sqrt_of(2)
        assert f.sqrt_of(9) == f.from_rational(3)
        assert f.sqrt_of(24) == 2 * f.sqrt_of(6)
        with pytest.raises(ForeignRadical):
            f.sqrt_of(5)

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatch):
            classify_field(2, 3).one() + classify_field(2, 5).one()

    def test_abs_trace(self):
        f = classify_field(2, 3)
        x = f.element((7, 3, 0, 1), 2)
        assert x.abs_trace() == Fraction(7, 2)
        assert sum(c.coords()[0] for c in x.conjugates()) == 4 * x.abs_trace()

    def test_total_positivity(self):
        f = classify_field(2, 3)
        assert (3 + f.sqrt_of(2)).is_totally_positive()
        assert not (1 + f.sqrt_of(2)).is_totally_nonnegative()
        assert f.zero().is_totally_nonnegative()
        assert not f.zero().is_totally_positive()

    def test_total_positivity_matches_embedding_signs(self):
        # (1+sqrt(2))**50 is totally positive and (1+sqrt(2))**51 is not, and
        # for both the fixed-point bound of the small conjugate straddles 0
        f = QuadraticField(2)
        u = 1 + f.sqrt_of(2)
        for x in (f.zero(), f.one(), u ** 50, u ** 51):
            by_signs = all(f.embedding_sign(x.num, i) > 0 for i in range(f.degree))
            assert x.is_totally_positive() == by_signs, x
        assert (u ** 50).is_totally_positive()
        assert not (u ** 51).is_totally_positive()
        for x in (u ** 50, u ** 51):
            conj, slack = f.fixed_conjugates(x.num)
            assert -slack <= min(conj) < slack

    def test_dominates(self):
        f = classify_field(2, 3)
        alpha = 6 + f.sqrt_of(2) + f.sqrt_of(6)
        assert alpha.dominates(f.one())
        assert not f.one().dominates(alpha)

    def test_str_forms(self):
        f = classify_field(2, 3)
        assert str(f.element((7, 3, 0, 0), 4)) == "7/4 + 3/4*sqrt(2)"
        assert str(f.zero()) == "0"
        assert str(-f.sqrt_of(6)) == "-sqrt(6)"
        assert str(f.element((-3, 2, 0, -4), 2)) == "-3/2 + sqrt(2) - 2*sqrt(6)"

    def test_fraction_str_is_str_of_fraction(self):
        for den in range(1, 13):
            for v in range(-30, 31):
                assert fraction_str(v, den) == str(Fraction(v, den)), (v, den)

    def test_quadratic_field(self):
        q = QuadraticField(13)
        w = (1 + q.sqrt_of(13)) / 2
        assert 3 + w * w + (1 + w) ** 2 == 12 + 2 * q.sqrt_of(13)
        with pytest.raises(NotSquarefree):
            QuadraticField(12)


def fraction_pretty(x):
    """The pretty form of x written from its Fraction coordinates: the
    reference that Element.__str__ must match."""
    names = ("",) + tuple(f"sqrt({r})" for r in x.field.radicands)
    terms = []
    for c, name in zip(x.coords(), names):
        if c == 0:
            continue
        mag = abs(c)
        body = name if name and mag == 1 else f"{mag}*{name}" if name else str(mag)
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    (first_sign, first), *rest = terms
    head = "-" + first if first_sign == "-" else first
    return head + "".join(f" {sgn} {body}" for sgn, body in rest)


# orders with denominators 1 (quad:12), 2 (quad-half:13, B1 (2,3)) and 4
# (B4a (5,13), B4b (21,33))
RENDER_ORDERS = [
    parse_order_description(desc, field)
    for desc, field in (("quad:12", None), ("quad-half:13", None),
                        ("maximal", classify_field(2, 3)),
                        ("maximal", classify_field(5, 13)),
                        ("maximal", classify_field(21, 33)))
]


def random_order_elements(order, rng, count):
    """Zero, the basis, and seeded integer combinations of the basis whose
    coefficients are mostly 0 and +-1."""
    basis = order.basis_elements()
    yield order.field.zero()
    yield from basis
    for _ in range(count):
        coeffs = [rng.choice((0, 0, 1, -1, 1, -1, 2, -3, 5, -7)) for _ in basis]
        yield sum((c * b for c, b in zip(coeffs, basis)), order.field.zero())


class TestRendering:
    """Element's string forms are those of its Fraction coordinates."""

    @pytest.mark.parametrize("order", RENDER_ORDERS, ids=lambda o: f"{o.field!r}:{o.label}")
    def test_forms_match_fraction(self, order):
        rng = random.Random(2105)
        dens = set()
        for x in random_order_elements(order, rng, 300):
            dens.add(x.den)
            assert x.to_json()["coords"] == [str(c) for c in x.coords()]
            assert x.to_json()["pretty"] == str(x) == fraction_pretty(x)
            assert str(-x) == fraction_pretty(-x)
        assert max(dens) == order.den


class TestRingAxioms:
    coords = st.tuples(*[st.integers(-20, 20)] * 4)
    dens = st.integers(1, 6)

    @given(coords, coords, coords, dens)
    def test_biquadratic(self, a, b, c, d):
        f = classify_field(10, 13)
        x, y, z = (Element.make(f, v, d) for v in (a, b, c))
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + f.zero() == x
        assert x * f.one() == x
        assert x - x == f.zero()

    @given(coords, coords)
    def test_conjugation_is_multiplicative(self, a, b):
        for f in SIGN_FIELDS:
            x, y = Element.make(f, a[:f.degree]), Element.make(f, b[:f.degree])
            for i in range(f.degree):
                assert (x * y).conjugate(i) == x.conjugate(i) * y.conjugate(i)

    @given(coords)
    def test_norm_is_rational(self, a):
        f = classify_field(3, 7)
        x = Element.make(f, a)
        norm = x.conjugate(0)
        for i in range(1, 4):
            norm = norm * x.conjugate(i)
        assert norm.is_rational()
