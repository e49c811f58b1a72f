import pickle
import re
from fractions import Fraction

import pytest

from bqsos.fields import FieldMismatch, OutOfRange, QuadraticField, classify_field
from bqsos.orders import (
    BadCongruence,
    NotAnOrder,
    NotFullRank,
    OrderError,
    OrderLattice,
    SquareN,
    custom_order,
    hnf_columns,
    maximal_order,
    parse_order_description,
    quadratic_maximal_order,
    quadratic_order,
    quadratic_order_half,
    root_product_order,
)


def sample_orders():
    """Maximal orders of every basis type, two gen: orders, two quadratic
    conductor orders and a root-product sublattice order."""
    f23 = classify_field(2, 3)
    orders = [maximal_order(classify_field(p, q))
              for p, q in [(2, 3), (10, 17), (17, 19), (5, 13), (17, 21), (3, 5), (21, 33)]]
    orders += [parse_order_description(desc, f23)
               for desc in ("gen:sqrt(2);sqrt(3)", "gen:sqrt(8);sqrt(12)")]
    orders += [quadratic_order(12), quadratic_order_half(13)]
    orders.append(root_product_order(classify_field(35, 55), 5, 7, 11))
    return orders


class TestHnf:
    def test_identity(self):
        cols = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        assert hnf_columns(cols, 4) == cols

    def test_redundant_and_negative_columns(self):
        cols = [(2, 0), (3, 0), (0, -5), (0, 5)]
        assert hnf_columns(cols, 2) == [(1, 0), (0, 5)]

    def test_canonical_reduction(self):
        assert hnf_columns([(1, 7), (0, 3)], 2) == [(1, 1), (0, 3)]

    def test_rank_deficient(self):
        assert hnf_columns([(1, 2), (2, 4)], 2) == [(1, 2)]


class TestMaximalOrder:
    def test_quadratic(self):
        o = quadratic_maximal_order(5)
        w = (1 + o.field.sqrt_of(5)) / 2
        assert o.contains(w)
        o2 = quadratic_maximal_order(2)
        assert o2.contains(o2.field.sqrt_of(2))
        assert not o2.contains(o2.field.sqrt_of(2) / 2)

    def test_biquadratic_b1(self):
        f = classify_field(2, 3)
        o = maximal_order(f)
        assert o.contains((f.sqrt_of(2) + f.sqrt_of(6)) / 2)
        assert not o.contains(f.sqrt_of(2) / 2)
        assert not o.contains((f.sqrt_of(2) + f.sqrt_of(3)) / 2)

    def test_biquadratic_b4(self):
        f = classify_field(5, 13)
        o = maximal_order(f)
        quarter = (f.one() + f.sqrt_of(5) + f.sqrt_of(13) + f.sqrt_of(65)) / 4
        assert o.contains(quarter)
        assert o.contains((1 + f.sqrt_of(5)) / 2)
        assert not o.contains((1 + f.sqrt_of(65)) / 4)

    def test_closed_under_multiplication(self):
        # Element products: the reference for the integer closure check
        for o in sample_orders():
            for x in o.basis_elements():
                for y in o.basis_elements():
                    assert o.contains(x * y), (o, x, y)

    def test_mul_scaled_matches_element_product(self):
        for o in sample_orders():
            for x in o.basis:
                for y in o.basis:
                    got = o.unscale(o.mul_scaled(x, y))
                    assert got == o.unscale(x) * o.unscale(y), (o, x, y)


class TestQuadraticOrders:
    def test_conductor_order(self):
        o = quadratic_order(8)
        root8 = o.field.sqrt_of(8)
        assert o.contains(root8)
        assert not o.contains(o.field.sqrt_of(2))
        assert o.label == "Z[sqrt(8)]"

    def test_half_order(self):
        o = quadratic_order_half(17)
        w = (1 + o.field.sqrt_of(17)) / 2
        assert o.contains(w)
        assert not o.contains(o.field.sqrt_of(17) / 2)

    def test_order_descriptor(self):
        o = quadratic_order(8)
        assert (o.field.n, o.basis) == (2, ((1, 0), (0, 2)))
        with pytest.raises(BadCongruence):
            quadratic_order_half(8)
        with pytest.raises(SquareN):
            quadratic_order(9)
        with pytest.raises(OutOfRange):
            quadratic_order(1)


class TestCustomOrder:
    def test_closure_generates_products(self):
        f = classify_field(2, 3)
        o = custom_order(f, [f.sqrt_of(2), f.sqrt_of(3)])
        assert o.contains(f.sqrt_of(6))
        assert not o.contains((f.sqrt_of(2) + f.sqrt_of(6)) / 2)

    def test_idempotent_on_maximal_basis(self):
        f = classify_field(5, 13)
        o = maximal_order(f)
        again = custom_order(f, list(o.basis_elements()))
        assert again == o

    def test_rank_deficient_generators(self):
        f = classify_field(2, 3)
        with pytest.raises(NotFullRank):
            custom_order(f, [f.from_rational(2)])

    def test_field_mismatch(self):
        f, g = classify_field(2, 3), classify_field(2, 5)
        with pytest.raises(FieldMismatch):
            custom_order(f, [g.sqrt_of(2)])

    def test_non_order_lattice_rejected(self):
        f = classify_field(2, 3)
        # sqrt(2)/2 squares to 1/2, outside the lattice
        cols = [(1, 0, 0, 0), (0, Fraction(1, 2), 0, 0),
                (0, 0, 1, 0), (0, 0, 0, 1)]
        with pytest.raises(NotAnOrder):
            OrderLattice(f, cols, "bad")
        # products integral but outside: sqrt(3)*sqrt(6) = 3*sqrt(2)
        cols = [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        with pytest.raises(NotAnOrder):
            OrderLattice(f, cols, "bad")
        # closed under multiplication, but without 1
        cols = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]
        with pytest.raises(NotAnOrder, match="contain 1"):
            OrderLattice(f, cols, "bad")


class TestSublatticeOrders:
    def test_root_product_order(self):
        f = classify_field(35, 55)
        o = root_product_order(f, 5, 7, 11)
        assert o.den == 1
        assert o.basis == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert not o.contains((f.sqrt_of(35) + f.sqrt_of(55)) / 2)

    def test_basis_hash_is_stable(self):
        f = classify_field(2, 3)
        a = maximal_order(f)
        b = custom_order(f, list(a.basis_elements()))
        assert a.basis_hash() == b.basis_hash()
        assert a.basis_hash() != custom_order(f, [f.sqrt_of(2), f.sqrt_of(3)]).basis_hash()


class TestWalkBasis:
    """The enumeration walks walk_basis, the HNF of the order's columns with
    their coordinates reversed; basis stays the canonical form."""

    def test_spans_the_lattice(self):
        orders = sample_orders()
        assert {o.field.basis_type for o in orders if o.field.degree == 4} == {
            "B1", "B2", "B3", "B4a", "B4b"}
        for o in orders:
            dim = o.field.degree
            # an HNF itself: lower triangular, positive pivots, reduced
            assert hnf_columns(o.walk_basis, dim) == list(o.walk_basis), o
            assert hnf_columns([c[::-1] for c in o.walk_basis], dim) == list(o.basis), o

    def test_pickles_and_compares_equal(self):
        # sweep --jobs ships orders to worker processes
        for o in sample_orders():
            copy = pickle.loads(pickle.dumps(o))
            assert copy == o and hash(copy) == hash(o)
            assert (copy.den, copy.basis, copy.walk_basis) == (o.den, o.basis, o.walk_basis)
            assert copy.basis_hash() == o.basis_hash()


class TestParseOrderDescription:
    def test_forms(self):
        f = classify_field(2, 3)
        assert parse_order_description("maximal", f) == maximal_order(f)
        o = parse_order_description("quad:8", None)
        assert o.label == "Z[sqrt(8)]"
        o = parse_order_description("quad-half:17", None)
        assert o.field.n == 17
        o = parse_order_description("gen:sqrt(2);sqrt(3)", f)
        assert o.contains(f.sqrt_of(6))

    def test_bad_description(self):
        with pytest.raises(OrderError):
            parse_order_description("weird", classify_field(2, 3))
        with pytest.raises(OrderError):
            parse_order_description("gen:sqrt(2)", classify_field(2, 3))

    @pytest.mark.parametrize("desc", ["quad:abc", "quad:1_2", "quad:١٢",
                                      "quad-half:1_3", "quad:", "quad:-5"])
    def test_n_must_be_ascii_digits(self, desc):
        with pytest.raises(OrderError, match=re.escape(repr(desc))):
            parse_order_description(desc, None)

    def test_spaces_around_n(self):
        assert parse_order_description("quad: 12 ", None).label == "Z[sqrt(12)]"
