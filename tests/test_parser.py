import pytest
from hypothesis import given, strategies as st

from bqsos.fields import Element, ForeignRadical, QuadraticField, classify_field
from bqsos.parser import ExpressionError, parse_element, tokenize


FIELD = classify_field(2, 3)


class TestTokenize:
    def test_kinds_and_positions(self):
        assert tokenize("1 + sqrt(2)") == [
            ("int", 1, 0), ("punct", "+", 2), ("name", "sqrt", 4),
            ("punct", "(", 8), ("int", 2, 9), ("punct", ")", 10),
        ]

    def test_bad_character(self):
        with pytest.raises(ExpressionError) as exc:
            tokenize("2 @ 3")
        assert exc.value.position == 2


class TestParse:
    def test_values(self):
        cases = {
            "6+sqrt(2)+sqrt(6)": (6, 1, 0, 1, 1),
            "((sqrt(2)+sqrt(6))/2)^2": (2, 0, 1, 0, 1),
            "7/4 + 3/4*sqrt(2)": (7, 3, 0, 0, 4),
            "-(3 - 2*sqrt(2))": (-3, 2, 0, 0, 1),
            "2^3": (8, 0, 0, 0, 1),
            "sqrt(8)": (0, 2, 0, 0, 1),
            "1/2 - 1/2 * sqrt(3)": (1, 0, -1, 0, 2),
        }
        for text, (a, b, c, d, den) in cases.items():
            assert parse_element(text, FIELD) == Element.make(FIELD, (a, b, c, d), den)

    def test_precedence(self):
        assert parse_element("1+2*3^2", FIELD) == FIELD.from_rational(19)
        assert parse_element("-2^2", FIELD) == FIELD.from_rational(4)

    def test_quadratic_field(self):
        q = QuadraticField(13)
        x = parse_element("3+((1+sqrt(13))/2)^2+(1+(1+sqrt(13))/2)^2", q)
        assert x == 12 + 2 * q.sqrt_of(13)

    def test_foreign_radical(self):
        with pytest.raises(ForeignRadical) as exc:
            parse_element("sqrt(7)", FIELD)
        assert exc.value.radicand == 7

    def test_syntax_errors_carry_positions(self):
        for text, position in [("1 +", 3), ("sqrt(2", 6), ("(1+2", 4),
                               ("2^sqrt(2)", 2), ("1 2", 2), ("", 0)]:
            with pytest.raises(ExpressionError) as exc:
                parse_element(text, FIELD)
            assert exc.value.position == position

    @pytest.mark.parametrize("text, position", [("2²", 1), ("sqrt(٣)", 5)])
    def test_only_ascii_digits(self, text, position):
        # a superscript two and an Arabic-Indic three pass str.isdigit
        with pytest.raises(ExpressionError, match="unexpected character") as exc:
            parse_element(text, FIELD)
        assert exc.value.position == position

    def test_division_only_by_rationals(self):
        with pytest.raises(ExpressionError):
            parse_element("1/sqrt(2)", FIELD)
        with pytest.raises(ExpressionError):
            parse_element("1/0", FIELD)
        with pytest.raises(ExpressionError):
            parse_element("sqrt(2)/(1-1)", FIELD)

    @given(st.tuples(*[st.integers(-30, 30)] * 4), st.integers(1, 8))
    def test_round_trip_through_str(self, num, den):
        x = Element.make(FIELD, num, den)
        assert parse_element(str(x), FIELD) == x
