"""Uncertainty carrier and compact-notation rendering."""

import math

import pytest

from fibercav.errors import DomainError
from fibercav.quantity import Quantity, format_parenthesized, format_scientific, ratio


class TestQuantity:
    def test_defaults_and_fields(self):
        q = Quantity(3.8e9)
        assert q.value == 3.8e9
        assert q.sigma == 0.0

    def test_rejects_nonfinite_value(self):
        with pytest.raises(DomainError):
            Quantity(math.nan)
        with pytest.raises(DomainError):
            Quantity(math.inf, 1.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            Quantity(1.0, -0.1)
        with pytest.raises(DomainError):
            Quantity(1.0, math.nan)

    def test_scaled_scales_sigma_with_absolute_factor(self):
        q = Quantity(2.0, 0.5).scaled(-3.0)
        assert q.value == -6.0
        assert q.sigma == 1.5

    def test_dict_round_trip(self):
        q = Quantity(1.25, 0.03)
        assert Quantity.from_dict(q.as_dict()) == q

    def test_from_dict_defaults_sigma(self):
        assert Quantity.from_dict({"value": 2.0}).sigma == 0.0

    def test_str_uses_parenthesized_form(self):
        assert str(Quantity(0.483, 0.037)) == "0.48(4)"


class TestFormatParenthesized:
    def test_basic_sub_unity(self):
        assert format_parenthesized(0.483321946706122, 0.037178611285086316) == "0.48(4)"

    def test_unit_suffix(self):
        assert format_parenthesized(0.4833, 0.0372, "%") == "0.48(4)%"

    def test_sigma_above_one_spells_out_digits(self):
        assert format_parenthesized(1310.3448275862069, 90.36860879904876) == "1310(90)"

    def test_zero_sigma_renders_bare_value(self):
        assert format_parenthesized(2.5, 0.0) == "2.5"
        assert format_parenthesized(2.5, 0.0, " mm") == "2.5 mm"

    def test_sigma_digit_rolls_to_next_decade(self):
        # 0.98 rounds to 1.0, i.e. one digit at the next decade up
        assert format_parenthesized(5.234, 0.98) == "5(1)"

    def test_half_even_sigma_rounding(self):
        # exactly representable ties: 2.5 -> 2 (even), 3.5 -> 4 (even)
        assert format_parenthesized(10.0, 2.5) == "10(2)"
        assert format_parenthesized(10.0, 3.5) == "10(4)"

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            format_parenthesized(1.0, -1.0)


class TestFormatScientific:
    def test_finesse_style(self):
        assert format_scientific(1310.3448275862069, 90.36860879904876) == "1.3(1)×10³"

    def test_zero_value(self):
        assert format_scientific(0.0) == "0"

    def test_no_sigma(self):
        assert format_scientific(2027.0) == "2.0×10³"

    def test_mantissa_rollover(self):
        assert format_scientific(997.0) == "1.0×10³"

    def test_negative_exponent_superscript(self):
        assert format_scientific(0.00123) == "1.2×10⁻³"

    def test_negative_value(self):
        assert format_scientific(-1234.0) == "-1.2×10³"

    def test_small_sigma_quotes_its_leading_digit(self):
        assert format_scientific(1299.79, 6.0) == "1.300(6)×10³"
        assert format_scientific(647.75, 3.2) == "6.48(3)×10²"
        assert format_scientific(-1299.79, 6.0) == "-1.300(6)×10³"
        assert format_scientific(0.00123, 1e-6) == "1.230(1)×10⁻³"

    def test_small_sigma_digit_rollover(self):
        # 0.96 rounds to 1.0, i.e. one digit at the next decade up
        assert format_scientific(1299.79, 0.96) == "1.300(1)×10³"

    def test_small_sigma_mantissa_rollover(self):
        assert format_scientific(9999.97, 3.0) == "1.0000(3)×10⁴"

    @pytest.mark.parametrize("value", [647.75, 1299.79, 5372.1, 0.0123, 9.96e5])
    @pytest.mark.parametrize("relative", [1e-12, 1e-6, 1e-3, 0.01, 0.049, 0.05, 0.2])
    def test_nonzero_sigma_never_renders_zero(self, value, relative):
        assert "(0)" not in format_scientific(value, value * relative)


class TestRatio:
    def test_propagates_relative_errors_in_quadrature(self):
        q = ratio(Quantity(10.0, 1.0), Quantity(2.0, 0.2))
        assert q.value == pytest.approx(5.0)
        assert q.sigma == pytest.approx(5.0 * math.sqrt(0.01 + 0.01))

    def test_exact_inputs_give_exact_output(self):
        q = ratio(Quantity(3.8e9), Quantity(2.9e6))
        assert q.value == pytest.approx(1310.3448275862069)
        assert q.sigma == 0.0

    def test_zero_denominator_rejected(self):
        with pytest.raises(DomainError):
            ratio(Quantity(1.0), Quantity(0.0, 0.1))
