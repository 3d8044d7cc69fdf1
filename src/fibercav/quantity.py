"""Scalar measurements with one-sigma uncertainties.

All derived results in this package are carried as :class:`Quantity`
values.  Propagation is first order (Gaussian): each operation that maps
measurements to results applies its analytic partial derivatives and adds
the contributions in quadrature.  Rendering helpers produce the compact
parenthesized notation used in lab reports, e.g. ``0.483(37)`` or
``1.3(1)×10³``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal

from .errors import DomainError

_SUPERSCRIPTS = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")


@dataclass(frozen=True)
class Quantity:
    """A measured value and its one-sigma uncertainty (same units)."""

    value: float
    sigma: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"quantity value must be finite, got {self.value!r}")
        if not math.isfinite(self.sigma) or self.sigma < 0.0:
            raise DomainError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "sigma", float(self.sigma))

    def scaled(self, factor: float) -> "Quantity":
        """Multiply by an exact constant (sigma scales with |factor|)."""
        return Quantity(self.value * factor, self.sigma * abs(factor))

    def as_dict(self) -> dict:
        return {"value": self.value, "sigma": self.sigma}

    @classmethod
    def from_dict(cls, data: dict) -> "Quantity":
        return cls(float(data["value"]), float(data.get("sigma", 0.0)))

    def __str__(self) -> str:
        return format_parenthesized(self.value, self.sigma)


def _half_even(x: float) -> int:
    """Round to the nearest integer, ties to even."""
    return int(Decimal(repr(x)).quantize(Decimal("1"), rounding=ROUND_HALF_EVEN))


def _round_to_sigma(value: float, sigma: float) -> tuple[Decimal, int, int]:
    """Round ``sigma`` half-even to one digit and ``value`` to its place: (value, digit, decade)."""
    exponent = math.floor(math.log10(sigma))
    digit = _half_even(sigma / 10.0**exponent)
    if digit == 10:  # e.g. 0.98 -> 1.0 at the next decade
        digit = 1
        exponent += 1
    quantum = Decimal(1).scaleb(exponent)
    return Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_EVEN), digit, exponent


def format_parenthesized(value: float, sigma: float, unit: str = "") -> str:
    """Render ``value ± sigma`` as e.g. ``0.48(4)`` / ``1310(90)``.

    The uncertainty is rounded half-even to one significant digit and the
    value is quoted to the same decimal place, with the uncertainty digit
    appended in parentheses.  A zero sigma renders the bare value.
    """
    if sigma < 0:
        raise DomainError("sigma must be >= 0")
    if sigma == 0.0:
        return f"{value:g}{unit}"
    rounded, digit, exponent = _round_to_sigma(value, sigma)
    if exponent >= 0:
        return f"{rounded:f}({digit * 10 ** exponent}){unit}"
    return f"{rounded:f}({digit}){unit}"


def format_scientific(value: float, sigma: float = 0.0) -> str:
    """Render in two-significant-figure scientific form, e.g. ``1.3(1)×10³``.

    The mantissa is quoted to one decimal place (half-even) and the sigma,
    when nonzero, is expressed in units of that final digit.  A nonzero
    sigma too small for that digit never prints ``(0)``: the mantissa is
    then quoted down to the sigma's leading digit, e.g. ``1.300(6)×10³``.
    """
    if value == 0.0:
        return "0"
    exponent = math.floor(math.log10(abs(value)))
    mantissa = Decimal(repr(value / 10.0**exponent)).quantize(
        Decimal("0.1"), rounding=ROUND_HALF_EVEN
    )
    if abs(mantissa) >= 10:  # 9.97 -> 10.0 rolls over to the next decade
        mantissa = (mantissa / 10).quantize(Decimal("0.1"), rounding=ROUND_HALF_EVEN)
        exponent += 1
    digit = _half_even(sigma / 10.0 ** (exponent - 1))
    if sigma != 0.0 and digit == 0:
        rounded, digit, _ = _round_to_sigma(value, sigma)
        exponent = rounded.adjusted()
        mantissa = rounded.scaleb(-exponent)
    power = f"×10{str(exponent).translate(_SUPERSCRIPTS)}"
    return f"{mantissa}({digit}){power}" if sigma != 0.0 else f"{mantissa}{power}"


def ratio(numerator: Quantity, denominator: Quantity) -> Quantity:
    """Quotient with first-order propagation of both sigmas."""
    if denominator.value == 0.0:
        raise DomainError("cannot divide by a quantity with zero value")
    value = numerator.value / denominator.value
    rel = 0.0
    if numerator.value != 0.0:
        rel += (numerator.sigma / numerator.value) ** 2
    rel += (denominator.sigma / denominator.value) ** 2
    return Quantity(value, abs(value) * math.sqrt(rel))
