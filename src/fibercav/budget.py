"""Three-channel round-trip loss budgets from finesse and reflection dips.

The total round-trip loss follows from the finesse, ``α_tot = 2π/F``.  The
on-resonance reflection dip measured from side k fixes that mirror's power
transmittance through

    T_k = (α_tot / 2) · (1 ∓ √R_k),

with the minus sign for an undercoupled mirror (T_k < α_tot/2) and the
plus sign for an overcoupled one.  Whatever is left,
``α_int = α_tot - T₁ - T₂``, is the intrinsic loss channel, and
``F_int = 2π/α_int`` is the finesse the cavity would reach with lossless
mirrors.  Sigmas are propagated treating F, R₁, and R₂ as independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, MeasurementInconsistencyError, SingularCavityError
from .quantity import Quantity

_TWO_PI = 2.0 * math.pi

_REGIMES = ("under", "over")


def loss_from_finesse(finesse: Quantity) -> Quantity:
    """Total fractional round-trip loss ``α = 2π / F``.

    The sigma follows from ``|dα/dF| = 2π / F²``.
    """
    if finesse.value <= 0.0:
        raise DomainError(f"finesse must be > 0, got {finesse.value!r}")
    value = _TWO_PI / finesse.value
    return Quantity(value, _TWO_PI * finesse.sigma / finesse.value**2)


def finesse_from_loss(round_trip_loss: Quantity) -> Quantity:
    """Inverse companion of :func:`loss_from_finesse`."""
    if round_trip_loss.value <= 0.0:
        raise SingularCavityError("round-trip loss must be > 0 for a finite finesse")
    value = _TWO_PI / round_trip_loss.value
    return Quantity(value, _TWO_PI * round_trip_loss.sigma / round_trip_loss.value**2)


def mirror_transmittance_from_reflectance(
    round_trip_loss: Quantity,
    r_resonant: Quantity,
    regime: str = "under",
) -> Quantity:
    """Mirror power transmittance from the on-resonance reflectance.

    Parameters
    ----------
    round_trip_loss : Quantity
        Total round-trip loss α_tot (fraction).
    r_resonant : Quantity
        On-resonance power reflectance measured from that mirror's side,
        in [0, 1].  Values above 1 by less than three sigma are clamped to
        1; beyond that the measurement is rejected as inconsistent.
    regime : {"under", "over"}
        Coupling branch: ``T = (α/2)(1 - √R)`` undercoupled,
        ``T = (α/2)(1 + √R)`` overcoupled.
    """
    if regime not in _REGIMES:
        raise DomainError(f"regime must be one of {_REGIMES}, got {regime!r}")
    if round_trip_loss.value <= 0.0:
        raise DomainError("round-trip loss must be > 0")
    r_value = r_resonant.value
    if r_value < 0.0:
        raise DomainError(f"reflectance must be >= 0, got {r_value!r}")
    if r_value > 1.0:
        if r_value - 1.0 > 3.0 * r_resonant.sigma:
            raise MeasurementInconsistencyError(
                "on-resonance reflectance exceeds 1 beyond three sigma",
                r_resonant=r_value,
                sigma=r_resonant.sigma,
            )
        r_value = 1.0
    root = math.sqrt(r_value)
    sign = -1.0 if regime == "under" else 1.0
    value = 0.5 * round_trip_loss.value * (1.0 + sign * root)
    d_alpha = 0.5 * (1.0 + sign * root) * round_trip_loss.sigma
    d_refl = 0.0
    if r_value > 0.0:
        d_refl = 0.25 * round_trip_loss.value / root * r_resonant.sigma
    return Quantity(value, math.hypot(d_alpha, d_refl))


@dataclass(frozen=True)
class LossBudget:
    """The three-channel decomposition of the round-trip loss.

    ``alpha_tot = t1 + t2 + alpha_int`` holds by construction, and
    ``finesse_tot = 2π / alpha_tot``.  ``finesse_int`` is None when the
    intrinsic channel is exactly zero (flagged in ``diagnostics`` as
    "lossless").
    """

    alpha_tot: Quantity
    t1: Quantity
    t2: Quantity
    alpha_int: Quantity
    finesse_tot: Quantity
    finesse_int: Quantity | None
    regime_1: str = "under"
    regime_2: str = "under"
    diagnostics: tuple[str, ...] = field(default=())

    def __post_init__(self):
        for name in ("alpha_tot", "t1", "t2", "alpha_int"):
            channel = getattr(self, name)
            if channel.value < 0.0:
                raise DomainError(f"{name} must be >= 0, got {channel.value!r}")
        residual = self.alpha_tot.value - (
            self.t1.value + self.t2.value + self.alpha_int.value
        )
        if abs(residual) > 1e-12:
            raise DomainError(
                f"budget does not close: alpha_tot - (t1+t2+alpha_int) = {residual!r}"
            )
        if self.finesse_tot.value <= 0.0:
            raise DomainError("finesse_tot must be > 0")
        if abs(self.finesse_tot.value * self.alpha_tot.value - _TWO_PI) > 1e-12 * _TWO_PI:
            raise DomainError("finesse_tot inconsistent with alpha_tot")
        if self.finesse_int is not None and self.finesse_int.value <= 0.0:
            raise DomainError("finesse_int must be > 0 when present")

    def as_dict(self) -> dict:
        return {
            "alpha_tot": self.alpha_tot.as_dict(),
            "t1": self.t1.as_dict(),
            "t2": self.t2.as_dict(),
            "alpha_int": self.alpha_int.as_dict(),
            "finesse_tot": self.finesse_tot.as_dict(),
            "finesse_int": self.finesse_int.as_dict() if self.finesse_int else None,
            "regime_1": self.regime_1,
            "regime_2": self.regime_2,
            "diagnostics": list(self.diagnostics),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LossBudget":
        finesse_int = data.get("finesse_int")
        return cls(
            alpha_tot=Quantity.from_dict(data["alpha_tot"]),
            t1=Quantity.from_dict(data["t1"]),
            t2=Quantity.from_dict(data["t2"]),
            alpha_int=Quantity.from_dict(data["alpha_int"]),
            finesse_tot=Quantity.from_dict(data["finesse_tot"]),
            finesse_int=Quantity.from_dict(finesse_int) if finesse_int else None,
            regime_1=str(data["regime_1"]),
            regime_2=str(data["regime_2"]),
            diagnostics=tuple(data.get("diagnostics", ())),
        )


def budget(
    finesse_tot: Quantity,
    r1_resonant: Quantity,
    r2_resonant: Quantity,
    regime_1: str = "under",
    regime_2: str = "under",
) -> LossBudget:
    """Decompose the measured loss into {T₁, T₂, α_int}.

    Parameters
    ----------
    finesse_tot : Quantity
        Measured finesse.
    r1_resonant, r2_resonant : Quantity
        On-resonance reflectances from each side.
    regime_1, regime_2 : {"under", "over"}
        Coupling branch per mirror.

    Raises
    ------
    MeasurementInconsistencyError
        When the implied intrinsic loss is negative beyond one combined
        sigma (e.g. a wrong coupling-branch choice); a small negative
        residual inside one sigma is clamped to zero and flagged.
    """
    alpha_tot = loss_from_finesse(finesse_tot)
    t1 = mirror_transmittance_from_reflectance(alpha_tot, r1_resonant, regime_1)
    t2 = mirror_transmittance_from_reflectance(alpha_tot, r2_resonant, regime_2)
    alpha_int_value = alpha_tot.value - t1.value - t2.value

    # Exact partials with respect to the independent inputs (F, R1, R2);
    # alpha_int is proportional to 1/F at fixed reflectances.
    d_f = alpha_int_value * finesse_tot.sigma / finesse_tot.value
    variance = d_f * d_f
    for r_res, regime in ((r1_resonant, regime_1), (r2_resonant, regime_2)):
        r_value = min(max(r_res.value, 0.0), 1.0)
        if r_value > 0.0:
            d_r = 0.25 * alpha_tot.value / math.sqrt(r_value) * r_res.sigma
            variance += d_r * d_r
    alpha_int_sigma = math.sqrt(variance)

    diagnostics: list[str] = []
    if alpha_int_value < 0.0:
        if -alpha_int_value > alpha_int_sigma:
            raise MeasurementInconsistencyError(
                "mirror transmittances exceed the total loss beyond one sigma; "
                f"check the coupling-branch choices (regime_1={regime_1!r}, "
                f"regime_2={regime_2!r})",
                alpha_int=alpha_int_value,
                sigma=alpha_int_sigma,
            )
        diagnostics.append("alpha_int clamped to zero (negative within one sigma)")
        alpha_int_value = 0.0

    alpha_int = Quantity(alpha_int_value, alpha_int_sigma)
    if alpha_int_value == 0.0:
        diagnostics.append("lossless")
        finesse_int = None
    else:
        finesse_int = finesse_from_loss(alpha_int)

    # Close the identity exactly: alpha_tot = t1 + t2 + alpha_int.
    closed_alpha_tot = Quantity(
        t1.value + t2.value + alpha_int_value, alpha_tot.sigma
    )
    return LossBudget(
        alpha_tot=closed_alpha_tot,
        t1=t1,
        t2=t2,
        alpha_int=alpha_int,
        finesse_tot=finesse_from_loss(closed_alpha_tot),
        finesse_int=finesse_int,
        regime_1=regime_1,
        regime_2=regime_2,
        diagnostics=tuple(diagnostics),
    )
